"""Covariance-matrix machinery, Givens decomposition, interpolation paths.

The Fock-space oracle (see oracles.py) is independent of the covariance
code: it builds Jordan-Wigner Majorana operators as dense matrices,
exponentiates rotation generators, and evaluates quadratic-Hamiltonian
expectations directly.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from oracles import conjugated
from oracles import fock_covariance as _fock_covariance
from oracles import fock_hamiltonian as _fock_hamiltonian
from oracles import fock_state as _fock_state
from oracles import generic_three_mode
from oracles import majoranas as _majoranas
from oracles import pure_orthogonal_factor
from oracles import random_so as _random_so

import pinq.ffgauss
from pinq.errors import PathConstructionError, PreconditionError
from pinq.ffgauss import (
    CovMatrix,
    GivensRotation,
    HamMatrix,
    block_diagonal_form,
    canonical_gamma0,
    energy,
    givens_decompose,
    interpolation_path,
    pfaffian_sign,
    reconstruct,
    verify_ff_path,
)
from pinq.ffgauss import _plane_coefficients


def test_fock_conventions_vacuum():
    ms = _majoranas(2)
    vac = np.zeros(4, dtype=complex)
    vac[0] = 1.0
    np.testing.assert_allclose(
        _fock_covariance(vac, ms), canonical_gamma0(2, "even").mat, atol=1e-14
    )


def test_fock_state_reproduces_covariance():
    rng = np.random.default_rng(3)
    for seed in range(4):
        n = 3
        g0 = canonical_gamma0(n, "even" if seed % 2 == 0 else "odd")
        r = np.random.default_rng(seed)
        m = r.standard_normal((2 * n, 2 * n))
        q, _ = np.linalg.qr(m)
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        gamma = CovMatrix(q @ g0.mat @ q.T)
        ms = _majoranas(n)
        state = _fock_state(gamma, ms)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(_fock_covariance(state, ms), gamma.mat, atol=1e-10)


def test_energy_matches_fock_oracle():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        ms = _majoranas(n)
        for _ in range(3):
            a = rng.standard_normal((2 * n, 2 * n))
            h = HamMatrix((a - a.T) / 2.0)
            m = rng.standard_normal((2 * n, 2 * n))
            q, _ = np.linalg.qr(m)
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            gamma = CovMatrix(q @ canonical_gamma0(n, "even").mat @ q.T)
            state = _fock_state(gamma, ms)
            hf = _fock_hamiltonian(h.mat, ms)
            fock_val = np.real(np.vdot(state, hf @ state))
            assert energy(gamma, h) == pytest.approx(fock_val, abs=1e-8)


def test_fock_ground_energy_matches_covariance_minimum():
    # the quadratic ground energy is -2 * sum of block weight magnitudes
    rng = np.random.default_rng(10)
    n = 3
    ms = _majoranas(n)
    a = rng.standard_normal((2 * n, 2 * n))
    h = HamMatrix((a - a.T) / 2.0)
    hb, _ = block_diagonal_form(h)
    fock_min = float(np.linalg.eigvalsh(_fock_hamiltonian(h.mat, ms))[0])
    assert fock_min == pytest.approx(-2.0 * np.sum(np.abs(hb.mat[0::2, 1::2].diagonal())), abs=1e-8)


# ---------------------------------------------------------------------------
# basic types and energies
# ---------------------------------------------------------------------------


def test_canonical_gamma0_displays():
    even = canonical_gamma0(1, "even").mat
    np.testing.assert_array_equal(even, [[0.0, 1.0], [-1.0, 0.0]])
    odd = canonical_gamma0(2, "odd").mat
    np.testing.assert_array_equal(odd[:2, :2], [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(odd[2:, 2:], [[0.0, 1.0], [-1.0, 0.0]])


def test_gamma0_purity_exact():
    for parity in ("even", "odd"):
        g = canonical_gamma0(3, parity)
        assert g.purity_defect() == 0.0


def test_energy_example():
    g = canonical_gamma0(1, "even")
    h = HamMatrix([[0.0, 1.0], [-1.0, 0.0]])
    assert energy(g, h) == pytest.approx(-2.0)


def test_energy_rotation_invariance():
    rng = np.random.default_rng(1)
    n = 3
    a = rng.standard_normal((2 * n, 2 * n))
    h = (a - a.T) / 2.0
    g = canonical_gamma0(n, "even").mat
    m = rng.standard_normal((2 * n, 2 * n))
    o, _ = np.linalg.qr(m)
    assert np.trace((o @ g @ o.T) @ (o @ h @ o.T)) == pytest.approx(np.trace(g @ h), abs=1e-12)


def test_purity_preserved_by_conjugation():
    rng = np.random.default_rng(2)
    g = canonical_gamma0(4, "odd")
    m = rng.standard_normal((8, 8))
    o, _ = np.linalg.qr(m)
    conj = conjugated(g, o)
    assert abs(conj.purity_defect() - g.purity_defect()) <= 1e-12


def test_pfaffian_signs():
    assert pfaffian_sign(canonical_gamma0(3, "even").mat) == 1
    assert pfaffian_sign(canonical_gamma0(3, "odd").mat) == -1
    # conjugation by an improper orthogonal flips parity
    g = canonical_gamma0(2, "even").mat
    f = np.diag([1.0, -1.0, 1.0, 1.0])
    assert pfaffian_sign(f @ g @ f.T) == -1


def test_energy_depends_only_on_diagonal_blocks():
    rng = np.random.default_rng(6)
    n = 3
    hm = np.zeros((2 * n, 2 * n))
    for j, w in enumerate([0.9, 0.5, 0.2]):
        hm[2 * j, 2 * j + 1] = w
        hm[2 * j + 1, 2 * j] = -w
    h = HamMatrix(hm)
    m = rng.standard_normal((2 * n, 2 * n))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    g = q @ canonical_gamma0(n, "even").mat @ q.T
    stripped = np.zeros_like(g)
    for j in range(n):
        stripped[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = g[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
    assert np.trace(g @ hm) == pytest.approx(np.trace(stripped @ hm), abs=1e-12)


# ---------------------------------------------------------------------------
# Givens decomposition
# ---------------------------------------------------------------------------


def test_decompose_identity_is_empty():
    assert givens_decompose(np.eye(6)) == []


def test_decompose_single_rotation():
    rot = GivensRotation(0, 1, 0.3)
    out = givens_decompose(rot.matrix(6))
    assert len(out) == 1
    assert out[0].p == 0 and out[0].q == 1
    assert out[0].theta == pytest.approx(0.3, abs=1e-14)


def test_decompose_random_so():
    for n in (1, 2, 3, 4, 5, 6):
        dim = 2 * n
        for seed in range(5):
            o = _random_so(dim, 10 * n + seed)
            rots = givens_decompose(o)
            assert len(rots) <= n * (2 * n - 1)
            assert np.linalg.norm(reconstruct(rots, dim) - o) <= 1e-10


def test_decompose_rejects_improper():
    o = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(PreconditionError, match="determinant"):
        givens_decompose(o)
    with pytest.raises(PreconditionError, match="orthogonal"):
        givens_decompose(np.ones((3, 3)))


def test_decompose_diag_minus_pairs():
    o = np.diag([-1.0, -1.0, 1.0, 1.0])
    rots = givens_decompose(o)
    assert np.linalg.norm(reconstruct(rots, 4) - o) <= 1e-12


def test_near_identity_angles_small():
    rng = np.random.default_rng(12)
    for eps in (0.1, 0.03, 0.01):
        dim = 8
        a = rng.standard_normal((dim, dim))
        k = (a - a.T) / 2.0
        k *= eps / (2 * np.linalg.norm(k, 2))
        o = scipy.linalg.expm(k)
        dist = np.linalg.norm(o - np.eye(dim), 2)
        assert dist <= eps
        rots = givens_decompose(o)
        assert max(abs(r.theta) for r in rots) <= 10.0 * dist


def test_pure_orthogonal_factor_round_trip():
    for parity in ("even", "odd"):
        for seed in range(4):
            n = 3
            g0 = canonical_gamma0(n, parity)
            q = _random_so(2 * n, seed + (0 if parity == "even" else 100))
            gamma = CovMatrix(q @ g0.mat @ q.T)
            o = pure_orthogonal_factor(gamma)
            np.testing.assert_allclose(o @ g0.mat @ o.T, gamma.mat, atol=1e-9)
            assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-9)


def test_block_diagonal_form():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((6, 6))
    h = HamMatrix((a - a.T) / 2.0)
    hb, o = block_diagonal_form(h)
    assert hb.is_block_diagonal
    np.testing.assert_allclose(o @ hb.mat @ o.T, h.mat, atol=1e-10)
    assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# interpolation paths
# ---------------------------------------------------------------------------


def _block_h(weights):
    n = len(weights)
    hm = np.zeros((2 * n, 2 * n))
    for j, w in enumerate(weights):
        hm[2 * j, 2 * j + 1] = w
        hm[2 * j + 1, 2 * j] = -w
    return HamMatrix(hm)


def test_trivial_path():
    g = canonical_gamma0(2, "even")
    h = _block_h([1.0, 1.0])
    path = interpolation_path(g, g, h, 4)
    assert path.rotations == ()
    assert all(e == path.grid_energies[0] for e in path.grid_energies)
    # equal endpoints, and endpoints within 1e-12 of each other, stay put:
    # no rotation, every grid energy that of the start, no deviation (the
    # general route would take hundreds of tiny or quarter turns there)
    for n in range(1, 7):
        h = _block_h(list(np.linspace(1.0, 0.3, n)))
        for parity in ("even", "odd"):
            canonical = canonical_gamma0(n, parity)
            rotated = conjugated(canonical, _random_so(2 * n, 31 * n + (parity == "odd")))
            for g in (canonical, rotated):
                nudged = conjugated(g, GivensRotation(0, 2 * n - 1, 1e-13).matrix(2 * n))
                # a single mode has no other pure state of its parity
                gap = np.linalg.norm(nudged.mat - g.mat)
                assert gap <= 1e-12 and (gap > 0.0 or n == 1)
                for end in (g, nudged):
                    for steps in (1, 3):
                        path = interpolation_path(g, end, h, steps)
                        assert path.rotations == ()
                        assert path.macro_counts == (0,) * (steps + 1)
                        assert path.grid_energies == (energy(g, h),) * (steps + 1)
                        assert (path.ramp_deviation, path.alignment_deviation, path.max_angle) == (0.0, 0.0, 0.0)
                        assert verify_ff_path(path, h, eta1=energy(g, h) + 1e-9).ok


def test_single_mode_constant_energy():
    # one mode: same parity forces identical states; the path is constant
    g = canonical_gamma0(1, "even")
    h = _block_h([0.7])
    path = interpolation_path(g, g, h, 3)
    assert path.rotations == ()
    assert energy(g, h) == pytest.approx(path.grid_energies[0])


def test_parity_mismatch_rejected():
    ge = canonical_gamma0(2, "even")
    go = canonical_gamma0(2, "odd")
    with pytest.raises(PreconditionError, match="parity"):
        interpolation_path(ge, go, _block_h([1.0, 1.0]), 4)


def test_impure_input_rejected():
    g = CovMatrix(0.5 * canonical_gamma0(2, "even").mat)
    with pytest.raises(PreconditionError, match="pure"):
        interpolation_path(g, canonical_gamma0(2, "even"), _block_h([1.0, 1.0]), 4)


def test_non_block_h_rejected():
    g = canonical_gamma0(2, "even")
    hm = np.zeros((4, 4))
    hm[0, 3] = 1.0
    hm[3, 0] = -1.0
    with pytest.raises(PreconditionError, match="block"):
        interpolation_path(g, CovMatrix(-g.mat), HamMatrix(hm), 4)


def test_bundled_two_mode_example():
    g_start = canonical_gamma0(2, "even")
    g_end = CovMatrix(-g_start.mat)
    h = _block_h([1.0, 1.0])
    e0, e1 = energy(g_start, h), energy(g_end, h)
    assert (e0, e1) == (-4.0, 4.0)
    devs = []
    for n_steps in (8, 32, 128):
        path = interpolation_path(g_start, g_end, h, n_steps)
        grid = np.array(path.grid_energies)
        ramp = np.linspace(e0, e1, n_steps + 1)
        assert np.max(np.abs(grid - ramp)) <= max(0.05, 4.0 / n_steps)
        devs.append(path.ramp_deviation)
        verdict = verify_ff_path(path, h, eta1=max(e0, e1) + path.ramp_deviation + 1e-9)
        assert verdict.ok, verdict.failures
        assert verdict.max_purity_defect <= 1e-8
        assert all(len(r.modes) <= 2 for r in path.rotations)
    assert devs[2] <= devs[1] <= devs[0]
    assert devs[2] <= 0.05


def test_path_energy_band():
    g_start = canonical_gamma0(2, "even")
    g_end = CovMatrix(-g_start.mat)
    h = _block_h([1.0, 0.6])
    path = interpolation_path(g_start, g_end, h, 16)
    lo = min(energy(g_start, h), energy(g_end, h)) - path.ramp_deviation - 1e-12
    hi = max(energy(g_start, h), energy(g_end, h)) + path.ramp_deviation + 1e-12
    gamma = g_start.mat.copy()
    for rot in path.rotations:
        gamma = rot.matrix(4) @ gamma @ rot.matrix(4).T
        assert lo <= np.trace(gamma @ h.mat) <= hi


def test_generic_three_mode_path():
    # default alignment_tol; no re-walked state rises above the higher endpoint
    start, end, hm = generic_three_mode()
    gs, ge, h = CovMatrix(start), CovMatrix(end), HamMatrix(hm)
    path = interpolation_path(gs, ge, h, 8)
    grid = np.array(path.grid_energies)
    ramp = np.linspace(energy(gs, h), energy(ge, h), 9)
    np.testing.assert_allclose(grid, ramp, atol=1e-9)
    eta1 = max(energy(gs, h), energy(ge, h)) + 1e-9
    assert max(_dense_energies(path, h)) <= eta1
    verdict = verify_ff_path(path, h, eta1=eta1)
    assert verdict.ok, verdict.failures
    assert verdict.endpoint_error <= 1e-8


# ---------------------------------------------------------------------------
# closed-form pair moves, checked against a dense re-walk
# ---------------------------------------------------------------------------


def _self_dual_parts(m):
    """(u, v) of a 4x4 antisymmetric block, computed here from the definition."""
    u = np.array([m[0, 1] + m[2, 3], m[0, 2] - m[1, 3], m[0, 3] + m[1, 2]]) / 2.0
    v = np.array([m[0, 1] - m[2, 3], m[0, 2] + m[1, 3], m[0, 3] - m[1, 2]]) / 2.0
    return u, v


def _turn(before, after, i, j):
    return math.remainder(
        math.atan2(after[j], after[i]) - math.atan2(before[j], before[i]), 2 * math.pi
    )


def test_so4_tilt_and_frame_turns():
    # planes (a, d), (b, c) by (x, y) turn u by x + y and v by y - x about
    # axis 3; planes (a, b), (c, d) do the same about axis 1
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    m = a - a.T
    u0, v0 = _self_dual_parts(m)
    x, y = 0.37, -0.21
    for planes, (i, j), fixed in ((((0, 3), (1, 2)), (0, 1), 2), (((0, 1), (2, 3)), (1, 2), 0)):
        r = GivensRotation(*planes[1], y).matrix(4) @ GivensRotation(*planes[0], x).matrix(4)
        u, v = _self_dual_parts(r @ m @ r.T)
        assert _turn(u0, u, i, j) == pytest.approx(x + y, abs=1e-12)
        assert _turn(v0, v, i, j) == pytest.approx(y - x, abs=1e-12)
        assert (u[fixed], v[fixed]) == pytest.approx((u0[fixed], v0[fixed]), abs=1e-12)


def _dense_rewalk(path):
    """Block values at every grid point and the final state, re-walked with
    dense rotation matrices."""
    dim = path.start.mat.shape[0]
    gamma = path.start.mat.copy()
    grid_blocks = [gamma[0::2, 1::2].diagonal().copy()]
    for sl in path.macro_slices():
        for rot in path.rotations[sl]:
            r = rot.matrix(dim)
            gamma = r @ gamma @ r.T
        grid_blocks.append(gamma[0::2, 1::2].diagonal().copy())
    return np.array(grid_blocks), gamma


def _dense_energies(path, h):
    """tr(gamma h) at the start and after every rotation, re-walked with
    dense rotation matrices."""
    dim = path.start.mat.shape[0]
    gamma = path.start.mat.copy()
    out = [float(np.trace(gamma @ h.mat))]
    for rot in path.rotations:
        r = rot.matrix(dim)
        gamma = r @ gamma @ r.T
        out.append(float(np.trace(gamma @ h.mat)))
    return np.array(out)


def _check_against_oracle(path, h, n_steps):
    blocks, final = _dense_rewalk(path)
    c0, c1 = path.start.block_values(), path.end.block_values()
    for k in range(n_steps + 1):
        c_tgt = (1.0 - k / n_steps) * c0 + (k / n_steps) * c1
        np.testing.assert_allclose(blocks[k], c_tgt, rtol=0, atol=1e-11)
    np.testing.assert_allclose(blocks[-1], c1, rtol=0, atol=1e-11)  # after alignment
    assert np.linalg.norm(final - path.end.mat) <= 1e-8
    verdict = verify_ff_path(path, h, eta1=max(path.grid_energies) + path.ramp_deviation + 1e-9)
    assert verdict.ok, verdict.failures
    assert all(len(r.modes) <= 2 for r in path.rotations)


def test_no_least_squares_solver_is_loaded():
    # every step is closed form: importing the package and its CLI loads no
    # scipy.optimize, so no path can be seeded or solved by least squares
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    script = "import sys, pinq, pinq.cli\nprint('scipy.optimize' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "c_start, c_end, n_steps",
    [
        ((-1.0, 1.0), (1.0, -1.0), 3),
        ((1.0, -1.0), (-1.0, 1.0), 4),
        ((1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), 8),
        # the two ff-path patterns of the traverse benchmark
        ((-1.0, 1.0), (1.0, -1.0), 4),
        ((1.0, 1.0), (-1.0, -1.0), 4),
    ],
)
def test_block_diagonal_paths_are_closed_form(monkeypatch, c_start, c_end, n_steps):
    # each rotation is applied once, to the state it turns: no replay
    conjugate, calls = pinq.ffgauss._conjugate, []

    def counted(mat, rot):
        calls.append(rot)
        conjugate(mat, rot)

    monkeypatch.setattr(pinq.ffgauss, "_conjugate", counted)
    weights = np.random.default_rng(len(c_start) + n_steps).uniform(0.5, 1.5, len(c_start))
    h = _block_h(weights)
    gs, ge = CovMatrix(_block_h(c_start).mat), CovMatrix(_block_h(c_end).mat)
    path = interpolation_path(gs, ge, h, n_steps)
    assert calls == list(path.rotations)
    ramp = np.linspace(energy(gs, h), energy(ge, h), n_steps + 1)
    np.testing.assert_allclose(path.grid_energies, ramp, rtol=0, atol=1e-9)
    _check_against_oracle(path, h, n_steps)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("seed", range(6))
def test_generic_two_mode_path_aligns_without_energy_change(parity, seed):
    # random pure endpoints, default alignment_tol: the frame turn closes
    # the path while the block values, hence the energy, stay put
    g0 = canonical_gamma0(2, parity).mat
    q1, q2 = _random_so(4, 200 + seed), _random_so(4, 300 + seed)
    gs, ge = CovMatrix(q1 @ g0 @ q1.T), CovMatrix(q2 @ g0 @ q2.T)
    h = _block_h(np.random.default_rng(seed).uniform(0.5, 1.5, 2))
    path = interpolation_path(gs, ge, h, 6)
    assert path.alignment_deviation <= 1e-12
    assert np.linalg.norm(_dense_rewalk(path)[1] - ge.mat) <= 1e-12
    _check_against_oracle(path, h, 6)


def test_verify_flags_overlocal_rotation(monkeypatch):
    g = canonical_gamma0(2, "even")
    h = _block_h([1.0, 1.0])
    path = interpolation_path(g, CovMatrix(-g.mat), h, 4)

    class ThreeModeRotation(GivensRotation):
        @property
        def modes(self):
            return (0, 1, 2)

    doctored = list(path.rotations)
    doctored[0] = ThreeModeRotation(doctored[0].p, doctored[0].q, doctored[0].theta)
    path.rotations = tuple(doctored)
    verdict = verify_ff_path(path, h, eta1=10.0)
    assert not verdict.ok
    assert any("modes" in f for f in verdict.failures)


def test_verify_flags_wrong_endpoint():
    g = canonical_gamma0(2, "even")
    h = _block_h([1.0, 1.0])
    path = interpolation_path(g, CovMatrix(-g.mat), h, 4)
    path.rotations = path.rotations[1:]  # break the endpoint
    verdict = verify_ff_path(path, h, eta1=10.0)
    assert not verdict.ok
    assert any("endpoint" in f for f in verdict.failures)


def test_verify_flags_impure_state():
    g = canonical_gamma0(2, "even")
    h = _block_h([1.0, 1.0])
    path = interpolation_path(g, CovMatrix(-g.mat), h, 4)
    path.start = CovMatrix(1.1 * g.mat)  # gamma^T gamma = 1.21 I
    verdict = verify_ff_path(path, h, eta1=10.0)
    assert not verdict.ok
    assert any("purity" in f for f in verdict.failures)


def test_verify_flags_grid_energy_above_eta1():
    # the path climbs from -4 to 4
    g = canonical_gamma0(2, "even")
    h = _block_h([1.0, 1.0])
    path = interpolation_path(g, CovMatrix(-g.mat), h, 4)
    verdict = verify_ff_path(path, h, eta1=3.0)
    assert not verdict.ok
    assert verdict.max_grid_energy == pytest.approx(4.0)
    assert [f for f in verdict.failures if "grid energy" in f] == ["grid energy 4.000000 exceeds eta1=3.0"]


# ---------------------------------------------------------------------------
# closed-form energy moves and the descend-and-meet alignment
# ---------------------------------------------------------------------------


def test_plane_coefficients_match_dense_energy():
    # E(G gamma G^T) = E + alpha (cos t - 1) + beta sin t for every plane,
    # under an h that is not block diagonal
    rng = np.random.default_rng(21)
    n = 3
    a = rng.standard_normal((2 * n, 2 * n))
    h = a - a.T
    q = _random_so(2 * n, 22)
    gamma = q @ canonical_gamma0(n, "odd").mat @ q.T
    e0 = np.trace(gamma @ h)
    for p in range(2 * n):
        for r in range(p + 1, 2 * n):
            alpha, beta = _plane_coefficients(gamma, h, p, r)
            for t in (0.4, -1.3, 2.9):
                g = GivensRotation(p, r, t).matrix(2 * n)
                dense = np.trace(g @ gamma @ g.T @ h)
                assert dense == pytest.approx(e0 + alpha * (math.cos(t) - 1) + beta * math.sin(t), abs=1e-12)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_generic_paths_verify(n, parity, seed):
    g0 = canonical_gamma0(n, parity).mat
    q1, q2 = _random_so(2 * n, 400 + seed), _random_so(2 * n, 500 + seed)
    gs, ge = CovMatrix(q1 @ g0 @ q1.T), CovMatrix(q2 @ g0 @ q2.T)
    h = _block_h(np.random.default_rng(seed).uniform(0.3, 1.5, n))
    n_steps = 8
    path = interpolation_path(gs, ge, h, n_steps)
    energies = _dense_energies(path, h)
    e_start, e_end = energy(gs, h), energy(ge, h)
    grid_at = np.cumsum((0,) + path.macro_counts[:-1])
    np.testing.assert_allclose(energies[grid_at], np.linspace(e_start, e_end, n_steps + 1), rtol=0, atol=1e-9)
    assert np.max(energies[grid_at[-1]:]) - e_end <= 1e-6  # alignment rise, default alignment_tol
    assert np.max(energies) <= max(e_start, e_end) + 1e-9
    assert np.linalg.norm(_dense_rewalk(path)[1] - ge.mat) <= 1e-8
    assert all(len(r.modes) <= 2 for r in path.rotations)
    verdict = verify_ff_path(path, h, eta1=max(e_start, e_end) + 1e-9)
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize("seed", range(3))
def test_degenerate_ground_space_paths_verify(seed):
    # odd sector, equal weights: any one mode may carry the flip, so the
    # descents of the two ends can settle on different ground states; the
    # join carries one onto the other
    g0 = canonical_gamma0(3, "odd").mat
    q1, q2 = _random_so(6, 600 + seed), _random_so(6, 700 + seed)
    gs, ge = CovMatrix(q1 @ g0 @ q1.T), CovMatrix(q2 @ g0 @ q2.T)
    h = _block_h([1.0, 1.0, 1.0])
    path = interpolation_path(gs, ge, h, 8)
    eta1 = max(energy(gs, h), energy(ge, h)) + path.ramp_deviation + 1e-9
    verdict = verify_ff_path(path, h, eta1=eta1)
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("eps", [1e-11, 1e-9])
def test_near_equal_endpoints_take_near_zero_turns(parity, eps):
    # endpoints just outside the equal-endpoint shortcut: the path turns by
    # angles of the order of their distance, not by quarter turns
    h = _block_h([1.0, 0.65, 0.3])
    start = conjugated(canonical_gamma0(3, parity), _random_so(6, 93 + (parity == "odd")))
    end = conjugated(start, GivensRotation(0, 5, eps).matrix(6))
    path = interpolation_path(start, end, h, 3)
    assert path.max_angle <= 10 * eps
    verdict = verify_ff_path(path, h, eta1=max(energy(start, h), energy(end, h)) + path.ramp_deviation + 1e-9)
    assert verdict.ok, verdict.failures


@pytest.mark.parametrize(
    "c_start, c_end", [((1.0, 1.0, 1.0), (-1.0, -1.0, 1.0)), ((1.0, 1.0, 1.0, 1.0), (-1.0, -1.0, -1.0, -1.0))]
)
@pytest.mark.parametrize("n_steps", [1, 4, 8])
def test_block_diagonal_alignment_adds_no_rotation(c_start, c_end, n_steps):
    # the pair moves land on the end state, so the join has nothing to turn
    h = _block_h([1.0, 0.7, 0.4, 0.2][: len(c_start)])
    gs, ge = CovMatrix(_block_h(c_start).mat), CovMatrix(_block_h(c_end).mat)
    path = interpolation_path(gs, ge, h, n_steps)
    assert path.macro_counts[-1] == 0
    _check_against_oracle(path, h, n_steps)


def test_failing_join_is_a_rejected_candidate(monkeypatch):
    # M = I - end gamma is singular between these block states: the join
    # turns nothing and leaves the end state 4 away
    h = _block_h([1.0, 0.7, 0.4])
    walk = pinq.ffgauss._Walk(_block_h([-1.0, 1.0, 1.0]).mat, h.mat)
    end = _block_h([1.0, -1.0, 1.0]).mat
    walk.join(end)
    assert walk.rotations == []
    assert np.linalg.norm(walk.gamma - end) == pytest.approx(4.0)

    # a polar part without Givens factors fails every join; where the two
    # descents end apart (a degenerate ground space), the path's own check
    # refuses each candidate, and no PreconditionError escapes
    def improper(o, tol=1e-8):
        raise PreconditionError("input has determinant -1 (not special orthogonal)")

    monkeypatch.setattr(pinq.ffgauss, "givens_decompose", improper)
    g0 = canonical_gamma0(3, "odd").mat
    q1, q2 = _random_so(6, 600), _random_so(6, 700)
    with pytest.raises(PathConstructionError, match="misses the end state"):
        interpolation_path(CovMatrix(q1 @ g0 @ q1.T), CovMatrix(q2 @ g0 @ q2.T), _block_h([1.0, 1.0, 1.0]), 8)


def _zero_h_endpoints():
    """(start, end, h): two generic pure 3-mode states under h = 0."""
    g0 = canonical_gamma0(3)
    return conjugated(g0, _random_so(6, 0)), conjugated(g0, _random_so(6, 100)), HamMatrix(np.zeros((6, 6)))


def test_zero_hamiltonian_path_verifies():
    # every state is a ground state of h = 0 and no plane moves the energy,
    # so each energy move is done where it starts, on the ramp energy 0
    start, end, h = _zero_h_endpoints()
    path = interpolation_path(start, end, h, 8)
    assert path.grid_energies == (0.0,) * 9
    verdict = verify_ff_path(path, h, eta1=1e-9)
    assert verdict.ok, verdict.failures


def test_energy_move_with_no_moving_plane_refuses_a_gap():
    start, _, h = _zero_h_endpoints()
    walk = pinq.ffgauss._Walk(start.mat, h.mat)
    with pytest.raises(PathConstructionError, match="no plane rotations reach the ramp energy 1"):
        walk.energy_move(1.0)
    assert walk.rotations == []


def test_energy_move_below_the_ground_energy_stops_at_the_round_cap():
    # the ground energy is -2 (1 + 0.7 + 0.4) = -4.2: the rounds descend to
    # it, then turn nothing until the cap
    start, _, _ = generic_three_mode()
    h = _block_h([1.0, 0.7, 0.4])
    walk = pinq.ffgauss._Walk(start, h.mat)
    with pytest.raises(PathConstructionError, match="no plane rotations reach the ramp energy -5"):
        walk.energy_move(-5.0)
    assert walk.e == pytest.approx(-4.2)


def test_descent_stops_at_the_sweep_cap(monkeypatch):
    monkeypatch.setattr(pinq.ffgauss, "_SWEEP_CAP", 1)
    start, _, h = generic_three_mode()
    walk = pinq.ffgauss._Walk(start, h)
    with pytest.raises(PathConstructionError, match="did not settle within 1 sweeps"):
        walk.descend()
    assert walk.rotations


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_rejected(bad):
    m = canonical_gamma0(2, "even").mat.copy()
    m[0, 1] = bad
    for cls in (CovMatrix, HamMatrix):
        with pytest.raises(PreconditionError, match="non-finite"):
            cls(m)



def test_end_state_descent_computes_no_energies(monkeypatch):
    # the walk records one energy per rotation it makes; the end state's
    # descent is replayed by its rotations alone, so it computes none
    start, end, h = generic_three_mode()
    walk = pinq.ffgauss._Walk(start, h)
    calls = []
    original = pinq.ffgauss.energy

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pinq.ffgauss, "energy", counted)
    walk.descend_and_meet(CovMatrix(end))
    assert walk.rotations
    assert len(calls) == len(walk.rotations) == len(walk.energies)
