"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

from oracles import fock_hamiltonian, fock_state, majoranas, pauli_entry

from pinq.ffgauss import (
    CovMatrix,
    HamMatrix,
    canonical_gamma0,
    energy,
    givens_decompose,
    interpolation_path,
    reconstruct,
    verify_ff_path,
)
from pinq.gscon import apply_gate, build_stoquastic_gscon, witness_traversal
from pinq.pauli import HamiltonianSum, is_commuting, is_permutation, is_stoquastic
from pinq.pinning import (
    PinSpec,
    PromiseBounds,
    commuting_pin,
    effective_sum,
    permutation_pin,
    pin_penalty_lift,
    stoquastic_pin,
)
from pinq.spectral import min_eig, pinned_min_energy
from pinq.zeno import ZenoProtocol, zeno_evolve, zeno_scaling_sweep


class _Criterion:
    """Times a criterion body and prints one PASS/FAIL line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None and elapsed > self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s > {self.budget_s}s"
            )
        return False


def _random_sum(rng, n, kinds, n_terms):
    terms = []
    for _ in range(n_terms):
        kind = kinds[rng.integers(0, len(kinds))]
        qs = rng.choice(n, size=len(kind), replace=False)
        label = ["I"] * n
        for ch, q in zip(kind, qs):
            label[int(q)] = ch
        terms.append((float(rng.uniform(-1, 1)), "".join(label)))
    return HamiltonianSum(n, terms)


def test_criterion_1_stoquastic_pin():
    rng = np.random.default_rng(101)
    with _Criterion(1, "stoquastic pin: termwise stoquastic, energies exact", 10):
        for i in range(200):
            n = 2 + i % 4
            h = _random_sum(rng, n, ["Z", "ZZ", "X", "XX", "XZ"], int(rng.integers(1, 6)))
            res = stoquastic_pin(h)
            assert is_stoquastic(res.hamiltonian, termwise=True).verdict
            target = min_eig(h, method="dense").value
            got = pinned_min_energy(res.hamiltonian, res.pin, method="dense").value
            assert abs(got - target) <= 1e-9


def test_criterion_2_commuting_pin():
    rng = np.random.default_rng(102)
    with _Criterion(2, "commuting pin: exact commutation, halved energies and bounds", 10):
        for i in range(200):
            n = 2 + i % 4
            h = _random_sum(rng, n, ["Z", "ZZ", "X", "XX"], int(rng.integers(1, 6)))
            bounds = PromiseBounds(-0.3, 0.7)
            res = commuting_pin(h, bounds)
            assert is_commuting(res.hamiltonian).verdict
            assert (res.bounds.a, res.bounds.b) == (-0.15, 0.35)
            target = 0.5 * min_eig(h, method="dense").value
            got = pinned_min_energy(res.hamiltonian, res.pin, method="dense").value
            assert abs(got - target) <= 1e-9


def test_criterion_3_penalty_lift():
    rng = np.random.default_rng(103)
    with _Criterion(3, "penalty lift: YES kept below a, NO floored at (a+b)/2", 10):
        for i in range(100):
            n = int(rng.integers(2, 5))  # total register size <= 4
            h = _random_sum(rng, n - 1, ["Z", "ZZ", "X", "XX"] if n > 2 else ["Z", "X"],
                            int(rng.integers(1, 5)))
            emb_terms = [(t.coeff, t.string.label() + "I") for t in h.terms]
            if i % 3 == 2:
                # couple the sectors and make the unpinned sector attractive
                emb_terms.append((-float(rng.uniform(0, 1)), "I" * (n - 1) + "Z"))
                emb_terms.append((float(rng.uniform(-0.5, 0.5)), "I" * (n - 1) + "X"))
            emb = HamiltonianSum(n, emb_terms)
            pinned_min = pinned_min_energy(
                emb, PinSpec.of((n - 1, "0")), method="dense"
            ).value
            if i % 2 == 0:
                a = pinned_min + 0.05
                bounds = PromiseBounds(a, a + 0.5)
                res = pin_penalty_lift(emb, n - 1, bounds)
                assert min_eig(res.hamiltonian, method="dense").value <= a + 1e-12
            else:
                b = pinned_min - 0.01
                bounds = PromiseBounds(b - 0.5, b)
                res = pin_penalty_lift(emb, n - 1, bounds)
                floor = (bounds.a + bounds.b) / 2.0
                assert min_eig(res.hamiltonian, method="dense").value >= floor - 1e-9
                # Delta follows the closed formula
                d = res.norm_bound
                expected = (bounds.b + bounds.a) / 2.0 + d * (2 * d / (bounds.b - bounds.a) + 1)
                assert res.delta == pytest.approx(expected, rel=1e-12)


def test_criterion_4_permutation_pin():
    rng = np.random.default_rng(104)
    q_bits = 20
    with _Criterion(4, "permutation pin: 0/1 blocks, 2^-20 coefficient accuracy", 30):
        for i in range(12):
            n = 1 + i % 3
            kinds = ["Z", "X"] if n == 1 else ["Z", "ZZ", "X", "XX"]
            h = _random_sum(rng, n, kinds, int(rng.integers(1, 5)))
            m_count = len([t for t in h.terms if t.coeff != 0.0])
            res = permutation_pin(h, q_bits=q_bits)
            assert is_permutation(res.hamiltonian, termwise=True).verdict
            assert res.hamiltonian.locality <= 5
            assert len(res.hamiltonian.group_indices()) <= 2 * m_count * (q_bits + 1)
            eff = np.asarray(effective_sum(res.hamiltonian, res.pin).to_matrix(dense=True))
            target = np.asarray(h.to_matrix(dense=True)) / res.report.scale
            assert np.linalg.norm(eff - target, 2) <= m_count * 2.0 ** (-q_bits)
            assert m_count * 2.0 ** (-q_bits) < m_count * 1e-6


def test_criterion_5_zeno_stoquastic():
    with _Criterion(5, "Zeno stoquastic: exact sector evolution, survival one", 5):
        a = HamiltonianSum(1, [(1.0, "Z")])
        b = HamiltonianSum(1, [(-1.0, "X")])
        psi0 = np.array([1.0, 0.0], dtype=complex)
        for n_steps in (1, 10, 100):
            protocol = ZenoProtocol("stoquastic", a, b, 1.0, n_steps)
            res = zeno_evolve(protocol, psi0)
            assert res.error_norm <= 1e-9
            assert abs(res.survival_probability - 1.0) <= 1e-9


def test_criterion_6_zeno_commuting():
    with _Criterion(6, "Zeno commuting: error and survival-deficit slopes -1", 60):
        a = HamiltonianSum(1, [(1.0, "Z")])
        b = HamiltonianSum(1, [(1.0, "X")])
        protocol = ZenoProtocol("commuting", a, b, 1.0, 50)
        sweep = zeno_scaling_sweep(
            protocol, np.array([1.0, 0.0]), [50, 100, 200, 400, 800, 1600]
        )
        assert abs(sweep.error_slope - (-1.0)) <= 0.2
        assert abs(sweep.survival_deficit_slope - (-1.0)) <= 0.2


def test_criterion_7_gscon_construction():
    rng = np.random.default_rng(107)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)

    def xbasis(bits):
        v = np.array([1.0])
        for bch in bits:
            v = np.kron(v, plus if bch == "+" else minus)
        return v

    with _Criterion(7, "traversal construction: stoquastic terms, exact identities", 30):
        mids = ["---", "+++", "+--", "-+-", "--+", "++-", "+-+", "-++"]
        for n in (2, 3, 4):
            h = _random_sum(rng, n, ["ZZ", "ZX", "XX", "Z", "X"], 4)
            build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
            assert is_stoquastic(build.hamiltonian, termwise=True).verdict
            hm = build.hamiltonian.to_matrix()
            hsys = np.asarray(h.to_matrix(dense=True))
            third = xbasis("---")
            n_states = 34 if n < 4 else 32  # 100 states across the three sizes
            for _ in range(n_states):
                psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
                psi /= np.linalg.norm(psi)
                e_sys = float(np.real(np.vdot(psi, hsys @ psi)))
                for mid in mids:
                    st = np.kron(np.kron(psi, xbasis(mid)), third)
                    e = float(np.real(np.vdot(st, hm @ st)))
                    expected = 0.0 if mid in ("---", "+++") else e_sys
                    assert abs(e - expected) <= 1e-10

        # witness traversal on H = -ZZ: flips stay at alpha, endpoints at zero
        alpha = 0.0
        h = HamiltonianSum(2, [(-1.0, "ZZ")])
        build = build_stoquastic_gscon(h, alpha=alpha, beta=0.5)
        steps = witness_traversal(build, [])
        state = build.instance.start_state()
        hm = build.hamiltonian.to_matrix()
        max_e = -np.inf
        for step in steps:
            state = apply_gate(state, step, build.instance.n)
            max_e = max(max_e, float(np.real(np.vdot(state, hm @ state))))
        assert max_e <= alpha + 1e-9
        assert float(np.linalg.norm(state - build.instance.target_state())) <= 1e-9


def test_criterion_8_free_fermion_machinery():
    rng = np.random.default_rng(108)
    with _Criterion(8, "free fermions: Givens reconstruction, ramped path", 30):
        count = 0
        while count < 100:
            n = 1 + count % 6
            dim = 2 * n
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            rots = givens_decompose(q)
            assert len(rots) <= n * (2 * n - 1)
            assert np.linalg.norm(reconstruct(rots, dim) - q) <= 1e-10
            count += 1

        g_start = canonical_gamma0(2, "even")
        g_end = CovMatrix(-g_start.mat)
        hmat = np.zeros((4, 4))
        for j in range(2):
            hmat[2 * j, 2 * j + 1] = 1.0
            hmat[2 * j + 1, 2 * j] = -1.0
        h = HamMatrix(hmat)
        e0, e1 = energy(g_start, h), energy(g_end, h)
        ramp_c = abs(e1 - e0)  # measured slope constant of the micro deviation
        devs = []
        for n_steps in (8, 32, 128):
            path = interpolation_path(g_start, g_end, h, n_steps)
            grid = np.array(path.grid_energies)
            ramp = np.linspace(e0, e1, n_steps + 1)
            assert np.max(np.abs(grid - ramp)) <= max(0.05, ramp_c / n_steps)
            devs.append(path.ramp_deviation)
            verdict = verify_ff_path(path, h, eta1=max(e0, e1) + path.ramp_deviation + 1e-9)
            assert verdict.ok, verdict.failures
            assert verdict.max_purity_defect <= 1e-8
            assert all(len(r.modes) <= 2 for r in path.rotations)
        assert devs[2] <= devs[1] <= devs[0]
        assert devs[2] <= 0.05


def test_criterion_9_oracle_coherence():
    rng = np.random.default_rng(109)
    with _Criterion(9, "oracle coherence: assembly, eigensolvers, fermion energies", 60):
        # matrix assembly vs the entrywise Pauli-action oracle, exact
        for _ in range(5):
            terms = [
                (float(rng.uniform(-2, 2)), "".join(rng.choice(list("IXYZ")) for _ in range(3)))
                for _ in range(4)
            ]
            h = HamiltonianSum(3, terms)
            mat = np.asarray(h.to_matrix(dense=True), dtype=complex)
            for row in range(8):
                for col in range(8):
                    assert mat[row, col] == pauli_entry(3, terms, row, col)

        # iterative vs dense minimum at 8 qubits
        h8 = _random_sum(rng, 8, ["Z", "ZZ", "X", "XX", "XZ"], 10)
        dense = min_eig(h8, method="dense").value
        iterative = min_eig(h8, method="iterative", seed=0).value
        assert abs(dense - iterative) <= 1e-8

        # covariance energies vs the Fock-space oracle at up to 4 modes
        for n in (2, 3, 4):
            ms = majoranas(n)
            for _ in range(3):
                a = rng.standard_normal((2 * n, 2 * n))
                h = HamMatrix((a - a.T) / 2.0)
                q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
                if np.linalg.det(q) < 0:
                    q[:, 0] *= -1
                gamma = CovMatrix(q @ canonical_gamma0(n, "even").mat @ q.T)
                state = fock_state(gamma, ms)
                fock_val = float(np.real(np.vdot(state, fock_hamiltonian(h.mat, ms) @ state)))
                assert abs(energy(gamma, h) - fock_val) <= 1e-8
