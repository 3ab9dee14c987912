"""The four pinning reductions and the effective-Hamiltonian projector."""

import numpy as np
import pytest

from pinq.errors import PreconditionError, UnsupportedTermError
from pinq.pauli import HamiltonianSum, is_commuting, is_permutation, is_stoquastic
from pinq.pinning import (
    PinSpec,
    PinState,
    PromiseBounds,
    commuting_pin,
    effective_hamiltonian,
    effective_sum,
    penalty_delta,
    permutation_pin,
    pin_penalty_lift,
    rotate_pin_to_zero,
    stoquastic_pin,
)
from pinq.pinning import _binary_bits
from pinq.spectral import min_eig, pinned_min_energy


def _dense(h):
    return np.asarray(h.to_matrix(dense=True))


def _pin_matrix(h, pin):
    """Oracle: (I (x) <phi|) H (I (x) |phi>) by explicit matrix contraction."""
    n = h.n
    pinned = dict(pin.entries)
    keep = [q for q in range(n) if q not in pinned]
    full = np.asarray(h.to_matrix(dense=True), dtype=complex)
    # isometry |psi> -> |psi, phi> with interleaved qubit order
    iso = np.array([1.0], dtype=complex)
    for q in range(n):
        if q in pinned:
            vq = pinned[q].vector().astype(complex).reshape(2, 1)
        else:
            vq = np.eye(2, dtype=complex)
        iso = np.kron(iso, vq) if iso.ndim == 2 else np.kron(iso.reshape(1, 1), vq)
    iso = iso.reshape(1 << n, 1 << len(keep))
    return iso.conj().T @ full @ iso


# ---------------------------------------------------------------------------
# effective Hamiltonian
# ---------------------------------------------------------------------------


def test_effective_zx_pin_plus():
    h = HamiltonianSum.from_terms(2, [(1.0, "ZX")])
    eff = effective_hamiltonian(h, PinSpec.of((1, "+")))
    np.testing.assert_allclose(eff, np.diag([1.0, -1.0]), atol=0)


def test_effective_projector_halving():
    # A (x) |+><+| pinned to |0> gives A/2
    a = HamiltonianSum.from_terms(1, [(0.7, "Z")])
    h = HamiltonianSum.from_terms(2, [(0.35, "ZI"), (0.35, "ZX")], groups=((0, 1),))
    eff = effective_hamiltonian(h, PinSpec.of((1, "0")))
    np.testing.assert_allclose(eff, 0.5 * _dense(a), atol=0)


def test_effective_x_pin_minus():
    h = HamiltonianSum.from_terms(2, [(1.0, "XX")])  # O (x) X_q with O = X
    eff = effective_hamiltonian(h, PinSpec.of((1, "-")))
    np.testing.assert_allclose(eff, -np.array([[0.0, 1.0], [1.0, 0.0]]), atol=0)


def test_effective_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    letters = list("IXYZ")
    for _ in range(15):
        terms = [
            (float(rng.uniform(-1, 1)), "".join(rng.choice(letters) for _ in range(4)))
            for _ in range(4)
        ]
        h = HamiltonianSum.from_terms(4, terms)
        pin = PinSpec.of((1, "-"), (3, PinState("angle", float(rng.uniform(0, np.pi)))))
        eff = np.asarray(effective_hamiltonian(h, pin), dtype=complex)
        np.testing.assert_allclose(eff, _pin_matrix(h, pin), atol=1e-13)


def test_full_pin_is_expectation():
    rng = np.random.default_rng(4)
    h = HamiltonianSum.from_terms(2, [(0.3, "ZZ"), (-0.8, "XI")])
    pin = PinSpec.of((0, "angle:0.4"), (1, "+"))
    eff = effective_hamiltonian(h, pin)
    assert eff.shape == (1, 1)
    state = pin.state_vector()
    expected = state @ _dense(h) @ state
    assert eff[0, 0] == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# basis rotation of pins
# ---------------------------------------------------------------------------


def test_rotate_minus_pin_swaps_x_to_z():
    h = HamiltonianSum.from_terms(1, [(1.0, "X")])
    rotated, pin = rotate_pin_to_zero(h, PinSpec.of((0, "-")))
    assert pin.entries[0][1].kind == "0"
    assert len(rotated.terms) == 1
    assert rotated.terms[0].string.label() == "Z"
    assert rotated.terms[0].coeff == -1.0  # <0|-Z|0> = -1 = <-|X|->


def test_rotate_zero_pin_is_identity():
    h = HamiltonianSum.from_terms(2, [(0.5, "XZ"), (1.0, "ZI")])
    rotated, _ = rotate_pin_to_zero(h, PinSpec.of((0, "0")))
    np.testing.assert_array_equal(_dense(rotated), _dense(h))


def test_rotate_preserves_effective_spectrum():
    rng = np.random.default_rng(17)
    letters = list("IXZ")
    for _ in range(10):
        terms = [
            (float(rng.uniform(-1, 1)), "".join(rng.choice(letters) for _ in range(3)))
            for _ in range(4)
        ]
        h = HamiltonianSum.from_terms(3, terms)
        pin = PinSpec.of((2, PinState("angle", float(rng.uniform(0, 2 * np.pi)))))
        rotated, zero_pin = rotate_pin_to_zero(h, pin)
        before = effective_hamiltonian(h, pin)
        after = effective_hamiltonian(rotated, zero_pin)
        np.testing.assert_allclose(before, after, atol=1e-12)
        # the global spectrum is also conjugation-invariant
        np.testing.assert_allclose(
            np.linalg.eigvalsh(_dense(h)), np.linalg.eigvalsh(_dense(rotated)), atol=1e-10
        )


# ---------------------------------------------------------------------------
# penalty lift
# ---------------------------------------------------------------------------


def test_penalty_delta_values():
    assert penalty_delta(PromiseBounds(0.0, 1.0), 1.0) == pytest.approx(3.5)
    assert penalty_delta(PromiseBounds(0.0, 1.0), 0.0) == pytest.approx(0.5)
    # closed-form floor with d = 0: c - |c - b| = a exactly
    a, b = 0.0, 1.0
    c = penalty_delta(PromiseBounds(a, b), 0.0)  # Delta = c + d = c
    assert c - abs(c - b) == pytest.approx(a)


@pytest.mark.parametrize("state", ["0", "1", "+", "-", "angle:0.3", "angle:-2.1"])
def test_pin_state_table_matches_its_amplitudes(state):
    s = PinState.parse(state)
    v = s.vector()
    assert s.exp_x == pytest.approx(2 * v[0] * v[1], abs=1e-15)
    assert s.exp_z == pytest.approx(v[0] ** 2 - v[1] ** 2, abs=1e-15)
    # the images are those of a real orthogonal U sending v to |0>, a rotation
    # or a reflection (Y stands for the real matrix -iY)
    paulis = {"X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1]), "Y": np.array([[0, -1], [1, 0]])}

    def conjugates_by(u):
        return all(np.allclose(sum(c * paulis[a] for c, a in image), u @ paulis[letter] @ u.T, atol=1e-15)
                   for letter, image in s._row.images.items())

    assert conjugates_by(np.array([[v[0], v[1]], [-v[1], v[0]]])) or conjugates_by(
        np.array([[v[0], v[1]], [v[1], -v[0]]]))


@pytest.mark.parametrize("a, b", [(float("-inf"), 0.0), (0.0, float("inf")), (float("nan"), 1.0)])
def test_promise_bounds_must_be_finite(a, b):
    with pytest.raises(PreconditionError, match="finite"):
        PromiseBounds(a, b)


def test_penalty_lift_requires_valid_bounds():
    with pytest.raises(PreconditionError):
        PromiseBounds(1.0, 1.0)


def test_penalty_lift_no_case_mixing_angle_oracle():
    # pinned (qubit 1 = |0>) minimum is exactly 1 = b; the IX term couples the
    # pinned and unpinned sectors, exercising the cross term of the bound
    n = 2
    gp = HamiltonianSum.from_terms(n, [(1.0, "II"), (0.3, "IX")])
    bounds = PromiseBounds(0.0, 1.0)
    res = pin_penalty_lift(gp, pin_qubit=1, bounds=bounds)
    gmat = _dense(res.hamiltonian)
    floor = (bounds.a + bounds.b) / 2.0
    assert min_eig(res.hamiltonian).value >= floor - 1e-9
    # scan the mixing angle (cos t)|psi0>|0> + (sin t)|psi1>|1> over sector
    # ground states, the worst-case family from the penalty argument
    sector0 = gmat[np.ix_([0, 2], [0, 2])]  # pin qubit = |0>
    sector1 = gmat[np.ix_([1, 3], [1, 3])]
    v0 = np.linalg.eigh(sector0)[1][:, 0]
    v1 = np.linalg.eigh(sector1)[1][:, 0]
    psi0 = np.zeros(4)
    psi0[[0, 2]] = v0
    psi1 = np.zeros(4)
    psi1[[1, 3]] = v1
    for t in np.linspace(0, np.pi / 2, 181):
        s = np.cos(t) * psi0 + np.sin(t) * psi1
        assert s @ gmat @ s >= floor - 1e-9


def test_penalty_lift_random_instances():
    rng = np.random.default_rng(33)
    letters = list("IXZ")
    for _ in range(25):
        n = int(rng.integers(2, 4))
        terms = [
            (float(rng.uniform(-1, 1)), "".join(rng.choice(letters) for _ in range(n)))
            for _ in range(3)
        ]
        sys_h = HamiltonianSum.from_terms(n, terms)
        e0 = min_eig(sys_h).value
        # embed with a free pin qubit appended: pinned minimum equals e0
        emb = HamiltonianSum.from_terms(n + 1, [(t.coeff, t.string.label() + "I") for t in sys_h.terms])
        if rng.uniform() < 0.5:
            a, b = e0 + 0.05, e0 + 0.55  # YES: pinned min <= a
            res = pin_penalty_lift(emb, n, PromiseBounds(a, b))
            assert min_eig(res.hamiltonian).value <= a + 1e-12
        else:
            b = e0 - 0.05
            a = b - 0.5  # NO: pinned min >= b
            res = pin_penalty_lift(emb, n, PromiseBounds(a, b))
            assert min_eig(res.hamiltonian).value >= (a + b) / 2.0 - 1e-9
            assert res.bounds.b == pytest.approx((a + b) / 2.0)


def test_penalty_lift_attractive_unpinned_sector():
    # junk in the |1> sector must not open a loophole below the floor
    n = 2
    gp = HamiltonianSum.from_terms(
        n, [(0.5, "II"), (0.5, "ZI"), (-1.0, "IZ"), (1.0, "II")]
    )
    # pinned (|0> on qubit 1) effective: (I+Z)/2 - 1 + 1 -> minimum 0... shift so NO holds
    pin = PinSpec.of((1, "0"))
    pinned_min = pinned_min_energy(gp, pin).value
    b = pinned_min - 0.01
    a = b - 0.5
    res = pin_penalty_lift(gp, 1, PromiseBounds(a, b))
    assert min_eig(res.hamiltonian).value >= (a + b) / 2.0 - 1e-9


# ---------------------------------------------------------------------------
# commuting pin
# ---------------------------------------------------------------------------


def test_commuting_pin_z_plus_x():
    h = HamiltonianSum.from_terms(1, [(1.0, "Z"), (1.0, "X")])
    res = commuting_pin(h, PromiseBounds(0.2, 0.6))
    assert is_commuting(res.hamiltonian).verdict
    assert res.hamiltonian.locality == 2
    assert (res.bounds.a, res.bounds.b) == (0.1, 0.3)
    val = pinned_min_energy(res.hamiltonian, res.pin).value
    assert val == pytest.approx(-np.sqrt(2) / 2, abs=1e-12)


def test_commuting_pin_halving_identity():
    rng = np.random.default_rng(2)
    h = HamiltonianSum.from_terms(2, [(0.9, "ZI"), (-0.4, "ZZ")])
    res = commuting_pin(h)
    hp = _dense(res.hamiltonian)
    hm = _dense(h)
    for _ in range(20):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        full = np.kron(psi, [1.0, 0.0])
        assert np.vdot(full, hp @ full).real == pytest.approx(
            0.5 * np.vdot(psi, hm @ psi).real, abs=1e-12
        )


def test_commuting_pin_rejects_mixed_terms():
    with pytest.raises(UnsupportedTermError):
        commuting_pin(HamiltonianSum.from_terms(2, [(1.0, "XZ")]))


def test_commuting_pin_scaling_invariant():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        terms = []
        for _ in range(4):
            q = int(rng.integers(0, n))
            r = int(rng.integers(0, n))
            kind = rng.choice(["Z", "X", "ZZ", "XX"])
            label = ["I"] * n
            if len(kind) == 1 or q == r:
                label[q] = kind[0]
            else:
                label[q], label[r] = kind[0], kind[1]
            terms.append((float(rng.uniform(-1, 1)), "".join(label)))
        h = HamiltonianSum.from_terms(n, terms)
        res = commuting_pin(h)
        assert pinned_min_energy(res.hamiltonian, res.pin).value == pytest.approx(
            0.5 * min_eig(h).value, abs=1e-9
        )


# ---------------------------------------------------------------------------
# stoquastic pin
# ---------------------------------------------------------------------------


def test_stoquastic_pin_positive_x():
    h = HamiltonianSum.from_terms(1, [(1.0, "X")])
    res = stoquastic_pin(h)
    assert [(t.coeff, t.string.label()) for t in res.hamiltonian.terms] == [(-1.0, "XX")]
    eff = effective_sum(res.hamiltonian, res.pin)
    assert [(t.coeff, t.string.label()) for t in eff.terms] == [(1.0, "X")]


def test_stoquastic_pin_xz_rules():
    for sign in (1.0, -1.0):
        h = HamiltonianSum.from_terms(2, [(sign * 0.8, "XZ")])
        res = stoquastic_pin(h)
        assert is_stoquastic(res.hamiltonian, termwise=True).verdict
        eff = effective_hamiltonian(res.hamiltonian, res.pin)
        np.testing.assert_array_equal(eff, _dense(h))


def test_stoquastic_pin_diagonal_passthrough():
    h = HamiltonianSum.from_terms(1, [(1.0, "Z")])
    res = stoquastic_pin(h)
    assert [(t.coeff, t.string.label()) for t in res.hamiltonian.terms] == [(1.0, "ZI")]


def test_stoquastic_pin_bounds_unchanged():
    bounds = PromiseBounds(0.1, 0.9)
    res = stoquastic_pin(HamiltonianSum.from_terms(1, [(1.0, "X")]), bounds)
    assert (res.bounds.a, res.bounds.b) == (0.1, 0.9)


def test_stoquastic_pin_scaling_invariant():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        terms = []
        for _ in range(5):
            kind = rng.choice(["Z", "ZZ", "X", "XX", "XZ"])
            qs = rng.choice(n, size=len(kind), replace=False)
            label = ["I"] * n
            for ch, q in zip(kind, qs):
                label[int(q)] = ch
            terms.append((float(rng.uniform(-1, 1)), "".join(label)))
        h = HamiltonianSum.from_terms(n, terms)
        res = stoquastic_pin(h)
        assert is_stoquastic(res.hamiltonian, termwise=True).verdict
        assert pinned_min_energy(res.hamiltonian, res.pin).value == pytest.approx(
            min_eig(h).value, abs=1e-9
        )
        assert res.hamiltonian.locality <= h.locality + 1


def test_stoquastic_pin_rejects_y():
    with pytest.raises(UnsupportedTermError):
        stoquastic_pin(HamiltonianSum.from_terms(1, [(1.0, "Y")]))


# ---------------------------------------------------------------------------
# permutation pin
# ---------------------------------------------------------------------------


def test_permutation_pin_binary_expansion():
    h = HamiltonianSum.from_terms(1, [(0.625, "X")])
    res = permutation_pin(h, q_bits=6)
    # bits 1 and 3 of 0.625 = 0.101b: blocks on ancillas q_1 and q_3
    assert len(res.hamiltonian.group_indices()) == 2
    assert is_permutation(res.hamiltonian, per_term=True).verdict
    eff = effective_sum(res.hamiltonian, res.pin)
    assert [(t.coeff, t.string.label()) for t in eff.terms] == [(0.625, "X")]


def test_permutation_pin_z_gadget():
    h = HamiltonianSum.from_terms(1, [(1.0, "Z")])
    # coefficient 1.0 forces a rescale; use 0.5 for the exact-gadget check
    h = HamiltonianSum.from_terms(1, [(0.5, "Z")])
    res = permutation_pin(h, q_bits=4)
    assert is_permutation(res.hamiltonian, per_term=True).verdict
    eff = effective_sum(res.hamiltonian, res.pin)
    assert [(t.coeff, t.string.label()) for t in eff.terms] == [(0.5, "Z")]


def test_permutation_pin_negative_sign_ancilla():
    h = HamiltonianSum.from_terms(1, [(-0.5, "X")])
    res = permutation_pin(h, q_bits=5)
    groups = res.hamiltonian.group_indices()
    assert len(groups) == 1
    term = res.hamiltonian.terms[groups[0][0]]
    # X on the system, the sign ancilla q0, and the j=1 coefficient ancilla
    assert term.string.label() == "X" + "I" + "X" + "X" + "IIII"[:4]
    eff = effective_sum(res.hamiltonian, res.pin)
    assert [(t.coeff, t.string.label()) for t in eff.terms] == [(-0.5, "X")]


def test_permutation_pin_truncation_bound():
    rng = np.random.default_rng(44)
    letters = ["Z", "ZZ", "X", "XX"]
    for trial in range(8):
        n = int(rng.integers(1, 4))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.choice(letters)
            if len(kind) == 2 and n < 2:
                kind = kind[0]
            qs = rng.choice(n, size=len(kind), replace=False)
            label = ["I"] * n
            for ch, q in zip(kind, qs):
                label[int(q)] = ch
            terms.append((float(rng.uniform(-0.99, 0.99)), "".join(label)))
        h = HamiltonianSum.from_terms(n, terms)
        m_count = len([t for t in h.terms if t.coeff != 0.0])
        for q_bits in (4, 7, 10):
            res = permutation_pin(h, q_bits=q_bits)
            assert is_permutation(res.hamiltonian, per_term=True).verdict
            assert res.hamiltonian.locality <= 5
            assert len(res.hamiltonian.group_indices()) <= 2 * m_count * (q_bits + 1)
            eff = np.asarray(effective_hamiltonian(res.hamiltonian, res.pin))
            target = _dense(h.merged()) / res.report.scale
            err = np.linalg.norm(eff - target, 2)
            assert err <= m_count * 2.0 ** (-q_bits) + 1e-15


def test_permutation_pin_rescales_large_coefficients():
    h = HamiltonianSum.from_terms(1, [(2.0, "X")])
    res = permutation_pin(h, q_bits=20)
    assert res.report.scale == pytest.approx(2.0, rel=1e-8)
    eff = np.asarray(effective_hamiltonian(res.hamiltonian, res.pin))
    np.testing.assert_allclose(eff, _dense(h) / res.report.scale, atol=2 ** -19)


def test_permutation_pin_drops_zero_terms():
    h = HamiltonianSum.from_terms(1, [(0.5, "X"), (0.0, "Z")])
    res = permutation_pin(h, q_bits=3)
    assert res.report.dropped_terms == 1


def test_permutation_pin_rejects_bad_bits():
    with pytest.raises(PreconditionError):
        permutation_pin(HamiltonianSum.from_terms(1, [(0.5, "X")]), q_bits=0)


def test_binary_bits_are_exact_at_any_bit_count():
    rng = np.random.default_rng(3)
    for x in [0.0, 0.625, 5e-324, 1 - 2 ** -53] + list(rng.random(50)):
        for q in (1, 7, 53, 200, 1023):
            m = int(np.floor(x * (1 << q)))
            assert _binary_bits(x, q) == [j for j in range(1, q + 1) if (m >> (q - j)) & 1]
    assert _binary_bits(0.75, 1024) == [1, 2]
    assert _binary_bits(5e-324, 1100) == [1074]


def test_permutation_pin_at_1024_bits():
    res = permutation_pin(HamiltonianSum.from_terms(2, [(0.75, "XX"), (-0.5, "ZZ")]), q_bits=1024)
    assert res.hamiltonian.n == 2 + 2 + 1024
    assert len(res.hamiltonian.group_indices()) == 3


def test_permutation_pin_bit_ceiling_is_the_least_subnormal():
    # the least subnormal sets bit 1074, the last one any double sets
    h = HamiltonianSum.from_terms(1, [(5e-324, "X")])
    res = permutation_pin(h, q_bits=1074)
    (block,) = [[res.hamiltonian.terms[i] for i in g] for g in res.hamiltonian.group_indices()]
    assert [t.string.x for t in block] == [1 | 1 << (1 + 1 + 1074)]
    for q_bits in (1075, 4 * 10**9, 10**20):
        with pytest.raises(PreconditionError, match="1074"):
            permutation_pin(h, q_bits=q_bits)


def test_permutation_pin_rejects_a_magnitude_without_finite_scale():
    h = HamiltonianSum.from_terms(2, [(1.7976931348623157e308, "XX"), (0.5, "ZI")])
    with pytest.raises(PreconditionError, match="finite scale"):
        permutation_pin(h)
