"""Zeno-pinned evolution: exactness, error scaling, survival bookkeeping."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from oracles import pauli_matrix, zeno_register_evolve

import pinq.pauli
import pinq.zeno
from pinq.errors import PreconditionError, ResourceLimitError
from pinq.pauli import HamiltonianSum, PauliString
from pinq.zeno import ZenoProtocol, zeno_evolve, zeno_scaling_sweep


def _ham(n, terms):
    return HamiltonianSum(n, terms)


def _dense_ref(generator, t, psi0):
    mat = np.asarray(generator.to_matrix(dense=True))
    return scipy.linalg.expm(-1j * t * mat) @ psi0


def test_protocol_validation():
    a = _ham(1, [(1.0, "Z")])
    b_bad = _ham(1, [(1.0, "X")])  # positive off-diagonal: not stoquastic
    with pytest.raises(PreconditionError):
        ZenoProtocol("stoquastic", a, b_bad, 1.0, 10)
    b_diag = _ham(1, [(-1.0, "Z")])  # diagonal: not allowed as the flip group
    with pytest.raises(PreconditionError):
        ZenoProtocol("stoquastic", a, b_diag, 1.0, 10)
    nc = _ham(1, [(1.0, "X"), (1.0, "Z")])
    with pytest.raises(PreconditionError):
        ZenoProtocol("commuting", nc, _ham(1, [(1.0, "X")]), 1.0, 10)
    with pytest.raises(PreconditionError, match="unknown protocol kind 'stoq'"):
        ZenoProtocol("stoq", a, _ham(1, [(-1.0, "X")]), 1.0, 10)


def test_stoquastic_b_zero_is_exact():
    a = _ham(1, [(-0.7, "Z")])
    b = _ham(1, [(0.0, "X")])
    protocol = ZenoProtocol("stoquastic", a, b, 1.3, 7)
    res = zeno_evolve(protocol, np.array([0.6, 0.8]))
    assert res.error_norm <= 1e-12
    assert res.survival_probability == pytest.approx(1.0, abs=1e-12)


def test_commuting_b_equals_a_is_exact():
    a = _ham(1, [(0.5, "Z")])
    protocol = ZenoProtocol("commuting", a, a, 1.0, 5)
    psi0 = np.array([0.6, 0.8])
    res = zeno_evolve(protocol, psi0)
    # 2A(x)|+><+| + 2A(x)|-><-| = 2A (x) I: exp(-i 2At) with certain survival
    ref = _dense_ref(_ham(1, [(1.0, "Z")]), 1.0, psi0)
    assert np.linalg.norm(res.final_state - ref) <= 1e-12
    assert res.survival_probability == pytest.approx(1.0, abs=1e-12)


def test_stoquastic_protocol_exact_for_all_step_counts():
    # I (x) X on the ancilla commutes with the full generator, so the pinned
    # sector evolves exactly under A - B and post-selection always succeeds.
    a = _ham(1, [(1.0, "Z")])
    b = _ham(1, [(-1.0, "X")])
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for n_steps in (1, 3, 10, 57, 100):
        res = zeno_evolve(ZenoProtocol("stoquastic", a, b, 1.0, n_steps), psi0)
        assert res.error_norm <= 1e-9
        assert res.survival_probability == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(res.final_state) == pytest.approx(1.0, abs=1e-12)
        ref = _dense_ref(_ham(1, [(1.0, "Z"), (1.0, "X")]), 1.0, psi0)
        assert np.linalg.norm(res.final_state - ref) <= 1e-9


def test_commuting_error_and_survival_slopes():
    a = _ham(1, [(1.0, "Z")])
    b = _ham(1, [(1.0, "X")])
    protocol = ZenoProtocol("commuting", a, b, 1.0, 50)
    sweep = zeno_scaling_sweep(protocol, np.array([1.0, 0.0]), [50, 100, 200, 400, 800, 1600])
    assert sweep.error_slope == pytest.approx(-1.0, abs=0.2)
    assert sweep.survival_deficit_slope == pytest.approx(-1.0, abs=0.2)
    # errors shrink essentially monotonically across the sweep
    errs = sweep.errors
    assert all(e2 <= e1 * 1.05 for e1, e2 in zip(errs, errs[1:]))


def test_commuting_two_qubit_slopes():
    a = _ham(2, [(1.0, "ZI"), (0.5, "ZZ")])
    b = _ham(2, [(0.7, "XI"), (0.3, "IX")])
    psi0 = np.full(4, 0.5)
    protocol = ZenoProtocol("commuting", a, b, 1.0, 50)
    sweep = zeno_scaling_sweep(protocol, psi0, [50, 100, 200, 400, 800])
    assert sweep.error_slope == pytest.approx(-1.0, abs=0.2)
    assert sweep.survival_deficit_slope == pytest.approx(-1.0, abs=0.2)


def test_survival_non_increasing_in_time():
    a = _ham(1, [(1.0, "Z")])
    b = _ham(1, [(1.0, "X")])
    psi0 = np.array([1.0, 0.0])
    survs = []
    for t in (0.25, 0.5, 1.0, 2.0):
        res = zeno_evolve(ZenoProtocol("commuting", a, b, t, 64), psi0)
        survs.append(res.survival_probability)
    assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(survs, survs[1:]))


def test_per_step_flip_probability_quadratic():
    # single step at small delta: 1 - p <= (delta * ||A - B||)^2 + slack
    a = _ham(1, [(1.0, "Z")])
    b = _ham(1, [(1.0, "X")])
    psi0 = np.array([1.0, 0.0])
    norm_amb = 2.0 ** 0.5 * 2  # ||2(A - B)||... loose bound, just check the order
    for delta in (0.05, 0.02, 0.01):
        res = zeno_evolve(ZenoProtocol("commuting", a, b, delta, 1), psi0)
        deficit = 1.0 - res.survival_probability
        assert deficit <= (delta * norm_amb) ** 2 + 1e-6


def test_final_state_normalized():
    a = _ham(2, [(0.4, "ZZ")])
    b = _ham(2, [(0.6, "XI")])
    res = zeno_evolve(ZenoProtocol("commuting", a, b, 1.5, 40), np.full(4, 0.5))
    assert np.linalg.norm(res.final_state) == pytest.approx(1.0, abs=1e-12)


def test_sweep_requires_increasing_counts():
    a = _ham(1, [(1.0, "Z")])
    b = _ham(1, [(1.0, "X")])
    protocol = ZenoProtocol("commuting", a, b, 1.0, 10)
    with pytest.raises(PreconditionError):
        zeno_scaling_sweep(protocol, np.array([1.0, 0.0]), [10, 10])


def test_survival_underflow_reported():
    # one step of duration pi/2: exp(-i pi X) = -I on the |-> branch turns
    # |0> into |1> on the ancilla, so the kept projection has zero norm
    from pinq.errors import SurvivalUnderflowError

    a = _ham(1, [(0.0, "Z")])
    b = _ham(1, [(1.0, "X")])
    protocol = ZenoProtocol("commuting", a, b, np.pi / 2.0, 1)
    with pytest.raises(SurvivalUnderflowError):
        zeno_evolve(protocol, np.array([1.0, 0.0]))


def _random_label(rng, n, letters):
    return "".join(rng.choice(list(letters)) for _ in range(n))


def _random_commuting(rng, n, letters):
    """Random strings, each kept only if it commutes with every one kept so far."""
    terms = []
    for _ in range(3 * n):
        label = _random_label(rng, n, letters)
        s = PauliString.from_label(label)
        if all(s.commutes_with(PauliString.from_label(kept)) for _, kept in terms):
            terms.append((float(rng.uniform(-1.0, 1.0)), label))
    return HamiltonianSum(n, terms)


def _random_stoquastic_pair(rng, n):
    """Termwise-stoquastic A and strictly off-diagonal B.

    Diagonal strings take any sign and X-only strings a negative one; for
    n >= 2, B also gets a -(XX + YY) group, stoquastic only as a whole.
    """
    diag = [(float(rng.uniform(-1.0, 1.0)), _random_label(rng, n, "IZ")) for _ in range(n)]
    flips = []
    while len(flips) < 2 * n:
        label = _random_label(rng, n, "IX")
        if "X" in label:
            flips.append((-float(rng.uniform(0.1, 1.0)), label))
    a = HamiltonianSum(n, diag + flips[:n])
    blocks = [[term] for term in flips[n:]]
    if n >= 2:
        q = int(rng.integers(n - 1))
        c = -float(rng.uniform(0.1, 1.0))
        pair = ["I" * q + p * 2 + "I" * (n - q - 2) for p in "XY"]
        blocks.append([(c, pair[0]), (c, pair[1])])
    return a, HamiltonianSum.from_groups(n, blocks)


def _labels(h):
    return [(t.coeff, t.string.label()) for t in h.terms]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["commuting", "stoquastic"])
def test_matches_register_oracle(kind, n):
    # the 2^n step identities against the literal (n+1)-qubit simulation;
    # commuting groups carry Y letters, so their matrices are complex
    rng = np.random.default_rng(100 * n + len(kind))
    for _ in range(2):
        if kind == "commuting":
            a, b = _random_commuting(rng, n, "IXYZ"), _random_commuting(rng, n, "IXYZ")
        else:
            a, b = _random_stoquastic_pair(rng, n)
        psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi0 /= np.linalg.norm(psi0)
        t = float(rng.uniform(0.3, 1.2))
        for steps in (1, 6, 40):
            res = zeno_evolve(ZenoProtocol(kind, a, b, t, steps), psi0)
            state, survival, step_survivals, error = zeno_register_evolve(
                kind, _labels(a), _labels(b), t, steps, psi0
            )
            assert np.max(np.abs(res.final_state - state)) <= 1e-10
            assert abs(res.survival_probability - survival) <= 1e-10
            assert np.max(np.abs(res.step_survivals - step_survivals)) <= 1e-10
            assert abs(res.error_norm - error) <= 1e-10


def test_sweep_rejects_nonpositive_counts():
    a = _ham(1, [(1.0, "Z")])
    b = _ham(1, [(1.0, "X")])
    protocol = ZenoProtocol("commuting", a, b, 1.0, 10)
    with pytest.raises(PreconditionError, match="sweep"):
        zeno_scaling_sweep(protocol, np.array([1.0, 0.0]), [0, 10])


@pytest.mark.parametrize(
    "kind, check, b_terms",
    [("commuting", "is_commuting", [(1.0, "X")]), ("stoquastic", "is_stoquastic", [(-1.0, "X")])],
)
def test_sweep_checks_preconditions_once(kind, check, b_terms, monkeypatch):
    calls = []
    original = getattr(pinq.zeno, check)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pinq.zeno, check, counted)
    protocol = ZenoProtocol(kind, _ham(1, [(1.0, "Z")]), _ham(1, b_terms), 1.0, 10)
    zeno_scaling_sweep(protocol, np.array([1.0, 0.0]), [10, 20, 40, 80, 160])
    assert len(calls) == 2  # once for A, once for B


@pytest.mark.parametrize("t", [0.3, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("kind", ["commuting", "stoquastic"])
def test_reference_matches_dense_expm(kind, t):
    # the eigenbasis reference against expm of the per-term Kronecker sum;
    # commuting groups carry Y letters (complex generators), and stoquastic
    # B carries a -(XX + YY) group
    tol = 1e-11
    rng = np.random.default_rng(7 + len(kind))
    for n in (1, 2, 3):
        if kind == "commuting":
            a, b = _random_commuting(rng, n, "IXYZ"), _random_commuting(rng, n, "IXYZ")
        else:
            a, b = _random_stoquastic_pair(rng, n)
        psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi0 /= np.linalg.norm(psi0)
        sign = -1.0 if kind == "stoquastic" else 1.0
        gen = pauli_matrix(n, _labels(a) + [(sign * c, lab) for c, lab in _labels(b)])
        res = zeno_evolve(ZenoProtocol(kind, a, b, t, 3), psi0)
        assert np.max(np.abs(res.reference_state - scipy.linalg.expm(-1j * t * gen) @ psi0)) <= tol


@pytest.mark.parametrize("kind, b_coeff", [("commuting", 1.0), ("stoquastic", -1.0)])
def test_sweep_calls_no_expm(kind, b_coeff, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    protocol = ZenoProtocol(kind, _ham(2, [(1.0, "ZI"), (0.5, "ZZ")]), _ham(2, [(b_coeff, "XX")]), 1.0, 10)
    sweep = zeno_scaling_sweep(protocol, np.full(4, 0.5), [10, 20, 40])
    assert np.all(np.isfinite(sweep.errors))


@pytest.mark.parametrize("t", [1e16, -1e16, 1e20, 1e300])
def test_unresolved_reference_phase_rejected(t):
    # |t| * sqrt(2) >= 2^52: a double keeps no fractional bits of the phase
    protocol = ZenoProtocol("commuting", _ham(1, [(1.0, "Z")]), _ham(1, [(1.0, "X")]), t, 5)
    with pytest.raises(PreconditionError, match="not finite"):
        zeno_evolve(protocol, np.array([1.0, 0.0]))


def test_phase_ceiling_is_tested_without_overflow():
    check = pinq.zeno._check_phase
    check(2.0**50, 2.0, "x")
    with pytest.raises(PreconditionError):
        check(2.0**51, 2.0, "x")
    # products that overflow, underflow or vanish, and a NaN scale
    with pytest.raises(PreconditionError):
        check(1e308, 1e308, "x")
    check(5e-324, 1e308, "x")
    check(1e300, 0.0, "x")
    with pytest.raises(PreconditionError):
        check(1.0, float("nan"), "x")


def test_commuting_step_phases_guarded_when_the_reference_vanishes():
    # A + B = 0 leaves the reference trivial, but each step still forms
    # exp(-2i delta A) with |2 delta A| far beyond 2^52
    protocol = ZenoProtocol("commuting", _ham(1, [(1e300, "Z")]), _ham(1, [(-1e300, "Z")]), 1e300, 5)
    with pytest.raises(PreconditionError, match="step"):
        zeno_evolve(protocol, np.array([1.0, 0.0]))


@pytest.mark.parametrize("length", [1, 4])
def test_start_state_of_the_wrong_length_rejected(length):
    protocol = ZenoProtocol("commuting", _ham(1, [(1.0, "Z")]), _ham(1, [(1.0, "X")]), 1.0, 5)
    with pytest.raises(PreconditionError, match="initial state must have length 2"):
        zeno_evolve(protocol, np.ones(length) / np.sqrt(length))


@pytest.mark.parametrize("amps", [[1e200, 0.0], [float("nan"), 0.0], [1e-200, 0.0]])
def test_start_state_with_huge_or_nan_amplitudes_rejected(amps):
    protocol = ZenoProtocol("commuting", _ham(1, [(1.0, "Z")]), _ham(1, [(1.0, "X")]), 1.0, 5)
    with pytest.raises(PreconditionError, match="normalized"):
        zeno_evolve(protocol, np.array(amps))


def test_step_ceiling_checked_before_allocation(monkeypatch):
    a, b = _ham(1, [(1.0, "Z")]), _ham(1, [(1.0, "X")])
    ceiling = pinq.zeno._STEP_CEILING
    with pytest.raises(ResourceLimitError, match="step ceiling"):
        ZenoProtocol("commuting", a, b, 1.0, ceiling + 1)

    def refuse(*args):
        raise AssertionError("protocol prepared before the step ceiling was checked")

    monkeypatch.setattr(pinq.zeno, "_PreparedProtocol", refuse)
    protocol = ZenoProtocol("commuting", a, b, 1.0, ceiling)
    with pytest.raises(ResourceLimitError, match="step ceiling"):
        zeno_scaling_sweep(protocol, np.array([1.0, 0.0]), [1, 10**20])


def _mixed_commuting(rng, n):
    """Pairwise-commuting strings, most of them off-diagonal with a Z or a Y
    beside an X, so that the flip diagonals carry signs and phases."""
    terms = []
    for _ in range(6 * n):
        label = _random_label(rng, n, "IXYZ" if n > 1 else "XYZ")
        s = PauliString.from_label(label)
        if all(s.commutes_with(PauliString.from_label(kept)) for _, kept in terms):
            terms.append((float(rng.uniform(-1.0, 1.0)), label))
    return HamiltonianSum(n, terms)


def _assert_matches_register_oracle(a, b, t, psi0, steps=(1, 6, 40)):
    for n_steps in steps:
        res = zeno_evolve(ZenoProtocol("commuting", a, b, t, n_steps), psi0)
        state, survival, step_survivals, error = zeno_register_evolve(
            "commuting", _labels(a), _labels(b), t, n_steps, psi0
        )
        assert np.max(np.abs(res.final_state - state)) <= 1e-10
        assert abs(res.survival_probability - survival) <= 1e-10
        assert np.max(np.abs(res.step_survivals - step_survivals)) <= 1e-10
        assert abs(res.error_norm - error) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_commuting_flip_passes_match_register_oracle(n):
    # one rotation per flip mask, against the literal (n+1)-qubit simulation
    rng = np.random.default_rng(900 + n)
    with_y = beside_x = 0
    for _ in range(8):
        a, b = _mixed_commuting(rng, n), _mixed_commuting(rng, n)
        strings = [t.string for t in a.terms + b.terms]
        with_y += sum(s.has_y for s in strings)
        beside_x += sum(bool(s.x & ~s.z and s.z) for s in strings)
        psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi0 /= np.linalg.norm(psi0)
        _assert_matches_register_oracle(a, b, float(rng.uniform(0.3, 1.5)), psi0)
    assert with_y > 0 and (beside_x > 0 or n == 1)


def test_grouped_generator_takes_local_propagators():
    # {X0/2, X0 Z2/2} and {Z0/2, -Z0 Z2/2} commute as groups although X0 and
    # Z0 anticommute: each is exp(-i theta H_g) on its support, (0, 2) for
    # the first and (0, 1, 2) for the second, which also holds a Y string
    # that commutes with every string; the group of Z2 is one phase vector
    a = HamiltonianSum.from_groups(3, [
        [(0.5, "XII"), (0.5, "XIZ")],
        [(0.5, "ZII"), (0.3, "IYI"), (-0.5, "ZIZ")],
        [(-0.8, "IIZ")],
    ])
    b = HamiltonianSum(3, [(0.7, "XXI"), (0.4, "IXX"), (0.5, "ZZZ")])
    prop = pinq.zeno._CommutingPropagator(a)
    assert sorted(supp for supp, _, _ in prop.local) == [(0, 1, 2), (0, 2)]
    assert not prop.masks and prop.diag is not None
    rng = np.random.default_rng(3)
    psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi0 /= np.linalg.norm(psi0)
    _assert_matches_register_oracle(a, b, 0.9, psi0)
    _assert_matches_register_oracle(b, a, 0.9, psi0)


def test_reference_ignores_the_global_random_state(monkeypatch):
    # t * ||A + B||_1 is far above 63, where expm_multiply's onenormest draws
    # from numpy's global generator
    rng = np.random.default_rng(11)
    a, b = _mixed_commuting(rng, 4), _mixed_commuting(rng, 4)
    psi0 = np.full(16, 0.25)
    protocol = ZenoProtocol("commuting", a, b, 40.0, 3)
    draws = []
    randint = np.random.randint

    def counted(*args, **kwargs):
        draws.append(args)
        return randint(*args, **kwargs)

    monkeypatch.setattr(np.random, "randint", counted)
    refs = []
    for seed in (1, 12345):
        np.random.seed(seed)
        refs.append(zeno_evolve(protocol, psi0).reference_state)
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()  # the caller's generator state is kept
    assert draws
    assert refs[0].tobytes() == refs[1].tobytes()
    gen = pauli_matrix(4, _labels(a) + _labels(b))
    assert np.max(np.abs(refs[0] - scipy.linalg.expm(-40j * gen) @ psi0)) <= 1e-10


@pytest.mark.parametrize(
    "kind, b_coeff", [("commuting", 1.0), ("stoquastic", -1.0)], ids=["commuting", "stoquastic"]
)
def test_reference_cost_checked_before_expm_multiply(kind, b_coeff, monkeypatch):
    # ||Z + X||_1 = 2 for A + B and A - B alike: t = 6e6 would take about
    # 1.2e7 Taylor steps
    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply called")

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
    protocol = ZenoProtocol(kind, _ham(1, [(1.0, "Z")]), _ham(1, [(b_coeff, "X")]), 6e6, 5)
    with pytest.raises(ResourceLimitError, match="step ceiling"):
        zeno_evolve(protocol, np.array([1.0, 0.0]))


def test_commuting_byte_ceiling_checked_before_allocation(monkeypatch):
    # 683 X masks on 16 qubits: the CSR matrix of B would take 537133056
    # bytes of data and index, over the 512 MiB ceiling
    def no_diagonals(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_diagonals)
    masks = [PauliString(16, x, 0) for x in range(1, 684)]
    b = HamiltonianSum(16, [(1.0, s) for s in masks])
    with pytest.raises(ResourceLimitError, match="iterative ceiling"):
        ZenoProtocol("commuting", _ham(16, [(1.0, "Z" + "I" * 15)]), b, 1.0, 5)


@pytest.mark.parametrize("t", [0.7, 40.0])
@pytest.mark.parametrize("letters", ["IXZ", "IXYZ"], ids=["real", "complex"])
@pytest.mark.parametrize("n", range(1, 10))
def test_reference_does_not_depend_on_the_operator_entry_order(n, letters, t):
    # the reference steps on the flip-ordered operator, whose rows are not
    # sorted by column once it has two flip masks; expm_multiply on a
    # column-sorted copy, under the same fixed seed, gives the same bytes
    rng = np.random.default_rng(1300 + n)
    h = _ham(n, [(float(rng.uniform(-1.0, 1.0)), _random_label(rng, n, letters)) for _ in range(3 * n)])
    psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi0 /= np.linalg.norm(psi0)
    mat = h.to_matrix()
    assert mat.has_sorted_indices == (h.flip_count() < 2)
    ordered = mat.sorted_indices()
    ordered.data = ordered.data * (-1j * t)
    state = np.random.get_state()
    np.random.seed(0)
    try:
        want = scipy.sparse.linalg.expm_multiply(ordered, psi0)
    finally:
        np.random.set_state(state)
    assert pinq.zeno._reference(h, t, psi0, "reference").tobytes() == want.tobytes()
