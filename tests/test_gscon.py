"""Ground-space traversal: the stoquastic construction and path verification."""

import dataclasses

import numpy as np
import pytest

from pinq.errors import PreconditionError, ResourceLimitError, UnsupportedTermError
from pinq.gscon import (
    GsconInstance,
    UnitaryStep,
    apply_gate,
    build_stoquastic_gscon,
    instance_from_json,
    instance_to_json,
    verify_path,
    witness_traversal,
)
import pinq.pauli
from oracles import gate_matrix
from pinq.pauli import HamiltonianSum, is_stoquastic
from pinq.spectral import min_eig
from pinq.zeno import ZenoProtocol, _PreparedProtocol

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_gate_matches_kronecker_oracle(n):
    # unsorted and reversed targets, on complex states and matrices
    rng = np.random.default_rng(900 + n)
    for trial in range(6):
        k = int(rng.integers(1, min(n, 3) + 1))
        targets = [int(q) for q in rng.permutation(n)[:k]]
        if trial % 2:
            targets = sorted(targets, reverse=True)
        u = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        got = apply_gate(psi, UnitaryStep(tuple(targets), u), n)
        np.testing.assert_allclose(got, gate_matrix(n, u, targets) @ psi, rtol=0, atol=1e-12)


def _xbasis(bits):
    v = np.array([1.0])
    for b in bits:
        v = np.kron(v, PLUS if b == "+" else MINUS)
    return v


def _middle_state(psi, mid, third="---"):
    return np.kron(np.kron(psi, _xbasis(mid)), _xbasis(third))


def _r3_matrix():
    # 3/4 I - (X1X2 + X2X3 + X1X3)/4 on three qubits
    h = HamiltonianSum(
        3, [(0.75, "III"), (-0.25, "XXI"), (-0.25, "IXX"), (-0.25, "XIX")]
    )
    return np.asarray(h.to_matrix(dense=True))


def test_r3_eigenstructure():
    r3 = _r3_matrix()
    for mid in ("---", "+++"):
        v = _xbasis(mid)
        assert v @ r3 @ v == pytest.approx(0.0, abs=1e-14)
    for mid in ("+--", "-+-", "--+", "++-", "+-+", "-++"):
        v = _xbasis(mid)
        assert v @ r3 @ v == pytest.approx(1.0, abs=1e-14)


def test_q_operator_on_uniform_minus():
    q = HamiltonianSum(
        3, [(1 / 3, "XII"), (1 / 3, "IXI"), (1 / 3, "IIX")]
    )
    v = _xbasis("---")
    np.testing.assert_allclose(np.asarray(q.to_matrix(dense=True)) @ v, -v, atol=1e-14)


def test_construction_is_termwise_stoquastic():
    rng = np.random.default_rng(5)
    kinds = ["ZZ", "ZX", "XX", "Z", "X"]
    for _ in range(10):
        n = int(rng.integers(2, 5))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.choice(kinds)
            qs = rng.choice(n, size=len(kind), replace=False)
            label = ["I"] * n
            for ch, q in zip(kind, qs):
                label[int(q)] = ch
            terms.append((float(rng.uniform(-1, 1)), "".join(label)))
        h = HamiltonianSum(n, terms)
        build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
        assert is_stoquastic(build.hamiltonian, termwise=True).verdict
    # off-diagonal strings with several Z factors, on 2-4 qubits
    rng = np.random.default_rng(6)
    kinds += ["XZZ", "ZXZ", "XXZ", "XZZZ"]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.choice([k for k in kinds if len(k) <= n])
            qs = rng.choice(n, size=len(kind), replace=False)
            label = ["I"] * n
            for ch, q in zip(kind, qs):
                label[int(q)] = ch
            terms.append((float(rng.uniform(-1, 1)), "".join(label)))
        h = HamiltonianSum(n, terms)
        build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
        assert is_stoquastic(build.hamiltonian, termwise=True).verdict
        # the positive split must be strictly off-diagonal where it is used


def test_expectation_identities_xx_example():
    h = HamiltonianSum(2, [(1.0, "XX")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    hm = build.hamiltonian.to_matrix()
    hsys = np.asarray(h.to_matrix(dense=True))
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    st = _middle_state(psi, "+--")
    e = np.real(np.vdot(st, hm @ st))
    assert e == pytest.approx(np.real(np.vdot(psi, hsys @ psi)), abs=1e-10)


def test_expectation_identities_all_strings():
    rng = np.random.default_rng(23)
    h = HamiltonianSum(
        3, [(0.8, "ZXI"), (-0.5, "IXX"), (0.3, "ZIZ"), (-0.9, "XII"), (0.6, "ZXZ"), (-0.4, "XZZ")]
    )
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    assert is_stoquastic(build.hamiltonian, termwise=True).verdict
    hm = build.hamiltonian.to_matrix()
    hsys = np.asarray(h.to_matrix(dense=True))
    for _ in range(25):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        e_sys = np.real(np.vdot(psi, hsys @ psi))
        for mid in ("---", "+++", "+--", "-+-", "--+", "++-", "+-+", "-++"):
            st = _middle_state(psi, mid)
            e = np.real(np.vdot(st, hm @ st))
            expected = 0.0 if mid in ("---", "+++") else e_sys
            assert e == pytest.approx(expected, abs=1e-12)


def test_start_and_target_states():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    start = build.instance.start_state()
    target = build.instance.target_state()
    zero_sys = np.zeros(4)
    zero_sys[0] = 1.0
    np.testing.assert_allclose(start, _middle_state(zero_sys, "---"), atol=1e-14)
    np.testing.assert_allclose(target, _middle_state(zero_sys, "+++"), atol=1e-14)


def test_verify_path_trivial_yes():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    inst = build.instance
    same = GsconInstance(
        hamiltonian=inst.hamiltonian,
        eta1=inst.eta1, eta2=inst.eta2, eta3=0.5, eta4=float(inst.eta4),
        delta=min(inst.delta, inst.eta4 - 0.5), l=inst.l, m=inst.m,
        start_circuit=inst.start_circuit, target_circuit=inst.start_circuit,
    )
    verdict = verify_path(same, [])
    assert verdict.accepted
    assert verdict.final_distance == pytest.approx(0.0, abs=1e-14)


def test_verify_path_rejects_overlocal_step():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    bad = UnitaryStep((0, 1, 2), np.eye(8))
    with pytest.raises(PreconditionError, match="step 0"):
        verify_path(build.instance, [bad])


def test_verify_path_rejects_non_unitary():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    bad = UnitaryStep((0,), np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(PreconditionError, match="not unitary"):
        verify_path(build.instance, [bad])


def test_witness_traversal_empty_hamiltonian():
    h = HamiltonianSum(2, [])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    steps = witness_traversal(build, [])
    verdict = verify_path(build.instance, steps)
    assert verdict.accepted
    # only the third-register penalty term could contribute, and it vanishes
    assert all(abs(e) <= 1e-12 for e in verdict.energies)


def test_witness_traversal_zz_flip_energies():
    # ground state |00> of -ZZ is the start of the first register already,
    # so an empty witness circuit suffices; flip-phase energies equal -1
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    alpha = -1.0 + 1e-6
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    steps = witness_traversal(build, [])
    assert len(steps) == 3
    state = build.instance.start_state()
    energies = []
    hm = build.hamiltonian.to_matrix()
    for step in steps:
        state = apply_gate(state, step, build.instance.n)
        energies.append(float(np.real(np.vdot(state, hm @ state))))
    assert energies[0] == pytest.approx(-1.0, abs=1e-12)
    assert energies[1] == pytest.approx(-1.0, abs=1e-12)
    assert energies[2] == pytest.approx(0.0, abs=1e-12)
    assert energies[0] <= alpha and energies[1] <= alpha


def test_witness_traversal_third_register_stays_pinned():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    steps = witness_traversal(build, [])
    proj = np.outer(_xbasis("---"), _xbasis("---"))
    state = build.instance.start_state()
    n = build.instance.n
    for step in steps:
        state = apply_gate(state, step, n)
        tensor = state.reshape(-1, 8)
        fidelity = float(np.real(np.einsum("ia,ab,ib->", tensor.conj(), proj, tensor)))
        assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_witness_traversal_with_rotation_witness():
    # H = Z + X on one qubit; a single-qubit rotation prepares its ground state
    h = HamiltonianSum(1, [(1.0, "Z"), (1.0, "X")])
    gs = np.linalg.eigh(np.asarray(h.to_matrix(dense=True)))[1][:, 0]
    u = np.column_stack([gs, np.array([-gs[1], gs[0]])])
    witness = [UnitaryStep((0,), u)]
    build = build_stoquastic_gscon(h, alpha=1e-9, beta=0.5)
    steps = witness_traversal(build, witness)
    assert len(steps) == 5  # prepare, three flips, uncompute
    verdict = verify_path(build.instance, steps)
    assert verdict.accepted
    assert verdict.max_intermediate_energy <= 1e-9
    assert verdict.final_distance <= 1e-9


def test_traversal_property_random_two_qubit():
    rng = np.random.default_rng(31)
    kinds = ["ZZ", "ZX", "XX", "Z", "X"]
    for _ in range(8):
        terms = []
        for _ in range(3):
            kind = rng.choice(kinds)
            qs = rng.choice(2, size=len(kind), replace=False)
            label = ["I"] * 2
            for ch, q in zip(kind, qs):
                label[int(q)] = ch
            terms.append((float(rng.uniform(-1, 1)), "".join(label)))
        h = HamiltonianSum(2, terms)
        hsys = np.asarray(h.to_matrix(dense=True))
        evals, evecs = np.linalg.eigh(hsys)
        if evals[0] > -1e-3:
            continue  # witness threshold 0 needs a negative-energy witness
        gs = evecs[:, 0]
        # two-qubit witness unitary with the ground state as its first column
        q, _ = np.linalg.qr(np.column_stack([gs, np.eye(4)[:, 1:]]))
        u = q * np.sign(np.vdot(q[:, 0], gs))
        build = build_stoquastic_gscon(h, alpha=1e-9, beta=0.5)
        steps = witness_traversal(build, [UnitaryStep((0, 1), u)])
        verdict = verify_path(build.instance, steps)
        assert verdict.accepted, verdict


def test_instance_energy_check_at_load():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    with pytest.raises(PreconditionError, match="endpoint energies"):
        build_stoquastic_gscon(h, alpha=-0.5, beta=0.5)


def test_instance_json_round_trip():
    h = HamiltonianSum(2, [(-0.8, "ZZ"), (0.3, "XI")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    data = instance_to_json(build.instance)
    inst2 = instance_from_json(data)
    assert inst2.n == build.instance.n
    assert inst2.eta1 == build.instance.eta1
    np.testing.assert_allclose(
        inst2.start_state(), build.instance.start_state(), atol=1e-15
    )
    terms1 = [(t.coeff, t.string.label()) for t in build.instance.hamiltonian.terms]
    terms2 = [(t.coeff, t.string.label()) for t in inst2.hamiltonian.terms]
    assert terms1 == terms2


def test_eta_relation_validation():
    h = HamiltonianSum(1, [])
    with pytest.raises(PreconditionError, match="eta2"):
        GsconInstance(
            hamiltonian=h, eta1=0.0, eta2=0.05, eta3=1e-6, eta4=1.0,
            delta=0.1, l=2, m=10, start_circuit=(), target_circuit=(),
        )


@pytest.mark.parametrize("field", ["eta1", "eta2", "eta3", "eta4", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_instance_refuses_non_finite_thresholds(field, value):
    h = HamiltonianSum(1, [(0.5, "Z")])
    kwargs = dict(eta1=0.6, eta2=1.0, eta3=1e-6, eta4=1.0, delta=0.1)
    kwargs[field] = value
    with pytest.raises(PreconditionError, match=f"{field}=.* is not finite"):
        GsconInstance(hamiltonian=h, l=2, m=10, start_circuit=(), target_circuit=(), **kwargs)


@pytest.mark.parametrize("beta, max_steps", [
    pytest.param(0.5, 0, id="no-steps"),
    pytest.param(0.5, -3, id="negative-steps"),
    pytest.param(1e200, 1024, id="beta-squared-overflows"),
    pytest.param(float("inf"), 1024, id="infinite-beta"),
    pytest.param(0.5, 10**60, id="m-sixth-overflows"),
    pytest.param(0.5, 10**400, id="m-beyond-floats"),
])
def test_build_refuses_bad_step_bounds_and_soundness_scales(beta, max_steps):
    h = HamiltonianSum(1, [(-0.5, "Z")])
    with pytest.raises(PreconditionError):
        build_stoquastic_gscon(h, alpha=0.0, beta=beta, max_steps=max_steps)


def _count_full_builds(monkeypatch, n):
    """Counter of whole-register flip-diagonal builds on ``n`` qubits, the
    builds of ``HamiltonianSum.to_matrix`` (group forms are built apart)."""
    build = pinq.pauli._whole_flip_form
    count = [0]

    def counted(h):
        count[0] += h.n == n
        return build(h)

    monkeypatch.setattr(pinq.pauli, "_whole_flip_form", counted)
    return count


def _solve_once(method):
    def run(count):
        h = HamiltonianSum(8, [(-0.8, "ZZIIIIII"), (0.3, "XIIIIIIX"), (-0.4, "IIIXZYII")])
        min_eig(h, method=method)
        assert count[0] == 1
    return run


def _zeno_reference_once(count):
    a = HamiltonianSum(8, [(0.5, "ZIIIIIII"), (-0.3, "ZZIIIIII")])
    b = HamiltonianSum(8, [(-1.0, "XIIIIIII"), (-0.4, "IIIIIIXX")])
    protocol = ZenoProtocol("stoquastic", a, b, 1.0, 10)
    psi0 = np.zeros(1 << 8, dtype=complex)
    psi0[0] = 1.0
    count[0] = 0
    _PreparedProtocol(protocol, psi0)
    assert count[0] == 1


def _instance_once_and_verify_none(count):
    h = HamiltonianSum(2, [(-0.8, "ZZ"), (0.3, "XI"), (-0.4, "XZ")])
    build = build_stoquastic_gscon(h, alpha=0.0, beta=0.5)
    assert count[0] == 1
    steps = witness_traversal(build, [])
    count[0] = 0
    verdicts = [verify_path(build.instance, steps) for _ in range(2)]
    assert count[0] == 0
    assert verdicts[0].energies == verdicts[1].energies
    assert len(verdicts[0].energies) == len(steps)
    # the energies are those of the assembled matrix
    hm = build.hamiltonian.to_matrix()
    state = build.instance.start_state()
    for step, e in zip(steps, verdicts[0].energies):
        state = apply_gate(state, step, build.instance.n)
        assert e == pytest.approx(float(np.real(np.vdot(state, hm @ state))), abs=1e-12)


@pytest.mark.parametrize("consumer", [
    pytest.param(_solve_once("dense"), id="dense-min-eig"),
    pytest.param(_solve_once("iterative"), id="iterative-min-eig"),
    pytest.param(_zeno_reference_once, id="zeno-reference"),
    pytest.param(_instance_once_and_verify_none, id="gscon-instance"),
])
def test_each_consumer_builds_its_operator_once(monkeypatch, consumer):
    # every 8-qubit consumer builds the compiled operator once, and a
    # traversal instance's path verifications read the one it holds
    consumer(_count_full_builds(monkeypatch, 8))


def test_instance_is_frozen_and_replace_checks_again():
    h = HamiltonianSum(2, [(-1.0, "ZZ")])
    inst = build_stoquastic_gscon(h, alpha=0.0, beta=0.5).instance
    for f in dataclasses.fields(inst):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, f.name, getattr(inst, f.name))
    assert "_matvec" not in repr(inst)
    assert dataclasses.replace(inst, m=7).m == 7
    with pytest.raises(PreconditionError, match="non-negative"):
        dataclasses.replace(inst, m=-1)
    with pytest.raises(PreconditionError, match="exceed eta1"):
        dataclasses.replace(inst, hamiltonian=HamiltonianSum(inst.n, [(0.5, "I" * inst.n)]))


def test_build_refuses_y_terms():
    h = HamiltonianSum(3, [(0.5, "XZZ"), (-0.25, "IYZ")])
    with pytest.raises(UnsupportedTermError, match="IYZ.*Y-free"):
        build_stoquastic_gscon(h, alpha=0.0, beta=0.5)


def _instance(**changes):
    """A one-qubit instance under -0.5 Z whose start and target are |0>."""
    fields = dict(
        hamiltonian=HamiltonianSum(1, [(-0.5, "Z")]),
        eta1=0.0, eta2=1.0, eta3=1e-6, eta4=1.0, delta=0.1, l=1, m=2,
        start_circuit=(), target_circuit=(),
    )
    return GsconInstance(**{**fields, **changes})


@pytest.mark.parametrize("changes, message", [
    pytest.param(dict(m=-1), "non-negative", id="negative-m"),
    pytest.param(dict(l=-1), "non-negative", id="negative-l"),
    pytest.param(dict(hamiltonian=HamiltonianSum(1, [(-1.5, "Z")])), "exceeds 1", id="group-norm"),
    pytest.param(dict(start_circuit=(UnitaryStep((0,), np.diag([1.0, 2.0])),)),
                 "start circuit gate 0 is not unitary", id="non-unitary-start"),
])
def test_instance_refusals(changes, message):
    with pytest.raises(PreconditionError, match=message):
        _instance(**changes)


def _one_group(n, terms):
    return HamiltonianSum(n, terms, groups=[range(len(terms))])


def test_norm_check_accepts_a_group_whose_exact_norm_is_under_its_weight_sum():
    # weights sum to 1.2, so the group takes the exact eigensolve: norm 0.6 sqrt 2
    _instance(hamiltonian=_one_group(1, [(-0.6, "X"), (-0.6, "Z")]))


def test_norm_check_refuses_a_commuting_group_with_the_exact_norm():
    with pytest.raises(PreconditionError, match=r"term norm 1\.200000 exceeds 1"):
        _instance(hamiltonian=_one_group(2, [(-0.6, "ZI"), (-0.6, "IZ")]))


@pytest.mark.parametrize("weight", [0.5, 0.6])
def test_norm_check_needs_no_dense_matrix_for_a_group_its_weights_bound(weight):
    # one group on 13 qubits, above the dense ceiling: weights summing to at
    # most 1 bound its norm; above 1 its exact norm needs a dense matrix
    h = _one_group(13, [(-weight, "Z" * 13), (-weight, "Z" + "I" * 12)])
    if 2 * weight <= 1.0:
        _instance(hamiltonian=h)
    else:
        with pytest.raises(ResourceLimitError, match="dense ceiling"):
            _instance(hamiltonian=h)


def test_verify_path_refuses_a_path_longer_than_m():
    inst = _instance()
    step = UnitaryStep((0,), np.eye(2))
    assert verify_path(inst, [step, step]).accepted
    with pytest.raises(PreconditionError, match="path length 3 exceeds m=2"):
        verify_path(inst, [step, step, step])


@pytest.mark.parametrize("gate, message", [
    pytest.param(UnitaryStep((3,), np.eye(2)), "leaves the system register", id="ancilla-target"),
    pytest.param(UnitaryStep((0, 1, 2), np.eye(8)), "exceeds locality 2", id="over-local"),
])
def test_witness_traversal_refuses_bad_witness_gates(gate, message):
    build = build_stoquastic_gscon(HamiltonianSum(3, [(-1.0, "ZZI")]), alpha=0.0, beta=0.5)
    with pytest.raises(PreconditionError, match=f"witness gate 1 {message}"):
        witness_traversal(build, [UnitaryStep((0,), np.eye(2)), gate])
