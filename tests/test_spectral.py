"""Ground-energy solvers: dense oracle, ARPACK agreement, resource and
convergence errors, promise decisions."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import pinq.spectral
from pinq.errors import ConvergenceError, PreconditionError, ResourceLimitError
from pinq.pauli import HamiltonianSum
from pinq.pinning import PinSpec, PromiseBounds
from pinq.spectral import (
    GAP_VIOLATION,
    ITERATIVE_BYTE_CEILING,
    NO,
    YES,
    min_eig,
    pinned_min_energy,
    promise_decide,
)


def _random_sum(rng, n, m=6, letters="IXZ"):
    terms = [
        (float(rng.uniform(-1, 1)), "".join(rng.choice(list(letters)) for _ in range(n)))
        for _ in range(m)
    ]
    return HamiltonianSum.from_terms(n, terms)


def test_min_eig_closed_forms():
    assert min_eig(HamiltonianSum.from_terms(1, [(1.0, "Z")])).value == pytest.approx(-1.0)
    h = HamiltonianSum.from_terms(1, [(1.0, "Z"), (1.0, "X")])
    assert min_eig(h).value == pytest.approx(-np.sqrt(2.0), abs=1e-14)


def test_iterative_matches_dense_at_8_qubits():
    rng = np.random.default_rng(100)
    h = _random_sum(rng, 8, m=10)
    dense = min_eig(h, method="dense")
    it = min_eig(h, method="iterative", seed=0)
    assert it.value == pytest.approx(dense.value, abs=1e-8)
    assert it.residual <= 1e-8


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("letters", ["IXZ", "IXYZ"])
def test_iterative_matches_dense_at_tiny_sizes(n, letters):
    # ARPACK needs k < dim (real) and k < dim - 1 (complex)
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        h = _random_sum(rng, n, m=4, letters=letters)
        it = min_eig(h, method="iterative", seed=0)
        assert it.method == "iterative"
        assert it.value == pytest.approx(min_eig(h, method="dense").value, abs=1e-12)


def test_iterative_matches_dense_on_complex_sum():
    rng = np.random.default_rng(101)
    h = _random_sum(rng, 6, m=12, letters="IXYZ")
    assert h.has_y
    it = min_eig(h, method="iterative", seed=0)
    assert np.iscomplexobj(it.vector)
    assert it.value == pytest.approx(min_eig(h, method="dense").value, abs=1e-10)
    assert it.residual <= 1e-8
    again = min_eig(h, method="iterative", seed=0)
    assert again.value == it.value
    np.testing.assert_array_equal(again.vector, it.vector)


def test_iterative_byte_ceiling_checked_before_allocation(monkeypatch):
    # 65 distinct flip masks x 2^20 doubles = 520 MiB, over the 512 MiB ceiling
    n = 20
    terms = [(1.0, format(x, f"0{n}b").replace("0", "I").replace("1", "X")) for x in range(65)]
    h = HamiltonianSum.from_terms(n, terms)
    assert h.flip_count() * (1 << n) * 8 > ITERATIVE_BYTE_CEILING

    def no_build(self):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "_flip_stack", no_build)
    with pytest.raises(ResourceLimitError):
        min_eig(h, method="iterative")


def test_apply_byte_ceiling_checked_before_allocation(monkeypatch):
    # the 65-mask sum above: apply builds the same CSR matrix, so it is held
    # to the same ceiling, with the same message
    n = 20
    h = HamiltonianSum.from_terms(n, [(1.0, format(x, f"0{n}b").replace("0", "I").replace("1", "X"))
                                      for x in range(65)])

    def no_build(self):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(HamiltonianSum, "_flip_stack", no_build)
    with pytest.raises(ResourceLimitError) as err:
        h.apply(np.zeros(1 << n))
    assert str(err.value) == (f"65 flip masks on 20 qubits need {65 * 12 << 20} bytes, "
                              f"above the iterative ceiling of {ITERATIVE_BYTE_CEILING}")


def test_iterative_byte_ceiling_counts_the_column_index(monkeypatch):
    # 43 flip masks x 2^20 x (8 data + 4 index bytes) = 516 MiB, over the
    # ceiling; 42 masks fit, so that sum reaches the (patched) builder
    n = 20
    labels = [format(x, f"0{n}b").replace("0", "I").replace("1", "X") for x in range(43)]

    class Built(Exception):
        pass

    def no_build(self):
        raise Built

    monkeypatch.setattr(HamiltonianSum, "_flip_stack", no_build)
    with pytest.raises(ResourceLimitError):
        min_eig(HamiltonianSum.from_terms(n, [(1.0, lbl) for lbl in labels]), method="iterative")
    with pytest.raises(Built):
        min_eig(HamiltonianSum.from_terms(n, [(1.0, lbl) for lbl in labels[:42]]), method="iterative")


@pytest.mark.parametrize("n, terms", [
    (3, []),
    (17, []),
    (3, [(1.0, "XII"), (0.5, "ZZI"), (-1.0, "XII"), (-0.5, "ZZI")]),
])
def test_zero_operator_has_energy_zero_without_arpack(monkeypatch, n, terms):
    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK called on the zero operator")

    monkeypatch.setattr(pinq.spectral, "eigsh", no_arpack)
    monkeypatch.setattr(pinq.spectral, "eigs", no_arpack)
    res = min_eig(HamiltonianSum.from_terms(n, terms), method="iterative")
    assert (res.value, res.residual, res.iterations) == (0.0, 0.0, 0)
    assert np.linalg.norm(res.vector) == 1.0


def test_other_arpack_errors_map_to_convergence_error(monkeypatch):
    def refused(*args, **kwargs):
        raise ArpackError(-9)

    monkeypatch.setattr(pinq.spectral, "eigsh", refused)
    h = HamiltonianSum.from_terms(3, [(1.0, "XII"), (0.5, "ZZI"), (0.2, "IIZ")])
    with pytest.raises(ConvergenceError):
        min_eig(h, method="iterative")


def test_arpack_no_convergence_maps_to_convergence_error(monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(pinq.spectral, "eigsh", stalled)
    h = HamiltonianSum.from_terms(3, [(1.0, "XII"), (0.5, "ZZI"), (0.2, "IIZ")])
    with pytest.raises(ConvergenceError):
        min_eig(h, method="iterative")


def test_iterative_is_deterministic():
    rng = np.random.default_rng(7)
    h = _random_sum(rng, 6)
    v1 = min_eig(h, method="iterative", seed=3)
    v2 = min_eig(h, method="iterative", seed=3)
    assert v1.value == v2.value
    np.testing.assert_array_equal(v1.vector, v2.vector)


def test_min_eig_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_variational_bound():
    rng = np.random.default_rng(11)
    h = _random_sum(rng, 5)
    res = min_eig(h, method="dense")
    for _ in range(50):
        psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi /= np.linalg.norm(psi)
        assert h.expectation(psi) >= res.value - 1e-8


def test_pinned_energy_tensor_identity():
    # H (x) I with the extra qubit pinned to |0> has the same minimum as H
    rng = np.random.default_rng(13)
    h = _random_sum(rng, 3)
    emb = HamiltonianSum.from_terms(4, [(t.coeff, t.string.label() + "I") for t in h.terms])
    val = pinned_min_energy(emb, PinSpec.of((3, "0"))).value
    assert val == pytest.approx(min_eig(h).value, abs=1e-12)


def test_pinned_energy_full_pin_is_expectation():
    h = HamiltonianSum.from_terms(2, [(0.4, "ZX"), (0.6, "XI")])
    pin = PinSpec.of((0, "+"), (1, "-"))
    val = pinned_min_energy(h, pin).value
    state = pin.state_vector()
    expected = state @ np.asarray(h.to_matrix(dense=True)) @ state
    assert val == pytest.approx(expected, abs=1e-14)


def test_promise_decide_branches():
    h = HamiltonianSum.from_terms(1, [(1.0, "Z")])  # pinned min with |1>: -1
    pin = PinSpec.of((0, "1"))
    assert promise_decide(h, pin, PromiseBounds(-0.9, 0.0)) == YES
    assert promise_decide(h, pin, PromiseBounds(-2.0, -1.5)) == NO
    assert promise_decide(h, pin, PromiseBounds(-1.5, -0.5)) == GAP_VIOLATION


def test_lanczos_handles_degenerate_spectrum():
    # heavily degenerate: single ZZ on 6 qubits
    h = HamiltonianSum.from_terms(6, [(1.0, "ZZIIII")])
    assert min_eig(h, method="iterative").value == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_overflowing_residual_is_a_convergence_error(method):
    # entries near 1e200 overflow the residual norm's sum of squares
    h = HamiltonianSum.from_terms(2, [(1e200, "XX"), (-0.25, "ZZ")])
    with pytest.raises(ConvergenceError, match="not finite"):
        min_eig(h, method=method)
