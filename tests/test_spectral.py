"""Ground-energy solvers: dense oracle, ARPACK agreement, resource and
convergence errors, promise decisions."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from oracles import lowest_eigenvalue, pin_state_vector
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import pinq.pauli
import pinq.spectral
from pinq.cli import main
from pinq.errors import ConvergenceError, ResourceLimitError
from pinq.io import load_hamiltonian
from pinq.pauli import ITERATIVE_BYTE_CEILING, HamiltonianSum, PauliString
from pinq.pinning import PinSpec, PromiseBounds, effective_sum
from pinq.spectral import (
    GAP_VIOLATION,
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
    return HamiltonianSum(n, terms)


def test_min_eig_closed_forms():
    assert min_eig(HamiltonianSum(1, [(1.0, "Z")])).value == pytest.approx(-1.0)
    h = HamiltonianSum(1, [(1.0, "Z"), (1.0, "X")])
    assert min_eig(h).value == pytest.approx(-np.sqrt(2.0), abs=1e-14)


def test_iterative_matches_dense_at_8_qubits():
    rng = np.random.default_rng(100)
    h = _random_sum(rng, 8, m=10)
    dense = min_eig(h, method="dense")
    it = min_eig(h, method="iterative", seed=0)
    assert it.value == pytest.approx(dense.value, abs=1e-8)
    assert it.residual <= 1e-8
    # ARPACK counts its matvecs and takes no dense eigensolve
    assert it.iterations > 0 and it.blocks == 0
    assert dense.iterations == 0 and dense.blocks >= 1


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
    h = HamiltonianSum(n, terms)
    assert h.flip_count() * (1 << n) * 8 > ITERATIVE_BYTE_CEILING

    def no_build(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    with pytest.raises(ResourceLimitError):
        min_eig(h, method="iterative")


def test_apply_byte_ceiling_checked_before_allocation(monkeypatch):
    # the 65-mask sum above: apply builds the same CSR matrix, so it is held
    # to the same ceiling, with the same message
    n = 20
    h = HamiltonianSum(n, [(1.0, format(x, f"0{n}b").replace("0", "I").replace("1", "X"))
                           for x in range(65)])

    def no_build(*args):
        raise AssertionError("flip diagonals built before the ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
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

    def no_build(*args):
        raise Built

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    with pytest.raises(ResourceLimitError):
        min_eig(HamiltonianSum(n, [(1.0, lbl) for lbl in labels]), method="iterative")
    with pytest.raises(Built):
        min_eig(HamiltonianSum(n, [(1.0, lbl) for lbl in labels[:42]]), method="iterative")


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
    res = min_eig(HamiltonianSum(n, terms), method="iterative")
    assert (res.value, res.residual, res.iterations, res.blocks) == (0.0, 0.0, 0, 0)
    assert np.linalg.norm(res.vector) == 1.0


def test_other_arpack_errors_map_to_convergence_error(monkeypatch):
    def refused(*args, **kwargs):
        raise ArpackError(-9)

    monkeypatch.setattr(pinq.spectral, "eigsh", refused)
    h = HamiltonianSum(3, [(1.0, "XII"), (0.5, "ZZI"), (0.2, "IIZ")])
    with pytest.raises(ConvergenceError):
        min_eig(h, method="iterative")


def test_arpack_no_convergence_maps_to_convergence_error(monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(pinq.spectral, "eigsh", stalled)
    h = HamiltonianSum(3, [(1.0, "XII"), (0.5, "ZZI"), (0.2, "IIZ")])
    with pytest.raises(ConvergenceError):
        min_eig(h, method="iterative")


def test_iterative_is_deterministic():
    rng = np.random.default_rng(7)
    h = _random_sum(rng, 6)
    v1 = min_eig(h, method="iterative", seed=3)
    v2 = min_eig(h, method="iterative", seed=3)
    assert v1.value == v2.value
    np.testing.assert_array_equal(v1.vector, v2.vector)


def test_min_eig_rejects_an_unknown_method():
    h = HamiltonianSum(1, [(1.0, "Z")])
    with pytest.raises(ValueError, match="unknown method 'x'"):
        min_eig(h, method="x")


def test_min_eig_rejects_matrix_input():
    with pytest.raises(TypeError, match="HamiltonianSum"):
        min_eig(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_variational_bound():
    rng = np.random.default_rng(11)
    h = _random_sum(rng, 5)
    res = min_eig(h, method="dense")
    for _ in range(50):
        psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        psi /= np.linalg.norm(psi)
        assert np.vdot(psi, h.apply(psi)).real >= res.value - 1e-8


def test_pinned_energy_tensor_identity():
    # H (x) I with the extra qubit pinned to |0> has the same minimum as H
    rng = np.random.default_rng(13)
    h = _random_sum(rng, 3)
    emb = HamiltonianSum(4, [(t.coeff, t.string.label() + "I") for t in h.terms])
    val = pinned_min_energy(emb, PinSpec.of((3, "0"))).value
    assert val == pytest.approx(min_eig(h).value, abs=1e-12)


def test_pinned_energy_full_pin_is_expectation():
    h = HamiltonianSum(2, [(0.4, "ZX"), (0.6, "XI")])
    pin = PinSpec.of((0, "+"), (1, "-"))
    val = pinned_min_energy(h, pin).value
    state = pin_state_vector(pin)
    expected = state @ np.asarray(h.to_matrix(dense=True)) @ state
    assert val == pytest.approx(expected, abs=1e-14)


def test_promise_decide_branches():
    h = HamiltonianSum(1, [(1.0, "Z")])  # pinned min with |1>: -1
    pin = PinSpec.of((0, "1"))
    assert promise_decide(h, pin, PromiseBounds(-0.9, 0.0)) == YES
    assert promise_decide(h, pin, PromiseBounds(-2.0, -1.5)) == NO
    assert promise_decide(h, pin, PromiseBounds(-1.5, -0.5)) == GAP_VIOLATION


def test_lanczos_handles_degenerate_spectrum():
    # heavily degenerate: single ZZ on 6 qubits
    h = HamiltonianSum(6, [(1.0, "ZZIIII")])
    assert min_eig(h, method="iterative").value == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_overflowing_residual_is_a_convergence_error(method):
    # entries near 1e200 overflow the residual norm's sum of squares
    h = HamiltonianSum(2, [(1e200, "XX"), (-0.25, "ZZ")])
    with pytest.raises(ConvergenceError, match="not finite"):
        min_eig(h, method=method)


def _sum_of_rank(rng, n, k, complex_terms=False, m=12):
    """A seeded sum on n qubits whose X flip masks span a GF(2) space of rank
    k: k masks with distinct leading bits, each one term, and m terms whose
    masks are random combinations of them (0 included).  Real sums carry no
    Y; complex ones carry Y on the first basis term and at random."""
    pivots = rng.choice(n, k, replace=False)
    basis = [(1 << int(p)) | int(rng.integers(0, 1 << int(p))) for p in pivots]
    masks = basis + [int(np.bitwise_xor.reduce([b for b in basis if rng.random() < 0.5] or [0]))
                     for _ in range(m)]
    terms = []
    for i, x in enumerate(masks):
        z = int(rng.integers(0, 1 << n))
        if not complex_terms:
            z &= ~x
        elif i == 0:
            z |= x
        terms.append((float(rng.uniform(-1, 1)), PauliString(n, x, z)))
    return HamiltonianSum(n, terms)


def _labels(h):
    return [(t.coeff, t.string.label()) for t in h.terms]


def _assert_matches_oracle(h, blocks):
    res = min_eig(h, method="dense")
    assert res.blocks == blocks
    assert abs(res.value - lowest_eigenvalue(h.n, _labels(h))) <= 1e-12
    assert res.residual <= 1e-10
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
    return res


@pytest.mark.parametrize("complex_terms", [False, True])
@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_dense_sectors_match_the_plain_eigh_oracle_at_every_rank(n, complex_terms):
    rng = np.random.default_rng(200 + n + 10 * complex_terms)
    for k in range(n + 1):
        h = _sum_of_rank(rng, n, k, complex_terms)
        assert h.has_y == (complex_terms and k > 0)
        _assert_matches_oracle(h, 1 << (n - k))


def test_dense_sectors_of_a_diagonal_sum_are_single_states():
    h = HamiltonianSum(5, [(0.7, "ZIZII"), (-0.4, "IZZZI"), (0.2, "IIIIZ"), (-1.1, "ZZIIZ")])
    res = _assert_matches_oracle(h, 32)
    assert np.count_nonzero(res.vector) == 1


def test_dense_sectors_of_cancelling_terms():
    # the cancelled X masks still enter the span, which only coarsens the
    # sectors; the matrix itself is diagonal
    h = HamiltonianSum(4, [(1.0, "XXII"), (0.3, "ZIZI"), (-1.0, "XXII"),
                           (0.5, "IYIY"), (-0.5, "IYIY"), (-0.8, "IIZZ")])
    _assert_matches_oracle(h, 4)


def test_dense_ground_level_degenerate_across_sectors_is_deterministic():
    # X on qubit 0 alone flips, so the sectors are the four values of qubits
    # 1 and 2; -0.5 Z1 Z2 puts the same ground level in labels 00 and 11,
    # and the first, qubits 1 and 2 at 0 (states 0 and 4), is kept
    h = HamiltonianSum(3, [(-1.0, "XII"), (-0.5, "IZZ"), (0.25, "ZII")])
    first = _assert_matches_oracle(h, 4)
    assert np.flatnonzero(first.vector).tolist() == [0, 4]
    for _ in range(3):
        again = min_eig(h, method="dense")
        assert again.value == first.value
        assert again.vector.tobytes() == first.vector.tobytes()


@pytest.mark.parametrize("k", [0, 2, 4, 6])
def test_eigensolver_sees_only_sector_blocks(monkeypatch, k):
    # rank k: one eigh per sector on its 2^k x 2^k block, and the dense
    # route never assembles the whole matrix
    n = 6
    h = _sum_of_rank(np.random.default_rng(300 + k), n, k, complex_terms=k % 4 == 2)
    calls = []
    eigh = scipy.linalg.eigh
    to_matrix = HamiltonianSum.to_matrix

    def sparse_only(self, dense=False):
        if dense:
            raise AssertionError("the dense route assembled the whole matrix")
        return to_matrix(self)

    def no_matrix(*args, **kwargs):
        raise AssertionError("the dense route assembled the whole matrix")

    def recorded_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(HamiltonianSum, "to_matrix", sparse_only)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "toarray", no_matrix)
    monkeypatch.setattr(scipy.linalg, "eigh", recorded_eigh)
    res = min_eig(h, method="dense")
    assert calls == [(1 << k, 1 << k)] * (1 << (n - k))
    assert res.blocks == 1 << (n - k)


@pytest.mark.parametrize("n, k, bound_mib", [(12, 6, 4), (10, 10, 12)])
def test_dense_route_holds_one_block_at_a_time(n, k, bound_mib):
    # a 12-qubit matrix takes 128 MiB and a 10-qubit block 8 MiB: below full
    # rank no 2^n x 2^n array is formed, and at full rank LAPACK solves the
    # one block in place, with no copy
    h = _sum_of_rank(np.random.default_rng(400 + k), n, k)
    tracemalloc.start()
    try:
        res = min_eig(h, method="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.blocks == 1 << (n - k)
    assert peak < bound_mib << 20


def _xz_terms(n, rng):
    """The benchmark's pinned-decide family: 2n random 2-local terms over
    {X, Z} x {X, Z} and a Z field on every qubit, drawn in that order."""
    def label(letters):
        return "".join(letters.get(q, "I") for q in range(n))

    terms = []
    for _ in range(2 * n):
        i, j = (int(q) for q in rng.choice(n, 2, replace=False))
        letters = {i: str(rng.choice(["X", "Z"])), j: str(rng.choice(["X", "Z"]))}
        terms.append((float(rng.normal()), label(letters)))
    for q in range(n):
        terms.append((-float(rng.uniform(1.5, 2.5)), label({q: "Z"})))
    return terms


def _plain_payload(h):
    """The dense payload from one ``eigh`` of the whole matrix, unsplit."""
    mat = h.to_matrix(dense=True)
    evals, evecs = scipy.linalg.eigh(mat, subset_by_index=[0, 0])
    val, vec = float(evals[0]), evecs[:, 0]
    return {"value": val, "residual": float(np.linalg.norm(mat @ vec - val * vec)), "method": "dense"}


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_full_rank_pinned_decide_payloads_are_unsplit(tmp_path, capsys, seed):
    # seeds 2, 3 and 5 of the pinned-decide workload draw full-rank flip
    # masks at n = 10: one block, the whole matrix, as before the split
    n = 10
    rng = np.random.default_rng(seed)
    terms = _xz_terms(n, rng)
    norm = sum(abs(c) for c, _ in terms)
    yes = rng.random() < 0.5
    bounds, decision, code = ((norm + 1.0, norm + 2.0), "YES", 0) if yes else ((-norm - 2.0, -norm - 1.0), "NO", 1)
    f, fs = tmp_path / "h.txt", str(tmp_path / "hs.txt")
    f.write_text(f"qubits {n}\n" + "".join(f"{c:.17g} {lbl}\n" for c, lbl in terms))
    h = load_hamiltonian(str(f))
    assert pinq.spectral._sectors(h.to_matrix()).shape == (1, 1 << n)
    assert main(["pin-stoquastic", str(f), "--out", fs]) == 0
    capsys.readouterr()
    pinned = effective_sum(load_hamiltonian(fs), PinSpec.of((n, "-")))
    runs = [(["spectrum", fs, "--pin", f"{n}=-", f"--bounds={bounds[0]!r},{bounds[1]!r}"], code,
             dict(_plain_payload(pinned), decision=decision)),
            (["spectrum", str(f)], 0, _plain_payload(h))]
    for argv, want_code, want in runs:
        assert main(argv) == want_code
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["payload"] == want
