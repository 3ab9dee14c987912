"""Core Pauli-sum representation: matrices, commutation, structure checks."""

import math
from dataclasses import astuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    apply_flip_diagonals,
    commuting_report,
    flip_diagonals,
    group_norms,
    label_masks,
    pauli_entry,
    pauli_matrix,
    permutation_report,
    stoquastic_report,
)

import pinq.pauli
from pinq.errors import PreconditionError, ResourceLimitError
from pinq.gscon import build_stoquastic_gscon
from pinq.pauli import (
    DENSE_QUBIT_CEILING,
    HamiltonianSum,
    PauliString,
    PauliTerm,
    is_commuting,
    is_permutation,
    is_stoquastic,
    projector_terms,
    sign_pieces,
)
from pinq.pinning import PromiseBounds, pin_penalty_lift

# ---------------------------------------------------------------------------
# independent oracle: <row|H|col> from per-qubit Pauli action
# ---------------------------------------------------------------------------


def _entry_oracle(n, terms, row, col):
    """Evaluate one matrix entry without any Kronecker products.

    Per qubit (qubit 0 = most significant index bit):
      <r|I|c> = delta(r,c);   <r|X|c> = delta(r, 1-c);
      <r|Z|c> = (-1)^c delta(r,c);   <r|Y|c> = i(-1)^c delta(r, 1-c).
    """
    total = 0.0 + 0.0j
    for coeff, label in terms:
        val = complex(coeff)
        for q, letter in enumerate(label):
            rb = (row >> (n - 1 - q)) & 1
            cb = (col >> (n - 1 - q)) & 1
            if letter == "I":
                f = 1.0 if rb == cb else 0.0
            elif letter == "X":
                f = 1.0 if rb != cb else 0.0
            elif letter == "Z":
                f = (-1.0) ** cb if rb == cb else 0.0
            else:  # Y
                f = 1j * (-1.0) ** cb if rb != cb else 0.0
            val *= f
            if val == 0:
                break
        total += val
    return total


def test_to_matrix_single_z():
    h = HamiltonianSum(1, [(1.0, "Z")])
    np.testing.assert_array_equal(h.to_matrix(dense=True), np.diag([1.0, -1.0]))


def test_to_matrix_half_xx():
    h = HamiltonianSum(2, [(0.5, "XX")])
    expected = 0.5 * np.fliplr(np.eye(4))
    np.testing.assert_array_equal(h.to_matrix(dense=True), expected)


def test_to_matrix_matches_entry_oracle():
    rng = np.random.default_rng(12)
    letters = "IXYZ"
    for _ in range(20):
        terms = []
        for _ in range(3):
            label = "".join(rng.choice(list(letters)) for _ in range(3))
            terms.append((float(rng.uniform(-2, 2)), label))
        h = HamiltonianSum(3, terms)
        mat = np.asarray(h.to_matrix(dense=True), dtype=complex)
        for row in range(8):
            for col in range(8):
                assert mat[row, col] == _entry_oracle(3, terms, row, col)


def test_to_matrix_is_linear():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t1 = [(float(rng.uniform(-1, 1)), "".join(rng.choice(list("IXZ")) for _ in range(3)))]
        t2 = [(float(rng.uniform(-1, 1)), "".join(rng.choice(list("IXZ")) for _ in range(3)))]
        h1 = HamiltonianSum(3, t1)
        h2 = HamiltonianSum(3, t2)
        h12 = HamiltonianSum(3, t1 + t2)
        np.testing.assert_array_equal(
            h12.to_matrix(dense=True), h1.to_matrix(dense=True) + h2.to_matrix(dense=True)
        )


def test_string_masks_are_checked_by_bit_length():
    # a mask's bit length, not 2^n: a huge register forms no huge integer
    assert PauliString(10**20, 1 << 70, 0).z == 0
    assert PauliString(4, np.int64(15), np.int64(8)).x == 15
    for n, x, z in [(3, 8, 0), (3, 0, 8), (3, -1, 0), (0, 1, 0), (10**20, 0, -1)]:
        with pytest.raises(ValueError, match="does not fit"):
            PauliString(n, x, z)


def test_penalty_lift_refuses_an_unwritable_label():
    # one byte a letter: 10^12 letters are above the byte ceiling, 10^5 are not
    bounds = PromiseBounds(0.0, 1.0)
    with pytest.raises(ResourceLimitError, match="penalty label of 1000000000000 letters"):
        pin_penalty_lift(HamiltonianSum(10**12, []), 0, bounds)
    lifted = pin_penalty_lift(HamiltonianSum(10**5, []), 0, bounds).hamiltonian
    assert [t.string.z for t in lifted.terms] == [0, 1]


def test_matrix_ceiling(monkeypatch):
    # refused before the operator or any flip diagonal is built
    monkeypatch.setattr(pinq.pauli, "_whole_flip_form", _no_dense)
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", _no_dense)
    h = HamiltonianSum(13, [(1.0, "Z" + "I" * 12)])
    with pytest.raises(ResourceLimitError, match="dense ceiling"):
        h.to_matrix(dense=True)


# mostly Pauli letters, with the characters that ``int`` reads in a binary
# numeral (digits, "_", whitespace, a sign) and any other
_LABEL_CHARS = st.one_of(st.sampled_from("IXYZ"), st.sampled_from("01_ \t\n+-xyz"), st.characters())


@given(label=st.lists(_LABEL_CHARS, max_size=24).map("".join))
@example(label="")
@example(label="X_Z")
@example(label=" XZ")
@example(label="XYZI" * 16)
def test_from_label_matches_the_letter_loop(label):
    try:
        want = label_masks(label)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            PauliString.from_label(label)
        assert str(got.value) == str(exc)
    else:
        s = PauliString.from_label(label)
        assert (s.n, s.x, s.z) == want


def test_string_apply_matches_matrix():
    rng = np.random.default_rng(5)
    for label in ("XYZ", "IZX", "YYI", "ZZZ"):
        s = PauliString.from_label(label)
        mat = HamiltonianSum(3, [(1.0, label)]).to_matrix(dense=True)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        np.testing.assert_allclose(s.apply(v), mat @ v, atol=1e-14)


def _edge_case_terms(rng, n, letters="IXYZ"):
    """Random terms with a repeated string, a cancelling pair and a zero weight."""
    labels = ["".join(rng.choice(list(letters)) for _ in range(n)) for _ in range(2 * n + 1)]
    terms = [(float(rng.uniform(-1, 1)), lab) for lab in labels]
    terms.append((float(rng.uniform(-1, 1)), labels[0]))  # repeated string
    c = float(rng.uniform(-1, 1))
    terms += [(c, labels[1]), (-c, labels[1])]  # cancelling pair
    terms.append((0.0, labels[2]))  # zero coefficient
    return terms


def test_kron_oracle_matches_entry_oracle():
    rng = np.random.default_rng(21)
    terms = _edge_case_terms(rng, 3)
    mat = pauli_matrix(3, terms)
    for row in range(8):
        for col in range(8):
            assert mat[row, col] == pytest.approx(pauli_entry(3, terms, row, col), abs=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_flip_form_matches_per_term_oracle(n):
    rng = np.random.default_rng(300 + n)
    for terms in ([], _edge_case_terms(rng, n)):
        h = HamiltonianSum(n, terms)
        ref = pauli_matrix(n, terms)
        flips = {label.translate(str.maketrans("YZ", "XI")) for _, label in terms}
        assert h.flip_count() == len(flips)
        sparse = h.to_matrix()
        assert sparse.nnz == len(flips) * (1 << n)
        np.testing.assert_allclose(sparse.toarray(), ref, atol=1e-14)
        np.testing.assert_allclose(h.to_matrix(dense=True), ref, atol=1e-14)
        v_real = rng.standard_normal(1 << n)
        v_cplx = v_real + 1j * rng.standard_normal(1 << n)
        for v in (v_real, v_cplx):
            np.testing.assert_allclose(h.apply(v), ref @ v, atol=1e-13)


def _wide_sum(rng, n, flip_letters):
    """5n terms on n random flip masks, so most masks carry several strings;
    a flipped qubit takes one of ``flip_letters``, the others I or Z."""
    patterns = ["".join(rng.choice(["I", "X"], n)) for _ in range(n)]
    terms = []
    for _ in range(5 * n):
        pattern = patterns[rng.integers(n)]
        label = "".join(rng.choice(flip_letters if p == "X" else ["I", "Z"]) for p in pattern)
        terms.append((float(rng.uniform(-1, 1)), label))
    return terms


def _bit_identity_cases():
    rng = np.random.default_rng(400)
    cases = [pytest.param(n, _edge_case_terms(rng, n), id=f"edge-{n}") for n in range(1, 7)]
    cases.append(pytest.param(3, [(-0.0, "XZY"), (0.5, "XZI"), (-0.0, "ZZI")], id="negative-zero"))
    cases.append(pytest.param(4, [], id="empty"))
    for n in (12, 16):  # several rows per chunk at 12 qubits, one at 16
        for kind, flip_letters in (("real", ["X"]), ("complex", ["X", "Y"])):
            cases.append(pytest.param(n, _wide_sum(rng, n, flip_letters), id=f"{kind}-{n}"))
    return cases


def _operator_rows(h):
    """(f, E_f) for each flip mask f of ``h``, in stored order: the rows
    E_f[r] = H[r, r ^ f] of its compiled operator, whose row 0 holds
    column f for each f."""
    mat = h.to_matrix()
    flips = mat.indices[:mat.indptr[1]].tolist()
    data = mat.data.reshape(mat.shape[0], len(flips))
    return [(f, data[:, k]) for k, f in enumerate(flips)]


def _oracle_rows(n, terms):
    """The per-term oracle's diagonals read as rows: E_f[r] = D_f[r ^ f]."""
    rows = np.arange(1 << n)
    return [(f, diag[rows ^ f]) for f, diag in flip_diagonals(n, terms)]


@pytest.mark.parametrize("n, terms", _bit_identity_cases())
def test_flip_diagonals_bit_identical_to_per_term_oracle(n, terms):
    got = _operator_rows(HamiltonianSum(n, terms))
    want = _oracle_rows(n, terms)
    assert [f for f, _ in got] == [f for f, _ in want]
    for (_, d), (_, ref) in zip(got, want):
        assert d.dtype == ref.dtype
        np.testing.assert_array_equal(d, ref)
        assert d.tobytes() == ref.tobytes()  # signed zeros included


@pytest.mark.parametrize("label", ["XYZ", "IZX", "YYI", "ZZZ", "YYYY", "I"])
def test_string_apply_matches_per_term_oracle(label):
    n = len(label)
    rng = np.random.default_rng(len(label))
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    ref = np.zeros(1 << n, dtype=complex)
    idx = np.arange(1 << n)
    for flip, diag in flip_diagonals(n, [(1.0, label)]):
        ref += (diag * v)[idx ^ flip]  # (P_f w)[i] = w[i ^ f]
    np.testing.assert_array_equal(PauliString.from_label(label).apply(v), ref)


def test_flip_diagonals_come_in_increasing_mask_order():
    h = HamiltonianSum(3, [(1.0, "XII"), (0.5, "IIX"), (0.25, "ZZZ"), (2.0, "YII")])
    flips = [f for f, _ in _operator_rows(h)]
    assert flips == [0, 1, 4]  # qubit 0 is the most significant index bit
    assert h.flip_count() == 3


def _signed_zero_vectors(rng, n):
    """A real vector, a complex one, and a complex one whose imaginary parts
    are all +0 or -0, each holding +0 and -0 entries."""
    real = rng.standard_normal(1 << n)
    cplx = real + 1j * rng.standard_normal(1 << n)
    real[::3] = 0.0
    real[1::3] = -0.0
    cplx.real[::4] = -0.0
    cplx.imag[1::4] = -0.0
    cplx[2::5] = complex(-0.0, 0.0)
    zero_imag = real.astype(complex)
    zero_imag.imag[::2] = -0.0
    return real, cplx, zero_imag


def _two_products(mat, v):
    """A real matrix on a complex vector, one real product per part."""
    out = np.empty(v.shape, dtype=complex)
    out.real = mat @ v.real
    out.imag = mat @ v.imag
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_matvec_bytes_match_per_flip_loop_on_real_sums(n):
    rng = np.random.default_rng(500 + n)
    terms = _edge_case_terms(rng, n, letters="IXZ") + [(-0.0, "X" * n)]
    for case in ([], terms):
        h = HamiltonianSum(n, case)
        mat = h.to_matrix()
        for v in _signed_zero_vectors(rng, n):
            want = apply_flip_diagonals(flip_diagonals(n, case), v)
            for got in (h.apply(v), pinq.pauli.flip_matvec(mat, v)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_real_valued_states_skip_only_a_zero_product(n):
    # an all-zero imaginary part skips its product, bit for bit; one nonzero
    # imaginary entry takes both
    rng = np.random.default_rng(700 + n)
    h = HamiltonianSum(n, _edge_case_terms(rng, n, letters="IXZ") + [(-0.0, "X" * n)])
    mat = h.to_matrix()
    assert not np.iscomplexobj(mat.data)
    _, _, zero_imag = _signed_zero_vectors(rng, n)
    one_imag = zero_imag.copy()
    one_imag.imag[rng.integers(1 << n)] = 0.5
    for v in (zero_imag, one_imag):
        want = _two_products(mat, v)
        for got in (pinq.pauli.flip_matvec(mat, v), h.apply(v)):
            assert got.tobytes() == want.tobytes()
    assert _two_products(mat, one_imag).imag.any()


@pytest.mark.parametrize("n", range(1, 9))
def test_matvec_matches_per_flip_loop_on_sums_with_y(n):
    # scipy rounds complex products on its own, not in numpy's SIMD loop
    rng = np.random.default_rng(600 + n)
    terms = _edge_case_terms(rng, n) + [(0.5, "Y" * n)]
    h = HamiltonianSum(n, terms)
    assert h.has_y
    for v in _signed_zero_vectors(rng, n):
        want = apply_flip_diagonals(flip_diagonals(n, terms), v, complex)
        np.testing.assert_allclose(h.apply(v), want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("n", range(1, 9))
def test_operator_rows_are_the_per_term_entries_bit_for_bit(n):
    # the CSR rows are the column-side oracle read as rows:
    # entry (r, slot k) is H[r, r ^ f_k] = D_{f_k}[r ^ f_k], signed zeros included
    rng = np.random.default_rng(900 + n)
    y = "Y" * n
    xy = "X" + "Y" * (n - 1)
    terms = _edge_case_terms(rng, n) + [(0.5, y), (-0.5, y), (0.25, xy), (-0.25, xy), (0.0, y), (-0.0, xy)]
    dim = 1 << n
    rows = np.arange(dim)
    for case in (terms, [(-0.0, y)], [(0.0, xy), (-0.0, "Z" * n)]):
        want = flip_diagonals(n, case)
        mat = HamiltonianSum(n, case).to_matrix()
        assert mat.dtype == want[0][1].dtype
        data = mat.data.reshape(dim, len(want))
        cols = mat.indices.reshape(dim, len(want))
        for k, (f, diag) in enumerate(want):
            np.testing.assert_array_equal(cols[:, k], rows ^ f)
            assert data[:, k].tobytes() == diag[rows ^ f].tobytes()


def _x_only(terms, qubits):
    """The terms with only I or X on ``qubits``: Y turns X and Z turns I there."""
    table = str.maketrans("YZ", "XI")
    return [(c, "".join(ch.translate(table) if q in qubits else ch for q, ch in enumerate(label)))
            for c, label in terms]


def _narrowed_build_cases():
    rng = np.random.default_rng(2200)
    cases = []
    for n_sys in (1, 2, 3):  # the traversal construction: Q and R3 put only X on 6 ancillas
        labels = ["".join(rng.choice(list("IXZ"), n_sys)) for _ in range(2 * n_sys)] + ["Z" * n_sys]
        h = HamiltonianSum(n_sys, [(float(rng.uniform(-0.5, 0.5)), lab) for lab in labels])
        hpp = build_stoquastic_gscon(h, alpha=0.0, beta=0.5).hamiltonian
        cases.append(pytest.param(hpp.n, [(t.coeff, t.string.label()) for t in hpp.terms], n_sys,
                                  id=f"stoquastic-{hpp.n}"))
    for n in (5, 7):  # complex rows, two X-only qubits
        terms = _x_only(_edge_case_terms(rng, n), {1, n - 2})
        terms += [(0.5, "YX" + "Y" * (n - 4) + "XZ"), (-0.0, "Y" + "X" * (n - 1))]
        cases.append(pytest.param(n, terms, n - 2, id=f"complex-{n}"))
    for n in (4, 6):  # the sign support misses exactly one qubit
        for kind, letters in (("real", "IXZ"), ("complex", "IXYZ")):
            terms = _x_only(_edge_case_terms(rng, n, letters), {n // 2})
            terms.append((0.25, "Z" * (n // 2) + "I" + "Z" * (n - n // 2 - 1)))
            cases.append(pytest.param(n, terms, n - 1, id=f"miss-one-{kind}-{n}"))
    cases.append(pytest.param(5, _edge_case_terms(rng, 5, "IX"), 0, id="pure-x"))
    cases.append(pytest.param(4, [], 0, id="empty"))
    return cases


@pytest.mark.parametrize("n, terms, width", _narrowed_build_cases())
def test_narrowed_whole_register_build_is_bit_identical(monkeypatch, n, terms, width):
    # the whole-register rows are summed on the 2^|S| patterns of the sign
    # support S and broadcast over the rest; the operator's rows and its CSR
    # data are the per-term sums byte for byte, signed zeros included
    want = _oracle_rows(n, terms)
    h = HamiltonianSum(n, terms)
    passes = []
    stacked = pinq.pauli._stacked_diagonals
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals",
                        lambda strings, diags: passes.append(diags.shape[1]) or stacked(strings, diags))
    got = _operator_rows(h)
    assert passes == [1 << width]
    assert [f for f, _ in got] == [f for f, _ in want]
    for (_, d), (_, ref) in zip(got, want):
        assert d.dtype == ref.dtype and d.tobytes() == ref.tobytes()
    mat = h.to_matrix()
    expect = np.stack([row for _, row in want], axis=1) if want else np.empty((1 << n, 0))
    assert mat.data.dtype == expect.dtype and mat.data.tobytes() == expect.tobytes()


def test_whole_register_refusals_form_no_register_range():
    # 2^n cannot be formed, nor range(n) iterated, for a header of 10^20
    # qubits: the builder refuses on its own, and its callers at the qubit
    # ceiling first
    h = HamiltonianSum(10**20, [])
    with pytest.raises(ResourceLimitError, match="int32 column index"):
        next(pinq.pauli._local_flip_forms(h, whole=True))
    for build in (h.to_matrix, lambda: is_stoquastic(h, termwise=False), lambda: is_permutation(h, termwise=False)):
        with pytest.raises(ResourceLimitError, match="iterative ceiling"):
            build()


def test_mask_maps_match_per_qubit_loop():
    rng = np.random.default_rng(700)
    for n in (0, 1, 7, 8, 9, 16, 70):
        masks = [int(m) for m in rng.integers(0, 1 << min(n, 62), 20)] + [(1 << n) - 1]
        if n > 62:
            masks += [(1 << (n - 1)) | 5, 1 << 63]
        supp = sorted({int(q) for q in rng.integers(0, n, 5)}) if n else []
        for local, qubits in ((pinq.pauli._support_bits(range(n)), range(n)), (pinq.pauli._support_bits(supp), supp)):
            for m in masks:
                m &= sum(1 << q for q in qubits)
                want = sum(((m >> q) & 1) << (len(qubits) - 1 - k) for k, q in enumerate(qubits))
                assert local(m) == want


@pytest.mark.parametrize("n", [2.5, 2.0, float("inf"), "2"])
def test_qubit_count_must_be_an_integer(n):
    with pytest.raises(TypeError):
        HamiltonianSum(n, [])
    assert HamiltonianSum(np.int64(2), [(1.0, "XZ")]).n == 2


def test_qubit_count_must_be_non_negative():
    with pytest.raises(ValueError, match="non-negative"):
        HamiltonianSum(-1, [])


def test_apply_refuses_a_state_of_the_wrong_dimension():
    h = HamiltonianSum(2, [(1.0, "XZ")])
    for vec in (np.ones(2), np.ones(8)):
        with pytest.raises(ValueError, match="state dimension mismatch"):
            h.apply(vec)


def test_apply_keeps_no_cache():
    h = HamiltonianSum(2, [(1.0, "XZ"), (0.5, "YY")])
    before = dict(vars(h))
    h.apply(np.ones(4))
    assert vars(h) == before


# ---------------------------------------------------------------------------
# commutation
# ---------------------------------------------------------------------------


def _weight_le2_strings(n):
    out = []
    for x in range(1 << n):
        for z in range(1 << n):
            if bin(x | z).count("1") <= 2:
                out.append(PauliString(n, x, z))
    return out


def test_symplectic_agrees_with_matrix_commutator():
    n = 4
    strings = _weight_le2_strings(n)
    mats = {}
    for s in strings:
        mats[(s.x, s.z)] = np.asarray(
            HamiltonianSum(n, [PauliTerm(1.0, s)]).to_matrix(dense=True), dtype=complex
        )
    for i, s1 in enumerate(strings):
        m1 = mats[(s1.x, s1.z)]
        for s2 in strings[i:]:
            m2 = mats[(s2.x, s2.z)]
            comm_norm = np.linalg.norm(m1 @ m2 - m2 @ m1)
            assert s1.commutes_with(s2) == (comm_norm < 1e-12)


def test_compose_phases():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    y = PauliString.from_label("Y")
    prod, k = x.compose(z)
    assert (prod.x, prod.z, k) == (1, 1, 3)  # XZ = -iY
    prod, k = z.compose(x)
    assert (prod.x, prod.z, k) == (1, 1, 1)  # ZX = +iY
    prod, k = y.compose(y)
    assert (prod.x, prod.z, k) == (0, 0, 0)


def test_is_commuting_examples():
    assert is_commuting(HamiltonianSum(2, [(1.0, "ZI"), (1.0, "IX")])).verdict
    rep = is_commuting(HamiltonianSum(1, [(1.0, "X"), (1.0, "Z")]))
    assert not rep.verdict
    assert rep.pair == (0, 1)


def test_is_commuting_grouped_projector_terms():
    # A (x) |+><+| and B (x) |-><-| commute as operators even though their
    # string expansions do not commute pairwise.
    terms = [
        (0.5, "ZI"), (0.5, "ZX"),   # Z (x) (I+X)/2
        (0.5, "XI"), (-0.5, "XX"),  # X (x) (I-X)/2
    ]
    grouped = HamiltonianSum(2, terms, groups=((0, 1), (2, 3)))
    assert is_commuting(grouped).verdict
    flat = HamiltonianSum(2, terms)
    assert not is_commuting(flat).verdict


def test_zero_weight_strings_commute_with_everything():
    # 0 X + 1 Z is the operator Z, ungrouped as in one group
    for groups in (None, ((0, 1),), ((1,), (0,))):
        assert is_commuting(HamiltonianSum(1, [(0.0, "X"), (1.0, "Z")], groups)).verdict
    rep = is_commuting(HamiltonianSum(2, [(0.0, "XI"), (1.0, "ZI"), (0.5, "XI")]))
    assert astuple(rep) == (False, (1, 2))


@pytest.mark.parametrize("seed", range(200))
def test_is_commuting_matches_dense_commutator_oracle(seed):
    # dyadic weights, zeros included, so the dense commutators are exact
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(1, 4))
    terms = [
        (float(rng.choice([0.0, 0.0, -1.0, -0.5, 0.25, 1.0])), "".join(rng.choice(list("IXYZ"), n)))
        for _ in range(int(rng.integers(1, 7)))
    ]
    cuts = sorted(int(c) for c in rng.choice(range(1, len(terms)), int(rng.integers(0, len(terms))), replace=False))
    grouped = tuple(tuple(range(a, b)) for a, b in zip([0, *cuts], [*cuts, len(terms)]))
    for groups in (None, grouped):
        h = HamiltonianSum(n, terms, groups)
        assert astuple(is_commuting(h)) == commuting_report(n, terms, h.group_indices())


# ---------------------------------------------------------------------------
# stoquasticity
# ---------------------------------------------------------------------------


def test_is_stoquastic_examples():
    assert is_stoquastic(HamiltonianSum(2, [(-1.0, "XX")])).verdict
    rep = is_stoquastic(HamiltonianSum(1, [(1.0, "X")]))
    assert not rep.verdict
    assert abs(rep.worst_entry - 1.0) < 1e-15


def test_diagonal_sums_always_stoquastic():
    rng = np.random.default_rng(8)
    for _ in range(20):
        terms = []
        for _ in range(5):
            z = int(rng.integers(0, 16))
            terms.append(PauliTerm(float(rng.uniform(-3, 3)), PauliString(4, 0, z)))
        h = HamiltonianSum(4, terms)
        assert is_stoquastic(h, termwise=True).verdict
        assert is_stoquastic(h, termwise=False).verdict


def test_negative_x_sums_always_stoquastic():
    rng = np.random.default_rng(9)
    for _ in range(20):
        terms = []
        for _ in range(5):
            x = int(rng.integers(1, 16))
            terms.append(PauliTerm(-float(rng.uniform(0, 3)), PauliString(4, x, 0)))
        h = HamiltonianSum(4, terms)
        assert is_stoquastic(h, termwise=True).verdict
        assert is_stoquastic(h, termwise=False).verdict


def test_stoquastic_global_vs_termwise():
    # +X and -X on the same qubit cancel: globally stoquastic, not termwise
    h = HamiltonianSum(1, [(1.0, "X"), (-1.0, "X")])
    assert not is_stoquastic(h, termwise=True).verdict
    assert is_stoquastic(h, termwise=False).verdict


# ---------------------------------------------------------------------------
# permutation form
# ---------------------------------------------------------------------------


def test_is_permutation_examples():
    assert is_permutation(HamiltonianSum(1, [(1.0, "X")])).verdict
    rep = is_permutation(HamiltonianSum(1, [(1.0, "Z")]))
    assert not rep.verdict


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("check", [is_stoquastic, is_permutation])
def test_checks_refuse_bad_tolerance_before_any_build(monkeypatch, check, tol):
    def no_build(*args, **kwargs):
        raise AssertionError("a stack was built")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    with pytest.raises(ValueError, match="tolerance"):
        check(HamiltonianSum(1, [(1.0, "X")]), True, tol)


def test_controlled_flip_gadget_is_permutation():
    # |0><0| (x) I + |1><1| (x) X as one grouped term
    terms = [(0.5, "II"), (0.5, "ZI"), (0.5, "IX"), (-0.5, "ZX")]
    h = HamiltonianSum(2, terms, groups=((0, 1, 2, 3),))
    assert is_permutation(h, termwise=True).verdict
    assert is_permutation(h, termwise=False).verdict
    # the individual strings are not permutations
    flat = HamiltonianSum(2, terms)
    assert not is_permutation(flat, termwise=True).verdict


# ---------------------------------------------------------------------------
# structural checks against a dense oracle, and their memory ceilings
# ---------------------------------------------------------------------------


def _random_check_case(seed):
    """A seeded grouped sum whose groups are drawn from the shapes the checks
    must tell apart: random strings with Y letters, +-1 single strings,
    controlled-flip gadgets, cancelling pairs and identity-only groups.
    Weights come from a small set, so equal offenders are common."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))

    def label():
        return "".join(rng.choice(list("IXYZ")) for _ in range(n))

    def weight():
        return float(rng.choice([-1.0, -0.5, 0.5, 1.0]))

    def placed(letters):
        return "".join(letters.get(q, "I") for q in range(n))

    blocks = []
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(5))
        if kind == 0:
            blocks.append([(float(rng.uniform(-1, 1)), label()) for _ in range(int(rng.integers(1, 4)))])
        elif kind == 1:
            blocks.append([(weight(), label())])
        elif kind == 2 and n >= 2:
            c, t = (int(q) for q in rng.choice(n, 2, replace=False))
            blocks.append([(0.5, placed({})), (0.5, placed({c: "Z"})), (0.5, placed({t: "X"})),
                           (-0.5, placed({c: "Z", t: "X"}))])
        elif kind == 3:
            c, lab = weight(), label()
            blocks.append([(c, lab), (-c, lab)])
        else:
            blocks.append([(weight(), "I" * n)])
    terms = [t for b in blocks for t in b]
    if rng.random() < 0.25:
        return n, terms, None
    groups, start = [], 0
    for b in blocks:
        groups.append(tuple(range(start, start + len(b))))
        start += len(b)
    return n, terms, tuple(groups)


_FIXED_CHECK_CASES = {
    "empty sum": (3, [], None),
    # equal offenders in both groups, and on two entries of the assembled row 0
    "tie": (2, [(1.0, "XI"), (1.0, "IX")], None),
    "identity-only group": (2, [(1.0, "II"), (0.5, "YI"), (-0.5, "YI")], ((0,), (1, 2))),
}


@pytest.mark.parametrize("case", [*_FIXED_CHECK_CASES, *range(60)])
def test_structural_checks_match_dense_oracle(case):
    if isinstance(case, str):
        n, terms, groups = _FIXED_CHECK_CASES[case]
    else:
        n, terms, groups = _random_check_case(case)
    h = HamiltonianSum(n, terms, groups)
    for assembled in (False, True):
        want = stoquastic_report(n, terms, h.group_indices(), assembled)
        assert astuple(is_stoquastic(h, termwise=not assembled)) == want
        want = permutation_report(n, terms, h.group_indices(), assembled)
        assert astuple(is_permutation(h, termwise=not assembled)) == want


def test_stoquastic_ties_go_to_first_group_and_first_entry():
    h = HamiltonianSum(2, [(1.0, "XI"), (1.0, "IX")])
    assert astuple(is_stoquastic(h)) == (False, 1.0, (0, 1), 0)
    assert astuple(is_stoquastic(h, termwise=False)) == (False, 1.0, (0, 1), None)


def _no_dense(*args, **kwargs):
    raise AssertionError("dense matrix built")


def test_assembled_checks_build_no_dense_matrix(monkeypatch):
    # 14 qubits: a dense realization would take 2 GiB (real) or 4 GiB (complex)
    n = 14
    sparse_to_matrix = HamiltonianSum.to_matrix

    def sparse_only(self, dense=False):
        if dense:
            _no_dense()
        return sparse_to_matrix(self)

    monkeypatch.setattr(HamiltonianSum, "to_matrix", sparse_only)
    monkeypatch.setattr(sp.csr_matrix, "toarray", _no_dense)
    x0 = "X" + "I" * (n - 1)
    h = HamiltonianSum(n, [(1.0, x0), (0.25, "I" * (n - 2) + "XX"), (-0.5, "I" * (n - 1) + "Z")])
    assert astuple(is_stoquastic(h, termwise=False)) == (False, 1.0, (0, 1 << (n - 1)), None)
    assert astuple(is_permutation(h, termwise=False)) == (False, "entry outside {0,1}", None)
    flip = HamiltonianSum(n, [(1.0, x0)])
    assert is_permutation(flip, termwise=False).verdict
    assert not is_stoquastic(flip, termwise=False).verdict


def test_weight_13_group_norm_hits_dense_ceiling_but_checks_answer(monkeypatch):
    n = 13
    h = HamiltonianSum(
        n, [(1.0, "X" * n), (0.5, "Z" * n), (-1.0, "I" * (n - 1) + "X")], groups=((0, 1), (2,))
    )
    monkeypatch.setattr(np, "kron", _no_dense)
    monkeypatch.setattr(sp.csr_matrix, "toarray", _no_dense)
    with monkeypatch.context() as m:
        m.setattr(HamiltonianSum, "to_matrix", _no_dense)
        with pytest.raises(ResourceLimitError):
            h.group_norms()
    assert astuple(is_stoquastic(h)) == (False, 1.0, (0, (1 << n) - 1), 0)
    assert astuple(is_permutation(h)) == (False, "entry outside {0,1}", 0)


def _wide_group_case(seed):
    """16 qubits: a random 14-qubit group with Y letters, a 14-qubit
    controlled flip (a permutation, and not stoquastic) and a 2-qubit group."""
    rng = np.random.default_rng(seed)
    n = 16
    wide = [(float(rng.choice([-1.0, -0.5, 0.5, 1.0])),
             "I" + "".join(rng.choice(list("IXYZ"), 14)) + "I") for _ in range(3)]
    wide.append((0.25, "I" + "X" * 14 + "I"))  # pins the support to qubits 1..14
    flips = "I" * 2 + "X" * 13 + "I"
    gadget = [(0.5, "I" * n), (0.5, "IZ" + "I" * 14), (0.5, flips), (-0.5, "IZ" + flips[2:])]
    small = [(1.0, "I" * 14 + "XX")]
    blocks = [wide, gadget, small] if seed % 2 else [gadget, small, wide]
    terms = [t for b in blocks for t in b]
    groups, start = [], 0
    for b in blocks:
        groups.append(tuple(range(start, start + len(b))))
        start += len(b)
    return n, terms, tuple(groups)


@pytest.mark.parametrize("seed", range(2))
def test_termwise_checks_on_wide_groups_match_sparse_oracle(seed):
    n, terms, groups = _wide_group_case(seed)
    h = HamiltonianSum(n, terms, groups)
    assert max(len(h.group_support(g)) for g in groups) == 14
    assert astuple(is_stoquastic(h)) == stoquastic_report(n, terms, groups, False, sparse=True)
    assert astuple(is_permutation(h)) == permutation_report(n, terms, groups, False, sparse=True)


def test_termwise_checks_stop_at_the_iterative_ceiling(monkeypatch):
    # a 21-qubit group is above the 20-qubit ceiling of every sparse form
    n = 21
    h = HamiltonianSum(n, [(1.0, "X" * n)])
    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", _no_dense)
    with pytest.raises(ResourceLimitError, match="iterative ceiling"):
        is_stoquastic(h)
    with pytest.raises(ResourceLimitError, match="iterative ceiling"):
        is_permutation(h)
    with pytest.raises(ResourceLimitError, match="dense ceiling"):
        h.group_norms()


_NORM_CASES = {
    **_FIXED_CHECK_CASES,
    "duplicate strings": (3, [(0.5, "XYZ"), (0.5, "XYZ"), (0.25, "ZII"), (0.25, "YYI")], ((0, 1, 2), (3,))),
}


@pytest.mark.parametrize("case", [*_NORM_CASES, *range(60)])
def test_group_norms_match_dense_oracle(case):
    if isinstance(case, str):
        n, terms, groups = _NORM_CASES[case]
    else:
        n, terms, groups = _random_check_case(case)
    h = HamiltonianSum(n, terms, groups)
    want = group_norms(n, terms, h.group_indices())
    np.testing.assert_allclose(h.group_norms(), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", [*_NORM_CASES, *range(20)])
def test_whole_register_forms_read_the_group_form_builder(monkeypatch, case):
    # the checks and group norms are built by ``_local_flip_forms`` without
    # the compiled operator; the operator's rows are the per-term sums, and
    # the dense matrix, and the exact norm taken from it, are it densified
    if isinstance(case, str):
        n, terms, groups = _NORM_CASES[case]
    else:
        n, terms, groups = _random_check_case(case)
    h = HamiltonianSum(n, terms, groups)
    ref = pauli_matrix(n, terms)
    with monkeypatch.context() as m:
        m.setattr(HamiltonianSum, "to_matrix", _no_dense)
        assert astuple(is_stoquastic(h, termwise=False)) == stoquastic_report(n, terms, h.group_indices(), True)
        assert astuple(is_permutation(h, termwise=False)) == permutation_report(n, terms, h.group_indices(), True)
        np.testing.assert_allclose(h.group_norms(), group_norms(n, terms, h.group_indices()), rtol=0, atol=1e-12)
    got, want = _operator_rows(h), _oracle_rows(n, terms)
    assert [f for f, _ in got] == [f for f, _ in want]
    for (_, d), (_, d_ref) in zip(got, want):
        assert d.tobytes() == d_ref.tobytes()
    mat = h.to_matrix(dense=True)
    assert mat.dtype == h.dtype
    np.testing.assert_allclose(mat, ref, rtol=0, atol=1e-14)
    assert mat.tobytes() == h.to_matrix().toarray().tobytes()
    lift = pin_penalty_lift(h, 0, PromiseBounds(0.0, 1.0), exact_norm=True)
    assert lift.norm_bound == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(ref))), rel=0, abs=1e-12)


def test_group_norm_stacks_fit_one_dense_matrix_at_the_ceiling():
    # 10-qubit groups: 32 real (16 complex) 1024 x 1024 matrices fill one stack
    n, w = 12, 10
    blocks = [[(0.5, "X" * w + "II")]] * 40 + [[(0.5, "Y" * w + "II")]] * 20
    h = HamiltonianSum.from_groups(n, blocks)
    limit = 16 << (2 * DENSE_QUBIT_CEILING)
    stacks = list(pinq.pauli._local_flip_forms(h, DENSE_QUBIT_CEILING, "dense"))
    assert [len(members) for members, *_ in stacks] == [32, 8, 16, 4]
    for members, _, _, diags in stacks:
        assert len(members) * diags.itemsize << (2 * w) <= limit
    assert sorted(gi for members, *_ in stacks for gi in members) == list(range(60))


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_locality_counts_group_support():
    terms = [(0.5, "ZII"), (0.5, "ZXI")]
    assert HamiltonianSum(3, terms).locality == 2
    assert HamiltonianSum(3, terms, groups=((0, 1),)).locality == 2
    terms = [(0.5, "ZII"), (0.5, "IXX")]
    assert HamiltonianSum(3, terms, groups=((0, 1),)).locality == 3


def test_group_norms():
    h = HamiltonianSum(2, [(2.0, "ZI"), (0.5, "II"), (0.5, "ZZ")], groups=((0,), (1, 2)))
    norms = h.group_norms()
    assert norms[0] == pytest.approx(2.0)
    assert norms[1] == pytest.approx(1.0)  # (I + ZZ)/2 is a projector


@pytest.mark.parametrize("labels", [("Z", "Z"), ("YY", "YY"), ("XZ", "XZ")])
def test_overflowing_sum_raises_without_warning(labels):
    # two finite weights whose sum is not a double, in a real diagonal, a
    # complex and an off-diagonal row
    terms = [(1e308, lab) for lab in labels]
    h = HamiltonianSum(len(labels[0]), terms)
    for build in (h.to_matrix, lambda: h.to_matrix(dense=True), lambda: is_stoquastic(h, termwise=False)):
        with pytest.raises(PreconditionError, match="overflows"):
            build()
    grouped = HamiltonianSum(len(labels[0]), terms, groups=((0, 1),))
    with pytest.raises(PreconditionError, match="overflows"):
        grouped.group_norms()
    # the termwise check builds each string on its own, so it answers
    assert is_stoquastic(h, termwise=True).verdict == (labels[0] == "Z")


def test_every_stack_is_held_to_the_byte_ceiling_before_it_is_built(monkeypatch):
    # 700 X masks spanning 16 qubits: 550502400 bytes of CSR data and index,
    # over the 512 MiB ceiling, though the whole-register stack alone is 367001600
    n = 16
    terms = [PauliTerm(1.0, PauliString(n, m, 0)) for m in [*range(1, 700), (1 << n) - 1]]
    h = HamiltonianSum(n, terms)
    one_group = HamiltonianSum(n, terms, groups=(tuple(range(700)),))

    def no_build(*args):
        raise AssertionError("flip diagonals built before the byte ceiling check")

    monkeypatch.setattr(pinq.pauli, "_stacked_diagonals", no_build)
    message = (f"700 flip masks on 16 qubits need {700 * 12 << 16} bytes, "
               f"above the iterative ceiling of {pinq.pauli.ITERATIVE_BYTE_CEILING}")
    for build in (h.to_matrix, lambda: is_stoquastic(h, termwise=False), lambda: is_permutation(h, termwise=False),
                  lambda: h.apply(np.zeros(1 << n)), lambda: is_stoquastic(one_group, termwise=True),
                  lambda: is_permutation(one_group, termwise=True)):
        with pytest.raises(ResourceLimitError) as err:
            build()
        assert str(err.value) == message


def test_term_y_flagging():
    t = PauliTerm(1.0, PauliString.from_label("XY"))
    assert t.string.has_y
    assert not PauliTerm(1.0, PauliString.from_label("XZ")).string.has_y


def test_merged_collects_duplicates():
    h = HamiltonianSum(1, [(0.5, "X"), (0.5, "X"), (1.0, "Z"), (-1.0, "Z")])
    m = h.merged()
    assert len(m.terms) == 1
    assert m.terms[0].coeff == 1.0
    assert m.terms[0].string.label() == "X"


@pytest.mark.parametrize("string, proj", [("XIZ", "IXI"), ("ZXI", "IIZ"), ("III", "ZIZ"), ("XZI", "IIY")])
@pytest.mark.parametrize("sign", [1, -1])
def test_projector_terms_match_the_matrix_product(string, proj, sign):
    p, q = PauliString.from_label(string), PauliString.from_label(proj)
    terms = projector_terms(3, -0.75, p.x, p.z, sign, q.x, q.z)
    assert [t.string for t in terms] == [p, PauliString(3, p.x | q.x, p.z | q.z)]
    got = pauli_matrix(3, [(t.coeff, t.string.label()) for t in terms])
    a, b = pauli_matrix(3, [(1.0, string)]), pauli_matrix(3, [(1.0, proj)])
    np.testing.assert_allclose(got, -0.75 * a @ (np.eye(8) + sign * b) / 2, atol=1e-15)


@pytest.mark.parametrize("label", ["XZZ", "ZXZ", "XXZ", "ZZX", "XIZ", "XZI", "XXX", "ZIZ", "III"])
@pytest.mark.parametrize("coeff", [0.75, -0.5])
def test_sign_pieces_sum_to_the_string_with_one_sign_each(label, coeff):
    s = PauliString.from_label(label)
    pieces = sign_pieces(3, coeff, s.x, s.z)
    total = np.zeros((8, 8), dtype=complex)
    for sign, terms in pieces:
        m = pauli_matrix(3, [(t.coeff, t.string.label()) for t in terms])
        total += m
        off = m - np.diag(np.diag(m))
        if sign == 0:
            assert not off.any()
        else:
            # every off-diagonal entry has the sign of the piece, or is zero
            assert np.all(off.real * np.sign(sign) >= 0) and not off.imag.any()
    np.testing.assert_array_equal(total, pauli_matrix(3, [(coeff, label)]))
    # a string with X and Z splits in two on the parity sectors of its Z support
    assert len(pieces) == (2 if s.x and s.z else 1)
    assert pieces[0][0] == (coeff if s.x else 0.0)


@pytest.mark.parametrize("coeff", [0.0, -0.0])
def test_sign_pieces_keep_a_zero_weight_as_one_term(coeff):
    s = PauliString.from_label("XZZ")
    [(sign, [term])] = sign_pieces(3, coeff, s.x, s.z)
    assert term == PauliTerm(coeff, s)
    assert math.copysign(1.0, term.coeff) == math.copysign(1.0, coeff)
    assert not sign > 0
