"""Real-weighted Pauli-string Hamiltonians and their structural checks.

Conventions used throughout the package:

* A Pauli string on ``n`` qubits is stored as two bit masks ``(x, z)``;
  bit ``q`` of a mask refers to qubit ``q``.  A qubit with both bits set
  carries ``Y = i*X*Z``.
* In text labels and matrix realizations qubit 0 is the *leftmost* letter
  and the *most significant* bit of a computational-basis index, i.e.
  ``to_matrix`` is the Kronecker product taken in qubit order.
* Hamiltonians are flat lists of weighted strings, optionally partitioned
  into *groups*.  A group is one local operator (for instance a projector
  gadget expanded into strings); structural checks (stoquasticity,
  commutation, permutation form) operate at group granularity.  Without an
  explicit grouping every string is its own group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import ResourceLimitError

DENSE_QUBIT_CEILING = 12
SPARSE_QUBIT_CEILING = 16
DEFAULT_TOL = 1e-12

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_LETTER_INV = {v: k for k, v in _LETTER.items()}


def _popcount(v: int) -> int:
    return bin(v).count("1")


def _string_diagonal(idx: np.ndarray, sign: int, ny: int, coeff=1.0) -> np.ndarray:
    """coeff * i**ny * (-1)**popcount(idx & sign): one string's diagonal factor."""
    par = np.bitwise_count(idx & np.uint64(sign)) & np.uint8(1)
    diag = coeff * (1.0 - 2.0 * par)
    return diag * (1j ** ny) if ny % 4 else diag


def apply_flip_diagonals(pairs, vec: np.ndarray, dtype=float) -> np.ndarray:
    """Apply H = sum_f P_f diag(D_f) to a vector, where (P_f v)[i] = v[i ^ f].

    ``pairs`` is an iterable of (f, D_f), as yielded by
    ``HamiltonianSum.flip_diagonals``; ``dtype`` is the operator's own dtype.
    Seen as a (2,)*n array with qubit q on axis q, P_f reverses the axes of
    the bits set in f, so each term is a strided view, not a gather.
    """
    n = vec.shape[0].bit_length() - 1
    shape = (2,) * n
    out = np.zeros(vec.shape, dtype=np.result_type(dtype, vec.dtype))
    acc = out.reshape(shape)
    for flip, diag in pairs:
        axes = tuple(q for q in range(n) if (flip >> (n - 1 - q)) & 1)
        acc += np.flip((diag * vec).reshape(shape), axis=axes)
    return out


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, phase convention Y = i*X*Z."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("qubit count must be non-negative")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError("mask does not fit within the qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _LETTER_INV[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

    def label(self) -> str:
        return "".join(
            _LETTER[(self.x >> q) & 1, (self.z >> q) & 1] for q in range(self.n)
        )

    @property
    def support(self) -> tuple:
        m = self.x | self.z
        return tuple(q for q in range(self.n) if (m >> q) & 1)

    @property
    def weight(self) -> int:
        return _popcount(self.x | self.z)

    @property
    def has_y(self) -> bool:
        return bool(self.x & self.z)

    @property
    def is_diagonal(self) -> bool:
        return self.x == 0

    def commutes_with(self, other: "PauliString") -> bool:
        """Exact symplectic test: even overlap count means commuting."""
        s = _popcount(self.x & other.z) + _popcount(self.z & other.x)
        return s % 2 == 0

    def compose(self, other: "PauliString") -> tuple["PauliString", int]:
        """Product self*other as (string, k) with the phase i**k, k mod 4."""
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        k = (
            _popcount(self.x & self.z)
            + _popcount(other.x & other.z)
            + 2 * _popcount(self.z & other.x)
            - _popcount(x3 & z3)
        ) % 4
        return PauliString(self.n, x3, z3), k

    def _index_masks(self) -> tuple[int, int]:
        """(flip, sign) masks in state-index bit positions (qubit 0 = MSB)."""
        return tuple(int(f"{m:0{self.n}b}"[::-1], 2) for m in (self.x, self.z))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free action of the string on a state vector."""
        dim = 1 << self.n
        if vec.shape[0] != dim:
            raise ValueError("state dimension mismatch")
        flip, sign = self._index_masks()
        diag = _string_diagonal(np.arange(dim, dtype=np.uint64), sign, _popcount(self.x & self.z))
        return apply_flip_diagonals([(flip, diag)], vec, diag.dtype)


@dataclass(frozen=True)
class PauliTerm:
    """A real weight attached to one Pauli string."""

    coeff: float
    string: PauliString

    def __post_init__(self):
        if not np.isfinite(self.coeff):
            raise ValueError("term coefficient must be finite")

    @property
    def is_complex_valued(self) -> bool:
        """True when the matrix realization has complex entries (carries a Y)."""
        return self.string.has_y


class HamiltonianSum:
    """A sum of weighted Pauli strings on ``n`` qubits.

    ``groups`` optionally partitions the term list into local operators;
    every structural check and locality count treats one group as one term.
    Instances are immutable.
    """

    def __init__(self, n, terms, groups=None):
        self._n = int(n)
        tlist = []
        for t in terms:
            if isinstance(t, PauliTerm):
                term = t
            else:
                coeff, s = t
                if isinstance(s, str):
                    s = PauliString.from_label(s)
                term = PauliTerm(float(coeff), s)
            if term.string.n != self._n:
                raise ValueError("term qubit count mismatch")
            tlist.append(term)
        self._terms = tuple(tlist)
        if groups is not None:
            groups = tuple(tuple(int(i) for i in g) for g in groups)
            seen = sorted(i for g in groups for i in g)
            if seen != list(range(len(self._terms))):
                raise ValueError("groups must partition the term indices")
        self._groups = groups

    @classmethod
    def from_terms(cls, n, pairs, groups=None) -> "HamiltonianSum":
        return cls(n, pairs, groups)

    @classmethod
    def from_groups(cls, n, blocks) -> "HamiltonianSum":
        """Sum whose groups are the given lists of terms, kept in order."""
        terms, groups = [], []
        for block in blocks:
            groups.append(tuple(range(len(terms), len(terms) + len(block))))
            terms.extend(block)
        return cls(n, terms, tuple(groups))

    @property
    def n(self) -> int:
        return self._n

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def groups(self):
        return self._groups

    def group_indices(self) -> tuple:
        if self._groups is not None:
            return self._groups
        return tuple((i,) for i in range(len(self._terms)))

    def group_terms(self, g) -> tuple:
        return tuple(self._terms[i] for i in g)

    def group_support(self, g) -> tuple:
        m = 0
        for i in g:
            s = self._terms[i].string
            m |= s.x | s.z
        return tuple(q for q in range(self._n) if (m >> q) & 1)

    def group_sum(self, g) -> "HamiltonianSum":
        """One group as a sum on its own union support, qubits renumbered in order.

        An identity-only (or empty) group becomes a sum on zero qubits.
        """
        supp = self.group_support(g)

        def squeeze(mask):
            return sum(((mask >> q) & 1) << k for k, q in enumerate(supp))

        return HamiltonianSum(
            len(supp),
            [
                PauliTerm(t.coeff, PauliString(len(supp), squeeze(t.string.x), squeeze(t.string.z)))
                for t in self.group_terms(g)
            ],
        )

    def group_norms(self) -> list:
        """Exact spectral norm of each group, by dense diagonalization on its support."""
        norms = []
        for g in self.group_indices():
            m = self.group_sum(g).to_matrix(dense=True)
            if m.shape[0] == 1:
                norms.append(abs(m[0, 0]))
            else:
                norms.append(float(np.max(np.abs(np.linalg.eigvalsh(m)))))
        return norms

    @property
    def locality(self) -> int:
        """Max union-support size over groups (max string weight if ungrouped)."""
        if not self._terms:
            return 0
        return max(len(self.group_support(g)) for g in self.group_indices())

    @property
    def has_y(self) -> bool:
        return any(t.string.has_y for t in self._terms)

    @property
    def dtype(self) -> type:
        return complex if self.has_y else float

    def flip_count(self) -> int:
        """Number of distinct X flip masks, i.e. of diagonals in ``flip_diagonals``."""
        return len({t.string.x for t in self._terms})

    def flip_diagonals(self):
        """Yield (f, D_f) in increasing f, with H = sum_f P_f diag(D_f).

        ``f`` is an X flip mask in state-index bit positions and
        (P_f v)[i] = v[i ^ f].  Each D_f sums its strings' diagonal factors in
        term order; one 2^n vector is built at a time.
        """
        by_flip = {}
        for t in self._terms:
            flip, sign = t.string._index_masks()
            by_flip.setdefault(flip, []).append((sign, _popcount(t.string.x & t.string.z), t.coeff))
        dim, dtype = 1 << self._n, self.dtype
        idx = np.arange(dim, dtype=np.uint64)
        for flip in sorted(by_flip):
            diag = np.zeros(dim, dtype=dtype)
            for sign, ny, coeff in by_flip[flip]:
                diag += _string_diagonal(idx, sign, ny, coeff)
            yield flip, diag

    def to_matrix(self, dense=False):
        """Assemble the full 2^n x 2^n matrix (sparse CSR, or dense ndarray).

        Row r of the CSR matrix holds one entry per flip mask f, at column
        r ^ f, so it stores (#flip masks) * 2^n entries.
        """
        ceiling = DENSE_QUBIT_CEILING if dense else SPARSE_QUBIT_CEILING
        if self._n > ceiling:
            raise ResourceLimitError(
                f"{self._n} qubits exceeds the {'dense' if dense else 'sparse'} "
                f"ceiling of {ceiling}"
            )
        dim = 1 << self._n
        pairs = list(self.flip_diagonals())
        flips = np.array([f for f, _ in pairs], dtype=np.uint64)
        cols = np.arange(dim, dtype=np.uint64)[:, None] ^ flips
        data = np.array([d for _, d in pairs], dtype=self.dtype).reshape(-1, dim)
        mat = sp.csr_matrix(
            (
                data[np.arange(len(pairs)), cols].ravel(),
                cols.astype(np.int64).ravel(),
                np.arange(dim + 1) * len(pairs),
            ),
            shape=(dim, dim),
        )
        mat.sort_indices()
        return mat.toarray() if dense else mat

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free matvec over the flip diagonals, built one at a time."""
        if vec.shape[0] != 1 << self._n:
            raise ValueError("state dimension mismatch")
        return apply_flip_diagonals(self.flip_diagonals(), vec, self.dtype)

    def expectation(self, vec: np.ndarray) -> float:
        val = np.vdot(vec, self.apply(vec))
        return float(np.real(val))

    def canonical(self) -> "HamiltonianSum":
        """Terms sorted by (x, z, coeff); grouping is dropped."""
        order = sorted(
            range(len(self._terms)),
            key=lambda i: (self._terms[i].string.x, self._terms[i].string.z, self._terms[i].coeff),
        )
        return HamiltonianSum(self._n, [self._terms[i] for i in order])

    def merged(self, drop_zero=True) -> "HamiltonianSum":
        """Collect duplicate strings, summing coefficients; grouping is dropped."""
        acc = {}
        for t in self._terms:
            key = (t.string.x, t.string.z)
            acc[key] = acc.get(key, 0.0) + t.coeff
        terms = [
            PauliTerm(c, PauliString(self._n, x, z))
            for (x, z), c in sorted(acc.items())
            if not (drop_zero and c == 0.0)
        ]
        return HamiltonianSum(self._n, terms)

    def __add__(self, other: "HamiltonianSum") -> "HamiltonianSum":
        if self._n != other._n:
            raise ValueError("qubit count mismatch")
        offset = len(self._terms)
        groups = None
        if self._groups is not None or other._groups is not None:
            groups = tuple(self.group_indices()) + tuple(
                tuple(i + offset for i in g) for g in other.group_indices()
            )
        return HamiltonianSum(self._n, self._terms + other._terms, groups)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        inner = " + ".join(f"{t.coeff:g}*{t.string.label()}" for t in self._terms[:4])
        if len(self._terms) > 4:
            inner += " + ..."
        return f"HamiltonianSum(n={self._n}, {inner})"


# ---------------------------------------------------------------------------
# structural property checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoquasticReport:
    verdict: bool
    worst_entry: complex | None = None
    worst_position: tuple | None = None
    worst_group: int | None = None


@dataclass(frozen=True)
class CommutingReport:
    verdict: bool
    pair: tuple | None = None


@dataclass(frozen=True)
class PermutationReport:
    verdict: bool
    reason: str | None = None
    group: int | None = None


def _check_parts(h: HamiltonianSum, assembled: bool):
    """(group index, CSR matrix) pairs: each group on its own support, built
    one at a time, or the whole sum with group index None."""
    if assembled:
        return [(None, h.to_matrix())]
    return ((gi, h.group_sum(g).to_matrix()) for gi, g in enumerate(h.group_indices()))


def _offdiag_offender(mat, tol: float):
    """Largest off-diagonal entry violating 'real and <= tol', or None.

    Reads the stored entries of a CSR matrix with sorted indices, which come
    in row-major order, so ties go to the first such entry in row-major order.
    """
    coo = mat.tocoo()
    off = coo.row != coo.col
    rows, cols, vals = coo.row[off], coo.col[off], coo.data[off].astype(complex)
    bad = (vals.real > tol) | (np.abs(vals.imag) > tol)
    if not bad.any():
        return None
    k = int(np.argmax(np.where(bad, vals.real + np.abs(vals.imag), -np.inf)))
    return vals[k], (int(rows[k]), int(cols[k]))


def is_stoquastic(h: HamiltonianSum, termwise=True, tol=DEFAULT_TOL) -> StoquasticReport:
    """Check for non-positive off-diagonal entries in the computational basis.

    ``termwise`` checks every group's matrix on its own support; otherwise the
    fully assembled matrix is checked.  Always returns a report.
    """
    worst = None
    for gi, mat in _check_parts(h, assembled=not termwise):
        hit = _offdiag_offender(mat, tol)
        if hit is not None and (worst is None or hit[0].real > worst[0].real):
            worst = (*hit, gi)
    if worst is None:
        return StoquasticReport(True)
    return StoquasticReport(False, *worst)


def _groups_commute_exact(h: HamiltonianSum, g1, g2) -> bool:
    """Exact zero test of the commutator of two group operators.

    Anticommuting string pairs contribute 2*c*d*i^k to the product string;
    accumulation is done in rational arithmetic (floats embed exactly), so
    the verdict needs no floating-point tolerance.
    """
    acc = {}
    for i in g1:
        ti = h.terms[i]
        for j in g2:
            tj = h.terms[j]
            if ti.string.commutes_with(tj.string):
                continue
            prod, k = ti.string.compose(tj.string)
            c = 2 * Fraction(ti.coeff) * Fraction(tj.coeff)
            re, im = acc.get((prod.x, prod.z), (Fraction(0), Fraction(0)))
            if k == 0:
                re += c
            elif k == 1:
                im += c
            elif k == 2:
                re -= c
            else:
                im -= c
            acc[(prod.x, prod.z)] = (re, im)
    return all(re == 0 and im == 0 for re, im in acc.values())


def is_commuting(h: HamiltonianSum) -> CommutingReport:
    """Pairwise commutation over groups; exact, no floating-point tolerance.

    Single-string pairs use the symplectic form; multi-string groups use an
    exact rational commutator, which reduces to the same test for strings.
    """
    groups = h.group_indices()
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            gi, gj = groups[i], groups[j]
            if len(gi) == 1 and len(gj) == 1:
                ok = h.terms[gi[0]].string.commutes_with(h.terms[gj[0]].string)
            else:
                ok = _groups_commute_exact(h, gi, gj)
            if not ok:
                return CommutingReport(False, (i, j))
    return CommutingReport(True)


def _is_permutation_matrix(mat, tol: float):
    """Why a CSR matrix is not a 0/1 permutation matrix, or None.

    Entries that are not stored are exact zeros.
    """
    coo = mat.tocoo()
    vals = coo.data
    if np.iscomplexobj(vals):
        if np.any(np.abs(vals.imag) > tol):
            return "complex entries"
        vals = vals.real
    near1 = np.abs(vals - 1.0) <= tol
    if not np.all((np.abs(vals) <= tol) | near1):
        return "entry outside {0,1}"
    dim = mat.shape[0]
    row_ones = np.bincount(coo.row[near1], minlength=dim)
    col_ones = np.bincount(coo.col[near1], minlength=dim)
    if not (np.all(col_ones == 1) and np.all(row_ones == 1)):
        return "row/column sums differ from 1"
    return None


def is_permutation(h: HamiltonianSum, per_term=True, tol=DEFAULT_TOL) -> PermutationReport:
    """Check that each group's matrix (or the assembled matrix) is a 0/1 permutation."""
    for gi, mat in _check_parts(h, assembled=not per_term):
        reason = _is_permutation_matrix(mat, tol)
        if reason is not None:
            return PermutationReport(False, reason, gi)
    return PermutationReport(True)
