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
  gadget expanded into strings by ``projector_terms``); structural checks
  (stoquasticity, commutation, permutation form) operate at group
  granularity.  Without an explicit grouping every string is its own group.
* One builder makes every matrix realization of a sum from its
  flip-diagonal form, H = sum_f P_f diag(D_f): ``_local_flip_forms`` builds
  its parts, either every group on its own support, batched by support
  width, or all the terms as one part on the whole register.  Group norms
  and termwise checks read the groups; ``flip_diagonals``, dense
  ``to_matrix``, the assembled checks and the exact norm of a whole sum
  read the whole-register part.  Dense matrices and norms come from one
  scatter of a stack (``_dense_stacks``) and stop at the 12-qubit dense
  ceiling; checks run up to the 16-qubit sparse ceiling.  No group is
  built as a matrix of its own.
* Every stack has one layout: its rows are the columns of a C-ordered
  (2^w, rows) array, and the builder refuses a stack whose CSR operator,
  data plus int32 column index, would be above ``ITERATIVE_BYTE_CEILING``
  before it allocates anything.
* The compiled operator is the whole-register part read through
  Hermiticity: ``HamiltonianSum._flip_stack`` wraps that part's (2^n,
  #flips) array, without a copy, as the data of one flip-ordered CSR
  matrix.  Row r holds H[r, r ^ f] = conj(D_f[r]) at column r ^ f for
  every flip mask f, in increasing f.  ``apply``, sparse ``to_matrix`` and
  ``spectral.operator`` read it, and its products run in scipy's compiled
  CSR kernel (``flip_matvec``), which adds each row in the order of the
  per-flip sum.
* Every form maps each string's masks to the state-index bits of a support
  by a table of its qubits (``_local_strings``, ``_support_bits``), and
  ``_stacked_diagonals`` sums the strings into the diagonal rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError, ResourceLimitError

DENSE_QUBIT_CEILING = 12
SPARSE_QUBIT_CEILING = 16
DEFAULT_TOL = 1e-12
# bytes one stack of flip diagonals may take, charged as the CSR operator it
# makes: data plus int32 column index (42 real flip masks at 20 qubits)
ITERATIVE_BYTE_CEILING = 512 * 2**20
# bytes of one complex matrix at the dense ceiling: a stack of group-local
# forms, or of their dense matrices, holds no more than one group may alone
_STACK_BYTES = 16 << (2 * DENSE_QUBIT_CEILING)
# bytes of one tile that ``_stacked_diagonals`` sums at a time, so that its
# temporaries stay cache-sized (8 real rows of 12 qubits)
_CHUNK_BYTES = 256 << 10
# rows of a tile at the least: 8 entries of one (2^n, #flips) row fill a
# 64-byte cache line
_BLOCK_ROWS = 8

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_LETTER_INV = {v: k for k, v in _LETTER.items()}


def flip_matvec(mat, vec: np.ndarray) -> np.ndarray:
    """H @ v for the flip-ordered CSR matrix of ``HamiltonianSum._flip_stack``.

    scipy's compiled product adds each row's entries in stored order, which
    is increasing flip mask.  A real matrix applied to a complex vector runs
    as two real products, so scipy never upcasts the whole data array.
    """
    if np.iscomplexobj(vec) and not np.iscomplexobj(mat.data):
        out = np.empty(vec.shape, dtype=np.result_type(mat.dtype, vec.dtype))
        out.real = mat @ vec.real
        out.imag = mat @ vec.imag
        return out
    return mat @ vec


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
    def has_y(self) -> bool:
        return bool(self.x & self.z)

    @property
    def is_diagonal(self) -> bool:
        return self.x == 0

    def commutes_with(self, other: "PauliString") -> bool:
        """Exact symplectic test: even overlap count means commuting."""
        s = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return s % 2 == 0

    def compose(self, other: "PauliString") -> tuple["PauliString", int]:
        """Product self*other as (string, k) with the phase i**k, k mod 4."""
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        k = (
            (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            + 2 * (self.z & other.x).bit_count()
            - (x3 & z3).bit_count()
        ) % 4
        return PauliString(self.n, x3, z3), k

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free action of the string on a state vector: a one-term sum's."""
        return HamiltonianSum(self.n, [PauliTerm(1.0, self)]).apply(vec)


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


def projector_terms(n: int, coeff: float, x: int, z: int, sign: int, px: int, pz: int) -> list:
    """The two terms of coeff * X^x Z^z (I + sign * X^px Z^pz) / 2, in that order.

    ``sign`` is +1 or -1, so the second factor projects onto one eigenspace
    of X^px Z^pz.  Callers pass two strings on disjoint qubits, so their
    product is the string with masks (x | px, z | pz), free of any phase.
    """
    return [
        PauliTerm(coeff / 2.0, PauliString(n, x, z)),
        PauliTerm(sign * coeff / 2.0, PauliString(n, x | px, z | pz)),
    ]


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
                elif not isinstance(s, PauliString):
                    raise TypeError(
                        f"term string must be a label or a PauliString, not {type(s).__name__}"
                    )
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

    def group_support(self, g) -> tuple:
        m = 0
        for i in g:
            s = self._terms[i].string
            m |= s.x | s.z
        supp = []
        while m:
            low = m & -m
            supp.append(low.bit_length() - 1)
            m ^= low
        return tuple(supp)

    def group_norms(self) -> list:
        """Exact spectral norm of each group, by dense diagonalization on its support.

        The groups of one width are scattered into a stack of 2^w x 2^w
        matrices, and each stack takes one ``eigvalsh`` call.
        """
        return _part_norms(self)

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
        term order.  They are the rows of the whole-register part of
        ``_local_flip_forms``, built under its byte ceiling alone.
        """
        (_, _, flips, diags), = _local_flip_forms(self, whole=True)
        yield from zip(flips.tolist(), diags)

    def _flip_stack(self):
        """The sum as a flip-ordered CSR matrix: the compiled operator.

        Row r holds H[r, r ^ f] at column r ^ f for every flip mask f, in
        increasing f, so a row-by-row product adds its terms in the order of
        the per-flip sum.  The data array is the C-ordered (2^n, #flips) base
        of the whole-register part of ``_local_flip_forms``, with int32 column
        indices: entry (r, k) holds D_f[r], and H is Hermitian, so
        H[r, r ^ f] = conj(H[r ^ f, r]) = conj(D_f[r]).  Complex data is
        conjugated in place; conjugation turns the exact-zero imaginary parts
        into -0, and adding +0 turns them back, so the data stays bit for bit
        the sum of each entry's strings.
        """
        (_, _, flips, diags), = _local_flip_forms(self, whole=True)
        data = diags.T
        if np.iscomplexobj(data):
            np.conjugate(data, out=data)
            data.imag += 0.0
        dim = 1 << self._n
        index = np.int32 if data.size <= np.iinfo(np.int32).max else np.int64
        cols = np.arange(dim, dtype=index)[:, None] ^ flips.astype(index)
        indptr = np.arange(dim + 1, dtype=index) * len(flips)
        return sp.csr_matrix((data.reshape(-1), cols.reshape(-1), indptr), shape=(dim, dim))

    def to_matrix(self, dense=False):
        """Assemble the full 2^n x 2^n matrix (sparse CSR, or dense ndarray).

        The dense matrix is the whole-register part of ``_local_flip_forms``
        scattered by ``_dense_stacks``.  The CSR matrix is ``_flip_stack``'s,
        under the sparse qubit ceiling and the byte ceiling: row r holds one
        entry per flip mask f, at column r ^ f, so it stores
        (#flip masks) * 2^n entries, sorted by column.
        """
        if dense:
            (_, mats), = _dense_stacks(self, whole=True)
            return mats[0]
        _check_ceiling(self._n, SPARSE_QUBIT_CEILING, "sparse")
        _check_operator_bytes(self)
        mat = self._flip_stack()
        mat.sort_indices()
        return mat

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ v by the compiled product of the ``_flip_stack`` matrix.

        All #flips * 2^n entries are held at once, as ``spectral.operator``
        holds them, under the same byte ceiling.
        """
        if vec.shape[0] != 1 << self._n:
            raise ValueError("state dimension mismatch")
        _check_operator_bytes(self)
        return flip_matvec(self._flip_stack(), vec)

    def expectation(self, vec: np.ndarray) -> float:
        val = np.vdot(vec, self.apply(vec))
        return float(np.real(val))

    def merged(self) -> "HamiltonianSum":
        """Collect duplicate strings, summing coefficients; zero sums and grouping are dropped."""
        acc = {}
        for t in self._terms:
            key = (t.string.x, t.string.z)
            acc[key] = acc.get(key, 0.0) + t.coeff
        terms = [
            PauliTerm(c, PauliString(self._n, x, z))
            for (x, z), c in sorted(acc.items())
            if c != 0.0
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


def _check_ceiling(n: int, ceiling: int, kind: str) -> None:
    """``ResourceLimitError`` when n qubits are above the ``kind`` ceiling."""
    if n > ceiling:
        raise ResourceLimitError(f"{n} qubits exceeds the {kind} ceiling of {ceiling}")


def _check_operator_bytes(h: HamiltonianSum) -> None:
    """``ResourceLimitError`` when the CSR operator of ``h``, data plus int32
    column index, is above ``ITERATIVE_BYTE_CEILING``, before it is built."""
    _check_stack_bytes(h.flip_count(), h.n, h.dtype)


def _check_stack_bytes(rows: int, width: int, dtype) -> None:
    """``ResourceLimitError`` when ``rows`` flip diagonals on ``width`` qubits,
    charged as the CSR operator they make, are above ``ITERATIVE_BYTE_CEILING``."""
    need = rows * (1 << width) * (np.dtype(dtype).itemsize + np.dtype(np.int32).itemsize)
    if need > ITERATIVE_BYTE_CEILING:
        raise ResourceLimitError(
            f"{rows} flip masks on {width} qubits need {need} bytes, "
            f"above the iterative ceiling of {ITERATIVE_BYTE_CEILING}"
        )


def _local_flip_forms(h: HamiltonianSum, ceiling: int | None = None, kind: str = "", whole=False):
    """Yield the flip-diagonal form of each part of ``h``, in stacks.

    The parts are the groups, each on its own support, or with ``whole``
    one part, number 0: all the terms on the whole register ``range(n)``,
    the form of the assembled matrix.  A part on w qubits is renumbered in
    qubit order, with qubit 0 the most significant bit.  Parts of one width
    and dtype come in stacks of at most ``_STACK_BYTES`` / (itemsize * 4^w)
    parts, and at least one.  A stack is (members, part, flips, diags):
    ``members`` lists its part indices in increasing order, and row k holds
    the local flip mask ``flips[k]`` of part ``members[part[k]]`` with its
    diagonal ``diags[k]``, so entry (r, r ^ f) of that part is D_f[r ^ f].
    A part's rows come in increasing f, each summed in term order.  Every
    ``diags`` is the transposed view of a C-ordered (2^w, rows) array, the
    data layout of the CSR operator (``HamiltonianSum._flip_stack``).

    Raises ``ResourceLimitError`` before anything is allocated when a part
    spans more than ``ceiling`` qubits (a ``ceiling`` of None checks none),
    and before a stack is allocated when it, charged as a CSR operator, is
    above ``ITERATIVE_BYTE_CEILING``.  A stack of several parts is charged
    at most 3/2 * ``_STACK_BYTES``, below that ceiling, so only a stack of
    one part can be refused.
    """
    if whole:
        groups, supports = [range(len(h.terms))], [range(h.n)]
    else:
        groups = h.group_indices()
        supports = [h.group_support(g) for g in groups]
    if ceiling is not None:
        for supp in supports:
            _check_ceiling(len(supp), ceiling, kind)
    local, buckets = [], {}
    for g, supp in zip(groups, supports):
        local.append(_local_strings(h.terms, g, _support_bits(supp)))
        dtype = complex if any(ny for _, _, ny, _ in local[-1]) else float
        buckets.setdefault((len(supp), dtype), []).append(len(local) - 1)
    for (width, dtype), members in buckets.items():
        per_stack = max(1, _STACK_BYTES // (np.dtype(dtype).itemsize << 2 * width))
        for start in range(0, len(members), per_stack):
            chunk = members[start:start + per_stack]
            part, flips, strings = [], [], []
            for p, gi in enumerate(chunk):
                row_of = {f: len(flips) + k for k, f in enumerate(sorted({t[0] for t in local[gi]}))}
                part += [p] * len(row_of)
                flips += row_of
                strings += [(row_of[flip], sign, ny, coeff) for flip, sign, ny, coeff in local[gi]]
            _check_stack_bytes(len(flips), width, dtype)
            diags = np.empty((1 << width, len(flips)), dtype=dtype).T
            _stacked_diagonals(strings, diags)
            yield chunk, np.array(part, dtype=np.intp), np.array(flips, dtype=np.intp), diags


def _dense_stacks(h: HamiltonianSum, whole=False):
    """Yield (members, mats) for each stack of ``_local_flip_forms`` under
    the dense ceiling: mats[p] is the dense matrix of part ``members[p]``,
    with D_f[c] at entry (c ^ f, c) and zeros elsewhere."""
    for members, part, flips, diags in _local_flip_forms(h, DENSE_QUBIT_CEILING, "dense", whole):
        dim = diags.shape[1]
        cols = np.arange(dim)
        mats = np.zeros((len(members), dim, dim), dtype=diags.dtype)
        mats[part[:, None], cols ^ flips[:, None], cols] = diags
        yield members, mats


def _part_norms(h: HamiltonianSum, whole=False) -> list:
    """Exact spectral norm of each part of ``_local_flip_forms``, in part
    order: one ``eigvalsh`` call per stack of ``_dense_stacks``."""
    norms = {}
    for members, mats in _dense_stacks(h, whole):
        norms.update(zip(members, np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1).tolist()))
    return [norms[p] for p in range(len(norms))]


def _local_strings(terms, g, local) -> list:
    """(flip, sign, #Y, coeff) of each term ``terms[i]``, i in ``g``, in order.

    ``local`` maps a mask to the state-index bits of a support that holds
    every qubit the strings act on: ``_support_bits(supp)`` for a group, or
    ``_support_bits(range(n))`` for a whole sum.
    """
    out = []
    for i in g:
        flip, sign = local(terms[i].string.x), local(terms[i].string.z)
        out.append((flip, sign, (flip & sign).bit_count(), terms[i].coeff))
    return out


def _support_bits(supp):
    """Mask map onto the support ``supp`` (increasing qubits): qubit
    ``supp[k]`` is bit w-1-k, so the first support qubit is the most
    significant.  One table lookup per set bit."""
    bit_of = {1 << q: 1 << (len(supp) - 1 - k) for k, q in enumerate(supp)}

    def local(m):
        out = 0
        while m:
            low = m & -m
            out |= bit_of[low]
            m ^= low
        return out

    return local


def _stacked_diagonals(strings, diags) -> None:
    """Fill flip-diagonal rows from (row, sign, ny, coeff) strings in term order.

    ``diags`` is (rows, 2^w), the transposed view of a C-ordered (2^w, rows)
    array, and every row has a string.  String (row, sign, ny, coeff) adds
    coeff * i**ny * (-1)**popcount(j & sign) at entry j of its row; ``sign``
    is in the state-index bits of a w-qubit support.  Rows go in blocks of
    at least ``_BLOCK_ROWS`` and entries in tiles, so that a block's tile
    takes about ``_CHUNK_BYTES``.  Each tile is summed from zero in a
    cache-sized temporary, pass r adding the r-th string of each of its
    rows, then written once.  A sum started at +0 never turns -0, so only
    the nonzero parts of each +-weight count, and they are exact: the rows
    are the per-string sums bit for bit.  A sum of finite weights that
    overflows raises ``PreconditionError``.
    """
    rows, dim = diags.shape
    if not rows:
        return
    row = np.array([r for r, _, _, _ in strings], dtype=np.intp)
    sign = np.array([s for _, s, _, _ in strings], dtype=np.uint64)
    weight = np.array([c * 1j ** ny if ny % 4 else c for _, _, ny, c in strings], dtype=diags.dtype)
    order = np.argsort(row, kind="stable")
    row, sign, weight = row[order], sign[order], weight[order]
    first = np.searchsorted(row, np.arange(rows + 1))
    rank = np.arange(len(row)) - first[row]
    idx = np.arange(dim, dtype=np.uint64)
    block = max(_BLOCK_ROWS, _CHUNK_BYTES // (diags.itemsize * dim))
    tile = max(1, _CHUNK_BYTES // (diags.itemsize * block))
    blocks = []
    for k0 in range(0, rows, block):
        k1 = min(k0 + block, rows)
        lo, hi = first[k0], first[k1]
        blocks.append((k0, k1, [lo + np.flatnonzero(rank[lo:hi] == r) for r in range(int(rank[lo:hi].max()) + 1)]))
    # tile by tile, so that the target's rows, strided in memory, stay
    # cached while every block writes its part of them
    try:
        with np.errstate(over="raise"):
            for j0 in range(0, dim, tile):
                j = idx[j0:j0 + tile]
                for k0, k1, passes in blocks:
                    acc = np.zeros((k1 - k0, len(j)), dtype=diags.dtype)
                    for k in passes:
                        vals = np.where(_odd(j, sign[k, None]), -weight[k, None], weight[k, None])
                        if len(k) == k1 - k0:  # one string of every row, in row order
                            acc += vals
                        else:
                            acc[row[k] - k0] += vals
                    diags[k0:k1, j0:j0 + len(j)] = acc
    except FloatingPointError:
        raise PreconditionError("a sum of Pauli weights overflows a double") from None


def _odd(j, sign):
    """popcount(j & sign) is odd, elementwise."""
    return (np.bitwise_count(j & sign) & np.uint8(1)).view(bool)


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


def _check_tol(tol: float) -> None:
    """``ValueError`` unless 0 <= tol < inf: a NaN or infinite tolerance
    passes every entry, and a negative one fails exact zeros."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


def _offdiag_offenders(part, flips, diags, count: int, tol: float) -> list:
    """Per part, its largest off-diagonal entry violating 'real and <= tol',
    as (entry, (row, col)), or None.

    Ties go to the first such entry in row-major order.
    """
    dim = diags.shape[1]
    cols = np.arange(dim)
    bad = ((diags.real > tol) | (np.abs(diags.imag) > tol)) & (flips != 0)[:, None]
    score = np.where(bad, diags.real + np.abs(diags.imag), -np.inf)
    best = np.full(count, -np.inf)
    np.maximum.at(best, part, score.max(axis=1, initial=-np.inf))
    # row-major position r * dim + c of each worst entry, which sits at c = r ^ f
    last = dim * dim
    pos = np.where(bad & (score == best[part][:, None]), (cols ^ flips[:, None]) * dim + cols, last)
    row_first = pos.min(axis=1, initial=last)
    first = np.full(count, last)
    np.minimum.at(first, part, row_first)
    hits = [None] * count
    for k in np.flatnonzero((row_first < last) & (row_first == first[part])):
        r, c = divmod(int(row_first[k]), dim)
        hits[part[k]] = complex(diags[k, c]), (r, c)
    return hits


def is_stoquastic(h: HamiltonianSum, termwise=True, tol=DEFAULT_TOL) -> StoquasticReport:
    """Check for non-positive off-diagonal entries in the computational basis.

    ``termwise`` checks every group's matrix on its own support; otherwise the
    fully assembled matrix is checked.  Across groups the larger real part
    wins, the earlier group on ties.  Always returns a report.
    """
    _check_tol(tol)
    hits = {}
    for members, part, flips, diags in _local_flip_forms(h, SPARSE_QUBIT_CEILING, "sparse", not termwise):
        for gi, hit in zip(members, _offdiag_offenders(part, flips, diags, len(members), tol)):
            if hit is not None:
                hits[gi] = hit
    worst = None
    for gi in sorted(hits):
        hit = hits[gi]
        if worst is None or hit[0].real > worst[0].real:
            worst = (*hit, gi if termwise else None)
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


def _permutation_defects(part, flips, diags, count: int, tol: float) -> list:
    """Per part, why it is not a 0/1 permutation matrix, or None.

    Entries off the flip masks' positions are exact zeros.
    """
    dim = diags.shape[1]
    cols = np.arange(dim)

    def any_row(flags):
        return np.bincount(part, weights=flags, minlength=count) > 0

    def ones_per_line(line):
        """Near-1 entries in each row (line = r) or column (line = c) of each part."""
        return np.bincount((part[:, None] * dim + line)[near1], minlength=count * dim).reshape(count, dim)

    vals, checks = diags, []
    if np.iscomplexobj(vals):
        checks.append(("complex entries", any_row(np.any(np.abs(vals.imag) > tol, axis=1))))
        vals = vals.real
    near1 = np.abs(vals - 1.0) <= tol
    checks.append(("entry outside {0,1}", any_row(~np.all((np.abs(vals) <= tol) | near1, axis=1))))
    lines = np.hstack([ones_per_line(cols ^ flips[:, None]), ones_per_line(cols)])
    checks.append(("row/column sums differ from 1", ~np.all(lines == 1, axis=1)))
    # a part's reason is the first check it fails
    reasons = [None] * count
    for reason, failed in reversed(checks):
        for p in np.flatnonzero(failed):
            reasons[p] = reason
    return reasons


def is_permutation(h: HamiltonianSum, per_term=True, tol=DEFAULT_TOL) -> PermutationReport:
    """Check that each group's matrix (or the assembled matrix) is a 0/1 permutation."""
    _check_tol(tol)
    failed = {}
    for members, part, flips, diags in _local_flip_forms(h, SPARSE_QUBIT_CEILING, "sparse", not per_term):
        for gi, reason in zip(members, _permutation_defects(part, flips, diags, len(members), tol)):
            if reason is not None:
                failed[gi] = reason
    if not failed:
        return PermutationReport(True)
    gi = min(failed)
    return PermutationReport(False, failed[gi], gi if per_term else None)
