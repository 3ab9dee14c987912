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
* A sum's one matrix realization is its flip-diagonal form,
  H = sum_f P_f diag(D_f), behind ``apply`` and ``to_matrix``.  Group norms
  and termwise checks read the same form per group, on the group's own
  support and batched by support width (``_local_flip_forms``); no group is
  built as a matrix of its own.  Norms stop at the 12-qubit dense ceiling,
  checks at the 16-qubit sparse ceiling.
* One builder makes every form: ``_local_strings`` maps a string's masks to
  the state-index bits of a support (the whole register is ``range(n)``),
  and ``_stacked_diagonals`` sums the strings into diagonal rows.
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
# bytes of one complex matrix at the dense ceiling: a stack of group-local
# forms, or of their dense matrices, holds no more than one group may alone
_STACK_BYTES = 16 << (2 * DENSE_QUBIT_CEILING)
# rows that one pass of ``_stacked_diagonals`` handles at a time, in bytes:
# their temporaries stay cache-sized (8 real or 4 complex rows at 12 qubits)
_CHUNK_BYTES = 256 << 10

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_LETTER_INV = {v: k for k, v in _LETTER.items()}


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
        norms = [0.0] * len(self.group_indices())
        for members, part, flips, diags in _local_flip_forms(self, DENSE_QUBIT_CEILING, "dense"):
            dim = diags.shape[1]
            cols = np.arange(dim)
            mats = np.zeros((len(members), dim, dim), dtype=diags.dtype)
            mats[part[:, None], cols ^ flips[:, None], cols] = diags
            vals = np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1)
            for gi, v in zip(members, vals):
                norms[gi] = float(v)
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
        term order.  The D_f are the rows of one (#flips, 2^n) stack, built
        at once by ``_stacked_diagonals`` on the support ``range(n)``.
        """
        strings = _local_strings(self._terms, range(len(self._terms)), range(self._n))
        flips = sorted({flip for flip, _, _, _ in strings})
        row_of = {f: k for k, f in enumerate(flips)}
        rows = [(row_of[flip], sign, ny, coeff) for flip, sign, ny, coeff in strings]
        yield from zip(flips, _stacked_diagonals(rows, len(flips), self._n, self.dtype))

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
        """Matrix-free matvec over the flip diagonals.

        All #flips diagonals of 2^n entries are held at once, as
        ``spectral.operator`` holds them.
        """
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


def _local_flip_forms(h: HamiltonianSum, ceiling: int, kind: str):
    """Yield every group's flip-diagonal form on its own support, in stacks.

    A group on w qubits is renumbered in qubit order, with qubit 0 the most
    significant bit, as ``to_matrix`` numbers a whole sum.  Groups of one
    width and dtype come in stacks of at most ``_STACK_BYTES`` / (itemsize *
    4^w) groups, and at least one.  A stack is (members, part, flips, diags):
    ``members`` lists its group indices in increasing order, and row k holds
    the local flip mask ``flips[k]`` of group ``members[part[k]]`` with its
    diagonal ``diags[k]``, so entry (r, r ^ f) of that group is D_f[r ^ f].
    A group's rows come in increasing f, each summed in term order.

    Raises ``ResourceLimitError`` before anything is allocated when a group
    spans more than ``ceiling`` qubits.
    """
    groups = h.group_indices()
    supports = [h.group_support(g) for g in groups]
    for supp in supports:
        if len(supp) > ceiling:
            raise ResourceLimitError(f"{len(supp)} qubits exceeds the {kind} ceiling of {ceiling}")
    local, buckets = [], {}
    for g, supp in zip(groups, supports):
        local.append(_local_strings(h.terms, g, supp))
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
            diags = _stacked_diagonals(strings, len(flips), width, dtype)
            yield chunk, np.array(part, dtype=np.intp), np.array(flips, dtype=np.intp), diags


def _local_strings(terms, g, supp) -> list:
    """(flip, sign, #Y, coeff) of each term ``terms[i]``, i in ``g``, in order.

    The masks are in the state-index bits of the support ``supp``, which
    holds every qubit the strings act on: qubit ``supp[k]`` is bit w-1-k, so
    the first support qubit is the most significant.  A group passes its own
    support, a whole sum ``range(n)``.
    """
    bits = [(q, len(supp) - 1 - k) for k, q in enumerate(supp)]
    out = []
    for i in g:
        x, z = terms[i].string.x, terms[i].string.z
        flip = sign = 0
        for q, b in bits:
            flip |= (x >> q & 1) << b
            sign |= (z >> q & 1) << b
        out.append((flip, sign, (flip & sign).bit_count(), terms[i].coeff))
    return out


def _stacked_diagonals(strings, rows: int, width: int, dtype) -> np.ndarray:
    """Flip-diagonal rows from (row, sign, ny, coeff) strings in term order.

    String (row, sign, ny, coeff) adds coeff * i**ny * (-1)**popcount(j & sign)
    at entry j of its row; ``sign`` is in the state-index bits of a
    ``width``-qubit support.  Pass r adds the r-th string of every row, so each
    row is summed from zero in term order, over chunks of at most
    ``_CHUNK_BYTES`` of rows (and at least one row).  A sum started at +0
    never turns -0, so only the nonzero parts of each +-weight count, and
    they are exact: the rows are the per-string sums bit for bit.
    """
    diags = np.zeros((rows, 1 << width), dtype=dtype)
    if not strings:
        return diags
    row = np.array([r for r, _, _, _ in strings])
    sign = np.array([s for _, s, _, _ in strings], dtype=np.uint64)
    weight = np.array([c * 1j ** ny if ny % 4 else c for _, _, ny, c in strings], dtype=dtype)
    order = np.argsort(row, kind="stable")
    rank = np.empty(len(row), dtype=np.intp)
    rank[order] = np.arange(len(row)) - np.searchsorted(row[order], row[order])
    idx = np.arange(1 << width, dtype=np.uint64)
    chunk = max(1, _CHUNK_BYTES // (diags.itemsize << width))
    for r in range(int(rank.max()) + 1):
        pass_k = np.flatnonzero(rank == r)
        for start in range(0, len(pass_k), chunk):
            k = pass_k[start:start + chunk]
            odd = (np.bitwise_count(idx & sign[k, None]) & np.uint8(1)).view(bool)
            diags[row[k]] += np.where(odd, -weight[k, None], weight[k, None])
    return diags


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
    """Stacks (members, part, flips, diags) as ``_local_flip_forms`` yields
    them: every group on its own support, or the whole sum as one part, number
    0.  Both run up to the sparse ceiling."""
    if not assembled:
        yield from _local_flip_forms(h, SPARSE_QUBIT_CEILING, "sparse")
        return
    if h.n > SPARSE_QUBIT_CEILING:
        raise ResourceLimitError(f"{h.n} qubits exceeds the sparse ceiling of {SPARSE_QUBIT_CEILING}")
    pairs = list(h.flip_diagonals())
    diags = np.array([d for _, d in pairs], dtype=h.dtype).reshape(-1, 1 << h.n)
    flips = np.array([f for f, _ in pairs], dtype=np.intp)
    yield [0], np.zeros(len(pairs), dtype=np.intp), flips, diags


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
    hits = {}
    for members, part, flips, diags in _check_parts(h, assembled=not termwise):
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
    failed = {}
    for members, part, flips, diags in _check_parts(h, assembled=not per_term):
        for gi, reason in zip(members, _permutation_defects(part, flips, diags, len(members), tol)):
            if reason is not None:
                failed[gi] = reason
    if not failed:
        return PermutationReport(True)
    gi = min(failed)
    return PermutationReport(False, failed[gi], gi if per_term else None)
