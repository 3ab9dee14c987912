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
  flip-diagonal form, the rows E_f[r] = H[r, r ^ f] of each flip mask f:
  ``_local_flip_forms`` builds its parts, either every group on its own
  support, batched by support width, or all the terms as one part on the
  whole register, whose rows are summed on the qubits that carry a Z or Y
  letter and broadcast over the rest (``_whole_flip_form``).  Group norms,
  termwise checks and the local propagators of ``zeno`` read the groups,
  whose dense matrices come from one scatter of a stack (``_dense_stacks``,
  groups only) under the 12-qubit dense ceiling.  The assembled checks,
  the compiled operator and the rotation passes of ``zeno`` read the
  whole-register part.  No group is built as a matrix of its own.
* Two qubit ceilings hold: 12 qubits for a dense matrix, 20 for every
  other form (``check_qubit_ceiling``), and beside them one byte ceiling.
  Every stack has one layout: its rows are the columns of a C-ordered
  (2^w, rows) array, and the builder refuses a stack whose CSR operator,
  data plus int32 column index, would be above ``ITERATIVE_BYTE_CEILING``
  (or whose 2^w states that index cannot address) before it allocates
  anything.
* The compiled operator is the whole-register part as it is:
  ``HamiltonianSum.to_matrix``, its one builder, wraps that part's (2^n,
  #flips) array, without a copy, as the data of one flip-ordered CSR
  matrix.  Row r holds E_f[r] = H[r, r ^ f] at column r ^ f for every
  flip mask f, in increasing f.  ``apply``, ``spectral``, the Zeno
  reference and ``gscon`` read it, and its products run in scipy's
  compiled CSR kernel (``flip_matvec``) in the order of the per-flip sum.
  ``to_matrix(dense=True)`` is it densified, for ``pinning``'s exact
  norm, the demos and the tests; ``spectral``'s dense route never
  densifies it, but scatters its rows one symmetry sector at a time.
* ``sign_pieces`` is the one sign split of a string, on the parity sectors
  of its Z support by ``projector_terms``: both stoquastic constructions
  (``pinning.stoquastic_pin``, ``gscon.build_stoquastic_gscon``) build
  from it.
* ``_apply_local`` applies a 2^w x 2^w matrix to w qubits of a state.
* Commutation is exact (``is_commuting``): a string of weight 0 commutes
  with every other.
* Every form maps each string's masks to the state-index bits of a support
  by a table of its qubits (``_local_strings``, ``_support_bits``), and
  ``_stacked_diagonals`` sums the strings into the diagonal rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError, ResourceLimitError

DENSE_QUBIT_CEILING = 12
ITERATIVE_QUBIT_CEILING = 20
DEFAULT_TOL = 1e-12
# bytes one stack of flip diagonals may take, charged as the CSR operator it
# makes: data plus int32 column index (42 real flip masks at 20 qubits)
ITERATIVE_BYTE_CEILING = 512 * 2**20
# bytes of one complex matrix at the dense ceiling: a stack of group-local
# forms, or of their dense matrices, holds no more than one group may alone
_STACK_BYTES = 16 << (2 * DENSE_QUBIT_CEILING)
# bytes of one tile that ``_stacked_diagonals`` sums, or a check reads, at a
# time, so that their temporaries stay cache-sized (8 real rows of 12 qubits)
_CHUNK_BYTES = 256 << 10
# qubits that the int32 column index of a CSR operator can address
_INDEX_BITS = 31
# rows of a tile at the least: 8 entries of one (2^n, #flips) row fill a
# 64-byte cache line
_BLOCK_ROWS = 8

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
# a label's X and Z bits as binary digits, and the label without its letters
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")
_NO_LETTERS = str.maketrans("", "", "IXYZ")


def flip_matvec(mat, vec: np.ndarray) -> np.ndarray:
    """H @ v for the flip-ordered CSR matrix of ``HamiltonianSum.to_matrix``.

    scipy's compiled product adds each row's entries in stored order, which
    is increasing flip mask.  A real matrix applied to a complex vector runs
    as real products, so scipy never upcasts the whole data array: one on
    the real part, and one on the imaginary part unless every imaginary
    entry is zero.  scipy starts each row sum at +0, and +0 plus a finite
    entry times +-0 stays +0, so the skipped product is all +0 and the
    result is bit for bit that of both products.
    """
    if np.iscomplexobj(vec) and not np.iscomplexobj(mat.data):
        out = np.empty(vec.shape, dtype=np.result_type(mat.dtype, vec.dtype))
        out.real = mat @ vec.real
        out.imag = mat @ vec.imag if vec.imag.any() else 0.0
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
        # by bit length, so that no mask of a huge register forms 2^n
        if self.x < 0 or self.z < 0 or int(self.x | self.z).bit_length() > self.n:
            raise ValueError("mask does not fit within the qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """The string of a label, letter q on qubit q.

        The masks are the label's digits read in reverse as binary numbers.
        Every letter is checked first, because ``int`` also reads ``_`` and
        whitespace.
        """
        bad = label.translate(_NO_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letter {bad[0]!r}")
        x = int("0" + label.translate(_X_DIGITS)[::-1], 2)
        z = int("0" + label.translate(_Z_DIGITS)[::-1], 2)
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


def sign_pieces(n: int, coeff: float, x: int, z: int) -> list:
    """coeff * X^x Z^z, a Y-free string, as [(sign, terms)]: pieces whose
    off-diagonal entries all have the sign of ``sign``.

    The entries are +-coeff on the even/odd parity sectors of the Z support:
    c X^x Z^z = c X^x (I + Z^z)/2 + (-c) X^x (I - Z^z)/2, by
    ``projector_terms``, for any Z mask.  A diagonal string (sign 0), a
    string without Z, or a zero weight stays one piece of one term.
    """
    if x == 0 or z == 0 or coeff == 0.0:
        return [(coeff if x else 0.0, [PauliTerm(coeff, PauliString(n, x, z))])]
    return [
        (coeff, projector_terms(n, coeff, x, 0, 1, 0, z)),
        (-coeff, projector_terms(n, -coeff, x, 0, -1, 0, z)),
    ]


class HamiltonianSum:
    """A sum of weighted Pauli strings on ``n`` qubits.

    ``groups`` optionally partitions the term list into local operators;
    every structural check and locality count treats one group as one term.
    Instances are immutable, so ``has_y`` and the flip-mask count, which
    every operator build reads, are counted once at construction.
    """

    def __init__(self, n, terms, groups=None):
        self._n = index(n)  # TypeError unless an integer
        if self._n < 0:
            raise ValueError("qubit count must be non-negative")
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
        self._has_y = any(t.string.has_y for t in tlist)
        self._flip_count = len({t.string.x for t in tlist})
        if groups is not None:
            groups = tuple(tuple(index(i) for i in g) for g in groups)
            seen = sorted(i for g in groups for i in g)
            if seen != list(range(len(self._terms))):
                raise ValueError("groups must partition the term indices")
        self._groups = groups

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
        return _mask_qubits(m)

    def group_norms(self) -> list:
        """Exact spectral norm of each group, by dense diagonalization on its support.

        The groups of one width are scattered into a stack of 2^w x 2^w
        matrices, and each stack takes one ``eigvalsh`` call.
        """
        norms = {}
        for members, mats in _dense_stacks(self):
            norms.update(zip(members, np.max(np.abs(np.linalg.eigvalsh(mats)), axis=1).tolist()))
        return [norms[g] for g in range(len(norms))]

    @property
    def locality(self) -> int:
        """Max union-support size over groups (max string weight if ungrouped)."""
        if not self._terms:
            return 0
        return max(len(self.group_support(g)) for g in self.group_indices())

    @property
    def has_y(self) -> bool:
        return self._has_y

    @property
    def dtype(self) -> type:
        return complex if self._has_y else float

    def flip_count(self) -> int:
        """Number of distinct X flip masks, i.e. of entries in each row of ``to_matrix``."""
        return self._flip_count

    def to_matrix(self, dense=False):
        """The compiled operator: the sum as a flip-ordered CSR matrix, or
        with ``dense`` that matrix densified.

        Row r holds E_f[r] = H[r, r ^ f] at column r ^ f for every flip mask
        f, in increasing f, so a row-by-row product adds its terms in the
        order of the per-flip sum.  The data array is the C-ordered (2^n,
        #flips) base of the whole-register part of ``_local_flip_forms``, as
        it is, with int32 column indices (the byte ceiling keeps a stack
        below 2^31 entries).  The sum is held to the iterative qubit ceiling
        (and a dense one first to the dense ceiling) and, by the builder, to
        the byte ceiling, before anything is allocated.
        """
        if dense:
            _check_ceiling(self._n, DENSE_QUBIT_CEILING, "dense")
        (_, _, flips, diags), = _local_flip_forms(self, ITERATIVE_QUBIT_CEILING, "iterative", whole=True)
        dim = 1 << self._n
        cols = np.arange(dim, dtype=np.int32)[:, None] ^ flips.astype(np.int32)
        indptr = np.arange(dim + 1, dtype=np.int32) * len(flips)
        mat = sp.csr_matrix((diags.T.reshape(-1), cols.reshape(-1), indptr), shape=(dim, dim))
        return mat.toarray() if dense else mat

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H @ v by the compiled product of ``to_matrix``'s CSR matrix."""
        check_qubit_ceiling(self._n)  # before 2^n is formed
        if vec.shape[0] != 1 << self._n:
            raise ValueError("state dimension mismatch")
        return flip_matvec(self.to_matrix(), vec)

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


def check_qubit_ceiling(n: int) -> None:
    """``ResourceLimitError`` when an n-qubit operator is above every ceiling,
    before anything of size 2^n is formed."""
    _check_ceiling(n, ITERATIVE_QUBIT_CEILING, "iterative")


def _apply_local(u: np.ndarray, targets, psi: np.ndarray) -> np.ndarray:
    """u psi for a 2^w x 2^w matrix ``u`` on the qubits ``targets`` of a
    state (in any order, the first the most significant bit of u's index;
    qubit 0 the most significant bit of the state's)."""
    w, n = len(targets), psi.size.bit_length() - 1
    tensor = np.moveaxis(psi.reshape((2,) * n), targets, range(w))
    shape = tensor.shape
    tensor = u @ tensor.reshape(1 << w, -1)
    return np.moveaxis(tensor.reshape(shape), range(w), targets).reshape(-1)


def _check_stack_bytes(rows: int, width: int, dtype) -> None:
    """``ResourceLimitError`` when ``rows`` flip diagonals on ``width`` qubits,
    charged as the CSR operator they make, are above ``ITERATIVE_BYTE_CEILING``,
    or when its int32 column index cannot address 2^width states, whatever
    ``rows`` is (so 2^width is never formed for such a width)."""
    if width > _INDEX_BITS:
        raise ResourceLimitError(
            f"{width} qubits have more states than the int32 column index of a CSR operator addresses"
        )
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
    the form of the assembled matrix (``_whole_flip_form``).  A part on w
    qubits is renumbered in qubit order, with qubit 0 the most significant
    bit.  Parts of one width and dtype come in stacks of at most
    ``_STACK_BYTES`` / (itemsize * 4^w) parts, and at least one.  A stack is
    (members, part, flips, diags): ``members`` lists its part indices in
    increasing order, and row k holds the local flip mask ``flips[k]`` of
    part ``members[part[k]]`` with its diagonal ``diags[k]``, so entry
    (r, r ^ f) of that part is diags[k, r].  A part's rows come in increasing
    f, each summed in term order.  Every ``diags`` is the transposed view of
    a C-ordered (2^w, rows) array, the data layout of the CSR operator
    (``HamiltonianSum.to_matrix``).

    Raises ``ResourceLimitError`` before anything is allocated when a part
    spans more than ``ceiling`` qubits (a ``ceiling`` of None checks none;
    the whole register is checked by ``h.n`` alone, before any range of it
    is formed), and before a stack is allocated when it, charged as a CSR
    operator, is above ``ITERATIVE_BYTE_CEILING``.  A stack of several parts
    is charged at most 3/2 * ``_STACK_BYTES``, below that ceiling, so only a
    stack of one part can be refused.
    """
    if whole:
        if ceiling is not None:
            _check_ceiling(h.n, ceiling, kind)
        yield _whole_flip_form(h)
        return
    groups = h.group_indices()
    supports = [h.group_support(g) for g in groups]
    if ceiling is not None:
        for supp in supports:
            _check_ceiling(len(supp), ceiling, kind)
    local, buckets = [], {}
    for g, supp in zip(groups, supports):
        bits = _support_bits(supp)
        local.append(_local_strings(h.terms, g, bits, bits))
        dtype = complex if any(ny for _, _, ny, _ in local[-1]) else float
        buckets.setdefault((len(supp), dtype), []).append(len(local) - 1)
    for (width, dtype), members in buckets.items():
        per_stack = max(1, _STACK_BYTES // (np.dtype(dtype).itemsize << 2 * width))
        for start in range(0, len(members), per_stack):
            chunk = members[start:start + per_stack]
            part, flips, strings = _stack_rows([local[gi] for gi in chunk])
            _check_stack_bytes(len(flips), width, dtype)
            diags = np.empty((1 << width, len(flips)), dtype=dtype).T
            _stacked_diagonals(strings, diags)
            yield chunk, part, flips, diags


def _whole_flip_form(h: HamiltonianSum):
    """The one stack of the whole-register part of ``_local_flip_forms``.

    E_f[r] depends on r only through the sign support S of the sum, the
    qubits that carry a Z or Y letter in some string.  When S misses a
    qubit, the rows are summed on the 2^|S| patterns of S and each
    whole-register row r is copied from the pattern of r, one broadcast
    over the qubits outside S.  Each entry is the same term-order sum, so
    the stack is bit for bit the pass on the whole register.
    """
    _check_stack_bytes(h.flip_count(), h.n, h.dtype)
    z = 0
    for t in h.terms:
        z |= t.string.z
    signs = _mask_qubits(z)
    local = _local_strings(h.terms, range(len(h.terms)), _support_bits(range(h.n)), _support_bits(signs))
    part, flips, strings = _stack_rows([local])
    rows = len(flips)
    data = np.empty((1 << h.n, rows), dtype=h.dtype)
    if len(signs) == h.n:
        _stacked_diagonals(strings, data.T)
    else:
        on_signs = np.empty((1 << len(signs), rows), dtype=h.dtype)
        _stacked_diagonals(strings, on_signs.T)
        # axis q of the register is qubit q; the patterns have length 1 on
        # the axes outside S
        axes = [1] * h.n
        for q in signs:
            axes[q] = 2
        data.reshape((2,) * h.n + (rows,))[...] = on_signs.reshape((*axes, rows))
    return [0], part, flips, data.T


def _stack_rows(parts):
    """(part, flips, strings) of a stack of parts, each given by
    ``_local_strings``: part p's rows are its distinct flip masks in
    increasing order, and each string is readdressed to its row."""
    part, flips, strings = [], [], []
    for p, local in enumerate(parts):
        row_of = {f: len(flips) + k for k, f in enumerate(sorted({t[0] for t in local}))}
        part += [p] * len(row_of)
        flips += row_of
        strings += [(row_of[flip], sign, ny, coeff) for flip, sign, ny, coeff in local]
    return np.array(part, dtype=np.intp), np.array(flips, dtype=np.intp), strings


def _dense_stacks(h: HamiltonianSum):
    """Yield (members, mats) for each stack of groups of ``_local_flip_forms``
    under the dense ceiling: mats[p] is the dense matrix of group
    ``members[p]`` on its support, with E_f[r] at entry (r, r ^ f) and
    zeros elsewhere."""
    for members, part, flips, diags in _local_flip_forms(h, DENSE_QUBIT_CEILING, "dense"):
        dim = diags.shape[1]
        rows = np.arange(dim)
        mats = np.zeros((len(members), dim, dim), dtype=diags.dtype)
        mats[part[:, None], rows, rows ^ flips[:, None]] = diags
        yield members, mats


def _local_strings(terms, g, flip_bits, sign_bits) -> list:
    """(flip, sign, #Y, coeff) of each term ``terms[i]``, i in ``g``, in order.

    ``flip_bits`` and ``sign_bits`` map X and Z masks to the state-index
    bits of supports that hold every qubit the strings flip and sign:
    ``_support_bits(supp)`` for a group, or for a whole sum
    ``_support_bits(range(n))`` and that of its sign support.
    """
    out = []
    for i in g:
        s = terms[i].string
        out.append((flip_bits(s.x), sign_bits(s.z), (s.x & s.z).bit_count(), terms[i].coeff))
    return out


def _mask_qubits(m: int) -> tuple:
    """The qubits of the set bits of ``m``, in increasing order."""
    qubits = []
    while m:
        low = m & -m
        qubits.append(low.bit_length() - 1)
        m ^= low
    return tuple(qubits)


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
    coeff * (-i)**ny * (-1)**popcount(j & sign) at entry j of its row, its
    entry H[j, j ^ f]: coeff * i**ny times the sign of j ^ f, which is
    (-1)**ny times that of j (the ny Y qubits both flip and sign); ``sign``
    is in the state-index bits of a w-qubit support.  Rows go in blocks of at least ``_BLOCK_ROWS`` and
    entries in tiles, so that a block's tile takes about ``_CHUNK_BYTES``.
    Each tile is summed from zero in a cache-sized temporary, pass r adding
    the r-th string of each of its rows, then written once.  A sum started
    at +0 never turns -0, so only the nonzero parts of each +-weight count,
    and they are exact: the rows are the per-string sums bit for bit.  A
    sum of finite weights that overflows raises ``PreconditionError``.
    """
    rows, dim = diags.shape
    if not rows:
        return
    row = np.array([r for r, _, _, _ in strings], dtype=np.intp)
    sign = np.array([s for _, s, _, _ in strings], dtype=np.uint64)
    weight = np.array([c * (-1j) ** ny if ny % 4 else c for _, _, ny, c in strings], dtype=diags.dtype)
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


def _entry_blocks(diags):
    """Slices of the state indices of a stack ``diags`` (rows, 2^w), each
    block of whose rows takes about ``_CHUNK_BYTES``, so that a check's
    temporaries stay block-sized."""
    rows, dim = diags.shape
    step = max(1, _CHUNK_BYTES // (diags.itemsize * max(rows, 1)))
    return [slice(j, min(j + step, dim)) for j in range(0, dim, step)]


def _offdiag_scores(vals, offdiag, tol):
    """real + |imag| of each entry of ``vals`` that violates 'real and <= tol'
    on a row whose ``offdiag`` flag is set, and -inf elsewhere."""
    if np.iscomplexobj(vals):
        mag = np.abs(vals.imag)
        bad = (vals.real > tol) | (mag > tol)
        score = vals.real + mag
    else:
        bad, score = vals > tol, vals
    return np.where(bad & offdiag, score, -np.inf)


def _offdiag_offenders(part, flips, diags, count: int, tol: float) -> list:
    """Per part, its largest off-diagonal entry violating 'real and <= tol',
    as (entry, (row, col)), or None.

    Ties go to the first such entry in row-major order.  Two passes over
    blocks of entries: each row's largest score, then, on the rows that
    reach their part's best, the first position of that score.
    """
    dim = diags.shape[1]
    offdiag = (flips != 0)[:, None]
    blocks = _entry_blocks(diags)
    row_best = np.full(len(flips), -np.inf)
    for cols in blocks:
        np.maximum(row_best, _offdiag_scores(diags[:, cols], offdiag, tol).max(axis=1, initial=-np.inf),
                   out=row_best)
    best = np.full(count, -np.inf)
    np.maximum.at(best, part, row_best)
    tied = np.flatnonzero((row_best > -np.inf) & (row_best == best[part]))
    # row-major position r * dim + (r ^ f) of each worst entry, which grows with r
    last = dim * dim
    row_first = np.full(len(tied), last)
    for cols in blocks:
        r = np.arange(cols.start, cols.stop)
        hit = _offdiag_scores(diags[tied, cols], offdiag[tied], tol) == best[part[tied], None]
        pos = np.where(hit, r * dim + (r ^ flips[tied, None]), last)
        np.minimum(row_first, pos.min(axis=1, initial=last), out=row_first)
    first = np.full(count, last)
    np.minimum.at(first, part[tied], row_first)
    hits = [None] * count
    for k, pos in zip(tied.tolist(), row_first.tolist()):
        if pos == first[part[k]]:
            r, c = divmod(pos, dim)
            hits[part[k]] = complex(diags[k, r]), (r, c)
    return hits


def is_stoquastic(h: HamiltonianSum, termwise=True, tol=DEFAULT_TOL) -> StoquasticReport:
    """Check for non-positive off-diagonal entries in the computational basis.

    ``termwise`` checks every group's matrix on its own support; otherwise the
    fully assembled matrix is checked.  Across groups the larger real part
    wins, the earlier group on ties.  Always returns a report.
    """
    _check_tol(tol)
    hits = {}
    for members, part, flips, diags in _local_flip_forms(h, ITERATIVE_QUBIT_CEILING, "iterative", not termwise):
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

    Anticommuting string pairs contribute 2*c*d*i^k to the product string,
    with k = 1 or 3: the product of two anticommuting strings carries +-i,
    so only its imaginary part is kept.  Accumulation is done in rational
    arithmetic (floats embed exactly), so the verdict needs no
    floating-point tolerance.
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
            key = (prod.x, prod.z)
            acc[key] = acc.get(key, 0) + (c if k == 1 else -c)
    return all(v == 0 for v in acc.values())


def is_commuting(h: HamiltonianSum) -> CommutingReport:
    """Pairwise commutation over groups; exact, no floating-point tolerance.

    A pair of single strings that commute by the symplectic form is
    accepted at once; every other pair is decided by the exact rational
    commutator, in which a zero weight contributes nothing.
    """
    groups = h.group_indices()
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            gi, gj = groups[i], groups[j]
            if len(gi) == 1 and len(gj) == 1 and h.terms[gi[0]].string.commutes_with(h.terms[gj[0]].string):
                continue
            if not _groups_commute_exact(h, gi, gj):
                return CommutingReport(False, (i, j))
    return CommutingReport(True)


def _permutation_defects(part, flips, diags, count: int, tol: float) -> list:
    """Per part, why it is not a 0/1 permutation matrix, or None.

    Entries off the flip masks' positions are exact zeros.  The entries go
    in blocks of state indices j: each block adds its rows' flags, and the
    near-1 counts of the lines it covers, row j (entries diags[k, j]) and
    column j (entries diags[k, j ^ f], in row j ^ f).
    """
    rows = diags.shape[0]
    complex_row = np.zeros(rows, dtype=bool)
    outside_row = np.zeros(rows, dtype=bool)
    line_off = np.zeros(count, dtype=bool)
    for cols in _entry_blocks(diags):
        j = np.arange(cols.start, cols.stop)
        vals, mirrored = diags[:, cols], diags[np.arange(rows)[:, None], j ^ flips[:, None]]
        if np.iscomplexobj(vals):
            complex_row |= np.any(np.abs(vals.imag) > tol, axis=1)
            vals, mirrored = vals.real, mirrored.real
        near1 = np.abs(vals - 1.0) <= tol
        outside_row |= ~np.all((np.abs(vals) <= tol) | near1, axis=1)
        slot = part[:, None] * len(j) + np.arange(len(j))
        for ones in (near1, np.abs(mirrored - 1.0) <= tol):
            lines = np.bincount(slot[ones], minlength=count * len(j)).reshape(count, len(j))
            line_off |= np.any(lines != 1, axis=1)

    def any_row(flags):
        return np.bincount(part, weights=flags, minlength=count) > 0

    checks = [("entry outside {0,1}", any_row(outside_row)), ("row/column sums differ from 1", line_off)]
    if np.iscomplexobj(diags):
        checks.insert(0, ("complex entries", any_row(complex_row)))
    # a part's reason is the first check it fails
    reasons = [None] * count
    for reason, failed in reversed(checks):
        for p in np.flatnonzero(failed):
            reasons[p] = reason
    return reasons


def is_permutation(h: HamiltonianSum, termwise=True, tol=DEFAULT_TOL) -> PermutationReport:
    """Check that each group's matrix (with ``termwise``, on its own support)
    or the assembled matrix is a 0/1 permutation."""
    _check_tol(tol)
    failed = {}
    for members, part, flips, diags in _local_flip_forms(h, ITERATIVE_QUBIT_CEILING, "iterative", not termwise):
        for gi, reason in zip(members, _permutation_defects(part, flips, diags, len(members), tol)):
            if reason is not None:
                failed[gi] = reason
    if not failed:
        return PermutationReport(True)
    gi = min(failed)
    return PermutationReport(False, failed[gi], gi if termwise else None)
