"""Static pinning reductions between restricted and unrestricted Hamiltonians.

Pinning qubit ``q`` of a Hamiltonian to a single-qubit product state |phi_q>
projects the operator to (I (x) <phi|) H (I (x) |phi>).  For product pins the
projection contracts term by term: every pinned single-qubit Pauli factor
becomes a scalar, so the effective operator is again a Pauli sum on the
unpinned qubits and never requires assembling the large matrix.

The four constructions here trade restrictions for pins:

* ``pin_penalty_lift``    -- removes a pin by paying an energy penalty.
* ``commuting_pin``       -- diagonal strings plus internally-commuting
                             off-diagonal strings -> fully commuting terms
                             plus one pinned ancilla.
* ``stoquastic_pin``      -- sign-flips positive off-diagonal terms through
                             an ancilla pinned to |->.
* ``permutation_pin``     -- 0/1 permutation blocks with coefficients encoded
                             in pinned ancilla rotation angles.

``stoquastic_pin`` and ``permutation_pin`` accept every Y-free string, and
``commuting_pin`` every sum whose off-diagonal strings commute with one
another: each refuses only what its identity does not cover.

Each of them, and the O'/P' split of ``gscon.build_stoquastic_gscon``,
attaches a projector to a string through one gadget,
``pauli.projector_terms``: the two terms of c X^x Z^z (I +- X^px Z^pz)/2.
The two stoquastic constructions split each string into pieces of one
sign by one helper beside it, ``pauli.sign_pieces``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import cached_property
from operator import index
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ResourceLimitError, UnsupportedTermError
from .pauli import (
    ITERATIVE_BYTE_CEILING,
    HamiltonianSum,
    PauliString,
    PauliTerm,
    is_commuting,
    projector_terms,
    sign_pieces,
)


class _PinRow(NamedTuple):
    """One pin state: its <X> and <Z>."""

    exp_x: float
    exp_z: float


_NAMED_STATES = {
    "0": _PinRow(0.0, 1.0),
    "1": _PinRow(0.0, -1.0),
    "+": _PinRow(1.0, 0.0),
    "-": _PinRow(-1.0, 0.0),
}


@dataclass(frozen=True)
class PinState:
    """A single-qubit pure state: one of |0>, |1>, |+>, |-> or cos(a)|0>+sin(a)|1>."""

    kind: str
    angle: float | None = None

    def __post_init__(self):
        if self.kind == "angle":
            if self.angle is None:
                raise ValueError("angle state requires an angle")
            if not math.isfinite(self.angle):
                raise ValueError(f"pin angle {self.angle!r} is not finite")
            # the state's X and Z expectations are sin and cos of twice the angle
            if not math.isfinite(2.0 * self.angle):
                raise ValueError(f"pin angle {self.angle!r} is too large: twice it is not finite")
        elif self.kind not in _NAMED_STATES:
            raise ValueError(f"unknown pin state {self.kind!r}")

    @classmethod
    def parse(cls, token: str) -> "PinState":
        token = token.strip()
        if token in _NAMED_STATES:
            return cls(token)
        if token.startswith("angle:"):
            return cls("angle", float(token[len("angle:"):]))
        raise ValueError(f"invalid pin state {token!r} (expected 0,1,+,-,angle:<radians>)")

    def label(self) -> str:
        return self.kind if self.kind != "angle" else f"angle:{self.angle!r}"

    @cached_property
    def _row(self) -> _PinRow:
        """The state's row of ``_NAMED_STATES``, or that of an angle state."""
        if self.kind != "angle":
            return _NAMED_STATES[self.kind]
        return _PinRow(math.sin(2.0 * self.angle), math.cos(2.0 * self.angle))

    @property
    def exp_x(self) -> float:
        """<phi|X|phi>; exact for the named states."""
        return self._row.exp_x

    @property
    def exp_z(self) -> float:
        """<phi|Z|phi>; exact for the named states."""
        return self._row.exp_z


PIN_ZERO = PinState("0")
PIN_MINUS = PinState("-")


@dataclass(frozen=True)
class PinSpec:
    """An ordered list of (qubit index, pin state) pairs."""

    entries: tuple

    def __post_init__(self):
        # TypeError unless every qubit index is an integer
        object.__setattr__(self, "entries", tuple((index(q), s) for q, s in self.entries))
        qubits = self.qubits
        if len(set(qubits)) != len(qubits):
            raise ValueError("pinned qubit indices must be distinct")

    @classmethod
    def of(cls, *pairs) -> "PinSpec":
        return cls(tuple((q, s if isinstance(s, PinState) else PinState.parse(s)) for q, s in pairs))

    @property
    def qubits(self) -> tuple:
        return tuple(q for q, _ in self.entries)

    def state_for(self, q: int) -> PinState:
        for qq, s in self.entries:
            if qq == q:
                return s
        raise KeyError(q)

    def validate_for(self, n: int) -> None:
        for q, _ in self.entries:
            if not (0 <= q < n):
                raise PreconditionError(f"pinned qubit {q} outside 0..{n - 1}")

    def labels(self) -> list:
        return [f"{q}={s.label()}" for q, s in self.entries]


# ---------------------------------------------------------------------------
# effective Hamiltonian of a pinned operator
# ---------------------------------------------------------------------------


def effective_sum(h: HamiltonianSum, pin: PinSpec) -> HamiltonianSum:
    """Exact term-by-term contraction onto the unpinned qubits, merged.

    Each pinned Pauli factor is replaced by its expectation in the pin state
    (<Y> = 0 for the real pin states, so Y factors kill a term), and equal
    strings are merged.  Works at any qubit count; only the unpinned
    register survives.
    """
    pin.validate_for(h.n)
    pinned = sorted(pin.qubits)
    out_terms = []
    for t in h.terms:
        coeff = t.coeff
        x_new = z_new = 0
        dead = False
        rest = t.string.x | t.string.z
        while rest:  # the qubits the string acts on, never all n
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            xb = (t.string.x >> q) & 1
            zb = (t.string.z >> q) & 1
            below = bisect_left(pinned, q)
            if below < len(pinned) and pinned[below] == q:
                if xb and zb:
                    dead = True  # <Y> = 0 for real pin states
                    break
                if xb:
                    coeff *= pin.state_for(q).exp_x
                else:
                    coeff *= pin.state_for(q).exp_z
            else:
                # an unpinned qubit moves down past the pinned qubits below it
                x_new |= xb << (q - below)
                z_new |= zb << (q - below)
        if dead or coeff == 0.0:
            continue
        out_terms.append(PauliTerm(coeff, PauliString(h.n - len(pinned), x_new, z_new)))
    return HamiltonianSum(h.n - len(pinned), out_terms).merged()


# ---------------------------------------------------------------------------
# promise bookkeeping and reduction reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromiseBounds:
    """Finite YES threshold a and NO threshold b, with b > a."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise PreconditionError(f"bounds must be finite, got a={self.a}, b={self.b}")
        if not (self.b > self.a):
            raise PreconditionError(f"bounds require b > a, got a={self.a}, b={self.b}")

    def scaled(self, s: float) -> "PromiseBounds":
        return PromiseBounds(self.a * s, self.b * s)


@dataclass
class ReductionReport:
    reduction: str
    input_qubits: int
    output_qubits: int
    input_locality: int
    output_locality: int
    term_count: int
    pin: list
    input_bounds: tuple | None = None
    output_bounds: tuple | None = None
    truncation_bound: float | None = None
    scale: float | None = None
    dropped_terms: int = 0
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        """The fields as a dict, without ``truncation_bound`` and ``scale`` when unset."""
        out = asdict(self)
        for key in ("truncation_bound", "scale"):
            if out[key] is None:
                del out[key]
        return out


@dataclass
class ReductionResult:
    hamiltonian: HamiltonianSum
    pin: PinSpec
    bounds: PromiseBounds | None
    report: ReductionReport


def _reduction(name, h, n_out, blocks, pin, bounds, factor=1.0, **extra) -> ReductionResult:
    """Result of a reduction of ``h``: the sum with one group per block, the
    pin, the bounds times ``factor``, and the report; ``extra`` fills the
    report's optional fields."""
    out = HamiltonianSum.from_groups(n_out, blocks)
    new_bounds = bounds.scaled(factor) if bounds is not None else None
    report = ReductionReport(
        reduction=name,
        input_qubits=h.n,
        output_qubits=n_out,
        input_locality=h.locality,
        output_locality=out.locality,
        term_count=len(blocks),
        pin=pin.labels(),
        input_bounds=(bounds.a, bounds.b) if bounds else None,
        output_bounds=(new_bounds.a, new_bounds.b) if new_bounds else None,
        **extra,
    )
    return ReductionResult(out, pin, new_bounds, report)


# ---------------------------------------------------------------------------
# penalty lift: trade the pin for an energy penalty
# ---------------------------------------------------------------------------


def penalty_delta(bounds: PromiseBounds, d: float) -> float:
    """Penalty strength (b+a)/2 + d*(2d/(b-a) + 1) for a norm bound d >= ||G'||."""
    a, b = bounds.a, bounds.b
    return (b + a) / 2.0 + d * (2.0 * d / (b - a) + 1.0)


@dataclass
class PenaltyLiftResult:
    hamiltonian: HamiltonianSum
    bounds: PromiseBounds
    delta: float
    norm_bound: float


def pin_penalty_lift(
    gprime: HamiltonianSum,
    pin_qubit: int,
    bounds: PromiseBounds,
    d: float | None = None,
    exact_norm: bool = False,
) -> PenaltyLiftResult:
    """Replace the pin |0> on ``pin_qubit`` by the penalty Delta*|1><1|.

    Guarantees: a pinned state of energy <= a stays a witness with energy <= a;
    if every pinned state has energy >= b, the unpinned minimum is >= (a+b)/2,
    so the promise becomes (a, (a+b)/2).  ``d`` must upper-bound ||G'||; the
    default is the sum of exact per-group norms, or the exact norm of the
    whole sum when ``exact_norm`` is set, the largest |eigenvalue| of its
    dense matrix; ``d`` and ``exact_norm`` together raise ``ValueError``.  A
    given ``d`` that is not finite, or is below the 2-norm of the merged
    coefficients (a lower bound on ||G'||), raises ``PreconditionError``.
    A register whose n-letter penalty label, one byte a letter, is above
    ``ITERATIVE_BYTE_CEILING`` raises ``ResourceLimitError`` first.
    """
    if d is not None and exact_norm:
        raise ValueError("give a norm bound d or exact_norm, not both")
    if not (0 <= pin_qubit < gprime.n):
        raise PreconditionError(f"pin qubit {pin_qubit} outside register")
    if gprime.n > ITERATIVE_BYTE_CEILING:
        raise ResourceLimitError(
            f"a penalty label of {gprime.n} letters exceeds the byte ceiling of {ITERATIVE_BYTE_CEILING}"
        )
    if d is not None:
        # ||G'|| is at least the root mean square of its eigenvalues, the
        # 2-norm of its merged coefficients
        rms = math.hypot(*(t.coeff for t in gprime.merged().terms))
        if not (math.isfinite(d) and d >= rms * (1.0 - 1e-12)):
            raise PreconditionError(f"norm bound {d!r} is not a finite bound >= {rms!r} on ||G'||")
    elif exact_norm:
        d = float(np.max(np.abs(np.linalg.eigvalsh(gprime.to_matrix(dense=True)))))
    else:
        d = float(sum(gprime.group_norms()))
    delta = penalty_delta(bounds, d)
    # Delta * |1><1| = Delta * (I - Z)/2 on the pin qubit: two terms, one group after those of G'
    penalty = projector_terms(gprime.n, delta, 0, 0, -1, 0, 1 << pin_qubit)
    size = len(gprime)
    lifted = HamiltonianSum(gprime.n, gprime.terms + tuple(penalty), gprime.group_indices() + ((size, size + 1),))
    new_bounds = PromiseBounds(bounds.a, (bounds.a + bounds.b) / 2.0)
    return PenaltyLiftResult(lifted, new_bounds, delta, d)


# ---------------------------------------------------------------------------
# commuting pin
# ---------------------------------------------------------------------------


def commuting_pin(h: HamiltonianSum, bounds: PromiseBounds | None = None) -> ReductionResult:
    """Attach |+><+| to the diagonal strings A and |-><-| to the rest, B.

    Accepts every Hamiltonian whose off-diagonal strings B commute with one
    another: A (x) |+><+| + B (x) |-><-| then commutes group by group, since
    A is diagonal and |+><+| |-><-| = 0.  The output is (k+1)-local, and
    pinning the new ancilla to |0> halves every energy, so the promise
    becomes (a/2, b/2).  ``UnsupportedTermError`` names two strings of B
    that do not commute.
    """
    off = HamiltonianSum(h.n, [t for t in h.terms if not t.string.is_diagonal])
    pair = is_commuting(off).pair
    if pair is not None:
        first, second = (off.terms[i].string.label() for i in pair)
        raise UnsupportedTermError(f"off-diagonal terms {first} and {second} do not commute")
    n_out = h.n + 1
    # a header-only input may name more qubits than a mask can hold
    anc_bit = 1 << h.n if h.terms else 0
    blocks = []
    for t in h.terms:
        sign = 1 if t.string.is_diagonal else -1  # |+><+| = (I+X)/2, |-><-| = (I-X)/2
        blocks.append(projector_terms(n_out, t.coeff, t.string.x, t.string.z, sign, anc_bit, 0))
    pin = PinSpec(((h.n, PIN_ZERO),))
    return _reduction("commuting_pin", h, n_out, blocks, pin, bounds, 0.5)


# ---------------------------------------------------------------------------
# stoquastic pin
# ---------------------------------------------------------------------------


def stoquastic_pin(h: HamiltonianSum, bounds: PromiseBounds | None = None) -> ReductionResult:
    """Rewrite positive off-diagonal terms through an ancilla pinned to |->.

    Accepts every Y-free string.  Each term splits into pieces of one sign
    (``pauli.sign_pieces``); a piece with positive off-diagonal entries
    becomes -piece (x) X on the ancilla, whose pinned <X> = -1 restores it,
    and every other piece passes through.  One group per input term.  The
    pinned effective operator equals the input exactly and the promise is
    unchanged.
    """
    n_out = h.n + 1
    # a header-only input may name more qubits than a mask can hold
    anc_bit = 1 << h.n if h.terms else 0
    blocks = []
    for t in h.terms:
        if t.string.has_y:
            raise UnsupportedTermError(f"term {t.string.label()} carries a Y factor")
        block = []
        for sign, piece in sign_pieces(n_out, t.coeff, t.string.x, t.string.z):
            if sign > 0:
                piece = [PauliTerm(-p.coeff, PauliString(n_out, p.string.x | anc_bit, p.string.z))
                         for p in piece]
            block.extend(piece)
        blocks.append(block)
    return _reduction("stoquastic_pin", h, n_out, blocks, PinSpec(((h.n, PIN_MINUS),)), bounds)


# ---------------------------------------------------------------------------
# permutation pin
# ---------------------------------------------------------------------------


# a double's magnitude has no set bit below 2^-1074, the least subnormal, so
# further expansion bits are all zero
_BIT_CEILING = 1074


def _binary_bits(x: float, q: int) -> list:
    """Indices j in 1..q with bit x_j set in the truncation x ~ sum x_j / 2^j.

    Truncation rounds down, so dyadic inputs with <= q bits expand exactly.
    """
    num, den = x.as_integer_ratio()
    m = (num << q) // den  # floor(x * 2^q), exact at any q
    return [j for j in range(1, q + 1) if (m >> (q - j)) & 1]


def default_truncation_bits(term_count: int, bounds: PromiseBounds | None, scale: float) -> int:
    """Smallest Q with M * 2^(1-Q) <= (scaled gap)/4, else 20 without bounds.

    ``PreconditionError`` when no Q up to ``_BIT_CEILING`` meets the bound.
    """
    if bounds is None or term_count == 0:
        return 20
    gap = (bounds.b - bounds.a) / scale
    q = 1
    while term_count * 2.0 ** (1 - q) > gap / 4.0:
        if q == _BIT_CEILING:
            raise PreconditionError(
                f"no bit count up to {_BIT_CEILING} truncates {term_count} terms within the gap {gap!r}"
            )
        q += 1
    return q


def permutation_pin(
    h: HamiltonianSum,
    q_bits: int | None = None,
    bounds: PromiseBounds | None = None,
) -> ReductionResult:
    """Encode a Y-free Hamiltonian into 0/1 permutation blocks.

    Coefficient magnitudes are binary-expanded to ``q_bits`` bits, one block
    per set bit carrying X on ancilla ``q_j`` whose pin angle satisfies
    sin(2a_j) = 2^-j; negative coefficients also carry X on the sign ancilla
    ``q_0`` pinned to |->.  A string X^x Z^z with a Z mask becomes the
    parity gadget |s, a> -> |s ^ x, a ^ (z.s)> on the parity ancilla ``z``
    pinned to |->, whose <-|.|-> is X^x Z^z.  Every block is a permutation
    matrix on at most k + 3 qubits, there are at most M*Q of them, and the
    pinned effective operator is within M * 2^-Q of the (rescaled) input.

    Ancilla order is fixed: z, q_0, q_1..q_Q after the system qubits.
    ``UnsupportedTermError`` for a string with a Y factor.
    ``PreconditionError`` when Q is below 1 or above ``_BIT_CEILING``, or
    when bounds are given without ``q_bits`` and no Q up to the ceiling
    has M * 2^(1-Q) <= (scaled gap)/4, before any block is built.
    """
    for t in h.terms:
        if t.string.has_y:
            raise UnsupportedTermError(f"term {t.string.label()} carries a Y factor")

    nonzero = [t for t in h.terms if t.coeff != 0.0]
    dropped = len(h.terms) - len(nonzero)
    max_mag = max((abs(t.coeff) for t in nonzero), default=0.0)
    # Rescale only when needed: magnitudes already in (0, 1) expand as-is so
    # dyadic coefficients stay exact.
    scale = max_mag * (1.0 + 1e-9) if max_mag >= 1.0 else 1.0
    if not math.isfinite(scale):
        raise PreconditionError(f"largest magnitude {max_mag!r} leaves no finite scale")

    if q_bits is None:
        q_bits = default_truncation_bits(len(nonzero), bounds, scale)
    if q_bits < 1:
        raise PreconditionError("bit count must be at least 1")
    if q_bits > _BIT_CEILING:
        raise PreconditionError(f"{q_bits} bits exceed the {_BIT_CEILING} bits a double's magnitude holds")

    n_sys = h.n
    z_anc = n_sys
    q0_anc = n_sys + 1
    n_out = n_sys + 2 + q_bits

    def q_anc(j):
        return n_sys + 1 + j

    blocks = []
    for t in nonzero:
        mag = abs(t.coeff) / scale
        negative = t.coeff < 0
        bits = _binary_bits(mag, q_bits)
        for j in bits:
            anc_x = 1 << q_anc(j)
            if negative:
                anc_x |= 1 << q0_anc
            x, z = t.string.x | anc_x, t.string.z
            if z:
                # parity gadget: X^x (even projector) (x) I_z + X^x (odd projector) (x) X_z
                blocks.append(projector_terms(n_out, 1.0, x, 0, 1, 0, z)
                              + projector_terms(n_out, 1.0, x | 1 << z_anc, 0, -1, 0, z))
            else:
                blocks.append([PauliTerm(1.0, PauliString(n_out, x, 0))])

    pins = [(z_anc, PIN_MINUS), (q0_anc, PIN_MINUS)]
    for j in range(1, q_bits + 1):
        pins.append((q_anc(j), PinState("angle", 0.5 * math.asin(2.0 ** (-j)))))
    pin = PinSpec(tuple(pins))

    return _reduction("permutation_pin", h, n_out, blocks, pin, bounds, 1.0 / scale,
                      truncation_bound=len(nonzero) * 2.0 ** (-q_bits), scale=scale,
                      dropped_terms=dropped, notes=[f"q_bits={q_bits}"])
