"""Static pinning reductions between restricted and unrestricted Hamiltonians.

Pinning qubit ``q`` of a Hamiltonian to a single-qubit product state |phi_q>
projects the operator to (I (x) <phi|) H (I (x) |phi>).  For product pins the
projection contracts term by term: every pinned single-qubit Pauli factor
becomes a scalar, so the effective operator is again a Pauli sum on the
unpinned qubits and never requires assembling the large matrix.

The four constructions here trade restrictions for pins:

* ``pin_penalty_lift``    -- removes a pin by paying an energy penalty.
* ``commuting_pin``       -- two internally-commuting groups -> fully
                             commuting terms plus one pinned ancilla.
* ``stoquastic_pin``      -- sign-flips positive off-diagonal terms through
                             an ancilla pinned to |->.
* ``permutation_pin``     -- 0/1 permutation blocks with coefficients encoded
                             in pinned ancilla rotation angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, UnsupportedTermError
from .pauli import (
    HamiltonianSum,
    PauliString,
    PauliTerm,
    _LETTER,
    _LETTER_INV,
)

_NAMED_STATES = {"0", "1", "+", "-"}


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

    @property
    def exp_x(self) -> float:
        """<phi|X|phi>; exact for the named states."""
        if self.kind in ("0", "1"):
            return 0.0
        if self.kind == "+":
            return 1.0
        if self.kind == "-":
            return -1.0
        return math.sin(2.0 * self.angle)

    @property
    def exp_z(self) -> float:
        """<phi|Z|phi>; exact for the named states."""
        if self.kind == "0":
            return 1.0
        if self.kind == "1":
            return -1.0
        if self.kind in ("+", "-"):
            return 0.0
        return math.cos(2.0 * self.angle)

    def vector(self) -> np.ndarray:
        if self.kind == "0":
            return np.array([1.0, 0.0])
        if self.kind == "1":
            return np.array([0.0, 1.0])
        if self.kind == "+":
            return np.array([1.0, 1.0]) / math.sqrt(2.0)
        if self.kind == "-":
            return np.array([1.0, -1.0]) / math.sqrt(2.0)
        return np.array([math.cos(self.angle), math.sin(self.angle)])


PIN_ZERO = PinState("0")
PIN_ONE = PinState("1")
PIN_PLUS = PinState("+")
PIN_MINUS = PinState("-")


@dataclass(frozen=True)
class PinSpec:
    """An ordered list of (qubit index, pin state) pairs."""

    entries: tuple

    def __post_init__(self):
        qubits = [q for q, _ in self.entries]
        if len(set(qubits)) != len(qubits):
            raise ValueError("pinned qubit indices must be distinct")

    @classmethod
    def of(cls, *pairs) -> "PinSpec":
        return cls(tuple((int(q), s if isinstance(s, PinState) else PinState.parse(s)) for q, s in pairs))

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
        if len(self.entries) > n:
            raise PreconditionError("more pins than qubits")

    def state_vector(self) -> np.ndarray:
        """Product state of the pinned qubits, in entry order."""
        out = np.array([1.0])
        for _, s in self.entries:
            out = np.kron(out, s.vector())
        return out

    def labels(self) -> list:
        return [f"{q}={s.label()}" for q, s in self.entries]


# ---------------------------------------------------------------------------
# effective Hamiltonian of a pinned operator
# ---------------------------------------------------------------------------


def effective_sum(h: HamiltonianSum, pin: PinSpec, merge=True) -> HamiltonianSum:
    """Exact term-by-term contraction onto the unpinned qubits.

    Each pinned Pauli factor is replaced by its expectation in the pin state
    (<Y> = 0 for the real pin states, so Y factors kill a term).  Works at any
    qubit count; only the unpinned register survives.
    """
    pin.validate_for(h.n)
    pinned = set(pin.qubits)
    keep = [q for q in range(h.n) if q not in pinned]
    pos = {q: i for i, q in enumerate(keep)}
    out_terms = []
    for t in h.terms:
        coeff = t.coeff
        x_new = z_new = 0
        dead = False
        for q in range(h.n):
            xb = (t.string.x >> q) & 1
            zb = (t.string.z >> q) & 1
            if q in pinned:
                if xb and zb:
                    dead = True  # <Y> = 0 for real pin states
                    break
                if xb:
                    coeff *= pin.state_for(q).exp_x
                elif zb:
                    coeff *= pin.state_for(q).exp_z
            else:
                x_new |= xb << pos[q]
                z_new |= zb << pos[q]
        if dead or coeff == 0.0:
            continue
        out_terms.append(PauliTerm(coeff, PauliString(len(keep), x_new, z_new)))
    out = HamiltonianSum(len(keep), out_terms)
    return out.merged() if merge else out


def effective_hamiltonian(h: HamiltonianSum, pin: PinSpec, dense=True):
    """Matrix of the pinned operator on the unpinned qubits.

    ``to_matrix`` raises ``ResourceLimitError`` above its ceiling before
    anything is allocated.
    """
    return effective_sum(h, pin).to_matrix(dense=dense)


# ---------------------------------------------------------------------------
# local basis rotation of pins onto |0>
# ---------------------------------------------------------------------------

# conjugation tables: pin state -> {X: [(coeff, axis)], Z: [...]} with axes X/Z
_ROT_NAMED = {
    "0": {"X": [(1.0, "X")], "Z": [(1.0, "Z")], "Y": [(1.0, "Y")]},
    "1": {"X": [(1.0, "X")], "Z": [(-1.0, "Z")], "Y": [(-1.0, "Y")]},
    "+": {"X": [(1.0, "Z")], "Z": [(1.0, "X")], "Y": [(-1.0, "Y")]},
    "-": {"X": [(-1.0, "Z")], "Z": [(1.0, "X")], "Y": [(1.0, "Y")]},
}


def _factor_images(state: PinState, letter: str):
    if state.kind != "angle":
        return _ROT_NAMED[state.kind][letter]
    c2, s2 = math.cos(2 * state.angle), math.sin(2 * state.angle)
    if letter == "X":
        return [(s2, "Z"), (c2, "X")]
    if letter == "Z":
        return [(c2, "Z"), (-s2, "X")]
    return [(1.0, "Y")]


def rotate_pin_to_zero(h: HamiltonianSum, pin: PinSpec):
    """Conjugate by the single-qubit unitaries sending each pin state to |0>.

    Returns (rotated Hamiltonian, pin spec with every state |0>).  Spectra of
    pinned effective operators are unchanged.
    """
    pin.validate_for(h.n)
    states = dict(pin.entries)
    out_terms = []
    for t in h.terms:
        expansion = [(t.coeff, t.string.x, t.string.z)]
        for q, state in states.items():
            xb = (t.string.x >> q) & 1
            zb = (t.string.z >> q) & 1
            letter = _LETTER[(xb, zb)]
            if letter == "I":
                continue
            new_exp = []
            for coeff, x, z in expansion:
                for fac, axis in _factor_images(state, letter):
                    nx, nz = _LETTER_INV[axis]
                    x2 = (x & ~(1 << q)) | (nx << q)
                    z2 = (z & ~(1 << q)) | (nz << q)
                    new_exp.append((coeff * fac, x2, z2))
            expansion = new_exp
        for coeff, x, z in expansion:
            out_terms.append(PauliTerm(coeff, PauliString(h.n, x, z)))
    rotated = HamiltonianSum(h.n, out_terms).merged()
    new_pin = PinSpec(tuple((q, PIN_ZERO) for q, _ in pin.entries))
    return rotated, new_pin


# ---------------------------------------------------------------------------
# promise bookkeeping and reduction reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromiseBounds:
    """YES threshold a, NO threshold b, with b - a >= gap_floor > 0."""

    a: float
    b: float
    gap_floor: float = 0.0

    def __post_init__(self):
        if not (self.b > self.a):
            raise PreconditionError(f"bounds require b > a, got a={self.a}, b={self.b}")
        if self.gap_floor and self.b - self.a < self.gap_floor:
            raise PreconditionError("promise gap below its declared floor")

    def scaled(self, s: float) -> "PromiseBounds":
        return PromiseBounds(self.a * s, self.b * s, self.gap_floor * s)


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
        out = {
            "reduction": self.reduction,
            "input_qubits": self.input_qubits,
            "output_qubits": self.output_qubits,
            "input_locality": self.input_locality,
            "output_locality": self.output_locality,
            "term_count": self.term_count,
            "pin": self.pin,
            "dropped_terms": self.dropped_terms,
            "notes": self.notes,
        }
        out["input_bounds"] = list(self.input_bounds) if self.input_bounds else None
        out["output_bounds"] = list(self.output_bounds) if self.output_bounds else None
        if self.truncation_bound is not None:
            out["truncation_bound"] = self.truncation_bound
        if self.scale is not None:
            out["scale"] = self.scale
        return out


@dataclass
class ReductionResult:
    hamiltonian: HamiltonianSum
    pin: PinSpec
    bounds: PromiseBounds | None
    report: ReductionReport


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
    default is the sum of exact per-group norms, or the dense norm when
    ``exact_norm`` is set.  A given ``d`` that is not finite, or is below the
    2-norm of the merged coefficients (a lower bound on ||G'||), raises
    ``PreconditionError``.
    """
    if not (0 <= pin_qubit < gprime.n):
        raise PreconditionError(f"pin qubit {pin_qubit} outside register")
    if d is not None:
        # ||G'|| is at least the root mean square of its eigenvalues, the
        # 2-norm of its merged coefficients
        rms = math.hypot(*(t.coeff for t in gprime.merged().terms))
        if not (math.isfinite(d) and d >= rms * (1.0 - 1e-12)):
            raise PreconditionError(f"norm bound {d!r} is not a finite bound >= {rms!r} on ||G'||")
    elif exact_norm:
        mat = gprime.to_matrix(dense=True)
        d = float(np.max(np.abs(np.linalg.eigvalsh(mat)))) if mat.size > 1 else abs(float(mat[0, 0]))
    else:
        d = float(sum(gprime.group_norms()))
    delta = penalty_delta(bounds, d)
    # Delta * |1><1| = Delta/2 * (I - Z) on the pin qubit
    penalty = HamiltonianSum(
        gprime.n,
        [
            (delta / 2.0, PauliString(gprime.n, 0, 0)),
            (-delta / 2.0, PauliString(gprime.n, 0, 1 << pin_qubit)),
        ],
        groups=((0, 1),),
    )
    lifted = gprime + penalty
    new_bounds = PromiseBounds(bounds.a, (bounds.a + bounds.b) / 2.0)
    return PenaltyLiftResult(lifted, new_bounds, delta, d)


# ---------------------------------------------------------------------------
# commuting pin
# ---------------------------------------------------------------------------


def commuting_pin(h: HamiltonianSum, bounds: PromiseBounds | None = None) -> ReductionResult:
    """Attach |+><+| to the diagonal group and |-><-| to the X group.

    Accepts Hamiltonians splitting into a diagonal (Z-type) and a pure X-type
    group.  The output commutes term by term, is (k+1)-local, and pinning the
    new ancilla to |0> halves every energy, so the promise becomes (a/2, b/2).
    """
    for t in h.terms:
        if t.string.has_y or (t.string.x and t.string.z):
            raise UnsupportedTermError(
                f"term {t.string.label()} is neither diagonal nor pure X-type"
            )
    n_out = h.n + 1
    anc = h.n
    blocks = []
    for t in h.terms:
        x, z = t.string.x, t.string.z
        sign = 1.0 if t.string.is_diagonal else -1.0  # |+><+| = (I+X)/2, |-><-| = (I-X)/2
        blocks.append([
            PauliTerm(t.coeff / 2.0, PauliString(n_out, x, z)),
            PauliTerm(sign * t.coeff / 2.0, PauliString(n_out, x | (1 << anc), z)),
        ])
    out = HamiltonianSum.from_groups(n_out, blocks)
    pin = PinSpec(((anc, PIN_ZERO),))
    new_bounds = bounds.scaled(0.5) if bounds is not None else None
    report = ReductionReport(
        reduction="commuting_pin",
        input_qubits=h.n,
        output_qubits=n_out,
        input_locality=h.locality,
        output_locality=out.locality,
        term_count=len(blocks),
        pin=pin.labels(),
        input_bounds=(bounds.a, bounds.b) if bounds else None,
        output_bounds=(new_bounds.a, new_bounds.b) if new_bounds else None,
    )
    return ReductionResult(out, pin, new_bounds, report)


# ---------------------------------------------------------------------------
# stoquastic pin
# ---------------------------------------------------------------------------


def stoquastic_pin(h: HamiltonianSum, bounds: PromiseBounds | None = None) -> ReductionResult:
    """Rewrite positive off-diagonal terms through an ancilla pinned to |->.

    Accepted terms: diagonal strings (any sign), pure X-type strings, and
    X-type strings carrying a single Z factor.  Diagonal terms pass through;
    positive X-type terms pick up a sign flip and an X on the ancilla; the
    mixed X/Z terms split on the Z qubit's projectors.  The pinned effective
    operator equals the input exactly and the promise is unchanged.
    """
    n_out = h.n + 1
    anc_bit = 1 << h.n
    blocks = []
    for t in h.terms:
        x, z = t.string.x, t.string.z
        c = t.coeff
        if t.string.has_y:
            raise UnsupportedTermError(f"term {t.string.label()} carries a Y factor")
        if x == 0:
            # diagonal: already stoquastic, tensor with identity
            blocks.append([PauliTerm(c, PauliString(n_out, x, z))])
        elif z == 0:
            if c > 0:
                blocks.append([PauliTerm(-c, PauliString(n_out, x | anc_bit, 0))])
            else:
                blocks.append([PauliTerm(c, PauliString(n_out, x, 0))])
        elif bin(z).count("1") == 1:
            # c * X^x Z_b: split on |0><0|_b and |1><1|_b; the half with
            # positive entries gets the ancilla X, the other the identity:
            # -|c| X^x (|0><0| X_q + |1><1| I_q) for c > 0, mirrored for c < 0.
            if c == 0:
                blocks.append([PauliTerm(0.0, PauliString(n_out, x, z))])
            else:
                # X masks of the |0><0|_b and |1><1|_b halves
                flip0, flip1 = (x | anc_bit, x) if c > 0 else (x, x | anc_bit)
                a = -abs(c) / 2.0
                blocks.append(
                    [
                        PauliTerm(a, PauliString(n_out, flip0, 0)),
                        PauliTerm(a, PauliString(n_out, flip0, z)),
                        PauliTerm(a, PauliString(n_out, flip1, 0)),
                        PauliTerm(-a, PauliString(n_out, flip1, z)),
                    ]
                )
        else:
            raise UnsupportedTermError(
                f"term {t.string.label()} has more than one Z factor on an off-diagonal string"
            )
    out = HamiltonianSum.from_groups(n_out, blocks)
    pin = PinSpec(((h.n, PIN_MINUS),))
    report = ReductionReport(
        reduction="stoquastic_pin",
        input_qubits=h.n,
        output_qubits=n_out,
        input_locality=h.locality,
        output_locality=out.locality,
        term_count=len(blocks),
        pin=pin.labels(),
        input_bounds=(bounds.a, bounds.b) if bounds else None,
        output_bounds=(bounds.a, bounds.b) if bounds else None,
    )
    return ReductionResult(out, pin, bounds, report)


# ---------------------------------------------------------------------------
# permutation pin
# ---------------------------------------------------------------------------


def _binary_bits(x: float, q: int) -> list:
    """Indices j in 1..q with bit x_j set in the truncation x ~ sum x_j / 2^j.

    Truncation rounds down, so dyadic inputs with <= q bits expand exactly.
    """
    m = int(math.floor(x * (1 << q)))
    return [j for j in range(1, q + 1) if (m >> (q - j)) & 1]


def default_truncation_bits(term_count: int, bounds: PromiseBounds | None, scale: float) -> int:
    """Smallest Q with M * 2^(1-Q) <= (scaled gap)/4, else 20 without bounds."""
    if bounds is None or term_count == 0:
        return 20
    gap = (bounds.b - bounds.a) / scale
    q = 1
    while term_count * 2.0 ** (1 - q) > gap / 4.0 and q < 60:
        q += 1
    return q


def permutation_pin(
    h: HamiltonianSum,
    q_bits: int | None = None,
    bounds: PromiseBounds | None = None,
) -> ReductionResult:
    """Encode a {X, XX, Z, ZZ} Hamiltonian into 0/1 permutation blocks.

    Z-type strings become controlled-flip gadgets on a parity ancilla ``z``
    pinned to |->; coefficient magnitudes are binary-expanded to ``q_bits``
    bits, one block per set bit carrying X on ancilla ``q_j`` whose pin angle
    satisfies sin(2a_j) = 2^-j; negative coefficients also carry X on the
    sign ancilla ``q_0`` pinned to |->.  Every block is a permutation matrix
    with locality <= 5, there are at most 2M(Q+1) of them, and the pinned
    effective operator is within M * 2^-Q of the (rescaled) input.

    Ancilla order is fixed: z, q_0, q_1..q_Q after the system qubits.
    """
    for t in h.terms:
        if t.string.has_y or (t.string.x and t.string.z):
            raise UnsupportedTermError(
                f"term {t.string.label()} not in the X/XX/Z/ZZ input set"
            )
        if t.string.is_diagonal and bin(t.string.z).count("1") > 2:
            raise UnsupportedTermError("diagonal strings above weight 2 are not supported")

    nonzero = [t for t in h.terms if t.coeff != 0.0]
    dropped = len(h.terms) - len(nonzero)
    max_mag = max((abs(t.coeff) for t in nonzero), default=0.0)
    # Rescale only when needed: magnitudes already in (0, 1) expand as-is so
    # dyadic coefficients stay exact.
    scale = max_mag * (1.0 + 1e-9) if max_mag >= 1.0 else 1.0

    if q_bits is None:
        q_bits = default_truncation_bits(len(nonzero), bounds, scale)
    if q_bits < 1:
        raise PreconditionError("bit count must be at least 1")

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
            if t.string.is_diagonal and t.string.z:
                # parity gadget: (even projector) (x) I_z + (odd projector) (x) X_z,
                # expanded as (I + Z-string)/2 + (I - Z-string)/2 * X_z
                zmask = t.string.z
                xz = 1 << z_anc
                blocks.append(
                    [
                        PauliTerm(0.5, PauliString(n_out, anc_x, 0)),
                        PauliTerm(0.5, PauliString(n_out, anc_x, zmask)),
                        PauliTerm(0.5, PauliString(n_out, anc_x | xz, 0)),
                        PauliTerm(-0.5, PauliString(n_out, anc_x | xz, zmask)),
                    ]
                )
            else:
                blocks.append([PauliTerm(1.0, PauliString(n_out, t.string.x | anc_x, 0))])

    pins = [(z_anc, PIN_MINUS), (q0_anc, PIN_MINUS)]
    for j in range(1, q_bits + 1):
        pins.append((q_anc(j), PinState("angle", 0.5 * math.asin(2.0 ** (-j)))))
    pin = PinSpec(tuple(pins))

    out = HamiltonianSum.from_groups(n_out, blocks)
    new_bounds = bounds.scaled(1.0 / scale) if bounds is not None else None
    report = ReductionReport(
        reduction="permutation_pin",
        input_qubits=h.n,
        output_qubits=n_out,
        input_locality=h.locality,
        output_locality=out.locality,
        term_count=len(blocks),
        pin=pin.labels(),
        input_bounds=(bounds.a, bounds.b) if bounds else None,
        output_bounds=(new_bounds.a, new_bounds.b) if new_bounds else None,
        truncation_bound=len(nonzero) * 2.0 ** (-q_bits),
        scale=scale,
        dropped_terms=dropped,
        notes=[f"q_bits={q_bits}"],
    )
    return ReductionResult(out, pin, new_bounds, report)
