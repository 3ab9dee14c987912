"""Ground-space traversal: instances, path verification, and the stoquastic
construction with its three-phase witness path.

An instance asks whether a sequence of l-local unitaries can steer the start
state to the target state while every intermediate state stays below the
energy threshold eta1 (YES thresholds eta1/eta3; NO thresholds eta2/eta4).

``build_stoquastic_gscon`` maps a Y-free Hamiltonian H on n qubits to a
termwise-stoquastic H'' on n+6 qubits using two 3-qubit ancilla registers:

    H'' = O' (x) I  -  P' (x) Q  +  I (x) R3,
    Q  = (X1 + X2 + X3)/3            on the third register,
    R3 = 3/4 I - (X1X2 + X2X3 + X1X3)/4   (middle for H (x) R3, third for I (x) R3),

where H (x) R3 = O' + P' is split so that O' collects the diagonal and
negative off-diagonal pieces and P' the strictly positive off-diagonal ones
(the parity split of ``pauli.sign_pieces``, the one split that
``pinning.stoquastic_pin`` also uses, keeps every piece single-signed).
R3 vanishes on |---> and |+++> and is 1 on the other six X-basis strings,
so states |psi>|x>|---> with non-uniform x reproduce <psi|H|psi> exactly
while the two uniform strings have expectation zero.

An instance's locality k is its Hamiltonian's ``locality``; a file whose
``"k"`` is below it is refused on loading (a larger one is accepted).

An instance builds the compiled operator of its Hamiltonian
(``HamiltonianSum.to_matrix``) once, under the 20-qubit ceiling and the
byte ceiling, and every energy of its checks and path verifications is a
product with it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from operator import index

import numpy as np

from .errors import ParseError, PreconditionError, UnsupportedTermError
from .io import FORMAT_VERSIONS
from .pauli import (
    HamiltonianSum,
    PauliString,
    PauliTerm,
    _apply_local,
    check_qubit_ceiling,
    flip_matvec,
    sign_pieces,
)

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class UnitaryStep:
    """One l-local unitary: target qubits plus its 2^|targets| matrix."""

    targets: tuple
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "targets", tuple(index(q) for q in self.targets))
        k = len(self.targets)
        if mat.shape != (1 << k, 1 << k):
            raise PreconditionError(
                f"gate on {k} qubits needs a {1 << k}x{1 << k} matrix, got {mat.shape}"
            )
        if len(set(self.targets)) != k:
            raise PreconditionError("gate targets must be distinct")

    def is_unitary(self) -> bool:
        m = self.matrix
        # huge entries overflow the product; inf or nan then fails the test
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= UNITARITY_TOL)

    def inverse(self) -> "UnitaryStep":
        return UnitaryStep(self.targets, self.matrix.conj().T)


def apply_gate(state: np.ndarray, step: UnitaryStep, n: int) -> np.ndarray:
    """Apply a gate to an n-qubit state vector (qubit 0 = most significant)."""
    for q in step.targets:
        if not (0 <= q < n):
            raise PreconditionError(f"gate target {q} outside register")
    return _apply_local(step.matrix, step.targets, state)


def _expectation(matvec, state: np.ndarray) -> float:
    return float(np.real(np.vdot(state, matvec(state))))


def run_circuit(circuit, n: int) -> np.ndarray:
    """The circuit's steps applied in order to |0...0> on n qubits."""
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for step in circuit:
        state = apply_gate(state, step, n)
    return state


@dataclass(frozen=True)
class GsconInstance:
    """The full traversal-problem tuple, validated at construction.

    Its locality ``k`` is not a field but the Hamiltonian's ``locality``
    (a file whose ``"k"`` is below it is refused on loading); the gate
    locality ``l`` and path length bound ``m`` are non-negative.  Frozen,
    so the checks made at construction hold for its lifetime.  It holds the
    CSR operator of its Hamiltonian (``to_matrix``), built once under the
    qubit and byte ceilings (at most ``ITERATIVE_BYTE_CEILING``) for the
    endpoint checks, and ``verify_path`` reads that operator.
    ``dataclasses.replace`` makes a new instance, checked and built again.

    Each group's norm must be at most 1.  A group's weight 1-norm bounds
    its norm, so a group whose weights sum to at most 1 passes without an
    eigensolve; the rounding of that sum is far below the 1e-9 margin of
    the check.  Only the groups whose weights sum above 1 take the exact
    ``group_norms``, under its dense ceiling, and every group that the
    exact check refuses is among them, so a refusal names the same norm.
    """

    hamiltonian: HamiltonianSum
    eta1: float
    eta2: float
    eta3: float
    eta4: float
    delta: float
    l: int
    m: int
    start_circuit: tuple
    target_circuit: tuple
    metadata: dict = field(default_factory=dict)
    _matvec: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("l", "m"):
            value = index(getattr(self, name))  # TypeError unless an integer
            if value < 0:
                raise PreconditionError(f"{name}={value} must be non-negative")
            object.__setattr__(self, name, value)
        for name in ("eta1", "eta2", "eta3", "eta4", "delta"):
            # a NaN threshold would pass every comparison it meets
            if not np.isfinite(getattr(self, name)):
                raise PreconditionError(f"{name}={getattr(self, name)!r} is not finite")
        if self.eta2 - self.eta1 < self.delta - 1e-12:
            raise PreconditionError("eta2 - eta1 must be at least Delta")
        if self.eta4 - self.eta3 < self.delta - 1e-12:
            raise PreconditionError("eta4 - eta3 must be at least Delta")
        # the one build of the CSR operator, checked against the byte ceiling
        # before any 2^n vector exists, and kept for ``verify_path``
        matvec = partial(flip_matvec, self.hamiltonian.to_matrix())
        object.__setattr__(self, "_matvec", matvec)
        # a group's weight 1-norm bounds its spectral norm, so only a group
        # whose weights sum above 1 needs its exact norm
        terms = self.hamiltonian.terms
        heavy = [[terms[i] for i in g] for g in self.hamiltonian.group_indices()
                 if sum(abs(terms[i].coeff) for i in g) > 1.0]
        norms = HamiltonianSum.from_groups(self.n, heavy).group_norms() if heavy else []
        if norms and max(norms) > 1.0 + 1e-9:
            raise PreconditionError(f"term norm {max(norms):.6f} exceeds 1")
        for name, circ in (("start", self.start_circuit), ("target", self.target_circuit)):
            for i, step in enumerate(circ):
                if not step.is_unitary():
                    raise PreconditionError(f"{name} circuit gate {i} is not unitary")
        e_start = _expectation(matvec, self.start_state())
        e_target = _expectation(matvec, self.target_state())
        if e_start > self.eta1 + 1e-9 or e_target > self.eta1 + 1e-9:
            raise PreconditionError(
                f"endpoint energies ({e_start:.3e}, {e_target:.3e}) exceed eta1={self.eta1}"
            )

    @property
    def n(self) -> int:
        return self.hamiltonian.n

    @property
    def k(self) -> int:
        return self.hamiltonian.locality

    def start_state(self) -> np.ndarray:
        return run_circuit(self.start_circuit, self.n)

    def target_state(self) -> np.ndarray:
        return run_circuit(self.target_circuit, self.n)


@dataclass
class PathVerdict:
    outcome: str  # "YES-witnessed", "energy-violation", "distance-violation"
    max_intermediate_energy: float
    final_distance: float
    violation_step: int | None = None
    energies: list = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.outcome == "YES-witnessed"


def verify_path(instance: GsconInstance, steps) -> PathVerdict:
    """Walk the path, recording every intermediate energy and the final distance.

    Every energy is a product with the CSR operator that the instance built
    at construction; nothing is built here.  Malformed steps (non-unitary or
    over-local) are rejected with their index.
    """
    steps = list(steps)
    if len(steps) > instance.m:
        raise PreconditionError(f"path length {len(steps)} exceeds m={instance.m}")
    for i, step in enumerate(steps):
        if len(step.targets) > instance.l:
            raise PreconditionError(f"step {i} acts on {len(step.targets)} > l={instance.l} qubits")
        if not step.is_unitary():
            raise PreconditionError(f"step {i} is not unitary")
    state = instance.start_state()
    energies = []
    first_violation = None
    for i, step in enumerate(steps):
        state = apply_gate(state, step, instance.n)
        e = _expectation(instance._matvec, state)
        energies.append(e)
        if first_violation is None and e > instance.eta1:
            first_violation = i
    distance = float(np.linalg.norm(state - instance.target_state()))
    max_energy = max(energies) if energies else float("-inf")
    if first_violation is not None:
        return PathVerdict("energy-violation", max_energy, distance, first_violation, energies)
    if distance > instance.eta3:
        return PathVerdict("distance-violation", max_energy, distance, None, energies)
    return PathVerdict("YES-witnessed", max_energy, distance, None, energies)


# ---------------------------------------------------------------------------
# the stoquastic construction
# ---------------------------------------------------------------------------

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_H_GATE = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]])
_MINUS_PREP = np.array([[_SQRT1_2, _SQRT1_2], [-_SQRT1_2, _SQRT1_2]])  # |0> -> |->
_Z_GATE = np.array([[1.0, 0.0], [0.0, -1.0]])

@dataclass
class StoqGsconBuild:
    hamiltonian: HamiltonianSum  # H'' on n_sys + 6 qubits, grouped
    instance: GsconInstance
    n_sys: int
    middle: tuple


def build_stoquastic_gscon(
    h: HamiltonianSum,
    alpha: float,
    beta: float,
    eta2: float | None = None,
    eta3: float = 1e-6,
    eta4: float | None = None,
    delta: float | None = None,
    max_steps: int = 1024,
) -> StoqGsconBuild:
    """Build the stoquastic traversal Hamiltonian H'' and an instance skeleton.

    ``alpha``/``beta`` are the energy thresholds of the underlying problem on
    H; intermediate flip-phase states reach energy <= alpha only when the
    first register holds a witness of energy <= alpha.  The start and target
    states (|0..0>|---|--- and |0..0>|+++|---) have energy zero, so a valid
    instance needs alpha >= 0.  A ``max_steps`` below 1, or a soundness scale
    beta^2/m^6 that is not finite, raises ``PreconditionError``; an output
    register of h.n + 6 qubits above the iterative ceiling raises
    ``ResourceLimitError``.
    """
    for t in h.terms:
        if t.string.has_y:
            raise UnsupportedTermError(f"term {t.string.label()}: terms must be Y-free")
    if max_steps < 1:
        raise PreconditionError(f"path length bound {max_steps} must be at least 1")
    try:
        soundness = beta * beta / float(max_steps) ** 6
    except OverflowError:  # m^6 beyond the float range
        soundness = float("nan")
    if not np.isfinite(soundness):
        raise PreconditionError(
            f"soundness scale beta^2/m^6 is not finite for beta={beta!r}, m={max_steps}"
        )
    n_sys = h.n
    n_out = n_sys + 6
    check_qubit_ceiling(n_out)  # before any 1 << q on the output register
    middle = tuple(range(n_sys, n_sys + 3))
    third = tuple(range(n_sys + 3, n_sys + 6))
    mid_bits = [1 << q for q in middle]
    third_bits = [1 << q for q in third]
    pair_idx = [(0, 1), (1, 2), (0, 2)]

    # H (x) R3 on system+middle, expanded against R3's four pieces
    expanded = []  # (x, z, coeff) on n_out qubits
    for t in h.terms:
        expanded.append((t.string.x, t.string.z, 0.75 * t.coeff))
        for i, j in pair_idx:
            expanded.append((t.string.x | mid_bits[i] | mid_bits[j], t.string.z, -0.25 * t.coeff))

    blocks = []
    p_pieces = []
    for x, z, coeff in expanded:
        if coeff == 0.0:
            continue
        # pieces with strictly positive off-diagonal entries go to P', the
        # others (diagonal pieces included) to O'
        for sign, piece in sign_pieces(n_out, coeff, x, z):
            (p_pieces if sign > 0 else blocks).append(piece)

    # - P' (x) Q with Q = (X1 + X2 + X3)/3 on the third register
    for piece in p_pieces:
        for tb in third_bits:
            blocks.append(
                [PauliTerm(-t.coeff / 3.0, PauliString(n_out, t.string.x | tb, t.string.z)) for t in piece]
            )

    # + I (x) R3 on the third register
    blocks.append([PauliTerm(0.75, PauliString(n_out, 0, 0))])
    for i, j in pair_idx:
        blocks.append([PauliTerm(-0.25, PauliString(n_out, third_bits[i] | third_bits[j], 0))])

    hpp = HamiltonianSum.from_groups(n_out, blocks)

    start_circuit = tuple(UnitaryStep((q,), _MINUS_PREP) for q in middle + third)
    target_circuit = tuple(UnitaryStep((q,), _H_GATE) for q in middle) + tuple(
        UnitaryStep((q,), _MINUS_PREP) for q in third
    )

    if delta is None:
        delta = max(beta - alpha, 1e-6)
    if eta2 is None:
        eta2 = alpha + delta
    if eta4 is None:
        eta4 = eta3 + delta
    instance = GsconInstance(
        hamiltonian=hpp,
        eta1=alpha,
        eta2=eta2,
        eta3=eta3,
        eta4=eta4,
        delta=delta,
        l=2,
        m=max_steps,
        start_circuit=start_circuit,
        target_circuit=target_circuit,
        metadata={
            "alpha": alpha,
            "beta": beta,
            # soundness floor of the NO case, recorded but not verified here
            "eta2_soundness_scale": soundness,
        },
    )
    return StoqGsconBuild(hpp, instance, n_sys, middle)


def witness_traversal(build: StoqGsconBuild, witness_circuit):
    """The three-phase path: prepare the witness, flip the middle register
    qubit by qubit with Z gates (Z|-> = |+>), then uncompute the witness.

    The witness circuit must act on the system register with at most
    ``instance.l``-local gates.
    """
    l = build.instance.l
    witness_circuit = list(witness_circuit)
    for i, step in enumerate(witness_circuit):
        if len(step.targets) > l:
            raise PreconditionError(f"witness gate {i} exceeds locality {l}")
        if any(q >= build.n_sys for q in step.targets):
            raise PreconditionError(f"witness gate {i} leaves the system register")
    steps = list(witness_circuit)
    steps.extend(UnitaryStep((q,), _Z_GATE) for q in build.middle)
    steps.extend(step.inverse() for step in reversed(witness_circuit))
    return steps


# ---------------------------------------------------------------------------
# JSON serialization of instances and paths
# ---------------------------------------------------------------------------


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def _number(value, what: str, kind=(int, float)):
    """``value`` if JSON gave it as a number (an integer if ``kind`` is
    ``int``), else ``TypeError``: ``float``, ``complex`` and ``index`` would
    read a string or a boolean as a number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        name = "integer" if kind is int else "number"
        raise TypeError(f"{what} must be a JSON {name}, not {type(value).__name__}")
    return value


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(_number(re, "gate entry"), _number(im, "gate entry")) for re, im in row]
                     for row in rows])


def _circuit_to_json(circuit) -> list:
    return [{"targets": list(s.targets), "matrix": _matrix_to_json(s.matrix)} for s in circuit]


def _circuit_from_json(data) -> tuple:
    return tuple(UnitaryStep(tuple(_number(q, "gate target", int) for q in g["targets"]),
                             _matrix_from_json(g["matrix"])) for g in data)


def instance_to_json(inst: GsconInstance) -> dict:
    return {
        "format": FORMAT_VERSIONS["gscon_instance_json"],
        "qubits": inst.n,
        "hamiltonian": {
            "terms": [[t.coeff, t.string.label()] for t in inst.hamiltonian.terms],
            "groups": [list(g) for g in inst.hamiltonian.group_indices()],
        },
        "k": inst.k,
        "l": inst.l,
        "m": inst.m,
        "eta": [inst.eta1, inst.eta2, inst.eta3, inst.eta4],
        "delta": inst.delta,
        "start_circuit": _circuit_to_json(inst.start_circuit),
        "target_circuit": _circuit_to_json(inst.target_circuit),
        "metadata": inst.metadata,
    }


def instance_from_json(data) -> GsconInstance:
    """The instance of a JSON document; a mistyped number raises ``TypeError``,
    and a ``"k"`` below the locality ``PreconditionError``, before the build."""
    ham = HamiltonianSum(
        _number(data["qubits"], "qubits", int),
        [(_number(c, "term weight"), lbl) for c, lbl in data["hamiltonian"]["terms"]],
        groups=tuple(tuple(_number(i, "group index", int) for i in g) for g in data["hamiltonian"]["groups"]),
    )
    k, locality = _number(data["k"], "k", int), ham.locality
    if k < locality:
        raise PreconditionError(f"k={k} is below the Hamiltonian's locality {locality}")
    eta1, eta2, eta3, eta4 = (_number(e, "eta") for e in data["eta"])
    return GsconInstance(
        hamiltonian=ham,
        eta1=eta1,
        eta2=eta2,
        eta3=eta3,
        eta4=eta4,
        delta=_number(data["delta"], "delta"),
        l=_number(data["l"], "l", int),
        m=_number(data["m"], "m", int),
        start_circuit=_circuit_from_json(data["start_circuit"]),
        target_circuit=_circuit_from_json(data["target_circuit"]),
        metadata=data.get("metadata", {}),
    )


def save_instance(inst: GsconInstance, path) -> None:
    with open(path, "w") as f:
        json.dump(instance_to_json(inst), f, indent=1, sort_keys=True)


def _load_json(path, kind: str, from_json):
    """Parse a JSON file of the given format kind; schema errors raise ParseError."""
    with open(path) as f:
        data = json.load(f)
    try:
        if data["format"] != FORMAT_VERSIONS[kind]:
            raise ParseError(None, f"unsupported {kind} format {data['format']!r}")
        return from_json(data)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        # ValueError and OverflowError: a value of the right type out of range,
        # such as a negative qubit count or an integer too large for a float
        raise ParseError(None, f"malformed {kind}: {type(exc).__name__}: {exc}") from None


def load_instance(path) -> GsconInstance:
    return _load_json(path, "gscon_instance_json", instance_from_json)


def path_to_json(steps) -> dict:
    return {"format": FORMAT_VERSIONS["gscon_path_json"], "steps": _circuit_to_json(steps)}


def path_from_json(data) -> list:
    return list(_circuit_from_json(data["steps"]))


def save_path(steps, path) -> None:
    with open(path, "w") as f:
        json.dump(path_to_json(steps), f, indent=1, sort_keys=True)


def load_path(path) -> list:
    return _load_json(path, "gscon_path_json", path_from_json)
