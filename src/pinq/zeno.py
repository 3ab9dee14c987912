"""Zeno-pinned time evolution with restricted Hamiltonians.

Two protocols, both alternating an exact short-time propagator with a
projective measurement of one ancilla qubit:

* ``stoquastic``: H' = A (x) I + B (x) X_q with A, B stoquastic and B strictly
  off-diagonal; ancilla starts in |->, measured in the X basis.  Because
  I (x) X_q commutes with H', the ancilla never flips: post-selection succeeds
  with probability 1 and the system follows exp(-i t (A - B)) exactly (up to
  propagator round-off), for every step count.
* ``commuting``: H' = 2A (x) |+><+| + 2B (x) |-><-| with A and B internally
  commuting; ancilla starts in |0>, measured in the computational basis.  The
  post-selected system state approaches exp(-i t (A + B)) with error O(t^2/N)
  and survival deficit O(t^2/N).

H' is block-diagonal in the ancilla X basis, so neither protocol needs the
(n+1)-qubit register.  One post-selected step of duration delta is exactly

* stoquastic: psi <- exp(-i delta (A - B)) psi, the |-> sector of H';
* commuting: psi <- (exp(-2i delta A) + exp(-2i delta B)) psi / 2, since
  |0> = (|+> + |->)/sqrt(2) and <0|+> = <0|-> = 1/sqrt(2).

Every exponential comes from one dense eigendecomposition of its Hermitian
generator G = V diag(w) V^H, done once for every step count, so that
exp(-i s G) psi = V (exp(-i s w) * (V^H psi)).  The stoquastic protocol
needs one, of A - B: its step is a phase multiply in that eigenbasis, and
its reference exp(-i t (A - B)) psi shares it.  The commuting protocol needs
three, of A, B and A + B: its step is one matvec with a 2^n x 2^n step
matrix, and its reference exp(-i t (A + B)) psi does not depend on the
step's decompositions.  No propagator is formed for the reference.  Each
route is exact up to round-off, not a product formula, so the measured
scaling isolates the projection error.  A phase s * w keeps fractional bits
only while |s w| < 2^52; a time that takes a phase of the run past that is
rejected before the phase is formed.  The literal (n+1)-qubit simulation the
identities replace, with a dense ``expm`` reference, is
``zeno_register_evolve`` in ``tests/oracles.py``.  Post-selection is
deterministic projection plus renormalization with survival bookkeeping; no
trajectory sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import PreconditionError, ResourceLimitError, SurvivalUnderflowError
from .pauli import DENSE_QUBIT_CEILING, HamiltonianSum, PauliTerm, _check_ceiling, is_commuting, is_stoquastic

# below the square of propagator round-off the kept branch is numerical noise
_SURVIVAL_FLOOR = 1e-24
# steps of one trajectory at most: the step loop is sequential, and it keeps
# one survival probability per step (80 MB at the ceiling)
_STEP_CEILING = 10**7
# a double of this magnitude or more has no fractional bits, so a phase
# s * w beyond it no longer resolves exp(-i s w)
_PHASE_CEILING = 2.0**52


@dataclass(frozen=True)
class ZenoProtocol:
    """Protocol kind, the two term groups, total time, and step count.

    Frozen, so the preconditions checked at construction hold for its lifetime.
    """

    kind: str
    a: HamiltonianSum
    b: HamiltonianSum
    t: float
    steps: int

    def __post_init__(self):
        if self.kind not in ("stoquastic", "commuting"):
            raise PreconditionError(f"unknown protocol kind {self.kind!r}")
        if self.a.n != self.b.n:
            raise PreconditionError("A and B must act on the same register")
        # every run holds dense 2^n x 2^n generators
        _check_ceiling(self.a.n, DENSE_QUBIT_CEILING, "dense")
        if not math.isfinite(self.t):
            raise PreconditionError(f"total time must be finite, got {self.t}")
        if self.steps < 1:
            raise PreconditionError("step count must be at least 1")
        _check_step_count(self.steps)
        if self.kind == "stoquastic":
            for name, ham in (("A", self.a), ("B", self.b)):
                rep = is_stoquastic(ham, termwise=True)
                if not rep.verdict:
                    raise PreconditionError(f"{name} must be termwise stoquastic")
            if any(t.string.is_diagonal for t in self.b.terms):
                raise PreconditionError("B must be strictly off-diagonal")
        else:
            for name, ham in (("A", self.a), ("B", self.b)):
                rep = is_commuting(ham)
                if not rep.verdict:
                    raise PreconditionError(f"{name} must be internally commuting")

    @property
    def n(self) -> int:
        return self.a.n

    def reference_generator(self) -> HamiltonianSum:
        """A - B (stoquastic) or A + B (commuting) on the system register."""
        sign = -1.0 if self.kind == "stoquastic" else 1.0
        terms = list(self.a.terms) + [PauliTerm(sign * t.coeff, t.string) for t in self.b.terms]
        return HamiltonianSum(self.n, terms)

    @property
    def reference_label(self) -> str:
        return "A-B" if self.kind == "stoquastic" else "A+B"


@dataclass
class TrajectoryResult:
    """Post-selected trajectory summary.

    ``final_state`` is normalized.  ``error_norm`` is the distance between the
    post-selected *branch* vector (the raw product of projections, whose norm
    squared is the survival probability) and the reference evolution; this is
    the quantity with the advertised O(t^2/N) scaling.  ``direction_error_norm``
    compares the renormalized final state instead, which can decay faster when
    the second-order step error happens to be proportional to the identity.
    """

    final_state: np.ndarray
    survival_probability: float
    error_norm: float
    direction_error_norm: float
    reference_label: str
    reference_state: np.ndarray
    step_survivals: np.ndarray = field(repr=False, default=None)


def _check_step_count(steps: int) -> None:
    if steps > _STEP_CEILING:
        raise ResourceLimitError(f"{steps} steps exceed the step ceiling of {_STEP_CEILING}")


def _phases(time: float, w: np.ndarray, what: str) -> np.ndarray:
    """exp(-i time w) for the eigenvalues ``w`` of a Hermitian generator.

    Raises ``PreconditionError`` before any phase is formed when
    |time| * max|w| >= 2^52, or when ``w`` is not finite (a NaN from
    ``eigh``).  The product is tested as a quotient by the larger factor,
    which is above 1, so the test cannot overflow.
    """
    scale = float(np.max(np.abs(w), initial=0.0))
    if not math.isfinite(scale):
        raise PreconditionError(f"{what} is not finite: its generator has a non-finite eigenvalue")
    big, small = max(abs(time), scale), min(abs(time), scale)
    if big > 1.0 and small >= _PHASE_CEILING / big:
        raise PreconditionError(
            f"{what} is not finite at time {time:g}: a phase reaches 2^52, "
            "where a double keeps no fractional bits"
        )
    return np.exp(-1j * time * w)


class _PreparedProtocol:
    """The step-count-independent part of a protocol run on one start state.

    Holds the normalized start state, the reference state and the
    eigendecompositions of the step generators: A - B for the stoquastic
    protocol, whose reference shares it, and A and B for the commuting one.
    """

    def __init__(self, protocol: ZenoProtocol, psi0: np.ndarray):
        dim = 1 << protocol.n
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (dim,):
            raise PreconditionError(f"initial state must have length {dim}")
        # a normalized state has no amplitude above 1, so one above 2 fails
        # before a norm that could overflow; a NaN fails both tests
        amp = float(np.max(np.abs(psi), initial=0.0))
        nrm = np.linalg.norm(psi) if amp <= 2.0 else math.inf
        if not abs(nrm - 1.0) <= 1e-8:
            raise PreconditionError("initial state must be normalized")
        self.protocol = protocol
        self.psi = psi / nrm
        w, v = scipy.linalg.eigh(protocol.reference_generator().to_matrix(dense=True))
        if protocol.kind == "stoquastic":
            self.eigs = [(w, v)]
        else:
            self.eigs = [scipy.linalg.eigh(h.to_matrix(dense=True)) for h in (protocol.a, protocol.b)]
        what = f"reference exp(-i t ({protocol.reference_label})) psi"
        self.ref = v @ (_phases(protocol.t, w, what) * (v.conj().T @ self.psi))
        if not np.all(np.isfinite(self.ref)):
            raise PreconditionError(f"{what} is not finite at t={protocol.t:g}")

    def run(self, steps: int) -> TrajectoryResult:
        """Post-selected trajectory with ``steps`` (>= 1) projections in total time t."""
        protocol = self.protocol
        delta = protocol.t / steps
        if protocol.kind == "stoquastic":
            # the state stays in the eigenbasis of A - B until the last step
            w, v = self.eigs[0]
            phases = _phases(delta, w, "step exp(-i delta (A-B))")
            state, step = v.conj().T @ self.psi, lambda s: phases * s
        else:
            u_step = sum(
                (v * _phases(2.0 * delta, w, f"step exp(-2i delta {name})")) @ v.conj().T
                for name, (w, v) in zip("AB", self.eigs)
            ) / 2.0
            state, step = self.psi, lambda s: u_step @ s
        survival = 1.0
        step_survivals = np.empty(steps)
        for k in range(steps):
            kept = step(state)
            p = float(np.real(np.vdot(kept, kept)))
            if p < _SURVIVAL_FLOOR:
                raise SurvivalUnderflowError(
                    f"post-selection probability underflow at step {k}: p={p:.3e}"
                )
            survival *= p
            step_survivals[k] = p
            state = kept / np.sqrt(p)
        if protocol.kind == "stoquastic":
            state = v @ state

        branch = np.sqrt(survival) * state
        return TrajectoryResult(
            final_state=state,
            survival_probability=survival,
            error_norm=float(np.linalg.norm(branch - self.ref)),
            direction_error_norm=float(np.linalg.norm(state - self.ref)),
            reference_label=protocol.reference_label,
            reference_state=self.ref,
            step_survivals=step_survivals,
        )


def zeno_evolve(protocol: ZenoProtocol, psi0: np.ndarray) -> TrajectoryResult:
    """Run the measure-while-evolving protocol, post-selected on the pinned outcome.

    ``psi0`` is the system state; the ancilla is initialized internally (|->
    for the stoquastic protocol, |0> for the commuting one).
    """
    return _PreparedProtocol(protocol, psi0).run(protocol.steps)


@dataclass
class SweepResult:
    steps: np.ndarray
    errors: np.ndarray
    survivals: np.ndarray
    error_slope: float
    survival_deficit_slope: float

    def rows(self):
        return list(zip(self.steps.tolist(), self.errors.tolist(), self.survivals.tolist()))


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope over the positive points; NaN with fewer than two."""
    mask = y > 0
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def zeno_scaling_sweep(protocol: ZenoProtocol, psi0: np.ndarray, step_counts) -> SweepResult:
    """Rerun the protocol over increasing step counts and fit log-log slopes.

    The ``steps`` field of ``protocol`` is ignored; total time is fixed.  The
    eigendecompositions and the reference state are computed once per sweep,
    after every step count is checked against the step ceiling.
    """
    counts = list(step_counts)
    if not counts or min(counts) < 1:
        raise PreconditionError("a sweep needs step counts, each at least 1")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise PreconditionError("step counts must be strictly increasing")
    _check_step_count(counts[-1])
    prepared = _PreparedProtocol(protocol, psi0)
    results = [prepared.run(n_steps) for n_steps in counts]
    steps = np.array(counts, dtype=float)
    errors = np.array([r.error_norm for r in results])
    survivals = np.array([r.survival_probability for r in results])
    return SweepResult(
        steps=steps,
        errors=errors,
        survivals=survivals,
        error_slope=_loglog_slope(steps, errors),
        survival_deficit_slope=_loglog_slope(steps, 1.0 - survivals),
    )
