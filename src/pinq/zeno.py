"""Zeno-pinned time evolution with restricted Hamiltonians.

Two protocols, both alternating an exact short-time propagator with a
projective measurement of one ancilla qubit:

* ``stoquastic``: H' = A (x) I + B (x) X_q with A, B stoquastic and B strictly
  off-diagonal; ancilla starts in |->, measured in the X basis.  Because
  I (x) X_q commutes with H', the ancilla never flips: post-selection succeeds
  with probability 1 and the system follows exp(-i t (A - B)) exactly, for
  every step count.
* ``commuting``: H' = 2A (x) |+><+| + 2B (x) |-><-| with A and B internally
  commuting; ancilla starts in |0>, measured in the computational basis.  The
  post-selected system state approaches exp(-i t (A + B)) with error O(t^2/N)
  and survival deficit O(t^2/N).

H' is block-diagonal in the ancilla X basis, so neither protocol needs the
(n+1)-qubit register.  One post-selected step of duration delta is exactly

* stoquastic: psi <- exp(-i delta (A - B)) psi, the |-> sector of H';
* commuting: psi <- (exp(-2i delta A) + exp(-2i delta B)) psi / 2, since
  |0> = (|+> + |->)/sqrt(2) and <0|+> = <0|-> = 1/sqrt(2).

Both protocols share one reference, exp(-i t G) psi with G = A - B
(stoquastic) or A + B (commuting), from scipy's ``expm_multiply`` (Al-Mohy
and Higham, SIAM J. Sci. Comput. 33 (2011)) on the compiled CSR operator
of G (``HamiltonianSum.to_matrix``); its cost, about t * ||G||_1 Taylor
steps, is held to the step ceiling before the call.  The stoquastic steps
compose to that reference, so that protocol runs no step loop: at every
step count its final state is the normalized reference, with survival 1,
step survivals 1 and branch error 0.

The commuting protocol holds no dense matrix.  A and B are each applied from
the rows E_f[r] = G[r, r ^ f] of G = diag(E_0) + sum_{f != 0} diag(E_f) P_f:
E_0 is one phase vector, and each flip mask f is one closed-form rotation
pass over the 2^n amplitudes, exact because (diag(E_f) P_f)^2 = diag|E_f|^2;
the strings commute pairwise, so the passes multiply exactly in any order.  A
group whose strings do not commute with every string of its generator (an
explicit grouping or a string of weight 0, which commutes with every other,
makes one) is applied as its own 2^w propagator by ``pauli._apply_local``.

Either register obeys the 20-qubit ceiling of every operator, and the run's
working set the byte ceiling: the reference's CSR copies, plus the commuting
propagators' per-mask vectors, charged as one total, which covers each of
A, B and G.  Both are checked before anything is built.

Each route is exact up to round-off, not a product formula, so the measured
scaling isolates the projection error.  A phase s * w keeps fractional bits
only while |s w| < 2^52; a time that takes a phase of the run past that is
rejected before the phase is formed (for the reference, a bound t * ||G||_1
stands for the largest phase).  The literal (n+1)-qubit simulation the
identities replace, with a dense ``expm`` reference, is
``zeno_register_evolve`` in ``tests/oracles.py``.  Post-selection is
deterministic projection plus renormalization with survival bookkeeping; no
trajectory sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import PreconditionError, ResourceLimitError, SurvivalUnderflowError
from .pauli import (
    ITERATIVE_BYTE_CEILING,
    HamiltonianSum,
    PauliTerm,
    _apply_local,
    _dense_stacks,
    _local_flip_forms,
    check_qubit_ceiling,
    is_commuting,
    is_stoquastic,
)

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
        # a run holds the CSR matrix of its reference generator, and a
        # commuting one also the flip diagonals of A and B
        check_qubit_ceiling(self.a.n)
        _check_working_set(self)
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
    the quantity with the advertised O(t^2/N) scaling.
    """

    final_state: np.ndarray
    survival_probability: float
    error_norm: float
    reference_label: str
    reference_state: np.ndarray
    step_survivals: np.ndarray = field(repr=False, default=None)


def _check_step_count(steps: int) -> None:
    if steps > _STEP_CEILING:
        raise ResourceLimitError(f"{steps} steps exceed the step ceiling of {_STEP_CEILING}")


def _check_working_set(protocol: ZenoProtocol) -> None:
    """``ResourceLimitError`` when the working set of a run, charged as one
    total, is above ``ITERATIVE_BYTE_CEILING``; nothing is built.  It charges
    each of A, B and the reference generator G at least its CSR operator.

    The reference holds three complex CSR matrices of G with int32 indices,
    each with room for one more entry per row (the identity shift): the
    scaled matrix, ``expm_multiply``'s shifted copy of it, and that copy's
    scaled copy for the norm estimates.  A commuting propagator holds, per
    flip mask of its generator, the diagonal and an intp permutation, and a
    map made at one step size two complex vectors.  The total adds both
    stages, so it bounds the peak from above.
    """
    a, b, g = protocol.a, protocol.b, protocol.reference_generator()
    dim = 1 << g.n
    need = 3 * (g.flip_count() + 1) * dim * (16 + 4)
    if protocol.kind == "commuting":
        for h in (a, b):
            need += h.flip_count() * dim * (np.dtype(h.dtype).itemsize + 8 + 2 * 16)
    if need > ITERATIVE_BYTE_CEILING:
        raise ResourceLimitError(
            f"a {protocol.kind} run on {g.n} qubits with {a.flip_count()} + {b.flip_count()} flip masks "
            f"holds about {need} bytes, above the iterative ceiling of {ITERATIVE_BYTE_CEILING}"
        )


def _check_phase(time: float, scale: float, what: str) -> None:
    """``PreconditionError`` when |time| * scale >= 2^52 or ``scale`` is not
    finite, where ``scale`` bounds the magnitude of a generator's spectrum.

    The product is tested as a quotient by the larger factor, which is above
    1, so the test cannot overflow.
    """
    if not math.isfinite(scale):
        raise PreconditionError(f"{what} is not finite: its generator has a non-finite eigenvalue")
    big, small = max(abs(time), scale), min(abs(time), scale)
    if big > 1.0 and small >= _PHASE_CEILING / big:
        raise PreconditionError(
            f"{what} is not finite at time {time:g}: a phase reaches 2^52, "
            "where a double keeps no fractional bits"
        )


class _CommutingPropagator:
    """psi -> exp(-i theta G) psi for a generator G whose groups commute
    pairwise, without a 2^n x 2^n matrix.

    The strings that commute with every string of G make one whole-register
    stack diag(E_0) + sum_{f != 0} diag(E_f) P_f, which commutes with the
    rest of G.  E_0 gives one phase vector.  Each diag(E_f) P_f is Hermitian
    with square diag|E_f|^2, so its exponential is one pass
    psi[r] <- cos(theta |E_f[r]|) psi[r]
              - i sin(theta |E_f[r]|) / |E_f[r]| * E_f[r] psi[r ^ f];
    the strings commute pairwise, so the passes multiply exactly in any
    order.  A group holding a string that anticommutes with some string of
    G (an explicit grouping or a zero weight makes one) still commutes with
    every other group, so it is applied exactly as its own 2^w propagator
    on its support, from one batched ``eigh`` per stack of ``_dense_stacks``.
    """

    def __init__(self, g: HamiltonianSum):
        x = np.array([t.string.x for t in g.terms], dtype=np.int64)
        z = np.array([t.string.z for t in g.terms], dtype=np.int64)
        # clash[i]: string i anticommutes with some string of G, by the
        # symplectic test, one row at a time
        clash = [bool(((np.bitwise_count(xi & z) + np.bitwise_count(zi & x)) & 1).any()) for xi, zi in zip(x, z)]
        local = [gi for gi in g.group_indices() if any(clash[i] for i in gi)]
        in_local = {i for gi in local for i in gi}
        strings = HamiltonianSum(g.n, [t for i, t in enumerate(g.terms) if i not in in_local])
        self.diag, self.masks = None, []
        index = np.arange(1 << g.n)
        (_, _, flips, rows), = _local_flip_forms(strings, whole=True)
        for f, e in zip(flips.tolist(), rows):
            if f == 0:
                self.diag = e.real
            else:
                self.masks.append((index ^ f, e))
        sub = HamiltonianSum.from_groups(g.n, [[g.terms[i] for i in gi] for gi in local])
        self.local = []
        for members, mats in _dense_stacks(sub):
            w, v = np.linalg.eigh(mats)
            self.local += [(sub.group_support(sub.group_indices()[m]), w[p], v[p]) for p, m in enumerate(members)]
        parts = [d for _, d in self.masks] + [w for _, w, _ in self.local]
        if self.diag is not None:
            parts.append(self.diag)
        self.scale = max((float(np.max(np.abs(a), initial=0.0)) for a in parts), default=0.0)

    def at(self, theta: float, what: str):
        """The map psi -> exp(-i theta G) psi; ``PreconditionError`` (naming
        ``what``) before any phase is formed when one reaches 2^52."""
        _check_phase(theta, self.scale, what)
        phase = None if self.diag is None else np.exp(-1j * theta * self.diag)
        passes = []
        for perm, e in self.masks:
            a = np.abs(e)
            # sin(theta a) / a, with its limit theta where a = 0
            ratio = np.divide(np.sin(theta * a), a, out=np.full(a.shape, theta), where=a > 0.0)
            passes.append((perm, np.cos(theta * a).astype(complex), -1j * ratio * e))
        props = [(supp, (v * np.exp(-1j * theta * w)) @ v.conj().T) for supp, w, v in self.local]

        def apply(psi: np.ndarray) -> np.ndarray:
            # each pass updates a fresh array in place
            out = psi.copy() if phase is None else phase * psi
            for perm, c, k in passes:
                flipped = out[perm]
                flipped *= k
                out *= c
                out += flipped
            for supp, u in props:
                out = _apply_local(u, supp, out)
            return out

        return apply


def _reference(h: HamiltonianSum, t: float, psi: np.ndarray, what: str) -> np.ndarray:
    """exp(-i t h) psi by ``expm_multiply`` on the CSR operator of ``h``.

    ``expm_multiply`` sorts the columns of its shifted copy before it steps
    with it, so the order of a row's entries does not change the result.
    Its Taylor steps number about t * ||h||_1, so that product is held to
    the phase guard and then to the step ceiling before the call.
    ``onenormest`` draws from numpy's global generator once t * ||h||_1
    passes about 63, so the call runs on a fixed seed, and the caller's
    generator state is restored.
    """
    mat = h.to_matrix()
    with np.errstate(over="ignore"):
        norm = float(scipy.sparse.linalg.norm(mat, 1))
    _check_phase(t, norm, what)
    if abs(t) * norm > _STEP_CEILING:
        raise ResourceLimitError(
            f"{what} takes about {abs(t) * norm:.3g} Taylor steps, t times the 1-norm of its "
            f"generator, above the step ceiling of {_STEP_CEILING}"
        )
    # the scaled complex data replaces the real data, and the index is kept
    mat.data = mat.data * (-1j * t)
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return scipy.sparse.linalg.expm_multiply(mat, psi)
    finally:
        np.random.set_state(state)


class _PreparedProtocol:
    """The step-count-independent part of a protocol run on one start state.

    Holds the normalized start state, the reference state and, for the
    commuting protocol, the matrix-free propagators of A and B.  The
    stoquastic protocol needs no step generator: its trajectory is the
    reference at every step count.
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
        what = f"reference exp(-i t ({protocol.reference_label})) psi"
        self.ref = _reference(protocol.reference_generator(), protocol.t, self.psi, what)
        if not np.all(np.isfinite(self.ref)):
            raise PreconditionError(f"{what} is not finite at t={protocol.t:g}")
        if protocol.kind == "commuting":
            self.props = [_CommutingPropagator(h) for h in (protocol.a, protocol.b)]

    def run(self, steps: int) -> TrajectoryResult:
        """Post-selected trajectory with ``steps`` (>= 1) projections in total time t."""
        protocol = self.protocol
        if protocol.kind == "stoquastic":
            # I (x) X_q commutes with H', so the |-> ancilla never flips:
            # every post-selection keeps probability 1 and the kept state
            # is exp(-i t (A - B)) psi
            return TrajectoryResult(
                final_state=self.ref / np.linalg.norm(self.ref),
                survival_probability=1.0,
                error_norm=0.0,
                reference_label=protocol.reference_label,
                reference_state=self.ref,
                step_survivals=np.ones(steps),
            )
        delta = protocol.t / steps
        u_a, u_b = (p.at(2.0 * delta, f"step exp(-2i delta {name})") for name, p in zip("AB", self.props))
        state = self.psi
        survival = 1.0
        step_survivals = np.empty(steps)
        for k in range(steps):
            kept = (u_a(state) + u_b(state)) / 2.0
            p = float(np.real(np.vdot(kept, kept)))
            if p < _SURVIVAL_FLOOR:
                raise SurvivalUnderflowError(
                    f"post-selection probability underflow at step {k}: p={p:.3e}"
                )
            survival *= p
            step_survivals[k] = p
            state = kept / np.sqrt(p)

        branch = np.sqrt(survival) * state
        return TrajectoryResult(
            final_state=state,
            survival_probability=survival,
            error_norm=float(np.linalg.norm(branch - self.ref)),
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
    step generators and the reference state are prepared once per sweep,
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
