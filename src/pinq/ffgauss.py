"""Free-fermion ground-space machinery on covariance matrices.

States are 2n x 2n real antisymmetric matrices gamma with gamma^T gamma = I
for pure states; quadratic Hamiltonians are antisymmetric matrices h with
energies <psi|H|psi> = tr(gamma h).  Gaussian gates act as special orthogonal
conjugations gamma -> O gamma O^T; a plane (Givens) rotation touches two
Majorana coordinates and hence at most two modes.

One in-place primitive, ``_rotate_rows`` (mat <- G mat), applies every
rotation; a conjugation is that primitive on mat, then on mat.T.  A path is
built on a walk that turns its own copy of the state and records each
rotation with the energy after it, so each rotation is applied once; a trial
that may be dropped runs on a fork.  ``givens_decompose`` eliminates in
place; ``reconstruct`` and ``GivensRotation.matrix`` stay literal products.

``interpolation_path`` builds a discrete low-energy path between two pure
states of equal parity under a 2x2 block-diagonal h: the diagonal block
values c_j of gamma fully determine tr(gamma h), so the path walks the
straight line in c-space in N macro-steps.

Each macro-step is first solved in closed form as moves on pairs of modes.
For modes j < l, with Majorana indices (a, b, c, d) = (2j, 2j+1, 2l, 2l+1),
SO(4) splits as SO(3) x SO(3) and gamma's 4x4 block M splits into a
self-dual vector u and an anti-self-dual vector v:

    u = ((M_ab + M_cd)/2, (M_ac - M_bd)/2, (M_ad + M_bc)/2),
    v = ((M_ab - M_cd)/2, (M_ac + M_bd)/2, (M_ad - M_bc)/2),

with c_j = u_1 + v_1 and c_l = u_1 - v_1.  Rotations in the planes (a, d)
and (b, c) by angles x and y turn u by x + y and v by y - x in their (1, 2)
planes (a *tilt*); rotations in the planes (a, b) and (c, d) turn them the
same way about axis 1 (a *frame* turn), which leaves every block value, hence
the energy, unchanged.  A target (c_j', c_l') is therefore reachable with at
most four rotations exactly when |u_1'| <= |u| and |v_1'| <= |v|.  The modes
whose block values move are paired in index order.  At two modes every pure
state has one unit and one zero vector, so every step is closed form;
block-diagonal endpoints are closed form at any mode count.

A step with an odd number of moving modes, or with a pair out of reach (most
steps of generic endpoints at three or more modes), falls back to energy
moves, and so does a step whose pair moves would take a micro-state out of
the energy band between its two ramp energies.  A plane rotation G(p, q, t)
gives tr(G gamma G^T h) = tr(gamma h) + alpha (cos t - 1) + beta sin t, with
alpha and beta read from rows p and q, so the fallback turns the plane with
the smallest angle that lands on the ramp energy (or, when none reaches it,
the closest plane first); its micro-states never leave the band.

The alignment segment rotates the grid state onto the end state; no state on
it may rise above the end energy by more than a tolerance (checked, not
assumed).  It tries a frame turn at two modes, then the join: the Givens
factors of the polar part of I - end gamma, the orthogonal matrix nearest to
it (Higham, SIAM J. Sci. Stat. Comput. 7 (1986)), near I for near states.
Last it descends both states to the ground state of h by cyclic
energy-minimising plane rotations, joins the two minima and runs the end's
descent backwards; a linear function on an adjoint orbit of SO(2n) has no
local minima that are not global (Duistermaat, Kolk & Varadarajan, Compositio
Math. 49 (1983)).  A candidate's rise and endpoint error are its one guard;
when no candidate passes, the path is refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import PathConstructionError, PreconditionError, ResourceLimitError

PURITY_TOL = 1e-8
ANTISYM_TOL = 1e-10
# closed-form fallbacks of ``interpolation_path``: rounds of one energy move,
# descent sweeps, and a descent's energy floor per unit of max|h|
_MOVE_CAP = 64
_SWEEP_CAP = 200
_DESCENT_TOL = 1e-13
# macro-steps of one path at most: the step loop is sequential, and each
# step records its grid energy, its macro count and its rotations; 10^4 steps
# at two modes took about 7 s and 3.3 MB (2-vCPU x86, one BLAS thread), so
# the ceiling is about a minute
_STEP_CEILING = 10**5
# block-value slack of a closed-form macro-step, and how far above the end
# energy an alignment state may rise
_SOLVER_TOL = 1e-11
_ALIGNMENT_TOL = 1e-6


def _as_array(obj) -> np.ndarray:
    if isinstance(obj, (CovMatrix, HamMatrix)):
        return obj.mat
    return np.asarray(obj, dtype=float)


def _check_antisymmetric(mat: np.ndarray, tol=ANTISYM_TOL, what="matrix"):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise PreconditionError(f"{what} must be square with even dimension")
    if not np.isfinite(mat).all():
        raise PreconditionError(f"{what} has a non-finite entry")
    with np.errstate(over="ignore"):  # a sum too large for a float is not antisymmetric
        if np.max(np.abs(mat + mat.T)) > tol:
            raise PreconditionError(f"{what} is not antisymmetric")


class CovMatrix:
    """Fermionic covariance matrix: 2n x 2n real antisymmetric."""

    def __init__(self, mat):
        mat = np.array(mat, dtype=float)
        _check_antisymmetric(mat, what="covariance matrix")
        self.mat = mat
        self.n = mat.shape[0] // 2

    def purity_defect(self) -> float:
        g = self.mat
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, impure
            return float(np.linalg.norm(g.T @ g - np.eye(2 * self.n)))

    def is_pure(self) -> bool:
        return self.purity_defect() <= PURITY_TOL

    def block_values(self) -> np.ndarray:
        """Diagonal 2x2 block entries c_j = gamma[2j, 2j+1]."""
        return self.mat[0::2, 1::2].diagonal().copy()

    def parity(self) -> int:
        """+1 (even) or -1 (odd); the sign of the Pfaffian for pure states."""
        return pfaffian_sign(self.mat)


class HamMatrix:
    """Quadratic-Hamiltonian matrix: 2n x 2n real antisymmetric."""

    def __init__(self, mat):
        mat = np.array(mat, dtype=float)
        _check_antisymmetric(mat, what="Hamiltonian matrix")
        self.mat = mat
        self.n = mat.shape[0] // 2

    @property
    def is_block_diagonal(self) -> bool:
        off = self.mat.copy()
        for j in range(self.n):
            off[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.0
        return bool(np.max(np.abs(off)) <= 1e-12)


def canonical_gamma0(n: int, parity: str = "even") -> CovMatrix:
    """The reference pure state: a direct sum of [[0,1],[-1,0]] blocks,
    with the first block sign-flipped for odd parity."""
    if n < 1:
        raise PreconditionError("mode count must be at least 1")
    if parity not in ("even", "odd"):
        raise PreconditionError("parity must be 'even' or 'odd'")
    g = np.zeros((2 * n, 2 * n))
    for j in range(n):
        g[2 * j, 2 * j + 1] = 1.0
        g[2 * j + 1, 2 * j] = -1.0
    if parity == "odd":
        g[0, 1] = -1.0
        g[1, 0] = 1.0
    return CovMatrix(g)


def energy(gamma, h) -> float:
    """tr(gamma h) = sum_ij gamma_ij h_ji, in O(dim^2)."""
    g = _as_array(gamma)
    hm = _as_array(h)
    if g.shape != hm.shape:
        raise PreconditionError("state and Hamiltonian dimensions differ")
    return float(np.einsum("ij,ji->", g, hm))


def pfaffian_sign(mat: np.ndarray) -> int:
    """Sign of the Pfaffian, via orthogonal reduction to tridiagonal form."""
    a = np.asarray(mat, dtype=float)
    _check_antisymmetric(a, tol=1e-8, what="matrix")
    if a.shape[0] == 2:
        val = a[0, 1]
    else:
        h, q = scipy.linalg.hessenberg(a, calc_q=True)
        # antisymmetric + Hessenberg = tridiagonal; Pf = det(q) * prod of
        # superdiagonal entries at even positions
        val = float(np.linalg.det(q))
        for i in range(0, a.shape[0] - 1, 2):
            val *= h[i, i + 1]
    if val == 0.0:
        raise PreconditionError("Pfaffian sign undefined (singular matrix)")
    return 1 if val > 0 else -1


# ---------------------------------------------------------------------------
# plane rotations and the Givens decomposition of SO(2n)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GivensRotation:
    """Rotation by ``theta`` in the coordinate plane (p, q), p < q."""

    p: int
    q: int
    theta: float

    def __post_init__(self):
        if not (0 <= self.p < self.q):
            raise PreconditionError("plane indices must satisfy 0 <= p < q")

    @property
    def modes(self) -> tuple:
        return tuple(sorted({self.p // 2, self.q // 2}))

    def matrix(self, dim: int) -> np.ndarray:
        if self.q >= dim:
            raise PreconditionError("plane index outside the requested dimension")
        r = np.eye(dim)
        c, s = math.cos(self.theta), math.sin(self.theta)
        r[self.p, self.p] = c
        r[self.p, self.q] = -s
        r[self.q, self.p] = s
        r[self.q, self.q] = c
        return r


def _rotate_rows(mat: np.ndarray, p: int, q: int, theta: float) -> None:
    """mat <- G mat in place for the plane rotation G = G(p, q, theta)."""
    c, s = math.cos(theta), math.sin(theta)
    rp = c * mat[p] - s * mat[q]
    mat[q] = s * mat[p] + c * mat[q]
    mat[p] = rp


def _conjugate(mat: np.ndarray, rot: GivensRotation) -> None:
    """mat <- G mat G^T in place: rows, then columns (the rows of mat.T)."""
    _rotate_rows(mat, rot.p, rot.q, rot.theta)
    _rotate_rows(mat.T, rot.p, rot.q, rot.theta)


def reconstruct(rotations, dim: int) -> np.ndarray:
    """Product of the rotations, in application order (last factor leftmost)."""
    out = np.eye(dim)
    for r in rotations:
        out = r.matrix(dim) @ out
    return out


def givens_decompose(o: np.ndarray) -> list:
    """Factor a special orthogonal matrix into at most N(N-1)/2 plane rotations.

    Standard QR-style elimination: rotations in planes (j, i) zero the
    below-diagonal entries column by column; because the input is orthogonal
    the residue is the identity.  Inputs with ||O^T O - I||_F above
    ``PURITY_TOL`` or det = -1 are rejected.  Inputs close to the identity
    yield uniformly small angles.
    """
    o = np.asarray(o, dtype=float)
    dim = o.shape[0]
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise PreconditionError("input must be square")
    if np.linalg.norm(o.T @ o - np.eye(dim)) > PURITY_TOL:
        raise PreconditionError("input is not orthogonal")
    if np.linalg.det(o) < 0:
        raise PreconditionError("input has determinant -1 (not special orthogonal)")
    r = o.copy()
    eliminators = []  # applied left of o, in order
    for j in range(dim - 1):
        for i in range(j + 1, dim):
            b = r[i, j]
            if abs(b) <= 1e-14:
                continue
            a = r[j, j]
            hyp = math.hypot(a, b)
            eliminators.append(GivensRotation(j, i, math.atan2(-b / hyp, a / hyp)))
            _rotate_rows(r, j, i, eliminators[-1].theta)
    # fold any residual diag(-1,-1) pairs into rotations by pi
    neg = [i for i in range(dim) if r[i, i] < 0]
    for a, b in zip(neg[0::2], neg[1::2]):
        eliminators.append(GivensRotation(a, b, math.pi))
        _rotate_rows(r, a, b, math.pi)
    if np.linalg.norm(r - np.eye(dim)) > 1e-9:
        raise PreconditionError("elimination did not terminate at the identity")
    return [GivensRotation(g.p, g.q, -g.theta) for g in reversed(eliminators)]


def block_diagonal_form(h: HamMatrix):
    """(h_block, O) with h = O h_block O^T and h_block 2x2 block diagonal."""
    t, q = scipy.linalg.schur(h.mat, output="real")
    # zero the numerical residue outside the 2x2 diagonal blocks
    n = h.n
    hb = np.zeros_like(t)
    for j in range(n):
        hb[2 * j, 2 * j + 1] = t[2 * j, 2 * j + 1]
        hb[2 * j + 1, 2 * j] = -t[2 * j, 2 * j + 1]
    if np.linalg.det(q) < 0:
        # flip one block's orientation; keeps q h_b q^T invariant after sign flip
        q = q.copy()
        q[:, [0, 1]] = q[:, [1, 0]]
        hb[0, 1] *= -1.0
        hb[1, 0] *= -1.0
    return HamMatrix(hb), q


# ---------------------------------------------------------------------------
# discrete low-energy interpolation paths
# ---------------------------------------------------------------------------


@dataclass
class FermionPath:
    start: CovMatrix
    end: CovMatrix
    rotations: tuple
    macro_counts: tuple  # rotations per macro-step; last entry is the alignment segment
    grid_energies: tuple
    ramp_deviation: float
    alignment_deviation: float
    max_angle: float
    requested_steps: int

    def macro_slices(self):
        ends = itertools.accumulate(self.macro_counts)
        return [slice(end - c, end) for c, end in zip(self.macro_counts, ends)]


def _pair_vectors(m: np.ndarray, j: int, l: int):
    """(u, v): the self-dual and anti-self-dual vectors of the 4x4 block of
    the covariance matrix m on modes j < l (see the module docstring)."""
    a, b, c, d = 2 * j, 2 * j + 1, 2 * l, 2 * l + 1
    u = np.array([m[a, b] + m[c, d], m[a, c] - m[b, d], m[a, d] + m[b, c]]) / 2.0
    v = np.array([m[a, b] - m[c, d], m[a, c] + m[b, d], m[a, d] - m[b, c]]) / 2.0
    return u, v


def _pair_rotations(planes, turn_u: float, turn_v: float) -> list:
    """Rotations in two disjoint planes that turn u by ``turn_u`` and v by
    ``turn_v``: the tilt planes (a, d), (b, c) or the frame planes (a, b), (c, d)."""
    angles = ((turn_u - turn_v) / 2.0, (turn_u + turn_v) / 2.0)
    return [GivensRotation(p, q, th) for (p, q), th in zip(planes, angles) if abs(th) > 1e-14]


def _frame_turn(x: np.ndarray, target: float) -> float:
    """Turn about axis 1 that lets a tilt bring x_1 to ``target``: none when the
    (1, 2)-plane radius already suffices, else the smallest turn that moves
    x's axis-3 component onto axis 2."""
    if abs(target) <= math.hypot(x[0], x[1]) or math.hypot(x[1], x[2]) <= 1e-14:
        return 0.0
    if x[1] == 0.0:
        return -math.copysign(math.pi / 2.0, x[2])
    return -math.atan(x[2] / x[1])


def _tilt_turn(x: np.ndarray, target: float) -> float:
    """Smallest turn in the (1, 2) plane that brings x_1 to ``target``."""
    radius = math.hypot(x[0], x[1])
    if radius <= 1e-14:
        return 0.0
    now = math.atan2(x[1], x[0])
    return math.copysign(math.acos(min(1.0, max(-1.0, target / radius))), now) - now


def _plane_coefficients(gamma: np.ndarray, h: np.ndarray, p: int, q: int):
    """(alpha, beta) with tr(G gamma G^T h) = tr(gamma h) + alpha (cos t - 1)
    + beta sin t for G = G(p, q, t), from rows p and q in O(dim)."""
    alpha = 4.0 * gamma[p, q] * h[p, q] - 2.0 * (gamma[p] @ h[p] + gamma[q] @ h[q])
    beta = 2.0 * (gamma[q] @ h[p] - gamma[p] @ h[q])
    return float(alpha), float(beta)


class _Walk:
    """A state turned in place by plane rotations.

    The walk owns a copy of the covariance matrix and records each rotation
    with the energy tr(gamma h) after it; ``e`` is the current energy.  An
    untracked walk records the rotations alone and has no energy.  A trial
    that may be dropped runs on a ``fork``, which starts from the current
    state with no records.
    """

    def __init__(self, gamma: np.ndarray, h: np.ndarray, e: float | None = None, tracked=True):
        self.gamma = gamma.copy()
        self.h = h
        self.tracked = tracked
        self.e = energy(self.gamma, h) if tracked and e is None else e
        self.rotations = []
        self.energies = []

    def fork(self) -> "_Walk":
        return _Walk(self.gamma, self.h, self.e, self.tracked)

    def turn(self, rot: GivensRotation) -> None:
        _conjugate(self.gamma, rot)
        self.rotations.append(rot)
        if self.tracked:
            self.e = energy(self.gamma, self.h)
            self.energies.append(self.e)

    def pair_move(self, j: int, l: int, c_j: float, c_l: float, tol: float) -> bool:
        """At most four rotations on modes j < l taking their block values to
        (c_j, c_l): a frame turn, then a tilt.  False when out of reach."""
        a, b, c, d = 2 * j, 2 * j + 1, 2 * l, 2 * l + 1
        targets = ((c_j + c_l) / 2.0, (c_j - c_l) / 2.0)
        if any(abs(t) > np.linalg.norm(x) + tol for x, t in zip(_pair_vectors(self.gamma, j, l), targets)):
            return False
        for planes, turn in ((((a, b), (c, d)), _frame_turn), (((a, d), (b, c)), _tilt_turn)):
            for rot in _pair_rotations(planes, *map(turn, _pair_vectors(self.gamma, j, l), targets)):
                self.turn(rot)
        return True

    def pair_moves(self, c_target: np.ndarray, tol: float) -> bool:
        """Closed-form rotations for one macro-step; False when there are none.

        The modes whose block values move by more than ``tol`` are paired in
        index order.  Pairs touch disjoint coordinates, so each move is solved
        on the current state.  False when an odd number of modes move, a pair
        is out of reach, or the moved block values miss the target by more
        than ``tol``.
        """
        moving = [k for k, c in enumerate(self.gamma[0::2, 1::2].diagonal()) if abs(c_target[k] - c) > tol]
        if len(moving) % 2:
            return False
        for j, l in zip(moving[0::2], moving[1::2]):
            if not self.pair_move(j, l, c_target[j], c_target[l], tol):
                return False
        return bool(np.max(np.abs(self.gamma[0::2, 1::2].diagonal() - c_target)) <= tol)

    def energy_move(self, target: float) -> None:
        """Plane rotations taking the energy to ``target``.

        Each round turns the plane with the smallest angle that lands on the
        target and stops; when no plane reaches it, it turns the plane that
        gets closest to its extreme and tries again, for at most ``_MOVE_CAP``
        rounds.  When no plane moves the energy, a state on the target is done.
        """
        for _ in range(_MOVE_CAP):
            gap = target - self.e
            best = (math.inf,)  # (shortfall, |angle|, p, q, angle)
            for p, q in itertools.combinations(range(self.gamma.shape[0]), 2):
                alpha, beta = _plane_coefficients(self.gamma, self.h, p, q)
                radius = math.hypot(alpha, beta)
                if radius == 0.0:
                    continue
                # E(t) - E(0) = radius cos(t - phi) - alpha
                phi, x = math.atan2(beta, alpha), (gap + alpha) / radius
                turns = (math.acos(x), -math.acos(x)) if abs(x) <= 1.0 else (0.0 if x > 0 else math.pi,)
                theta = min((math.remainder(phi + t, 2 * math.pi) for t in turns), key=abs)
                best = min(best, (max(abs(gap + alpha) - radius, 0.0), abs(theta), p, q, theta))
            if best[0] == math.inf:  # no plane moves the energy
                if gap == 0.0:
                    return
                break
            shortfall, _, p, q, theta = best
            if abs(theta) > 1e-14:
                self.turn(GivensRotation(p, q, theta))
            if shortfall == 0.0:
                return
        raise PathConstructionError(f"no plane rotations reach the ramp energy {target:.6g}")

    def descend(self) -> None:
        """Cyclic sweeps that turn each plane to its energy minimum, until a
        sweep lowers no plane by more than the floor."""
        floor = _DESCENT_TOL * float(np.max(np.abs(self.h)))
        for _ in range(_SWEEP_CAP):
            before = len(self.rotations)
            for p, q in itertools.combinations(range(self.gamma.shape[0]), 2):
                alpha, beta = _plane_coefficients(self.gamma, self.h, p, q)
                # the in-plane minimum lies radius + alpha below the current energy
                if math.hypot(alpha, beta) + alpha <= floor:
                    continue
                self.turn(GivensRotation(p, q, math.atan2(-beta, -alpha)))
            if len(self.rotations) == before:
                return
        raise PathConstructionError(f"energy descent did not settle within {_SWEEP_CAP} sweeps")

    # the alignment candidates: each turns the walk towards ``end``, and the
    # caller checks that it arrived

    def frame_align(self, end: CovMatrix) -> None:
        """Frame turns of a two-mode state onto ``end`` (energy-free).

        Each turn is the change in the azimuth of u or v about axis 1; a
        vector without a component off axis 1 is not turned.
        """
        turns = []
        for x, y in zip(_pair_vectors(self.gamma, 0, 1), _pair_vectors(end.mat, 0, 1)):
            if min(math.hypot(x[1], x[2]), math.hypot(y[1], y[2])) <= 1e-14:
                turns.append(0.0)
            else:
                turns.append(math.remainder(math.atan2(y[2], y[1]) - math.atan2(x[2], x[1]), 2 * math.pi))
        for rot in _pair_rotations(((0, 1), (2, 3)), *turns):
            self.turn(rot)

    def join(self, end) -> None:
        """The Givens factors of the polar part U of M = I - end gamma.

        M gamma = end M for pure states, and M^T M commutes with gamma, so U
        carries gamma to ``end`` when M is invertible, and U is near I when
        the two are near; else the walk misses ``end`` and the caller refuses.
        """
        end = _as_array(end)
        w, _, vt = np.linalg.svd(np.eye(end.shape[0]) - end @ self.gamma)
        try:
            rotations = givens_decompose(w @ vt)
        except PreconditionError:  # a U of determinant -1: the walk stays put
            return
        for rot in rotations:
            self.turn(rot)

    def descend_and_meet(self, end: CovMatrix) -> None:
        """Through the ground state: this walk's descent, the join onto the
        minimum of ``end``'s descent, and that descent reversed.  In a
        degenerate ground space the two minima may differ; the join carries
        one onto the other, and the caller's check decides the result."""
        self.descend()
        # only the rotations of end's descent are replayed, so it is untracked
        up = _Walk(end.mat, self.h, tracked=False)
        up.descend()
        self.join(up.gamma)
        for r in reversed(up.rotations):
            self.turn(GivensRotation(r.p, r.q, -r.theta))


def interpolation_path(
    gamma_start: CovMatrix,
    gamma_end: CovMatrix,
    h: HamMatrix,
    n_steps: int,
) -> FermionPath:
    """Discrete path whose grid energies follow the straight line between
    tr(gamma_start h) and tr(gamma_end h).

    Preconditions: both states pure, equal parity, h 2x2 block diagonal (use
    ``block_diagonal_form`` first and conjugate the states accordingly).
    Raises ResourceLimitError above ``_STEP_CEILING`` macro-steps, before
    any step is taken, and PathConstructionError when a macro-step's energy
    is not reached, or when no alignment onto gamma_end both stays within
    ``_ALIGNMENT_TOL`` above the end energy and ends within 1e-8 of it.
    """
    if n_steps < 1:
        raise PreconditionError("step count must be at least 1")
    if n_steps > _STEP_CEILING:
        raise ResourceLimitError(f"{n_steps} steps exceed the step ceiling of {_STEP_CEILING}")
    if gamma_start.n != gamma_end.n or gamma_start.n != h.n:
        raise PreconditionError("mode counts differ")
    for name, g in (("start", gamma_start), ("end", gamma_end)):
        if not g.is_pure():
            raise PreconditionError(f"{name} state is not pure")
    if not h.is_block_diagonal:
        raise PreconditionError("h must be 2x2 block diagonal (pre-rotate it first)")
    # bounds every energy and plane coefficient of pure states under h
    if not math.isfinite(8.0 * h.mat.shape[0] * float(np.max(np.abs(h.mat)))):
        raise PreconditionError("h is too large: its energies would overflow")
    if gamma_start.parity() != gamma_end.parity():
        raise PreconditionError("states lie in different parity sectors")

    e_start = energy(gamma_start, h)
    e_end = energy(gamma_end, h)

    if np.linalg.norm(gamma_start.mat - gamma_end.mat) <= 1e-12:
        return FermionPath(
            start=gamma_start,
            end=gamma_end,
            rotations=(),
            macro_counts=(0,) * n_steps + (0,),
            grid_energies=tuple([e_start] * (n_steps + 1)),
            ramp_deviation=0.0,
            alignment_deviation=0.0,
            max_angle=0.0,
            requested_steps=n_steps,
        )

    c0, c1 = gamma_start.block_values(), gamma_end.block_values()

    walk = _Walk(gamma_start.mat, h.mat)
    rotations = []
    macro_counts = []
    grid_energies = [e_start]
    ramp_dev = 0.0

    def ramp(t):
        return (1.0 - t) * e_start + t * e_end

    band = _SOLVER_TOL * float(np.sum(np.abs(h.mat)))  # energy slack of _SOLVER_TOL in c
    for k in range(1, n_steps + 1):
        c_tgt = (1.0 - k / n_steps) * c0 + (k / n_steps) * c1
        t_prev, t_next = (k - 1) / n_steps, k / n_steps
        lo, hi = sorted((ramp(t_prev), ramp(t_next)))
        # pair moves that leave the step's energy band (their tilts can, once
        # an energy move has left the straight c-line) give way to an energy move
        step = walk.fork()
        if (not step.pair_moves(c_tgt, _SOLVER_TOL) or min(step.energies, default=lo) < lo - band
                or max(step.energies, default=hi) > hi + band):
            step = walk.fork()
            step.energy_move(ramp(t_next))
        for i, e in enumerate(step.energies, start=1):
            t_micro = t_prev + (t_next - t_prev) * i / len(step.energies)
            ramp_dev = max(ramp_dev, abs(e - ramp(t_micro)))
        walk = step
        rotations.extend(step.rotations)
        macro_counts.append(len(step.rotations))
        grid_energies.append(walk.e)

    # alignment onto gamma_end: the first candidate that arrives and whose
    # states rise at most _ALIGNMENT_TOL above e_end (checked, not assumed) --
    # the two-mode frame turn, the join, descend-and-meet.
    candidates = [_Walk.frame_align] * (gamma_end.n == 2) + [_Walk.join, _Walk.descend_and_meet]
    for candidate in candidates:
        align = walk.fork()
        candidate(align, gamma_end)
        diffs = [0.0] + [e - e_end for e in align.energies]
        align_rise = max(diffs)
        endpoint_error = float(np.linalg.norm(align.gamma - gamma_end.mat))
        if align_rise <= _ALIGNMENT_TOL and endpoint_error <= 1e-8:
            break
    else:
        raise PathConstructionError(
            f"alignment rises {align_rise:.3e} above the end energy (tolerance "
            f"{_ALIGNMENT_TOL:.1e}) and misses the end state by {endpoint_error:.3e}"
        )
    align_dev = max(abs(d) for d in diffs)
    rotations.extend(align.rotations)
    macro_counts.append(len(align.rotations))

    return FermionPath(
        start=gamma_start,
        end=gamma_end,
        rotations=tuple(rotations),
        macro_counts=tuple(macro_counts),
        grid_energies=tuple(grid_energies),
        ramp_deviation=max(ramp_dev, align_rise),
        alignment_deviation=align_dev,
        max_angle=max((abs(r.theta) for r in rotations), default=0.0),
        requested_steps=n_steps,
    )


@dataclass
class FfPathVerdict:
    ok: bool
    failures: list = field(default_factory=list)
    max_grid_energy: float = float("-inf")
    max_micro_energy: float = float("-inf")
    endpoint_error: float = 0.0
    max_purity_defect: float = 0.0


def verify_ff_path(path: FermionPath, h, eta1: float) -> FfPathVerdict:
    """Re-walk the path and check purity, rotation locality (two modes),
    endpoint match, and the energy bound at every macro grid point."""
    hm = _as_array(h)
    failures = []
    for i, rot in enumerate(path.rotations):
        if len(rot.modes) > 2:
            failures.append(f"rotation {i} touches {len(rot.modes)} modes (> 2)")
    gamma = path.start.mat.copy()
    eye = np.eye(gamma.shape[0])
    max_defect = float(np.linalg.norm(gamma.T @ gamma - eye))
    max_micro = float(np.trace(gamma @ hm))
    grid_energies = [float(np.trace(gamma @ hm))]
    for sl in path.macro_slices():
        for rot in path.rotations[sl]:
            _conjugate(gamma, rot)
            max_defect = max(max_defect, float(np.linalg.norm(gamma.T @ gamma - eye)))
            max_micro = max(max_micro, float(np.trace(gamma @ hm)))
        grid_energies.append(float(np.trace(gamma @ hm)))
    endpoint_error = float(np.linalg.norm(gamma - path.end.mat))
    if endpoint_error > 1e-8:
        failures.append(f"endpoint error {endpoint_error:.3e} exceeds 1e-8")
    if max_defect > PURITY_TOL:
        failures.append(f"purity defect {max_defect:.3e} exceeds {PURITY_TOL:.0e}")
    max_grid = max(grid_energies)
    if max_grid > eta1:
        failures.append(f"grid energy {max_grid:.6f} exceeds eta1={eta1}")
    return FfPathVerdict(
        ok=not failures,
        failures=failures,
        max_grid_energy=max_grid,
        max_micro_energy=max_micro,
        endpoint_error=endpoint_error,
        max_purity_defect=max_defect,
    )
