"""Ground-energy computation on full and pinned spaces.

Every entry point takes a Pauli sum (``HamiltonianSum``), never a matrix.
The dense route (LAPACK ``eigh``, lowest eigenpair only) is the authoritative
oracle at small sizes.  It solves each symmetry sector on its own: with
H = sum_f diag(E_f) P_f and V the GF(2) span of the flip masks f, H[r, s]
is nonzero only when r ^ s is in V, so the cosets r ^ V (the joint
eigenspaces of the Z strings that commute with every term) are invariant.
A span of rank k gives 2^(n-k) blocks of 2^k states, one ``eigh`` each, for
2^(n-k) * 8^k work instead of 8^n; the lowest block value wins, the first
block on ties.  No 2^n x 2^n matrix is formed: each block is scattered
straight from the rows of the compiled operator, one at a time and in
Fortran order, so LAPACK solves it in place.  The residual is taken on the
winning block, built again in C order, an independent check of its pair.

The iterative route runs ARPACK's implicitly restarted Lanczos (``eigsh``)
on a matrix-free operator with a seeded start vector, so results are
deterministic for a fixed seed.  Both routes read the sum's compiled
operator (``HamiltonianSum.to_matrix``), the flip-ordered CSR matrix of its
flip-diagonal form, built once per solve under the 20-qubit ceiling and the
byte ceiling, applied by scipy's compiled product and dropped when the solve
returns.  An operator with no nonzero entry has ground energy 0 and never
reaches ARPACK, which refuses its zero Krylov space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, eigsh

from .errors import ConvergenceError
from .pauli import (
    DENSE_QUBIT_CEILING,
    HamiltonianSum,
    _check_ceiling,
    check_qubit_ceiling,
    flip_matvec,
)
from .pinning import PinSpec, PromiseBounds, effective_sum

RESIDUAL_TOL = 1e-8

YES = "YES"
NO = "NO"
GAP_VIOLATION = "GAP_VIOLATION"


@dataclass
class SpectralResult:
    value: float
    vector: np.ndarray | None
    method: str
    residual: float
    iterations: int = 0
    blocks: int = 0  # dense eigensolves: one per symmetry sector


def _residual(matvec, val: float, vec: np.ndarray) -> float:
    """||H vec - val vec||; ``ConvergenceError`` unless it and ``val`` are finite.

    Entries above about 1e154 overflow the norm's sum of squares.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(matvec(vec) - val * vec))
    if not (np.isfinite(val) and np.isfinite(resid)):
        raise ConvergenceError(f"eigenpair not finite: value {val!r}, residual {resid!r}")
    return resid


def _sectors(mat) -> np.ndarray:
    """State indices of each symmetry sector of the CSR operator ``mat``.

    The flip masks f, the columns 0 ^ f of its row 0, are reduced to an
    echelon basis of their GF(2) span V, of rank k.  Each state is labelled
    by its coset representative, the one element of r ^ V that is zero at
    every leading bit; a stable sort by label gives 2^(n-k) rows of 2^k
    increasing states, in increasing label order.
    """
    basis = []
    for f in mat.indices[:mat.indptr[1]].tolist():
        for b in basis:
            f = min(f, f ^ b)
        if f:
            # f is zero at the leading bit of every earlier basis mask
            basis.append(f)
    labels = np.arange(mat.shape[0])
    for b in basis:
        np.minimum(labels, labels ^ b, out=labels)
    return np.argsort(labels, kind="stable").reshape(-1, 1 << len(basis))


def _lowest_pair(mat, sectors: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(value, vector, residual) of the lowest eigenpair of the flip-ordered
    CSR matrix ``mat`` (``HamiltonianSum.to_matrix``), which leaves the
    span of each row of ``sectors`` invariant.

    Row r of ``mat`` holds one entry per flip mask, each inside the sector
    of r, so the block of a sector is one scatter of its rows' data at the
    positions of their columns in the sector.  Each block is built in
    Fortran order and overwritten by its ``eigh``, so one is alive at a
    time.  ``argmin`` keeps the first sector on ties and a NaN value if any
    block has one.  The residual is taken on the winning block, built again
    in C order.
    """
    dim = mat.shape[0]
    data, cols = mat.data.reshape(dim, -1), mat.indices.reshape(dim, -1)
    pos = np.empty(dim, dtype=np.intp)
    pos[sectors] = np.arange(sectors.shape[1])

    def block(idx, order):
        out = np.zeros((len(idx), len(idx)), dtype=mat.dtype, order=order)
        out[np.arange(len(idx))[:, None], pos[cols[idx]]] = data[idx]
        return out

    pairs = [_lowest(block(idx, "F")) for idx in sectors]
    best = int(np.argmin([val for val, _ in pairs]))
    val, vec = pairs[best]
    best_block = block(sectors[best], "C")
    resid = _residual(lambda v: best_block @ v, val, vec)
    full = np.zeros(dim, dtype=vec.dtype)
    full[sectors[best]] = vec
    return val, full, resid


def _lowest(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian array, which LAPACK overwrites.

    Every entry is a sum of finite weights that does not overflow (the
    builder refuses one that does), so no finiteness mask is formed.
    """
    evals, evecs = scipy.linalg.eigh(a, subset_by_index=[0, 0], overwrite_a=True, check_finite=False)
    return float(evals[0]), evecs[:, 0]


def _arpack_min(mat, seed) -> SpectralResult:
    """Smallest eigenpair by ARPACK on the compiled operator ``mat``,
    counting every operator application."""
    dim, dtype = mat.shape[0], mat.dtype
    if not mat.data.any():
        # every vector is a ground state of the zero operator
        vec = np.zeros(dim, dtype=dtype)
        vec[0] = 1.0
        return SpectralResult(0.0, vec, "iterative", 0.0)
    if dim <= 2:
        # ARPACK needs k < dim - 1 for complex operators: one dense block
        val, vec, resid = _lowest_pair(mat, np.arange(dim)[None])
        return SpectralResult(val, vec, "iterative", resid)
    count = [0]

    def counted(v):
        count[0] += 1
        return flip_matvec(mat, v.reshape(-1))

    # the generator also draws ARPACK's restart vectors, which it would
    # otherwise seed from OS entropy when a Krylov space closes early
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    op = LinearOperator((dim, dim), matvec=counted, dtype=dtype)
    try:
        if np.issubdtype(dtype, np.complexfloating):
            # eigsh hands complex operators to eigs but drops ``rng``
            evals, evecs = eigs(op, k=1, which="SR", v0=v0, rng=rng)
        else:
            evals, evecs = eigsh(op, k=1, which="SA", v0=v0, rng=rng)
    except ArpackError as exc:  # no convergence, or any other ARPACK failure
        raise ConvergenceError(f"ARPACK did not converge after {count[0]} matvecs: {exc}") from None
    val = float(np.real(evals[0]))
    vec = evecs[:, 0]
    resid = _residual(counted, val, vec)
    if resid > RESIDUAL_TOL:
        raise ConvergenceError(
            f"ARPACK residual {resid:.2e} above {RESIDUAL_TOL:.0e} after {count[0]} matvecs"
        )
    return SpectralResult(val, vec, "iterative", resid, count[0])


def min_eig(h: HamiltonianSum, method="auto", seed=0) -> SpectralResult:
    """Smallest eigenvalue of a Hamiltonian sum.

    ``method`` is one of ``auto`` (dense when it fits, else iterative),
    ``dense``, or ``iterative``.
    """
    if not isinstance(h, HamiltonianSum):
        raise TypeError(f"min_eig takes a HamiltonianSum, not {type(h).__name__}")
    check_qubit_ceiling(h.n)
    if method == "auto":
        method = "dense" if h.n <= DENSE_QUBIT_CEILING else "iterative"
    if method == "dense":
        _check_ceiling(h.n, DENSE_QUBIT_CEILING, "dense")
        mat = h.to_matrix()
        sectors = _sectors(mat)
        val, vec, resid = _lowest_pair(mat, sectors)
        res = SpectralResult(val, vec, "dense", resid, blocks=len(sectors))
    elif method == "iterative":
        res = _arpack_min(h.to_matrix(), seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    return res


def pinned_min_energy(h: HamiltonianSum, pin: PinSpec, method="auto", seed=0) -> SpectralResult:
    """min over psi of <psi,phi|H|psi,phi>, via the effective operator."""
    eff = effective_sum(h, pin)
    return min_eig(eff, method=method, seed=seed)


def decide(value: float, bounds: PromiseBounds) -> str:
    """YES if ``value`` is <= a, NO if >= b, GAP_VIOLATION between."""
    if value <= bounds.a:
        return YES
    if value >= bounds.b:
        return NO
    return GAP_VIOLATION


def promise_decide(h: HamiltonianSum, pin: PinSpec, bounds: PromiseBounds,
                   method="auto", seed=0) -> str:
    """Promise decision on the pinned minimum energy."""
    return decide(pinned_min_energy(h, pin, method=method, seed=seed).value, bounds)
