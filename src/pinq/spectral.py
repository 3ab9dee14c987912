"""Ground-energy computation on full and pinned spaces.

The dense route (LAPACK ``eigh``, lowest eigenpair only) is the authoritative
oracle at small sizes.  The iterative route runs ARPACK's implicitly restarted
Lanczos (``eigsh``) on a matrix-free operator with a seeded start vector, so
results are deterministic for a fixed seed.  For a Pauli sum the operator is
the flip-ordered CSR matrix of its flip-diagonal form H = sum_f P_f diag(D_f),
built once per solve, applied by scipy's compiled product and dropped when
the solve returns.  An operator with no nonzero entry has ground energy 0
and never reaches ARPACK, which refuses its zero Krylov space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, eigsh

from .errors import ConvergenceError, PreconditionError
from .pauli import (
    DENSE_QUBIT_CEILING,
    ITERATIVE_BYTE_CEILING,  # re-exported: the ceiling of the iterative route
    HamiltonianSum,
    _check_ceiling,
    _check_operator_bytes,
    flip_matvec,
)
from .pinning import PinSpec, PromiseBounds, effective_sum

ITERATIVE_QUBIT_CEILING = 20
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


def check_qubit_ceiling(n: int) -> None:
    """``ResourceLimitError`` when an n-qubit operator is above every ceiling,
    before anything of size 2^n is formed."""
    _check_ceiling(n, ITERATIVE_QUBIT_CEILING, "iterative")


def _check_hermitian(obj) -> int:
    """Dimension of a sum or matrix input; matrices must be square and Hermitian."""
    if isinstance(obj, HamiltonianSum):
        check_qubit_ceiling(obj.n)
        return 1 << obj.n
    if sp.issparse(obj):
        if (abs(obj - obj.getH()) > 1e-10).nnz:
            raise PreconditionError("matrix input is not Hermitian")
        return obj.shape[0]
    mat = np.asarray(obj)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise PreconditionError("matrix input must be square")
    if not np.allclose(mat, mat.conj().T, atol=1e-10):
        raise PreconditionError("matrix input is not Hermitian")
    return mat.shape[0]


def operator(obj):
    """(matvec, matrix) of a Hamiltonian sum or an explicit matrix.

    A sum's CSR matrix, data plus column index, is checked against
    ``ITERATIVE_BYTE_CEILING`` before it is built, then built once and held
    by the matvec.  This is the operator of the iterative route, and of
    every caller that applies one sum many times.
    """
    if isinstance(obj, HamiltonianSum):
        check_qubit_ceiling(obj.n)
        _check_operator_bytes(obj)
        mat = obj._flip_stack()
        return (lambda v: flip_matvec(mat, v)), mat
    mat = obj if sp.issparse(obj) else np.asarray(obj)
    return (lambda v: mat @ v), mat


def _dense_matrix(obj) -> np.ndarray:
    if isinstance(obj, HamiltonianSum):
        return obj.to_matrix(dense=True)  # raises above the dense ceiling
    return obj.toarray() if sp.issparse(obj) else np.asarray(obj)


def _residual(matvec, val: float, vec: np.ndarray) -> float:
    """||H vec - val vec||; ``ConvergenceError`` unless it and ``val`` are finite.

    Entries above about 1e154 overflow the norm's sum of squares.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.linalg.norm(matvec(vec) - val * vec))
    if not (np.isfinite(val) and np.isfinite(resid)):
        raise ConvergenceError(f"eigenpair not finite: value {val!r}, residual {resid!r}")
    return resid


def _lowest_pair(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(value, vector, residual) of the lowest eigenpair of a dense matrix."""
    if mat.shape[0] == 1:
        val, vec = float(np.real(mat[0, 0])), np.ones(1)
    else:
        evals, evecs = scipy.linalg.eigh(mat, subset_by_index=[0, 0])
        val, vec = float(evals[0]), evecs[:, 0]
    return val, vec, _residual(lambda v: mat @ v, val, vec)


def _arpack_min(matvec, mat, seed) -> SpectralResult:
    """Smallest eigenpair by ARPACK, counting every operator application."""
    dim = mat.shape[0]
    dtype = np.result_type(mat.dtype, float)
    if not (mat.data if sp.issparse(mat) else mat).any():
        # every vector is a ground state of the zero operator
        vec = np.zeros(dim, dtype=dtype)
        vec[0] = 1.0
        return SpectralResult(0.0, vec, "iterative", 0.0)
    count = [0]

    def counted(v):
        count[0] += 1
        return matvec(v.reshape(-1))

    if dim <= 2:
        # ARPACK needs k < dim - 1 for complex operators: apply H to the basis
        val, vec, resid = _lowest_pair(np.column_stack([counted(e) for e in np.eye(dim)]))
        return SpectralResult(val, vec, "iterative", resid, count[0])
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


def min_eig(obj, method="auto", seed=0) -> SpectralResult:
    """Smallest eigenvalue of a Hamiltonian sum or an explicit Hermitian matrix.

    ``method`` is one of ``auto`` (dense when it fits, else iterative),
    ``dense``, or ``iterative``.
    """
    dim = _check_hermitian(obj)
    if method == "auto":
        method = "dense" if dim <= (1 << DENSE_QUBIT_CEILING) else "iterative"
    if method == "dense":
        val, vec, resid = _lowest_pair(_dense_matrix(obj))
        res = SpectralResult(val, vec, "dense", resid)
    elif method == "iterative":
        res = _arpack_min(*operator(obj), seed)
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
