"""Pinning toolkit for restricted local Hamiltonians.

Constrain chosen qubits to fixed single-qubit states ("pinning") and study
what the rest of the system can do: static reductions that make commuting,
stoquastic, and permutation Hamiltonians as expressive as unrestricted ones,
Zeno-pinned dynamics from repeated projective measurement, ground-space
traversal instances, and free-fermion interpolation paths.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    ParseError,
    PathConstructionError,
    PinqError,
    PreconditionError,
    ResourceLimitError,
    SurvivalUnderflowError,
    UnsupportedTermError,
)
from .ffgauss import (
    CovMatrix,
    FermionPath,
    GivensRotation,
    HamMatrix,
    block_diagonal_form,
    canonical_gamma0,
    energy,
    givens_decompose,
    interpolation_path,
    pfaffian_sign,
    reconstruct,
    verify_ff_path,
)
from .gscon import (
    GsconInstance,
    PathVerdict,
    UnitaryStep,
    apply_gate,
    build_stoquastic_gscon,
    run_circuit,
    verify_path,
    witness_traversal,
)
from .io import (
    format_hamiltonian,
    load_hamiltonian,
    parse_hamiltonian,
    save_hamiltonian,
)
from .pauli import (
    HamiltonianSum,
    PauliString,
    PauliTerm,
    is_commuting,
    is_permutation,
    is_stoquastic,
)
from .pinning import (
    PinSpec,
    PinState,
    PromiseBounds,
    ReductionResult,
    commuting_pin,
    effective_sum,
    penalty_delta,
    permutation_pin,
    pin_penalty_lift,
    stoquastic_pin,
)
from .spectral import (
    SpectralResult,
    decide,
    min_eig,
    pinned_min_energy,
    promise_decide,
)
from .zeno import (
    SweepResult,
    TrajectoryResult,
    ZenoProtocol,
    zeno_evolve,
    zeno_scaling_sweep,
)
