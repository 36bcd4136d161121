"""Five-diagonal unitary operators from Verblunsky coefficients.

The package covers finite-window operator assembly, minimal-rank lattice
splits, transfer-matrix solution families, Weyl-Titchmarsh spectral
functions, Green's kernel formulas, and supporting analytic-function
utilities, all cross-checked against dense linear-algebra oracles.
"""

__version__ = "0.1.0"

from .errors import CmvError, DimensionMismatch, NotContractive, NotUnitary
from .coefficients import (
    BoundaryUnitary,
    CoefficientKind,
    DefectPair,
    VerblunskyCoefficient,
    VerblunskySequence,
    defect_matrices,
    dump_sequence,
    factorize_svd,
    gauge_transform,
    load_sequence,
    parse_sequence,
    principal_unitary_sqrt,
    save_sequence,
    sequence_from_values,
    theta_block,
)
from .assembly import (
    CmvOperatorSet,
    SplitSpec,
    assemble,
    assemble_split,
    operator_difference_block,
)
from .decoupling import (
    DecouplingReport,
    PhaseSolution,
    decoupling_report,
    det_criterion,
    minimal_phases,
    numerical_rank,
)
from .laurent import (
    MINUS,
    PLUS,
    ConnectionCoefficients,
    SolutionFamily,
    connection,
    conjugation_symmetry,
    propagate,
    quadratic_identities,
    seed_family,
    transfer,
    transfer_inverse,
    window_family,
)
from .weyl import (
    M_function,
    M_gamma_transform,
    M_minus_at_zero,
    M_minus_from_m_minus,
    M_minus_via_connection,
    SpectralSample,
    WeylSolution,
    m_from_edge_condition,
    m_function,
    m_minus_from_M_minus,
    m_minus_from_schur_minus,
    schur_from_M,
    schur_gamma_conjugation,
    schur_parity_formula,
    spectral_sample,
    weyl_solution,
    weyl_solutions,
)
from .greens import (
    GreensEntry,
    dense_resolvent_entries,
    dense_resolvent_entry,
    full_green_entries,
    full_green_scalar_prefactor,
    half_green_entries,
    half_green_scalar_prefactor,
    half_lattice_green,
    wronskian,
    wronskian_symmetry_check,
)
from .analytic import (
    AtomicMeasure,
    ValidityReport,
    cayley,
    herglotz_eval,
    inverse_cayley,
    is_caratheodory,
    reflect,
    uniform_grid_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
