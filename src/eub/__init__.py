"""Entropic uncertainty bounds for pairs of bases related by a unitary.

The core pipeline: submatrix spectral norms of the basis-change matrix
give a chain of coefficients, the coefficients give a vector that
majorizes every product distribution p(psi) x q(psi), and Schur-concave
entropies of that vector give state-independent lower bounds on entropy
sums. Classical column-stochastic analogues and an extremal two-subspace
lemma round out the toolkit.
"""

from .bounds import (
    BoundReport,
    MajorizingVector,
    bound_deutsch,
    bound_ladder,
    bound_mu,
    check_stochastic,
    classical_bound,
    classical_mixture_entropy,
    eur_lhs,
    ladder_from_coefficients,
    majorizing_vector,
    slomczynski_check,
)
from .entropy import (
    check_probability_vector,
    majorizes,
    renyi_entropy,
    schur_concavity_witness,
    tensor_product,
)
from .equivalence import (
    EquivalenceTransform,
    apply_transform,
    canonical_rotation_angle,
    dephase,
    perm_matrix,
    random_transform,
)
from .extremal import (
    SubspacePair,
    cross_gram,
    deutsch_max_product,
    lemma_max_value,
    maximizing_state,
    pair_objective,
)
from .families import (
    BirkhoffPoint,
    ScanRecord,
    birkhoff_matrix,
    cross_section_scan,
    cyclic_shift,
    fourier_matrix,
    lift_residual,
    permutation_power,
    rotation_matrix,
    unistochastic_check_3,
    unistochastic_lift_3,
)
from .matrices import (
    RngSeed,
    is_unitary,
    largest_singular_value,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    require_unitary,
    save_matrix,
    submatrix,
    unitarity_residual,
)
from .montecarlo import (
    BeatRateResult,
    FuzzReport,
    GapStats,
    beat_rate,
    bound_gap_stats,
    haar_unitary,
    majorization_fuzz,
)
from .submatrices import (
    SubmatrixCoefficients,
    max_norm_over_shape,
    s_coefficients,
    s_coefficients_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BeatRateResult",
    "BirkhoffPoint",
    "BoundReport",
    "EquivalenceTransform",
    "FuzzReport",
    "GapStats",
    "MajorizingVector",
    "RngSeed",
    "ScanRecord",
    "SubmatrixCoefficients",
    "SubspacePair",
    "apply_transform",
    "beat_rate",
    "birkhoff_matrix",
    "bound_deutsch",
    "bound_gap_stats",
    "bound_ladder",
    "bound_mu",
    "canonical_rotation_angle",
    "check_probability_vector",
    "check_stochastic",
    "classical_bound",
    "classical_mixture_entropy",
    "cross_gram",
    "cross_section_scan",
    "cyclic_shift",
    "dephase",
    "deutsch_max_product",
    "eur_lhs",
    "fourier_matrix",
    "haar_unitary",
    "is_unitary",
    "ladder_from_coefficients",
    "largest_singular_value",
    "lemma_max_value",
    "lift_residual",
    "load_matrix",
    "majorization_fuzz",
    "majorizes",
    "majorizing_vector",
    "matrix_from_json",
    "matrix_to_json",
    "max_norm_over_shape",
    "maximizing_state",
    "pair_objective",
    "perm_matrix",
    "permutation_power",
    "random_transform",
    "renyi_entropy",
    "require_unitary",
    "rotation_matrix",
    "s_coefficients",
    "s_coefficients_batch",
    "save_matrix",
    "schur_concavity_witness",
    "slomczynski_check",
    "submatrix",
    "tensor_product",
    "unistochastic_check_3",
    "unistochastic_lift_3",
    "unitarity_residual",
]
