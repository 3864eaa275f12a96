"""dioph: exact-arithmetic machinery for Diophantine approximation.

Heights and Mahler measures, small integer solutions of underdetermined
systems, the weighted vanishing index of multivariate polynomials,
generalized Wronskians, auxiliary-polynomial construction, continued
fractions of real algebraic numbers, and successive minima of rational
convex bodies.  Everything asserted is either an exact rational
identity or a certified rational enclosure.
"""

from .enclosure import Enclosure
from .exceptions import (
    DomainError,
    InfeasibleError,
    InternalError,
    ParseError,
    PrecisionError,
    UnsupportedError,
)
from .intpoly import (
    IntPolynomial,
    content_and_primitive,
    count_real_roots,
    cyclotomic,
    is_irreducible,
    isolate_real_roots,
    squarefree_part,
)
from .roots import root_moduli, max_root_modulus
from .linalg import kernel_basis
from .numberfield import (
    AlgebraicNumber,
    NumberFieldElement,
    inverse_embedding_bound,
    power_min_poly,
)
from .heights import (
    HeightValue,
    Place,
    ProjectivePoint,
    height_affine_point,
    height_polynomial,
    height_projective,
    height_rational,
    is_root_of_unity,
    local_abs,
    local_abs_product,
    mahler_measure,
    northcott_enumerate,
    nf_element_height,
    sum_log_abs_over_S,
    support_places,
    weil_height_algebraic,
)
from .multipoly import (
    IndexValue,
    MultiPoly,
    index_at,
    kronecker_substitution,
    normalized_derivative,
)
from .wronskian import are_linearly_independent, generalized_wronskian
from .siegel import (
    IntMatrix,
    NFMatrix,
    satisfies_size_bound,
    siegel_solve_NF,
    siegel_solve_Z,
)
from .rothlab import (
    AuxPolyResult,
    IndexSetSpec,
    build_aux_poly,
    count_index_set,
    derivative_height_bound_check,
    roth_lemma_verify,
    verify_aux_poly,
)
from .approx import (
    ApproxRecord,
    ContinuedFraction,
    continued_fraction,
    convergents_up_to,
    error_enclosure,
    exponent_report,
    liouville_constant,
    liouville_scan,
)
from .lattice import (
    ConvexBody,
    MinimaResult,
    body_volume,
    minkowski_check,
    successive_minima,
)

__version__ = "0.1.0"
