"""torikit: exact invariants of toric varieties from rational fans."""

from .cone import Cone, double_description
from .errors import (
    CompletenessError,
    IncompatibleFamilyError,
    ParseError,
    PointednessError,
    ShapeError,
    SmoothnessError,
    ToricError,
)
from .fan import (
    Fan,
    OrbitEntry,
    SimplicialComplex,
    ValidationReport,
    incompleteness_reasons,
    is_complete,
    is_smooth_fan,
    orbit_table,
    parse_fan,
    simplicial_complex,
    validate_fan,
)
from .lattice import (
    QuotientLatticePresentation,
    invert_unimodular,
    kernel_basis,
    pairing,
    primitive,
    quotient_by_sublattice,
    smith_normal_form,
    solve_integer,
)
from .picard import (
    CharacterFamily,
    PicardReport,
    divisor_class,
    equivariant_picard,
    is_principal,
    picard,
)
from .rings import (
    GradedPiece,
    InjectivityEntry,
    SRElement,
    SRPresentation,
    char_to_linear_form,
    check_restriction_injectivity,
    face_monomial_count,
    face_monomials,
    ordinary_cohomology,
    restriction_map,
    sr_monomial,
    sr_one,
    sr_presentation,
    sr_variable,
    sr_zero,
)
from .stratification import (
    PoincareSeries,
    Stratification,
    certify_perfection,
    dual_basis_character,
    equivariant_poincare_series,
    ordinary_poincare_polynomial,
    stratify,
)

__version__ = "0.1.0"
