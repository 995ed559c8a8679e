"""Knowledge reduction for decision tables.

Enumerates all reducts and the core of a decision table, samples families of
sub-tables deterministically, computes the stable (dynamic) reduct and core
constructs in plain, precision-thresholded, and generalized variants, and
verifies the containment laws relating them.
"""

from .dynamic import (
    LAMBDA_GRID,
    FamilyAnalysis,
    MemberAnalysis,
    StabilityReport,
    TheoremCheck,
    analyze_family,
    check_lambda,
    stability_report,
    verify_theorems,
)
from .errors import (
    CapacityError,
    DomainError,
    EngineError,
    MissingValueError,
    ParameterError,
    ParseError,
    SchemaError,
    SelfCheckError,
)
from .oracle import (
    DiscernibilityMatrix,
    absorb,
    brute_force_core,
    brute_force_reducts,
    condition_classes,
    discernibility_function,
    discernibility_matrix,
    generalized_decision,
    is_antichain,
    literal_dynamic_core,
    literal_dynamic_reduct,
    literal_generalized_dynamic_core,
    literal_generalized_dynamic_reduct,
    positive_region,
)
from .reducts import (
    DEFAULT_MAX_ATTRS,
    DEFAULT_MAX_REDUCTS,
    all_reducts,
    core_of,
    intersect_all,
)
from .rough import is_reduct
from .table import (
    DecisionSystem,
    Family,
    SamplingPlan,
    SplitMix64,
    SubSystem,
    full_subsystem,
    make_subsystem,
    parse_decision_table,
    render_csv,
    sample_family,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DEFAULT_MAX_ATTRS",
    "DEFAULT_MAX_REDUCTS",
    "DecisionSystem",
    "DiscernibilityMatrix",
    "DomainError",
    "EngineError",
    "Family",
    "FamilyAnalysis",
    "LAMBDA_GRID",
    "MemberAnalysis",
    "MissingValueError",
    "ParameterError",
    "ParseError",
    "SamplingPlan",
    "SchemaError",
    "SelfCheckError",
    "SplitMix64",
    "StabilityReport",
    "SubSystem",
    "TheoremCheck",
    "absorb",
    "all_reducts",
    "analyze_family",
    "brute_force_core",
    "brute_force_reducts",
    "check_lambda",
    "condition_classes",
    "core_of",
    "discernibility_function",
    "discernibility_matrix",
    "full_subsystem",
    "generalized_decision",
    "intersect_all",
    "is_antichain",
    "is_reduct",
    "literal_dynamic_core",
    "literal_dynamic_reduct",
    "literal_generalized_dynamic_core",
    "literal_generalized_dynamic_reduct",
    "make_subsystem",
    "parse_decision_table",
    "positive_region",
    "render_csv",
    "sample_family",
    "stability_report",
    "verify_theorems",
]
