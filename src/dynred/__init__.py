"""Knowledge reduction for decision tables.

Enumerates all reducts and the core of a decision table, samples families of
sub-tables deterministically, computes the stable (dynamic) reduct and core
constructs in plain, precision-thresholded, and generalized variants, and
verifies the containment laws relating them.

Each public name is imported from its defining submodule on first access
(PEP 562), so a process loads only the layers it uses: ``dynred reducts``
never loads the family layer (``dynamic``) or, without ``--exact``, the
oracle.
"""

import importlib

__version__ = "0.1.0"

# The public names each submodule defines; __all__ is these names, sorted.
_EXPORTS = {
    "dynamic": (
        "LAMBDA_GRID",
        "FamilyAnalysis",
        "MemberAnalysis",
        "StabilityReport",
        "TheoremCheck",
        "analyze_family",
        "check_lambda",
        "stability_report",
        "verify_theorems",
    ),
    "errors": (
        "CapacityError",
        "DomainError",
        "EngineError",
        "MissingValueError",
        "ParameterError",
        "ParseError",
        "SchemaError",
        "SelfCheckError",
    ),
    "oracle": (
        "DiscernibilityMatrix",
        "absorb",
        "brute_force_core",
        "brute_force_reducts",
        "condition_classes",
        "discernibility_function",
        "discernibility_matrix",
        "generalized_decision",
        "is_antichain",
        "literal_dynamic_core",
        "literal_dynamic_reduct",
        "literal_generalized_dynamic_core",
        "literal_generalized_dynamic_reduct",
        "positive_region",
    ),
    "reducts": (
        "DEFAULT_MAX_ATTRS",
        "DEFAULT_MAX_REDUCTS",
        "all_reducts",
        "core_of",
        "intersect_all",
    ),
    "rough": ("is_reduct",),
    "table": (
        "DecisionSystem",
        "Family",
        "SamplingPlan",
        "SplitMix64",
        "SubSystem",
        "make_subsystem",
        "parse_decision_table",
        "render_csv",
        "sample_family",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "dynamic", "errors", "oracle", "output", "reducts", "rough", "table")

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
