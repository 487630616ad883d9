"""Simpson conversions in 2x2x2 tables via triangulations of the cube.

A strictly positive 2x2x2 table induces a regular triangulation of the
unit cube by lifting each vertex to the logarithm of its entry and
projecting the upper convex hull.  This package enumerates the 74
induced triangulations exactly, classifies tables, quotients by the 48
cube symmetries, decides the parity obstruction for summand/sum class
patterns, searches exact rational witnesses for the feasible ones, and
estimates the associated event frequencies by Monte Carlo.

The package root exports the documented entry points; every other name is
imported from its module.
"""

from .errors import CatalogError, DegenerateTable, DomainError, Simpson3Error
from .experiments import (
    ConversionSearch,
    Exhausted,
    SamplerConfig,
    Witness,
    WitnessArchive,
    detect_conversion,
    estimate_2d_reversal,
    estimate_3d_conversion,
    load_civil_rights,
    search_witness,
)
from .feasibility import (
    lemma_conclusion_check,
    lemma_hypothesis_check,
    obstruction,
    obstruction_triple,
    write_feasibility_report,
)
from .symmetry import GROUP, apply_table, orbit_classes
from .tables import (
    NonnegTable3,
    Table2,
    Table3,
    classify_2d,
    correlation_profile,
    detect_reversal_2d,
)
from .triangulation import (
    Catalog,
    catalog_from_json_obj,
    classify_exact,
    classify_float_oracle,
    classify_heights_batch,
    get_catalog,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "CatalogError",
    "ConversionSearch",
    "DegenerateTable",
    "DomainError",
    "Exhausted",
    "GROUP",
    "NonnegTable3",
    "SamplerConfig",
    "Simpson3Error",
    "Table2",
    "Table3",
    "Witness",
    "WitnessArchive",
    "apply_table",
    "catalog_from_json_obj",
    "classify_2d",
    "classify_exact",
    "classify_float_oracle",
    "classify_heights_batch",
    "correlation_profile",
    "detect_conversion",
    "detect_reversal_2d",
    "estimate_2d_reversal",
    "estimate_3d_conversion",
    "get_catalog",
    "lemma_conclusion_check",
    "lemma_hypothesis_check",
    "load_civil_rights",
    "obstruction",
    "obstruction_triple",
    "orbit_classes",
    "search_witness",
    "write_feasibility_report",
]
