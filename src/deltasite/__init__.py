"""deltasite: finite event categories, Grothendieck site verification, and
the discrete delta-calculus with its tropical realization."""

from .categories import FiniteCategory, Morphism
from .errors import (ClosureError, DeltasiteError, ModelError,
                     PreconditionError, StructuralError)
from .events import EventMap, SimplicialEvent, fiber_product, is_monomorphism
from .filtration import (FilteredSigmaAlgebra, FramedIndex, FramedPoint,
                         MultiArrow, ProbabilityMeasure, check_operad_action,
                         check_sigma_level)
from .model_io import ModelDescription, load_model, parse_model, serialize_model
from .roofs import RoofCategory, verify_roof_category
from .sheaves import (Presheaf, check_sheaf_condition, constant_presheaf,
                      transversal_cone_check)
from .sites import (GrothendieckSite, build_tau_operadic, build_tau_P,
                    build_tau_structural, verify_filtered, verify_grothendieck)
from .tropical import (GradedExpr, GradedTensorSeries, augmentation,
                       exp_series, log_inverse_series, paper_log_series,
                       trop_max, tropicalize_log_sde)

__version__ = "0.1.0"

# The sampling names load `stochastic`, and NumPy with it, on first use
# (PEP 562), so that importing the package for the model checks does not.
_STOCHASTIC = ("DiscretePath", "GBMParams", "Partition", "check_product_rule",
               "estimate_log_drift", "ito_residual", "quadratic_variation",
               "sample_brownian")


def __getattr__(name):
    if name in _STOCHASTIC:
        from . import stochastic
        return getattr(stochastic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ClosureError", "DeltasiteError", "DiscretePath", "EventMap",
    "FilteredSigmaAlgebra", "FiniteCategory", "FramedIndex", "FramedPoint",
    "GBMParams", "GradedExpr", "GradedTensorSeries", "GrothendieckSite",
    "ModelDescription", "ModelError", "Morphism", "MultiArrow", "Partition",
    "PreconditionError", "Presheaf", "ProbabilityMeasure", "RoofCategory",
    "SimplicialEvent", "StructuralError",
    "augmentation", "build_tau_P", "build_tau_operadic",
    "build_tau_structural", "check_operad_action", "check_product_rule",
    "check_sheaf_condition", "check_sigma_level", "constant_presheaf",
    "estimate_log_drift", "exp_series", "fiber_product", "is_monomorphism",
    "ito_residual", "load_model", "log_inverse_series", "paper_log_series",
    "parse_model", "quadratic_variation", "sample_brownian", "serialize_model",
    "transversal_cone_check", "trop_max", "tropicalize_log_sde",
    "verify_filtered", "verify_grothendieck",
    "verify_roof_category", "__version__",
]
