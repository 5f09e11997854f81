"""metrika: a workbench for continuous first-order logic over bounded
metric structures — exact formula evaluation on finite presentations,
Urysohn-style one-point extensions, existentially-closed synthesis,
random-space sampling, and approximate back-and-forth comparison."""

from .errors import (
    ArityMismatchError,
    ConstantOutOfRangeError,
    ExtensionViolatesAxiomsError,
    FormulaSyntaxError,
    FreeVariableInConditionError,
    IndexOutOfPrefixError,
    MetrikaError,
    NotPrenexUnsupportedError,
    RejectionBudgetExceededError,
    SchemaMismatchError,
    SeedViolatesTheoryError,
    SizeMismatchError,
    UnboundVariableError,
    UnknownRelationError,
)
from .logic import (
    Condition,
    Formula,
    HierarchyClass,
    Signature,
    graph_signature,
    metric_signature,
    parse_condition,
    parse_formula,
    quantifier_class,
)
from .structures import (
    MetricBuilder,
    PresentedStructure,
    ValidationReport,
    load,
    save,
    validate,
)
from .evaluation import (
    ConditionCheck,
    ValueInterval,
    check_condition,
    evaluate,
    evaluate_prefix_bounds,
)
from .polish import Code, encode, index_enumeration
from .urysohn import (
    DistanceConfiguration,
    all_configurations,
    delta_for,
    extension_property_report,
)
from .synth import (
    TheorySpec,
    ec_close,
    empty_metric_spec,
    graph_seed,
    graph_spec,
    is_prefix,
    metric_seed,
)
from .sampling import (
    MeasureSpec,
    genericity_frequency,
    invariance_audit,
    sample_space,
)
from .compare import back_and_forth, distortion

__version__ = "0.1.0"
