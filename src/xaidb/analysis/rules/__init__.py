"""The built-in xailint rule pack (XDB001–XDB013, XDB016–XDB017,
XDB023–XDB027, XDB032).

Importing this package registers every rule with
:mod:`xaidb.analysis.registry`; the ids are stable and documented in
``docs/LINTING.md``, which also lists the retired ids and why they
went.  XDB010–XDB013 are the flow-sensitive tier built on
:mod:`xaidb.analysis.cfg` / :mod:`xaidb.analysis.dataflow`;
XDB016–XDB017 are the interprocedural tier built on
:mod:`xaidb.analysis.callgraph` / :mod:`xaidb.analysis.summaries`;
XDB023–XDB027 are the numeric-safety tier built on the value-range
abstract interpretation of :mod:`xaidb.analysis.intervals`; XDB032
sits next to XDB005 in :mod:`xaidb.analysis.rules.error_handling`.
"""

from xaidb.analysis.rules.api_surface import MissingAllRule
from xaidb.analysis.rules.dead_store import DeadStoreRule
from xaidb.analysis.rules.defaults import MutableDefaultRule
from xaidb.analysis.rules.error_handling import (
    BroadExceptRule,
    SwallowedExceptionRule,
)
from xaidb.analysis.rules.float_compare import FloatEqualityRule
from xaidb.analysis.rules.imports_rule import BannedImportsRule
from xaidb.analysis.rules.interproc import (
    MutationThroughCalleeRule,
    RngEscapesHelperRule,
)
from xaidb.analysis.rules.numeric import (
    DegenerateReductionRule,
    DivisionByPossibleZeroRule,
    LogSqrtDomainRule,
    ReciprocalScaleRule,
    UnnormalizedProbabilityRule,
)
from xaidb.analysis.rules.project import ExplainerInterfaceRule
from xaidb.analysis.rules.purity import ExplainerPurityRule
from xaidb.analysis.rules.randomness import UnseededRandomnessRule
from xaidb.analysis.rules.rng_origin import RngOriginRule
from xaidb.analysis.rules.runtime_rule import PredictLoopRule
from xaidb.analysis.rules.suppression_audit import SuppressionAuditRule
from xaidb.analysis.rules.view_escape import InputViewEscapeRule

__all__ = [
    "BannedImportsRule",
    "UnseededRandomnessRule",
    "ExplainerPurityRule",
    "MissingAllRule",
    "BroadExceptRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "ExplainerInterfaceRule",
    "PredictLoopRule",
    "RngOriginRule",
    "InputViewEscapeRule",
    "SuppressionAuditRule",
    "DeadStoreRule",
    "RngEscapesHelperRule",
    "MutationThroughCalleeRule",
    "DivisionByPossibleZeroRule",
    "LogSqrtDomainRule",
    "DegenerateReductionRule",
    "UnnormalizedProbabilityRule",
    "ReciprocalScaleRule",
    "SwallowedExceptionRule",
]
