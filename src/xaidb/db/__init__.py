"""Mini relational engine with provenance, and the §3 data-management
explanation techniques built on it: Shapley values of tuples in query
answering, responsibility-based explanations of query results, and
complaint-driven debugging of training data behind query answers."""

from xaidb.db.algebra import (
    aggregate,
    difference,
    groupby,
    join,
    project,
    select,
    union,
)
from xaidb.db.complaints import Complaint, ComplaintDebugger
from xaidb.db.provenance import Provenance
from xaidb.db.query_explain import (
    aggregate_interventions,
    responsibility,
    why_not_provenance,
    why_provenance,
)
from xaidb.db.relation import Relation, Row
from xaidb.db.repairs import (
    FunctionalDependency,
    greedy_repair,
    inconsistency_count,
    repair_blame,
    violating_pairs,
)
from xaidb.db.sql_shapley import (
    BooleanQueryGame,
    banzhaf_of_tuples_boolean,
    shapley_of_tuples,
    shapley_of_tuples_boolean,
)

__all__ = [
    "Relation",
    "Row",
    "Provenance",
    "select",
    "project",
    "join",
    "union",
    "difference",
    "groupby",
    "aggregate",
    "shapley_of_tuples",
    "shapley_of_tuples_boolean",
    "banzhaf_of_tuples_boolean",
    "BooleanQueryGame",
    "responsibility",
    "why_provenance",
    "why_not_provenance",
    "aggregate_interventions",
    "Complaint",
    "ComplaintDebugger",
    "FunctionalDependency",
    "violating_pairs",
    "inconsistency_count",
    "repair_blame",
    "greedy_repair",
]
