"""Pluggable query planning over sketch-backed cardinality estimates.

The paper's whole motivation — "query optimizers rely on fast,
high-quality estimates of join sizes in order to select between
various join plans" — made operational, in the architecture the
PostBOUND line of work argues for: plan enumeration decoupled from a
pluggable cardinality-estimation policy, with pessimistic (error-bound
inflated) estimation as a first-class policy.

* :class:`JoinGraph` — relations, exact cardinalities, equi-join
  edges; factory shapes :meth:`~JoinGraph.chain`,
  :meth:`~JoinGraph.star`, :meth:`~JoinGraph.clique`;
* :class:`PlanNode` / :func:`render_plan` / :func:`evaluate_plan` —
  typed join trees with per-node cardinality and cost annotations,
  one tested renderer, re-pricing under a different policy;
* :class:`CardinalityEstimator` backends — :class:`ExactCardinalities`
  (materialized relations), :class:`SketchCardinalities` (tug-of-war
  signatures), :class:`BoundAwareCardinalities` (sketch estimate plus
  the paper's Lemma 4.4 standard error);
* :func:`enumerate_greedy` / :func:`enumerate_dp` /
  :func:`plan_join` — the greedy left-deep heuristic and DPsize-style
  exact enumeration (left-deep and bushy) with deterministic
  tie-breaking and typed :class:`CrossProductError` rejection.

Choosing a join order over relations that may all join pairwise is
``enumerate_greedy(JoinGraph.clique(sizes), catalog)``; pricing that
plan under truth is ``evaluate_plan(tree, graph,
ExactCardinalities(relations))``.
"""

from .estimators import (
    BoundAwareCardinalities,
    CardinalityEstimator,
    ErrorBoundedCatalog,
    ExactCardinalities,
    SketchCardinalities,
    checked_estimate,
    pairwise_selectivity,
)
from .enumerators import (
    ENUMERATORS,
    enumerate_dp,
    enumerate_greedy,
    plan_join,
)
from .graph import CrossProductError, JoinGraph, UnknownGraphRelationError
from .plan import PlanNode, evaluate_plan, render_plan

__all__ = [
    "JoinGraph",
    "UnknownGraphRelationError",
    "CrossProductError",
    "PlanNode",
    "render_plan",
    "evaluate_plan",
    "CardinalityEstimator",
    "ErrorBoundedCatalog",
    "ExactCardinalities",
    "SketchCardinalities",
    "BoundAwareCardinalities",
    "checked_estimate",
    "pairwise_selectivity",
    "enumerate_greedy",
    "enumerate_dp",
    "plan_join",
    "ENUMERATORS",
]
