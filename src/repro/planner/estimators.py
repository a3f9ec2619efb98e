"""Pluggable cardinality-estimation policies for the planner.

The planner never looks at data: every enumerator consumes a
:class:`CardinalityEstimator` — anything answering pairwise
``join_estimate(left, right)`` — and builds multi-way cardinalities
with the standard independence heuristic (product of pairwise
selectivities over the join edges crossed), exactly what real
optimizers do with pairwise statistics.  Three policies ship:

* :class:`ExactCardinalities` — true pairwise join sizes from
  materialized :class:`~repro.relational.relation.Relation` objects
  (the ground-truth oracle plans are judged against);
* :class:`SketchCardinalities` — tug-of-war estimates from a
  :class:`~repro.relational.catalog.SignatureCatalog`, a
  :meth:`~repro.service.service.SketchService.at_window` view of a
  keyed fleet, or any other ``join_estimate`` provider, clamped to
  >= 0;
* :class:`BoundAwareCardinalities` — the sketch estimate inflated by
  the paper's Lemma 4.4 standard error (``sqrt(2 SJ(F) SJ(G) / k)``),
  PostBOUND-style pessimistic planning: overestimating an intermediate
  wastes a little work, underestimating one picks catastrophic plans,
  so the planner costs each join at estimate + z * error bound.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..relational.relation import Relation
    from .graph import JoinGraph

__all__ = [
    "CardinalityEstimator",
    "ErrorBoundedCatalog",
    "ExactCardinalities",
    "SketchCardinalities",
    "BoundAwareCardinalities",
    "checked_estimate",
    "pairwise_selectivity",
]


@runtime_checkable
class CardinalityEstimator(Protocol):
    """Anything that can estimate pairwise join sizes by relation name."""

    def join_estimate(self, left: str, right: str) -> float:
        """Estimated ``|left join right|`` for two relations."""
        ...


@runtime_checkable
class ErrorBoundedCatalog(Protocol):
    """An estimating catalog that can also bound its own error."""

    def join_estimate(self, left: str, right: str) -> float:
        """Estimated ``|left join right|`` for two relations."""
        ...

    def join_error_bound(self, left: str, right: str) -> float:
        """Standard error of :meth:`join_estimate` (Lemma 4.4)."""
        ...


def checked_estimate(estimate: float, left: str, right: str) -> float:
    """A pairwise estimate clamped to >= 0, rejecting NaN/inf.

    A degenerate (non-finite) estimate would silently poison every
    comparison an enumerator makes — NaN compares false against
    everything — so it is rejected here with the offending pair named
    rather than surfacing later as a nonsensical plan.
    """
    est = float(estimate)
    if not math.isfinite(est):
        raise ValueError(
            f"catalog returned a non-finite join estimate for "
            f"({left!r}, {right!r}): {est!r}"
        )
    return max(0.0, est)


def pairwise_selectivity(
    graph: "JoinGraph",
    estimator: CardinalityEstimator,
    left: str,
    right: str,
) -> float:
    """Estimated join selectivity ``|L join R| / (|L| |R|)``, >= 0."""
    denom = graph.size(left) * graph.size(right)
    if denom == 0:
        return 0.0
    return checked_estimate(estimator.join_estimate(left, right), left, right) / denom


class ExactCardinalities:
    """True pairwise join sizes from materialized relations.

    ``join_estimate`` is bit-for-bit the exact join size — the integer
    ``Relation.join_size`` cast to float — so plans enumerated under
    this policy are the ground truth other policies' regret is measured
    against.  ``join_error_bound`` is identically zero, so the exact
    policy is also a valid (degenerate) bound-aware backend.

    Answers are memoized (a full hash join per pair is the expensive
    part of exact costing, and enumeration plus regret re-pricing asks
    for each pair several times); construct a fresh instance after
    mutating the underlying relations.
    """

    def __init__(self, relations: Mapping[str, "Relation"]):
        self._relations = dict(relations)
        self._joins: dict[tuple[str, str], float] = {}
        self._self_joins: dict[str, float] = {}

    def join_estimate(self, left: str, right: str) -> float:
        """Exact ``|left join right|`` (bit-for-bit, as a float)."""
        key = (left, right) if left <= right else (right, left)
        value = self._joins.get(key)
        if value is None:
            value = float(self._rel(left).join_size(self._rel(right)))
            self._joins[key] = value
        return value

    def self_join_estimate(self, name: str) -> float:
        """Exact SJ(name)."""
        value = self._self_joins.get(name)
        if value is None:
            value = float(self._rel(name).self_join_size())
            self._self_joins[name] = value
        return value

    def join_error_bound(self, left: str, right: str) -> float:
        """Exact statistics have no estimation error."""
        self._rel(left), self._rel(right)
        return 0.0

    def _rel(self, name: str) -> "Relation":
        rel = self._relations.get(str(name))
        if rel is None:
            from ..relational.catalog import UnknownRelationError

            raise UnknownRelationError(str(name), self._relations)
        return rel


class SketchCardinalities:
    """Sketch-backed estimates, clamped to the physical range >= 0.

    Wraps any ``join_estimate`` provider — a
    :class:`~repro.relational.catalog.SignatureCatalog`, a
    :meth:`~repro.service.service.SketchService.at_window` view, a
    :class:`~repro.relational.catalog.SampleCatalog` — and clamps the
    raw inner-product estimate (which can dip below zero on nearly
    disjoint relations) to zero, rejecting non-finite values.
    """

    def __init__(self, catalog: CardinalityEstimator):
        self._catalog = catalog

    def join_estimate(self, left: str, right: str) -> float:
        """The wrapped catalog's estimate, clamped to >= 0."""
        return checked_estimate(
            self._catalog.join_estimate(left, right), left, right
        )


class BoundAwareCardinalities:
    """Pessimistic policy: sketch estimate plus z times the error bound.

    ``join_estimate`` returns ``max(0, estimate) + confidence * bound``
    where ``bound`` is the catalog's Lemma 4.4 standard error — so the
    bound-aware figure always dominates the plain sketch figure, which
    in turn is always >= 0.  With ``confidence`` standard errors added,
    an intermediate is underestimated only in the distribution tail;
    the planner therefore avoids plans whose cheapness rests on a
    possibly-lucky estimate (the UES/PostBOUND pessimistic-planning
    argument).
    """

    def __init__(self, catalog: ErrorBoundedCatalog, confidence: float = 1.0):
        bound = getattr(catalog, "join_error_bound", None)
        if not callable(bound):
            raise TypeError(
                "bound-aware estimation needs a catalog with "
                "join_error_bound(left, right) (e.g. SignatureCatalog or a "
                f"SketchService.at_window view); {type(catalog).__name__} "
                "has none"
            )
        if not math.isfinite(float(confidence)) or float(confidence) < 0:
            raise ValueError(
                f"confidence must be a finite non-negative multiplier, "
                f"got {confidence!r}"
            )
        self._catalog = catalog
        self.confidence = float(confidence)

    def join_estimate(self, left: str, right: str) -> float:
        """Clamped estimate plus ``confidence`` standard errors."""
        base = checked_estimate(
            self._catalog.join_estimate(left, right), left, right
        )
        bound = checked_estimate(
            self._catalog.join_error_bound(left, right), left, right
        )
        return base + self.confidence * bound
