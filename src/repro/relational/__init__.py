"""Relational substrate: relations and signature catalogs.

The paper motivates join-size tracking with query optimization: an
optimizer must choose between join plans using fast, high-quality size
estimates, without touching base data at estimation time.  This package
provides the minimal relational layer that exercises the signatures the
way a database would:

* :class:`Relation` — a named multiset of joining-attribute values with
  exact statistics (the ground truth);
* :class:`SignatureCatalog` — tracks one k-TW signature (a
  tug-of-war sketch with ``s2 = 1``) per relation, maintained
  incrementally under inserts/deletes, and answers
  pairwise join-size estimates from signatures alone, avoiding the
  quadratic blow-up of per-pair state;
* :class:`~repro.relational.windowed.WindowedSignatureCatalog` — the
  same signature scheme with a time axis: per-relation windowed sketch
  stores (see :mod:`repro.store`) answering join estimates restricted
  to any bucket-aligned time window.

Every catalog answers ``join_estimate(left, right)``, the estimator
protocol :mod:`repro.planner` enumerates join orders over.
"""

from .catalog import SampleCatalog, SignatureCatalog, UnknownRelationError
from .relation import Relation
from .windowed import WindowedSignatureCatalog

__all__ = [
    "Relation",
    "SignatureCatalog",
    "SampleCatalog",
    "WindowedSignatureCatalog",
    "UnknownRelationError",
]
