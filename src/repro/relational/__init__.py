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
  quadratic blow-up of per-pair state.

A catalog with a time axis is a :class:`~repro.store.keyed.
KeyedSketchStore` of tug-of-war sketches behind a
:class:`~repro.service.service.SketchService`: each relation is a
key, and the service answers join estimates over any bucket-aligned
window.

Every catalog answers ``join_estimate(left, right)``, the estimator
protocol :mod:`repro.planner` enumerates join orders over.
"""

from .catalog import SampleCatalog, SignatureCatalog, UnknownRelationError
from .relation import Relation

__all__ = [
    "Relation",
    "SignatureCatalog",
    "SampleCatalog",
    "UnknownRelationError",
]
