"""Update-stream substrate: operations, canonical sequences, reservoirs.

The tracking problem of the paper is defined over a sequence of
``insert(v)`` / ``delete(v)`` / ``query`` operations on a multiset R,
initially empty.  This package provides:

* :mod:`repro.streams.operations` — typed operations, operation
  sequences, generators of mixed insert/delete workloads, and a driver
  that replays a sequence against any tracker;
* :mod:`repro.streams.canonical` — the canonical-sequence reduction of
  Section 2.1 (deletion reverses the most recent undeleted insertion of
  the same value), used to validate deletion handling;
* :mod:`repro.streams.reservoir` — uniform reservoir sampling with the
  skipping technique of [Vit85], the engine behind sample-count's O(1)
  amortised position maintenance and naive-sampling's streaming sample.
"""

from .canonical import canonical_sequence, remaining_multiset
from .operations import (
    Delete,
    Insert,
    Operation,
    OperationSequence,
    Query,
    replay,
)
from .reservoir import ReservoirSample

__all__ = [
    "Insert",
    "Delete",
    "Query",
    "Operation",
    "OperationSequence",
    "replay",
    "canonical_sequence",
    "remaining_multiset",
    "ReservoirSample",
]
