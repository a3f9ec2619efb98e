"""Exact payloads, estimates and refusals of the linear sketch kinds.

``tugofwar`` (4-wise and 2-wise signs), ``fk_moments`` (k = 2 and 3)
and ``f0`` take their updates, merge and copy from one base class,
:class:`repro.core.linear.LinearSketch`.  Every value below was computed
while each kind still kept its own copy of that code, so the shared one
must reproduce them bit for bit: each ``dump_sketch`` payload, each
estimate, and the type and message of each refusal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.registry import dump_sketch
from repro.store import SketchSpec, WindowedSketchStore
from repro.store.buckets import SparseRow

SPECS = {
    "tugofwar": SketchSpec("tugofwar", {"s1": 4, "s2": 2, "seed": 11}),
    "tugofwar-2wise": SketchSpec(
        "tugofwar", {"s1": 4, "s2": 2, "seed": 11, "independence": 2}
    ),
    "fk2": SketchSpec("fk_moments", {"k": 2, "s1": 4, "s2": 2, "seed": 11}),
    "fk3": SketchSpec("fk_moments", {"k": 3, "s1": 4, "s2": 2, "seed": 11}),
    "f0": SketchSpec("f0", {"s1": 8, "s2": 2, "seed": 11}),
}

#: A histogram wider than any kind's chunk (1,024 values; 4,096 for f0).
BULK_VALUES = np.arange(5000, dtype=np.int64) * 7 + 1
BULK_COUNTS = np.arange(5000, dtype=np.int64) % 4 + 1

#: The same histogram with its last value just outside the hash field.
OUT_OF_FIELD = np.append(BULK_VALUES[:-1], 2**31 - 1)

#: Each kind's payload without its size and counters.
HEADERS = {
    "tugofwar": {
        "kind": "tugofwar", "s1": 4, "s2": 2,
        "signs": {"kind": "sign", "family": {
            "count": 8, "independence": 4, "seed": 11,
            "digest": -2178010200679825899,
        }},
    },
    "tugofwar-2wise": {
        "kind": "tugofwar", "s1": 4, "s2": 2,
        "signs": {"kind": "sign", "family": {
            "count": 8, "independence": 2, "seed": 11,
            "digest": -4351459692684666616,
        }},
    },
    "fk2": {
        "kind": "fk_moments", "k": 2, "s1": 4, "s2": 2,
        "digits": {
            "count": 8, "independence": 4, "seed": 11,
            "digest": -2178010200679825899,
        },
    },
    "fk3": {
        "kind": "fk_moments", "k": 3, "s1": 4, "s2": 2,
        "digits": {
            "count": 8, "independence": 4, "seed": 11,
            "digest": -2178010200679825899,
        },
    },
    "f0": {
        "kind": "f0", "s1": 8, "s2": 2,
        "buckets": {
            "count": 2, "independence": 4, "seed": 11,
            "digest": 1661299004399766880,
        },
    },
}

#: (n, counters, estimate) after each step of :func:`updates`.
PINNED = {
    "tugofwar": {
        "insert": (4, [2, -2, 2, -2, -2, 2, -2, 0], 3.5),
        "delete": (3, [1, -1, 1, -1, -1, 1, -1, 1], 1.0),
        "update": (6, [-2, 2, -2, -6, -4, 6, -6, 4], 19.0),
        "stream": (5, [-3, 5, 3, 1, -3, -1, -3, 3], 9.0),
        "bulk": (12500, [-272, 64, -296, 214, -448, 238, 76, -114], 60951.5),
        "merge": (12506, [-274, 66, -298, 208, -452, 244, 70, -110], 61542.5),
    },
    "tugofwar-2wise": {
        "insert": (4, [-2, -2, 0, -2, 0, 0, 2, -2], 2.5),
        "delete": (3, [-1, -1, -1, -1, 1, 1, 1, -1], 1.0),
        "update": (6, [4, -6, 4, 2, -4, 4, 4, -4], 17.0),
        "stream": (5, [3, 3, -3, 3, 5, -5, 3, 5], 15.0),
        "bulk": (12500, [10, -6, 22, 4, -4, 22, -4, 6], 148.5),
        "merge": (12506, [14, -12, 26, 6, -8, 26, 0, 2], 224.5),
    },
    "fk2": {
        "insert": (4, [
            [1, 3], [3, 1], [1, 3], [3, 1], [3, 1], [1, 3], [3, 1], [2, 2],
        ], 3.5),
        "delete": (3, [
            [1, 2], [2, 1], [1, 2], [2, 1], [2, 1], [1, 2], [2, 1], [1, 2],
        ], 1.0),
        "update": (6, [
            [4, 2], [2, 4], [4, 2], [6, 0], [5, 1], [0, 6], [6, 0], [1, 5],
        ], 19.0),
        "stream": (5, [
            [4, 1], [0, 5], [1, 4], [2, 3], [4, 1], [3, 2], [4, 1], [1, 4],
        ], 9.0),
        "bulk": (12500, [
            [6386, 6114], [6218, 6282], [6398, 6102], [6143, 6357], [6474, 6026],
            [6131, 6369], [6212, 6288], [6307, 6193],
        ], 60951.5),
        "merge": (12506, [
            [6390, 6116], [6220, 6286], [6402, 6104], [6149, 6357], [6479, 6027],
            [6131, 6375], [6218, 6288], [6308, 6198],
        ], 61542.5),
    },
    "fk3": {
        "insert": (4, [
            [0, 1, 3], [3, 0, 1], [1, 3, 0], [3, 1, 0], [2, 0, 2], [2, 0, 2], [0, 3, 1],
            [1, 1, 2],
        ], 4.374999999999998),
        "delete": (3, [
            [0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0], [2, 0, 1], [1, 0, 2], [0, 2, 1],
            [1, 1, 1],
        ], 1.1102230246251506e-16),
        "update": (6, [
            [0, 4, 2], [5, 0, 1], [1, 5, 0], [2, 4, 0], [1, 4, 1], [5, 0, 1], [0, 6, 0],
            [1, 4, 1],
        ], 64.12499999999999),
        "stream": (5, [
            [1, 3, 1], [4, 1, 0], [2, 0, 3], [1, 3, 1], [0, 4, 1], [4, 1, 0], [0, 1, 4],
            [4, 1, 0],
        ], 22.625),
        "bulk": (12500, [
            [4026, 4296, 4178], [4236, 4129, 4135], [4246, 4068, 4186],
            [4119, 4241, 4140], [4343, 4071, 4086], [4068, 4175, 4257],
            [4260, 4160, 4080], [3984, 4174, 4342],
        ], 1561331.3749999083),
        "merge": (12506, [
            [4026, 4300, 4180], [4241, 4129, 4136], [4247, 4073, 4186],
            [4121, 4245, 4140], [4344, 4075, 4087], [4073, 4175, 4258],
            [4260, 4166, 4080], [3985, 4178, 4343],
        ], 1460722.6249999134),
    },
    "f0": {
        "insert": (4, [
            [0, 0, 0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 2, 0, 0, 1],
        ], 3.7600290339658846),
        "delete": (3, [
            [0, 0, 0, 1, 0, 1, 1, 0], [0, 0, 1, 0, 1, 0, 0, 1],
        ], 3.7600290339658846),
        "update": (6, [
            [0, 0, 4, 1, 0, 1, 0, 0], [0, 0, 1, 4, 1, 0, 0, 0],
        ], 3.7600290339658846),
        "stream": (5, [
            [0, 0, 3, 0, 1, 0, 0, 1], [0, 4, 0, 1, 0, 0, 0, 0],
        ], 3.030742806790066),
        "bulk": (12500, [
            [1512, 1510, 1608, 1490, 1602, 1530, 1664, 1584],
            [1606, 1528, 1540, 1649, 1452, 1528, 1620, 1577],
        ], 16.635532333438686),
        "merge": (12506, [
            [1512, 1510, 1612, 1491, 1602, 1531, 1664, 1584],
            [1606, 1528, 1541, 1653, 1453, 1528, 1620, 1577],
        ], 16.635532333438686),
    },
}

#: Every update refusal reads the same for every kind, and leaves the
#: sketch as it was.  Each runs on a sketch holding one insert of 5,
#: except the empty delete.
REFUSALS = {
    "empty delete": (
        lambda sk: sk.delete(1),
        "cannot delete from an empty multiset",
    ),
    "negative update": (
        lambda sk: sk.update(1, -2),
        "deleting 2 occurrences would make the multiset size negative",
    ),
    "net-negative batch": (
        lambda sk: sk.update_from_frequencies([1, 2], [1, -3]),
        "batch would make the multiset size negative",
    ),
    "out-of-field value in a multi-chunk batch": (
        lambda sk: sk.update_from_frequencies(OUT_OF_FIELD, BULK_COUNTS),
        "values contain 2147483647, outside the field [0, 2147483647)",
    ),
    # The size is checked before the values.
    "net-negative batch with an out-of-field value": (
        lambda sk: sk.update_from_frequencies(OUT_OF_FIELD, -BULK_COUNTS),
        "batch would make the multiset size negative",
    ),
    "out-of-field insert": (
        lambda sk: sk.insert(-1),
        "value -1 outside hashable domain [0, 2147483647)",
    ),
    "2-D batch": (
        lambda sk: sk.update_from_frequencies([[1, 2]], [[1, 1]]),
        "values (1, 2) and counts (1, 2) must be equal-length 1-D",
    ),
}

#: (the other spec, exception type, message) of each refused merge.
MERGE_REFUSALS = {
    "tugofwar": {
        "kind": (SPECS["f0"], TypeError,
                 "expected TugOfWarSketch, got DistinctCountSketch"),
        "shape": (SketchSpec("tugofwar", {"s1": 8, "s2": 2, "seed": 11}),
                  ValueError, "shape mismatch: (4,2) vs (8,2)"),
        "independence": (SPECS["tugofwar-2wise"], ValueError,
                         "sketches use different hash families; build both "
                         "with the same seed"),
    },
    "tugofwar-2wise": {
        "kind": (SPECS["fk2"], TypeError,
                 "expected TugOfWarSketch, got FkMomentSketch"),
        "shape": (SketchSpec("tugofwar",
                             {"s1": 4, "s2": 3, "seed": 11, "independence": 2}),
                  ValueError, "shape mismatch: (4,2) vs (4,3)"),
    },
    "fk2": {
        "kind": (SPECS["tugofwar"], TypeError,
                 "expected FkMomentSketch, got TugOfWarSketch"),
        "shape": (SPECS["fk3"], ValueError,
                  "shape mismatch: k=2,(4,2) vs k=3,(4,2)"),
    },
    "fk3": {
        "kind": (SPECS["f0"], TypeError,
                 "expected FkMomentSketch, got DistinctCountSketch"),
        "shape": (SketchSpec("fk_moments", {"k": 3, "s1": 4, "s2": 1, "seed": 11}),
                  ValueError, "shape mismatch: k=3,(4,2) vs k=3,(4,1)"),
    },
    "f0": {
        "kind": (SPECS["tugofwar"], TypeError,
                 "expected DistinctCountSketch, got TugOfWarSketch"),
        "shape": (SketchSpec("f0", {"s1": 4, "s2": 2, "seed": 11}),
                  ValueError, "shape mismatch: (8,2) vs (4,2)"),
    },
}


def updates(spec: SketchSpec) -> dict:
    """``(payload, estimate)`` after each update path and after a merge."""

    def observe(sketch):
        return dump_sketch(sketch), sketch.estimate()

    sketch = spec.build()
    for value in (5, 7, 7, 9):
        sketch.insert(value)
    seen = {"insert": observe(sketch)}
    sketch.delete(7)
    seen["delete"] = observe(sketch)
    sketch.update(3, 4)
    sketch.update(9, -1)
    seen["update"] = observe(sketch)
    stream = spec.build()
    stream.update_from_stream([4, 4, 8, 1, 4])
    seen["stream"] = observe(stream)
    bulk = spec.build()
    bulk.update_from_frequencies(BULK_VALUES, BULK_COUNTS)
    seen["bulk"] = observe(bulk)
    seen["merge"] = observe(sketch.merge(bulk))
    return seen


def expected_payload(name: str, n: int, counters: list) -> dict:
    key = "z" if SPECS[name].kind == "tugofwar" else "counters"
    return {**HEADERS[name], "n": n, key: counters}


@pytest.mark.parametrize("name", SPECS)
class TestPinnedLinearKinds:
    def test_payloads_and_estimates(self, name):
        seen = updates(SPECS[name])
        assert list(seen) == list(PINNED[name])
        for step, (n, counters, estimate) in PINNED[name].items():
            payload, got = seen[step]
            assert (step, payload, got) == (
                step, expected_payload(name, n, counters), estimate
            )

    def test_copy_is_independent(self, name):
        sketch = SPECS[name].build()
        sketch.update_from_stream([4, 4, 8, 1, 4])
        dup = sketch.copy()
        dup.insert(7)
        n, counters, _ = PINNED[name]["stream"]
        assert dump_sketch(sketch) == expected_payload(name, n, counters)
        assert dup.n == n + 1

    @pytest.mark.parametrize("case", REFUSALS)
    def test_update_refusals(self, name, case):
        action, message = REFUSALS[case]
        sketch = SPECS[name].build()
        if case != "empty delete":
            sketch.insert(5)
        before = dump_sketch(sketch)
        with pytest.raises(ValueError) as info:
            action(sketch)
        assert (type(info.value), str(info.value)) == (ValueError, message)
        assert dump_sketch(sketch) == before

    def test_merge_refusals(self, name):
        spec = SPECS[name]
        reseeded = SketchSpec(spec.kind, {**spec.params, "seed": 12})
        cases = {
            **MERGE_REFUSALS[name],
            "seed": (reseeded, ValueError,
                     "sketches use different hash families; build both "
                     "with the same seed"),
        }
        for case, (other, error, message) in cases.items():
            with pytest.raises(Exception) as info:
                spec.build().merge(other.build())
            assert (case, type(info.value), str(info.value)) == (
                case, error, message
            )


#: A 16-word tug-of-war store: a row densifies at its 8th value.
STORE_SPEC = SketchSpec("tugofwar", {"s1": 8, "s2": 2, "seed": 5})
STORE_FAMILY = {"kind": "sign", "family": {
    "count": 16, "independence": 4, "seed": 5, "digest": 4342172637001246269,
}}


def store_row(n: int, z: list) -> dict:
    return {"kind": "tugofwar", "s1": 8, "s2": 2, "n": n, "z": z,
            "signs": STORE_FAMILY}


class TestPinnedMixedStore:
    """A windowed store holding sparse rows on both sides of a dense one."""

    @staticmethod
    def build() -> WindowedSketchStore:
        store = WindowedSketchStore(STORE_SPEC, bucket_width=10)
        batches = [
            ([1, 2, 3], [4, 4, 9], None),
            (np.full(30, 15), np.arange(30) * 3, None),
            ([21, 22, 23, 24, 25], [6, 7, 8, 6, 2], None),
            ([21, 12], [6, 3], [-2, -1]),
        ]
        for ts, values, counts in batches:
            store.ingest(ts, values, counts)
        return store

    def test_payload_and_estimates(self):
        store = self.build()
        assert [type(s.row) for s in store._spans] == [
            SparseRow, type(STORE_SPEC.build()), SparseRow
        ]
        assert store.memory_words == 26
        assert store.to_dict() == {
            "kind": "windowed-store",
            "spec": {"kind": "tugofwar", "params": {"s1": 8, "s2": 2, "seed": 5}},
            "bucket_width": 10,
            "origin": 0,
            "retention_buckets": None,
            "retention_policy": "compact",
            "spans": [
                [0, 1, store_row(
                    3, [3, -1, 3, 3, 1, 1, -1, -3, -1, 1, 1, 1, -1, -3, -1, -1])],
                [1, 2, store_row(
                    29, [9, -7, 3, -5, -3, -3, 7, 9, 3, -1, 7, -3, -7, -7, 5, 3])],
                [2, 3, store_row(
                    3, [-3, -1, -1, 1, -1, 3, -1, -1, -1, -3, -1, 1, -1, -1, -1, -1])],
            ],
        }
        windows = [(0, 10), (10, 20), (20, 30), (0, 20), (0, 30)]
        assert [(store.estimate(*w), store.query(*w).n) for w in windows] == [
            (3.5, 3), (32.0, 29), (2.5, 3), (36.5, 32), (32.5, 35)
        ]
