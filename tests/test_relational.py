"""Unit tests for the relational layer: Relation, catalogs, and the
join orders :mod:`repro.planner` picks from them."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.planner import (
    ExactCardinalities,
    JoinGraph,
    PlanNode,
    UnknownGraphRelationError,
    enumerate_dp,
    enumerate_greedy,
    evaluate_plan,
)
from repro.relational.catalog import (
    SampleCatalog,
    SignatureCatalog,
    UnknownRelationError,
)
from repro.relational.relation import Relation


class TestRelation:
    def test_construction_from_values(self):
        r = Relation("orders", [1, 1, 2])
        assert r.size == 3
        assert r.distinct == 2

    def test_empty_relation(self):
        r = Relation("empty")
        assert r.size == 0
        assert r.self_join_size() == 0

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            Relation("")

    def test_insert_delete(self):
        r = Relation("r")
        r.insert(5)
        r.insert(5)
        r.delete(5)
        assert r.size == 1

    def test_self_join_size(self):
        r = Relation("r", [1, 1, 1, 2])
        assert r.self_join_size() == 10

    def test_join_size(self):
        a = Relation("a", [1, 1, 2])
        b = Relation("b", [1, 2, 2])
        assert a.join_size(b) == 2 + 2

    def test_join_rejects_other_types(self):
        with pytest.raises(TypeError):
            Relation("a").join_size([1, 2])

    def test_fact11_bound(self, rng):
        a = Relation("a", rng.integers(0, 20, size=300))
        b = Relation("b", rng.integers(0, 20, size=300))
        assert a.join_size(b) <= a.join_size_bound(b)

    def test_values_array_roundtrip(self):
        r = Relation("r", [3, 1, 3])
        assert r.values_array().tolist() == [1, 3, 3]

    def test_len(self):
        assert len(Relation("r", [1, 2])) == 2


class TestSignatureCatalog:
    @pytest.fixture
    def catalog(self, rng):
        cat = SignatureCatalog(k=512, seed=0)
        self.streams = {
            "A": rng.integers(0, 40, size=3000),
            "B": rng.integers(0, 40, size=2500),
            "C": rng.integers(100, 140, size=2000),  # disjoint from A/B
        }
        for name, vals in self.streams.items():
            cat.register(name, vals)
        return cat

    def test_register_and_contains(self, catalog):
        assert "A" in catalog and "Z" not in catalog
        assert catalog.relations == ["A", "B", "C"]
        assert len(catalog) == 3

    def test_duplicate_register_raises(self, catalog):
        with pytest.raises(KeyError, match="already"):
            catalog.register("A")

    def test_drop(self, catalog):
        catalog.drop("C")
        assert "C" not in catalog
        with pytest.raises(UnknownRelationError):
            catalog.drop("C")

    def test_join_estimate_close(self, catalog):
        from repro.core.frequency import join_size

        exact = join_size(self.streams["A"], self.streams["B"])
        assert catalog.join_estimate("A", "B") == pytest.approx(exact, rel=0.35)

    def test_disjoint_join_near_zero(self, catalog):
        from repro.core.frequency import join_size

        exact = join_size(self.streams["A"], self.streams["C"])
        assert exact == 0
        est = catalog.join_estimate("A", "C")
        # Error bound is sqrt(2 SJ_A SJ_C / k); the estimate must be small
        # relative to the non-disjoint join sizes.
        assert abs(est) < catalog.join_error_bound("A", "C") * 4

    def test_self_join_estimate(self, catalog):
        from repro.core.frequency import self_join_size

        exact = self_join_size(self.streams["A"])
        assert catalog.self_join_estimate("A") == pytest.approx(exact, rel=0.35)

    def test_incremental_maintenance(self, catalog):
        before = catalog.join_estimate("A", "B")
        catalog.insert("A", 7)
        catalog.delete("A", 7)
        assert catalog.join_estimate("A", "B") == pytest.approx(before)

    def test_memory_words(self, catalog):
        assert catalog.memory_words == 512 * 3
        assert catalog.k == 512

    def test_unknown_relation_raises(self, catalog):
        with pytest.raises(UnknownRelationError, match="not registered"):
            catalog.join_estimate("A", "Z")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            SignatureCatalog(k=0)

    def test_bad_seed_refused_at_construction(self):
        with pytest.raises(ValueError, match="seed"):
            SignatureCatalog(k=8, seed=-1)

    def test_net_negative_update_refused_and_unchanged(self):
        catalog = SignatureCatalog(k=16, seed=0)
        sig = catalog.register("R", [1, 1, 2])
        before = sig.counters.copy()
        with pytest.raises(ValueError, match="negative"):
            catalog.update_from_frequencies("R", [1, 2], [-3, -3])
        assert sig.n == 3
        assert np.array_equal(sig.counters, before)

    def test_unknown_relation_error_is_not_keyerror(self, catalog):
        # The old raw-mapping KeyError looked like an internal bug; the
        # dedicated error names the relation and lists what exists.
        try:
            catalog.join_estimate("A", "Z")
        except UnknownRelationError as exc:
            assert not isinstance(exc, KeyError)
            assert exc.name == "Z"
            assert exc.registered == ["A", "B", "C"]
            assert "register" in str(exc)
        else:  # pragma: no cover - the raise is the point
            raise AssertionError("expected UnknownRelationError")


class TestSampleCatalog:
    def test_register_and_estimate(self, rng):
        cat = SampleCatalog(p=0.5, seed=0)
        a = rng.integers(0, 30, size=2000)
        b = rng.integers(0, 30, size=2000)
        cat.register("A", a)
        cat.register("B", b)
        from repro.core.frequency import join_size

        exact = join_size(a, b)
        assert cat.join_estimate("A", "B") == pytest.approx(exact, rel=0.4)

    def test_p_one_exact(self, rng):
        cat = SampleCatalog(p=1.0, seed=0)
        a = rng.integers(0, 30, size=1000)
        b = rng.integers(0, 30, size=1000)
        cat.register("A", a)
        cat.register("B", b)
        from repro.core.frequency import join_size

        assert cat.join_estimate("A", "B") == pytest.approx(float(join_size(a, b)))

    def test_duplicate_register_raises(self):
        cat = SampleCatalog(p=0.5, seed=0)
        cat.register("A")
        with pytest.raises(KeyError):
            cat.register("A")

    def test_insert_delete_and_drop(self):
        cat = SampleCatalog(p=1.0, seed=0)
        cat.register("A")
        cat.insert("A", 1)
        cat.delete("A", 1)
        cat.drop("A")
        assert "A" not in cat

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            SampleCatalog(p=0.0)

    def test_unknown_relation_clear_error(self):
        cat = SampleCatalog(p=0.5, seed=0)
        cat.register("A")
        with pytest.raises(UnknownRelationError, match="not registered"):
            cat.join_estimate("A", "missing")
        with pytest.raises(UnknownRelationError):
            cat.drop("missing")

    def test_memory_words_tracks_samples(self, rng):
        cat = SampleCatalog(p=0.1, seed=1)
        cat.register("A", rng.integers(0, 10, size=5000))
        assert 300 <= cat.memory_words <= 750


def _left_deep(order) -> PlanNode:
    """An unpriced left-deep tree over ``order``; evaluate_plan prices it."""
    tree = PlanNode((order[0],), 0.0, 0.0)
    for name in order[1:]:
        tree = PlanNode(
            tree.relations + (name,), 0.0, 0.0,
            left=tree, right=PlanNode((name,), 0.0, 0.0),
        )
    return tree


class _Constant:
    """A catalog answering every join-size question with one value."""

    def __init__(self, value):
        self.value = value

    def join_estimate(self, left, right):
        return self.value


class TestOptimizer:
    @pytest.fixture
    def relations(self, rng):
        # C is selective against A (few shared values); B joins A heavily.
        a = Relation("A", rng.integers(0, 20, size=1000))
        b = Relation("B", rng.integers(0, 20, size=1000))
        c = Relation("C", np.concatenate([rng.integers(0, 2, size=50), rng.integers(1000, 1100, size=950)]))
        return {"A": a, "B": b, "C": c}

    @staticmethod
    def graph(relations):
        return JoinGraph.clique({k: r.size for k, r in relations.items()})

    def test_plan_prefers_selective_pair(self, relations):
        plan = enumerate_greedy(
            self.graph(relations), ExactCardinalities(relations)
        )
        # The cheapest first pair involves C (tiny join with A or B).
        assert "C" in plan.order()[:2]

    def test_evaluate_plan_matches_choice(self, relations):
        graph = self.graph(relations)
        exact = ExactCardinalities(relations)
        plan = enumerate_greedy(graph, exact)
        assert evaluate_plan(plan, graph, exact).cost == pytest.approx(plan.cost)

    def test_greedy_beats_or_ties_worst_order(self, relations):
        graph = self.graph(relations)
        exact = ExactCardinalities(relations)
        plan = enumerate_greedy(graph, exact)
        costs = [
            evaluate_plan(_left_deep(order), graph, exact).cost
            for order in itertools.permutations(relations)
        ]
        assert plan.cost <= max(costs)

    def test_signature_catalog_picks_near_optimal_plan(self, relations):
        # End-to-end: the estimated plan's *true* cost should be close
        # to the exact-statistics plan's true cost.
        graph = self.graph(relations)
        exact = ExactCardinalities(relations)
        cat = SignatureCatalog(k=1024, seed=5)
        for name, rel in relations.items():
            cat.register(name, rel.values_array())
        est_plan = enumerate_greedy(graph, cat)
        exact_plan = enumerate_greedy(graph, exact)
        true_cost_est = evaluate_plan(est_plan, graph, exact).cost
        true_cost_exact = evaluate_plan(exact_plan, graph, exact).cost
        assert true_cost_est <= 3.0 * max(true_cost_exact, 1.0)

    def test_requires_two_relations(self, relations):
        with pytest.raises(ValueError, match="two relations"):
            enumerate_greedy(
                JoinGraph.clique({"A": 10}), ExactCardinalities(relations)
            )


class TestOptimizerTypedErrors:
    """Degenerate inputs and catalog answers fail loudly, typed."""

    GRAPH = JoinGraph.clique({"A": 10, "B": 10})

    def test_missing_size_is_typed_not_keyerror(self):
        # Sizes live in the JoinGraph: pricing a plan over a graph that
        # lacks one of its relations names it instead of a bare KeyError.
        plan = enumerate_greedy(self.GRAPH, _Constant(1.0))
        with pytest.raises(UnknownGraphRelationError) as excinfo:
            evaluate_plan(plan, JoinGraph({"A": 100}), _Constant(1.0))
        assert not isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, LookupError)
        message = str(excinfo.value)
        assert "'B'" in message and "relations: A" in message
        assert excinfo.value.name == "B" and excinfo.value.known == ["A"]

    def test_missing_size_with_nothing_recorded(self):
        plan = enumerate_greedy(self.GRAPH, _Constant(1.0))
        with pytest.raises(UnknownGraphRelationError, match="<none>"):
            evaluate_plan(plan, JoinGraph(), _Constant(1.0))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="negative size"):
            JoinGraph.clique({"A": 100, "B": -1})

    def test_empty_relations_is_valueerror_not_assert(self):
        # A real ValueError, not an `assert` that vanishes under -O.
        empty = JoinGraph.clique({})
        with pytest.raises(ValueError, match="two relations"):
            enumerate_greedy(empty, _Constant(1.0))
        with pytest.raises(ValueError, match="two relations"):
            enumerate_dp(empty, _Constant(1.0))

    def test_nan_estimate_rejected_with_pair_named(self):
        class _NaNCatalog:
            def join_estimate(self, left, right):
                return float("nan")

        with pytest.raises(ValueError, match=r"non-finite.*'A'.*'B'"):
            enumerate_greedy(self.GRAPH, _NaNCatalog())

    def test_inf_estimate_rejected_in_evaluate_plan(self):
        plan = enumerate_greedy(self.GRAPH, _Constant(1.0))
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_plan(plan, self.GRAPH, _Constant(float("inf")))

    def test_catalog_exceptions_propagate_untouched(self):
        class _Broken:
            def join_estimate(self, left, right):
                raise RuntimeError("backend down")

        with pytest.raises(RuntimeError, match="backend down"):
            enumerate_greedy(self.GRAPH, _Broken())
