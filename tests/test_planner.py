"""Unit tests for the planner subsystem: graphs, enumerators, policies.

Covers estimator-policy agreement (bound-aware >= sketch >= 0; exact
backend bit-for-bit against brute force), the DP/greedy agreement
property on small graphs, the tested ``render_plan`` behind
``PlanNode.__str__``, and typed cross-product rejection.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import (
    BoundAwareCardinalities,
    CrossProductError,
    ExactCardinalities,
    JoinGraph,
    PlanNode,
    SketchCardinalities,
    UnknownGraphRelationError,
    checked_estimate,
    enumerate_dp,
    enumerate_greedy,
    evaluate_plan,
    plan_join,
    render_plan,
)
from repro.planner.enumerators import _edge_selectivities, _subset_cardinalities
from repro.relational import Relation, SignatureCatalog


class _FixedEstimates:
    """Deterministic pairwise estimates from an explicit table."""

    def __init__(self, graph: JoinGraph, selectivities: dict):
        self.graph = graph
        self.sel = {frozenset(k): v for k, v in selectivities.items()}

    def join_estimate(self, left: str, right: str) -> float:
        sel = self.sel.get(frozenset((left, right)), 0.01)
        return sel * self.graph.size(left) * self.graph.size(right)


class _ConstantJoinSize:
    """Every pair's estimated join size is the same number."""

    def __init__(self, size: float):
        self.size = size

    def join_estimate(self, left: str, right: str) -> float:
        return self.size


class TestJoinGraph:
    def test_construction_and_lookups(self):
        g = JoinGraph({"A": 10, "B": 20}, edges=[("A", "B")])
        assert g.relations == ["A", "B"]
        assert g.sizes == {"A": 10, "B": 20}
        assert g.size("B") == 20
        assert g.has_edge("A", "B") and g.has_edge("B", "A")
        assert g.edges == [("A", "B")]
        assert "A" in g and "Z" not in g
        assert len(g) == 2 and list(g) == ["A", "B"]

    def test_duplicate_relation_rejected(self):
        g = JoinGraph({"A": 1})
        with pytest.raises(KeyError, match="already"):
            g.add_relation("A", 2)

    def test_empty_name_and_negative_size_rejected(self):
        g = JoinGraph()
        with pytest.raises(ValueError, match="non-empty"):
            g.add_relation("", 1)
        with pytest.raises(ValueError, match="negative size"):
            g.add_relation("A", -1)

    def test_unknown_relation_typed_error(self):
        g = JoinGraph({"A": 1})
        with pytest.raises(UnknownGraphRelationError) as excinfo:
            g.add_edge("A", "Z")
        assert not isinstance(excinfo.value, KeyError)
        assert excinfo.value.name == "Z"
        assert "add_relation" in str(excinfo.value)

    def test_self_edge_rejected(self):
        g = JoinGraph({"A": 1, "B": 2})
        with pytest.raises(ValueError, match="self-edge"):
            g.add_edge("A", "A")

    def test_neighbors(self):
        g = JoinGraph.star("F", 100, {"D1": 10, "D2": 20})
        assert g.neighbors("F") == ["D1", "D2"]
        assert g.neighbors("D1") == ["F"]

    def test_factories(self):
        chain = JoinGraph.chain({"A": 1, "B": 2, "C": 3})
        assert chain.edges == [("A", "B"), ("B", "C")]
        star = JoinGraph.star("F", 9, {"D1": 1, "D2": 2})
        assert star.edges == [("F", "D1"), ("F", "D2")]
        clique = JoinGraph.clique({"A": 1, "B": 2, "C": 3})
        assert len(clique.edges) == 3

    def test_is_connected(self):
        g = JoinGraph.chain({"A": 1, "B": 2, "C": 3})
        assert g.is_connected()
        assert g.is_connected(["A", "B"])
        assert not g.is_connected(["A", "C"])  # B missing: no path
        assert g.is_connected(["A"]) and g.is_connected([])
        disconnected = JoinGraph({"A": 1, "B": 2})
        assert not disconnected.is_connected()

    def test_masks_round_trip(self):
        g = JoinGraph.clique({"A": 1, "B": 2, "C": 3})
        mask = g.subset_mask(["C", "A"])
        assert g.mask_names(mask) == ["A", "C"]  # insertion order


class TestPlanNodeAndRendering:
    @pytest.fixture
    def plan(self):
        g = JoinGraph.chain({"A": 100, "B": 200, "C": 50})
        est = _FixedEstimates(g, {("A", "B"): 0.01, ("B", "C"): 0.02})
        return g, enumerate_dp(g, est, mode="left-deep")

    def test_annotations(self, plan):
        g, tree = plan
        assert tree.relations == ("A", "B", "C")
        assert not tree.is_leaf
        assert tree.cost >= tree.cardinality > 0
        leaf_names = set(tree.order())
        assert leaf_names == {"A", "B", "C"}
        assert tree.depth() == 3  # left-deep over three relations

    def test_leaf_accessors(self):
        leaf = PlanNode(relations=("A",), cardinality=5.0, cost=0.0)
        assert leaf.is_leaf and leaf.name == "A" and leaf.order() == ("A",)
        join = PlanNode(
            relations=("A", "B"), cardinality=1.0, cost=1.0,
            left=leaf, right=PlanNode(("B",), 2.0, 0.0),
        )
        with pytest.raises(ValueError, match="no name"):
            join.name

    def test_render_plan_shows_every_node(self, plan):
        _, tree = plan
        text = render_plan(tree)
        lines = text.splitlines()
        assert len(lines) == 5  # 2 joins + 3 leaves
        for name in ("A", "B", "C"):
            assert any(name in line for line in lines)
        assert "card" in lines[0] and "cost" in lines[0]
        assert str(tree) == text

    def test_render_marks_cross_products(self):
        g = JoinGraph({"A": 3, "B": 4})
        tree = enumerate_greedy(
            g, _FixedEstimates(g, {}), allow_cross_products=True
        )
        assert tree.cross_product
        assert "×" in render_plan(tree)
        assert tree.cardinality == 12.0

    def test_structure_fingerprint(self, plan):
        g, tree = plan
        fingerprint = tree.structure()
        assert isinstance(fingerprint, tuple)
        est = _FixedEstimates(g, {("A", "B"): 0.01, ("B", "C"): 0.02})
        assert enumerate_dp(g, est, mode="left-deep").structure() == fingerprint


class TestEstimatorPolicies:
    @pytest.fixture
    def workload(self, rng):
        relations = {
            "A": Relation("A", rng.integers(0, 40, size=2000)),
            "B": Relation("B", rng.integers(0, 40, size=1500)),
            "C": Relation("C", rng.integers(20, 60, size=1000)),
        }
        catalog = SignatureCatalog(k=512, seed=7)
        for name, rel in relations.items():
            catalog.register(name, rel.values_array())
        return relations, catalog

    def test_exact_backend_matches_brute_force_bit_for_bit(self, workload):
        relations, _ = workload
        exact = ExactCardinalities(relations)
        for left, right in itertools.combinations(relations, 2):
            a = relations[left].values_array()
            b = relations[right].values_array()
            brute = sum(
                int(np.sum(a == v)) * int(np.sum(b == v))
                for v in np.unique(np.concatenate([a, b]))
            )
            assert exact.join_estimate(left, right) == float(brute)

    def test_exact_backend_unknown_relation(self, workload):
        relations, _ = workload
        from repro.relational import UnknownRelationError

        with pytest.raises(UnknownRelationError):
            ExactCardinalities(relations).join_estimate("A", "Z")

    def test_bound_aware_dominates_sketch_dominates_zero(self, workload):
        relations, catalog = workload
        sketch = SketchCardinalities(catalog)
        bound = BoundAwareCardinalities(catalog, confidence=1.0)
        for left, right in itertools.combinations(relations, 2):
            s = sketch.join_estimate(left, right)
            b = bound.join_estimate(left, right)
            assert b >= s >= 0.0
            # With a positive error bound the domination is strict.
            assert b > s

    def test_bound_confidence_scales_inflation(self, workload):
        _, catalog = workload
        lo = BoundAwareCardinalities(catalog, confidence=0.5)
        hi = BoundAwareCardinalities(catalog, confidence=2.0)
        assert hi.join_estimate("A", "B") > lo.join_estimate("A", "B")
        zero = BoundAwareCardinalities(catalog, confidence=0.0)
        sketch = SketchCardinalities(catalog)
        assert zero.join_estimate("A", "B") == sketch.join_estimate("A", "B")

    def test_bound_aware_requires_error_bound(self, workload):
        relations, _ = workload

        class _NoBound:
            def join_estimate(self, left, right):
                return 1.0

        with pytest.raises(TypeError, match="join_error_bound"):
            BoundAwareCardinalities(_NoBound())
        with pytest.raises(ValueError, match="confidence"):
            BoundAwareCardinalities(
                ExactCardinalities(relations), confidence=-1.0
            )

    def test_exact_is_a_degenerate_bound_backend(self, workload):
        relations, _ = workload
        exact = ExactCardinalities(relations)
        assert exact.join_error_bound("A", "B") == 0.0
        bound = BoundAwareCardinalities(exact, confidence=3.0)
        assert bound.join_estimate("A", "B") == exact.join_estimate("A", "B")

    def test_checked_estimate_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"non-finite.*'A'.*'B'"):
            checked_estimate(float("nan"), "A", "B")
        assert checked_estimate(-5.0, "A", "B") == 0.0


def _brute_force_best(graph, estimator, mode, allow_cross_products=False):
    """Minimum plan cost by exhaustive enumeration (small n only)."""
    names = graph.relations
    idx = {n: i for i, n in enumerate(names)}
    sel = _edge_selectivities(graph, estimator, names)
    card = _subset_cardinalities(
        len(names), [float(graph.size(n)) for n in names], sel
    )

    def connected(mask_a, mask_b):
        return any(
            graph.has_edge(a, b)
            for a in graph.mask_names(mask_a)
            for b in graph.mask_names(mask_b)
        )

    best = None
    if mode == "left-deep":
        for perm in itertools.permutations(names):
            mask = 1 << idx[perm[0]]
            cost = 0.0
            ok = True
            for name in perm[1:]:
                bit = 1 << idx[name]
                if not (allow_cross_products or connected(mask, bit)):
                    ok = False
                    break
                mask |= bit
                cost += card[mask]
            if ok and (best is None or cost < best):
                best = cost
        return best

    full = (1 << len(names)) - 1
    memo: dict[int, float | None] = {1 << i: 0.0 for i in range(len(names))}

    def solve(mask):
        if mask in memo:
            return memo[mask]
        result = None
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if other and (allow_cross_products or connected(sub, other)):
                lc, rc = solve(sub), solve(other)
                if lc is not None and rc is not None:
                    total = lc + rc + card[mask]
                    if result is None or total < result:
                        result = total
            sub = (sub - 1) & mask
        memo[mask] = result
        return result

    return solve(full)


class TestEnumerators:
    def _random_graph(self, rng, n, shape):
        sizes = {f"R{i}": int(rng.integers(10, 3000)) for i in range(n)}
        if shape == "chain":
            graph = JoinGraph.chain(sizes)
        elif shape == "clique":
            graph = JoinGraph.clique(sizes)
        else:
            items = list(sizes.items())
            graph = JoinGraph.star(items[0][0], items[0][1], dict(items[1:]))
        sel = {
            frozenset(edge): float(rng.uniform(1e-4, 5e-2))
            for edge in graph.edges
        }
        return graph, _FixedEstimates(graph, {tuple(k): v for k, v in sel.items()})

    @pytest.mark.parametrize("shape", ["chain", "star", "clique"])
    @pytest.mark.parametrize("mode", ["left-deep", "bushy"])
    def test_dp_matches_brute_force(self, rng, shape, mode):
        for trial in range(5):
            graph, est = self._random_graph(rng, int(rng.integers(3, 6)), shape)
            plan = enumerate_dp(graph, est, mode=mode)
            brute = _brute_force_best(graph, est, mode)
            assert plan.cost == pytest.approx(brute, rel=1e-12)

    def test_bushy_never_worse_than_left_deep(self, rng):
        for shape in ("chain", "star", "clique"):
            graph, est = self._random_graph(rng, 5, shape)
            bushy = enumerate_dp(graph, est, mode="bushy")
            leftdeep = enumerate_dp(graph, est, mode="left-deep")
            assert bushy.cost <= leftdeep.cost * (1 + 1e-12)

    def test_dp_deterministic_across_runs(self, rng):
        graph, est = self._random_graph(rng, 6, "clique")
        first = enumerate_dp(graph, est, mode="bushy")
        for _ in range(3):
            again = enumerate_dp(graph, est, mode="bushy")
            assert again.structure() == first.structure()
            assert again.cost == first.cost

    def test_unknown_mode_rejected(self):
        g = JoinGraph.clique({"A": 1, "B": 2})
        with pytest.raises(ValueError, match="unknown DP mode"):
            enumerate_dp(g, _FixedEstimates(g, {}), mode="zigzag")

    def test_single_relation_rejected(self):
        g = JoinGraph({"A": 1})
        with pytest.raises(ValueError, match="two relations"):
            enumerate_dp(g, _FixedEstimates(g, {}))
        with pytest.raises(ValueError, match="two relations"):
            enumerate_greedy(g, _FixedEstimates(g, {}))

    def test_disconnected_graph_raises_typed_cross_product(self):
        g = JoinGraph({"A": 10, "B": 20, "C": 30}, edges=[("A", "B")])
        est = _FixedEstimates(g, {("A", "B"): 0.01})
        with pytest.raises(CrossProductError, match="cross product") as excinfo:
            enumerate_dp(g, est)
        assert set(excinfo.value.left) == {"A", "B"}
        assert set(excinfo.value.right) == {"C"}
        with pytest.raises(CrossProductError):
            enumerate_greedy(g, est)

    def test_disconnected_graph_allowed_with_flag(self):
        g = JoinGraph({"A": 10, "B": 20, "C": 30}, edges=[("A", "B")])
        est = _FixedEstimates(g, {("A", "B"): 0.01})
        plan = enumerate_dp(g, est, allow_cross_products=True)
        assert set(plan.order()) == {"A", "B", "C"}
        greedy = enumerate_greedy(g, est, allow_cross_products=True)
        assert set(greedy.order()) == {"A", "B", "C"}

    def test_dp_beats_greedy_on_star_via_cross_product(self):
        # Every fact join keeps the intermediate near |F|; crossing the
        # tiny dimensions first is cheaper, but a left-deep heuristic
        # can never see it.
        g = JoinGraph.star("F", 200_000, {"D1": 40, "D2": 50, "D3": 60})
        est = _FixedEstimates(
            g,
            {("F", "D1"): 1 / 40, ("F", "D2"): 1 / 50, ("F", "D3"): 1 / 60},
        )
        greedy = enumerate_greedy(g, est)
        dp = enumerate_dp(g, est, mode="bushy", allow_cross_products=True)
        assert dp.cost < greedy.cost
        assert "×" in render_plan(dp)  # the win comes from a cross product

    def test_plan_join_dispatch(self):
        g = JoinGraph.clique({"A": 10, "B": 20, "C": 5})
        est = _FixedEstimates(g, {})
        for name in ("greedy", "dp-leftdeep", "dp-bushy"):
            plan = plan_join(g, est, name)
            assert set(plan.order()) == {"A", "B", "C"}
        with pytest.raises(KeyError, match="unknown enumerator"):
            plan_join(g, est, "exhaustive")

    def test_evaluate_plan_repricing(self, rng):
        relations = {
            "A": Relation("A", rng.integers(0, 30, size=800)),
            "B": Relation("B", rng.integers(0, 30, size=700)),
            "C": Relation("C", rng.integers(0, 30, size=600)),
        }
        g = JoinGraph.clique({n: r.size for n, r in relations.items()})
        exact = ExactCardinalities(relations)
        catalog = SignatureCatalog(k=512, seed=3)
        for name, rel in relations.items():
            catalog.register(name, rel.values_array())
        sketched = enumerate_dp(g, SketchCardinalities(catalog))
        repriced = evaluate_plan(sketched, g, exact)
        assert repriced.structure() == sketched.structure()
        direct = enumerate_dp(g, exact)
        # Re-pricing the sketch plan under truth can never beat the
        # exact-policy optimum.
        assert repriced.cost >= direct.cost * (1 - 1e-12)

    def test_evaluate_plan_prices_cross_products_as_cartesian(self):
        g = JoinGraph({"A": 10, "B": 20})
        tree = enumerate_greedy(
            g, _FixedEstimates(g, {}), allow_cross_products=True
        )

        class _NeverAsked:
            def join_estimate(self, left, right):
                raise AssertionError("no join edge to estimate")

        priced = evaluate_plan(tree, g, _NeverAsked())
        assert priced.cross_product
        assert priced.cardinality == priced.cost == 200.0  # |A| * |B|

    def test_only_edge_pairs_are_estimated(self):
        g = JoinGraph.chain({"A": 10, "B": 20, "C": 30})
        asked = []

        class _Recording:
            def join_estimate(self, left, right):
                asked.append(frozenset((left, right)))
                return 5.0

        for plan in (
            enumerate_greedy(g, _Recording()),
            enumerate_dp(g, _Recording(), mode="bushy"),
        ):
            evaluate_plan(plan, g, _Recording())
        assert asked and frozenset(("A", "C")) not in asked

    def test_clique_cost_is_the_independence_product(self):
        # Joining C onto {A, B} crosses edges A-C and B-C: the next
        # intermediate is |AB| * |C| * sel(A, C) * sel(B, C).
        g = JoinGraph.clique({"A": 100, "B": 200, "C": 300})
        est = _ConstantJoinSize(50.0)
        plan = enumerate_greedy(g, est)
        assert plan.order() == ("A", "B", "C")  # ties keep graph order
        expected = 50.0 + 50.0 * 300 * (50.0 / (100 * 300)) * (50.0 / (200 * 300))
        assert plan.cost == pytest.approx(expected)
        assert evaluate_plan(plan, g, est).cost == pytest.approx(expected)

    def test_cross_product_error_names_the_fix(self):
        g = JoinGraph({"A": 10, "B": 20, "C": 30}, edges=[("A", "B")])
        est = _FixedEstimates(g, {("A", "B"): 0.01})
        for enumerate_plan in (enumerate_greedy, enumerate_dp):
            with pytest.raises(
                CrossProductError, match="allow_cross_products=True"
            ) as excinfo:
                enumerate_plan(g, est)
            assert isinstance(excinfo.value, ValueError)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dp_and_greedy_agree_on_tiny_graphs(sizes, seed):
    """ISSUE 4 satellite: DP == greedy on 2-3 relation clique graphs.

    On two relations there is one plan; on three, every left-deep
    order's final intermediate is the same set cardinality, so the
    greedy seed (cheapest first pair) is provably optimal — the DP must
    agree on cost.
    """
    names = [f"R{i}" for i in range(len(sizes))]
    graph = JoinGraph.clique(dict(zip(names, sizes)))
    rng = np.random.default_rng(seed)
    est = _FixedEstimates(
        graph,
        {tuple(e): float(rng.uniform(1e-4, 0.9)) for e in graph.edges},
    )
    greedy = enumerate_greedy(graph, est)
    dp = enumerate_dp(graph, est, mode="left-deep")
    assert dp.cost == pytest.approx(greedy.cost, rel=1e-9)
    bushy = enumerate_dp(graph, est, mode="bushy")
    assert bushy.cost == pytest.approx(greedy.cost, rel=1e-9)


class TestServiceWindowPlanning:
    """Planning over live windowed data: a keyed fleet behind SketchService."""

    @pytest.fixture
    def service(self, rng):
        from repro.service import SketchService
        from repro.store import KeyedSketchStore, SketchSpec

        spec = SketchSpec("tugofwar", {"s1": 102, "s2": 5, "seed": 2})
        service = SketchService(KeyedSketchStore(spec, bucket_width=10))
        self.streams = {
            "A": rng.integers(0, 30, size=2000),
            "B": rng.integers(0, 30, size=1800),
            "C": rng.integers(0, 30, size=1500),
        }
        for name, values in self.streams.items():
            ts = rng.integers(0, 50, size=values.size)
            service.ingest(ts, values, key=name)
        return service

    def test_window_view_supports_bound_aware_planning(self, service):
        view = service.at_window(0, 50)
        bound = BoundAwareCardinalities(view, confidence=1.0)
        sketch = SketchCardinalities(view)
        assert (
            bound.join_estimate("A", "B")
            > sketch.join_estimate("A", "B")
            >= 0.0
        )
        graph = JoinGraph.clique(
            {name: len(vals) for name, vals in self.streams.items()}
        )
        plan = enumerate_dp(graph, bound)
        assert set(plan.order()) == {"A", "B", "C"}

    def test_join_error_bound_is_cached(self, service):
        before = service.stats()["misses"]
        first = service.join_error_bound("A", "B", 0, 50)
        second = service.join_error_bound("B", "A", 0, 50)  # order-normalised
        assert first == second > 0.0
        stats = service.stats()
        assert stats["misses"] == before + 1
        assert stats["hits"] >= 1

    def test_bound_aware_estimate_merges_once(self, service):
        # The estimate and its bound come from one cache entry.
        BoundAwareCardinalities(service.at_window(0, 50)).join_estimate("A", "C")
        assert service.stats()["misses"] == 1

    def test_ingest_invalidates_bound_entries(self, service, rng):
        first = service.join_error_bound("A", "B", 0, 50)
        service.ingest(
            rng.integers(0, 50, size=200), rng.integers(0, 30, size=200), key="A"
        )
        after = service.join_error_bound("A", "B", 0, 50)
        assert after != first  # recomputed over the mutated window

    def test_windowed_bound_matches_catalog_formula(self, service):
        from repro.core.bounds import ktw_join_error_bound

        view = service.at_window(0, 50)
        expected = ktw_join_error_bound(
            max(0.0, view.self_join_estimate("A")),
            max(0.0, view.self_join_estimate("B")),
            510,
        )
        assert view.join_error_bound("A", "B") == expected
