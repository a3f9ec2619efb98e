"""Integration tests: whole-library scenarios across modules."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    ExactCardinalities,
    FrequencyVector,
    JoinGraph,
    Relation,
    SampleCountSketch,
    SignatureCatalog,
    TugOfWarSketch,
    enumerate_greedy,
    join_size,
    self_join_size,
)
from repro.data.registry import load_dataset
from repro.streams.operations import Delete, Insert, Query, mixed_workload, replay


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestTrackingScenario:
    """A data-warehouse batch-update scenario (Section 5's use case)."""

    def test_all_trackers_follow_updates(self, rng):
        values = rng.integers(0, 50, size=6000)
        seq = mixed_workload(values, delete_fraction=0.2, rng=1, query_every=2000)

        exact = FrequencyVector()
        tw = TugOfWarSketch(s1=500, s2=5, seed=0)
        sc = SampleCountSketch(s1=500, s2=5, seed=0, initial_range=2000)

        exact_answers = replay(seq, exact)
        tw_answers = replay(seq, tw)
        sc_answers = replay(seq, sc)

        assert len(exact_answers) == len(tw_answers) == len(sc_answers)
        # Skip the earliest query (tiny n; large relative noise).
        for e, t, s in list(zip(exact_answers, tw_answers, sc_answers))[1:]:
            assert t == pytest.approx(e, rel=0.5)
            assert s == pytest.approx(e, rel=0.6)

    def test_theorem21_regime_accuracy(self, rng):
        # Inserts outnumber deletes 4:1 (Theorem 2.1's precondition);
        # sample-count stays accurate.
        ops = []
        live = []
        for v in rng.integers(0, 20, size=4000).tolist():
            ops.append(Insert(int(v)))
            live.append(int(v))
            if len(ops) % 5 == 4:
                idx = int(rng.integers(0, len(live)))
                ops.append(Delete(live.pop(idx)))
        ops.append(Query())
        exact = FrequencyVector()
        sc = SampleCountSketch(s1=600, s2=5, seed=3, initial_range=1500)
        (e,) = replay(ops, exact)
        (s,) = replay(ops, sc)
        assert s == pytest.approx(e, rel=0.5)


class TestJoinScenario:
    """Optimizer picks plans from signatures alone (Section 4 use case)."""

    def test_catalog_vs_exact_optimizer(self, rng):
        streams = {
            "lineitem": rng.integers(0, 100, size=8000),
            "orders": rng.integers(0, 100, size=4000),
            "customer": np.concatenate(
                [rng.integers(0, 5, size=200), rng.integers(500, 600, size=1800)]
            ),
        }
        relations = {k: Relation(k, v) for k, v in streams.items()}
        graph = JoinGraph.clique({k: r.size for k, r in relations.items()})

        catalog = SignatureCatalog(k=2048, seed=9)
        for name, vals in streams.items():
            catalog.register(name, vals)

        est_plan = enumerate_greedy(graph, catalog)
        exact_plan = enumerate_greedy(graph, ExactCardinalities(relations))
        # With k = 2048 the estimates are sharp enough to pick the same
        # first join as exact statistics.
        assert set(est_plan.order()[:2]) == set(exact_plan.order()[:2])

    def test_fact11_bridges_self_join_trackers_to_joins(self, rng):
        # Self-join trackers can bound any pairwise join (Fact 1.1).
        a = rng.integers(0, 30, size=3000)
        b = rng.integers(0, 30, size=3000)
        tw_a = TugOfWarSketch(s1=600, s2=5, seed=1)
        tw_b = TugOfWarSketch(s1=600, s2=5, seed=2)
        tw_a.update_from_stream(a)
        tw_b.update_from_stream(b)
        bound = repro.bounds.join_size_upper_bound(tw_a.estimate(), tw_b.estimate())
        assert join_size(a, b) <= bound * 1.3  # estimation slack

    def test_ktw_vs_fact11_sharpness(self, rng):
        # The k-TW estimate is far sharper than the Fact 1.1 bound on
        # skewed-but-weakly-joining relations.
        a = np.concatenate([np.zeros(2000, dtype=np.int64), rng.integers(1, 500, size=2000)])
        b = np.concatenate([np.ones(2000, dtype=np.int64), rng.integers(1, 500, size=2000)])
        exact = join_size(a, b)
        sig_a = TugOfWarSketch(s1=1024, s2=1, seed=4)
        sig_b = TugOfWarSketch(s1=1024, s2=1, seed=4)
        sig_a.update_from_stream(a)
        sig_b.update_from_stream(b)
        est = sig_a.inner_product_mean(sig_b)
        fact11 = repro.bounds.join_size_upper_bound(self_join_size(a), self_join_size(b))
        assert abs(est - exact) < 0.2 * fact11


class TestDatasetToFigurePipeline:
    def test_end_to_end_sweep_on_table1_dataset(self):
        from repro.experiments.harness import accuracy_sweep
        from repro.experiments.metrics import convergence_from_sweep

        values = load_dataset("mf2", rng=0, scale=0.5)
        sweep = accuracy_sweep(
            values, dataset="mf2", sample_sizes=[64, 256, 1024, 4096], rng=0, repeats=3
        )
        conv = convergence_from_sweep(sweep)
        # Both AMS estimators converge within the sweep on mf2.
        assert conv["tug-of-war"] is not None
        assert conv["sample-count"] is not None

    def test_path_dataset_separates_algorithms(self):
        # Section 3.2: on `path`, tug-of-war converges with far fewer
        # words than sample-count.
        from repro.experiments.harness import estimate_once

        values = load_dataset("path", rng=0)
        exact = self_join_size(values)
        tw_errs = [
            abs(estimate_once("tug-of-war", values, 64, rng=seed) - exact) / exact
            for seed in range(5)
        ]
        sc_errs = [
            abs(estimate_once("sample-count", values, 64, rng=seed) - exact) / exact
            for seed in range(5)
        ]
        assert np.median(tw_errs) < np.median(sc_errs)
