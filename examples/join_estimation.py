#!/usr/bin/env python
"""Join-size estimation for query optimization (Section 4 end to end).

Builds a small star-schema-ish database, tracks one k-TW signature per
relation (k words each, maintained incrementally), and shows:

1. pairwise join-size estimates from signatures alone, with the
   Lemma 4.4 error bound alongside;
2. the greedy planner (``repro.planner``) choosing a join order from
   the k-TW catalog vs from exact statistics vs from a sample catalog
   at equal storage, each plan re-priced under the true join sizes;
3. the Section 4.4 crossover: when self-join sizes are small relative
   to n*sqrt(B), k-TW needs far fewer words than sampling.

Run:  python examples/join_estimation.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ExactCardinalities,
    JoinGraph,
    Relation,
    SampleCatalog,
    SignatureCatalog,
    enumerate_greedy,
    evaluate_plan,
)
from repro.core.bounds import ktw_signature_words, sample_signature_words


def build_database(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Four relations joining on one attribute (customer id)."""
    heavy_customers = rng.zipf(1.4, size=40_000) % 2_000
    return {
        "orders": heavy_customers.astype(np.int64),
        "lineitem": (rng.zipf(1.3, size=80_000) % 2_000).astype(np.int64),
        "returns": rng.integers(0, 2_000, size=5_000, dtype=np.int64),
        "vip": rng.integers(0, 50, size=1_000, dtype=np.int64),
    }


def main() -> None:
    rng = np.random.default_rng(5)
    streams = build_database(rng)
    relations = {name: Relation(name, vals) for name, vals in streams.items()}
    sizes = {name: rel.size for name, rel in relations.items()}

    k = 1024
    ktw = SignatureCatalog(k=k, seed=17)
    # Equal storage for the sampling catalog: expected k values/relation.
    for name, vals in streams.items():
        ktw.register(name, vals)
    sample = SampleCatalog(p=k / max(sizes.values()), seed=17)
    for name, vals in streams.items():
        sample.register(name, vals)

    print(f"k-TW catalog: {len(ktw)} relations x {k} words")
    print(f"{'pair':<22} {'exact':>12} {'k-TW est':>12} {'±bound':>11} {'sample est':>12}")
    names = list(streams)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            exact = relations[a].join_size(relations[b])
            est = ktw.join_estimate(a, b)
            bound = ktw.join_error_bound(a, b)
            s_est = sample.join_estimate(a, b)
            print(
                f"{a + ' x ' + b:<22} {exact:>12,} {est:>12,.0f} "
                f"{bound:>11,.0f} {s_est:>12,.0f}"
            )

    # --- optimizer comparison -------------------------------------------
    graph = JoinGraph.clique(sizes)
    exact = ExactCardinalities(relations)
    for label, catalog in [("exact", exact), ("k-TW", ktw), ("sample", sample)]:
        plan = enumerate_greedy(graph, catalog)
        true_cost = evaluate_plan(plan, graph, exact).cost
        print(
            f"\n{label:<7} plan: {' >> '.join(plan.order())}"
            f"\n        estimated cost {plan.cost:,.0f}, "
            f"true cost {true_cost:,.0f}"
        )

    # --- Section 4.4 storage comparison -----------------------------------
    n = sizes["orders"]
    b_sanity = float(n)  # most demanding sanity bound
    sj_o = relations["orders"].self_join_size()
    sj_l = relations["lineitem"].self_join_size()
    need_ktw = ktw_signature_words(sj_o, sj_l, b_sanity)
    need_sample = sample_signature_words(n, b_sanity)
    print(
        f"\nSection 4.4 at B = n = {n:,}: "
        f"k-TW needs ~{need_ktw:,.0f} words, sampling ~{need_sample:,.0f} words "
        f"({'k-TW wins' if need_ktw < need_sample else 'sampling wins'})"
    )


if __name__ == "__main__":
    main()
