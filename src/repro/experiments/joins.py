"""Join-signature experiments (the study Section 5 lists as future work).

The paper analyses the k-TW join signature scheme (Section 4.3) and
compares it analytically with sample signatures (Section 4.4), but its
experiments cover self-joins only and the conclusion calls an
experimental comparison of join signatures future work.  This module
performs that study:

* :func:`join_accuracy_sweep` — estimate |F join G| with k-TW and with
  sample signatures at matched memory budgets, over a grid of budgets;
* :func:`ktw_error_vs_bound` — measure how the k-TW error tracks the
  Lemma 4.4 standard-error bound ``sqrt(2 SJ(F) SJ(G) / k)``;
* :func:`make_relation_pair` — relation pairs with controllable skew
  and overlap, built from the Table 1 generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.frequency import join_size, self_join_size
from ..core.join import sample_join_estimate
from ..core.tugofwar import TugOfWarSketch
from ..data.registry import DATASETS

__all__ = [
    "make_relation_pair",
    "JoinAccuracyPoint",
    "join_accuracy_sweep",
    "ktw_error_vs_bound",
    "format_join_sweep",
]


def make_relation_pair(
    dataset: str = "zipf1.0",
    n: int = 50_000,
    overlap: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Two relations with the profile of a Table 1 data set.

    Both are drawn from the same generator; ``overlap`` controls what
    fraction of the second relation's values is shifted outside the
    first's domain (overlap = 1 joins fully, overlap = 0 makes the
    payload join empty).
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    spec = DATASETS.get(dataset)
    if spec is None:
        raise KeyError(f"unknown data set {dataset!r}; choose from {sorted(DATASETS)}")
    rng = np.random.default_rng(seed)
    scale = min(1.0, n / spec.paper_length)
    left = spec.load(rng=rng, scale=scale)
    right = spec.load(rng=rng, scale=scale)
    # Shift a (1 - overlap) fraction of right's tuples into a disjoint
    # value range so the join only sees the overlapping part.
    if overlap < 1.0:
        move = rng.random(right.size) >= overlap
        offset = int(max(left.max(), right.max())) + 1
        right = right.copy()
        right[move] += offset
    return left, right


@dataclass(frozen=True)
class JoinAccuracyPoint:
    """One (scheme, budget) join estimate with its relative error."""

    scheme: str
    memory_words: int
    estimate: float
    relative_error: float


def join_accuracy_sweep(
    left: np.ndarray,
    right: np.ndarray,
    budgets: Sequence[int] = (16, 64, 256, 1024, 4096),
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """k-TW vs sample signatures at matched memory budgets.

    For each budget k: the k-TW scheme stores k words per relation; the
    sampling scheme stores an expected k values per relation
    (p = k / n).  The median relative error over ``repeats`` trials is
    reported per point.

    Returns a dict with the exact join size, the relations' self-join
    sizes, and the list of :class:`JoinAccuracyPoint`.
    """
    rng = np.random.default_rng(seed)
    exact = join_size(left, right)
    sj_left = self_join_size(left)
    sj_right = self_join_size(right)
    points: list[JoinAccuracyPoint] = []
    for k in budgets:
        if k < 1:
            raise ValueError(f"budgets must be >= 1, got {k}")
        ktw_errors = []
        ktw_last = 0.0
        for _ in range(repeats):
            ktw_last = _ktw_estimate(left, right, int(k), rng)
            ktw_errors.append(_rel_err(ktw_last, exact))
        points.append(
            JoinAccuracyPoint(
                scheme="k-TW",
                memory_words=int(k),
                estimate=ktw_last,
                relative_error=float(np.median(ktw_errors)),
            )
        )

        p = min(1.0, k / max(1, min(left.size, right.size)))
        samp_errors = []
        samp_last = 0.0
        for _ in range(repeats):
            samp_last = sample_join_estimate(left, right, p, rng=rng)
            samp_errors.append(_rel_err(samp_last, exact))
        points.append(
            JoinAccuracyPoint(
                scheme="sample",
                memory_words=int(k),
                estimate=samp_last,
                relative_error=float(np.median(samp_errors)),
            )
        )
    return {
        "exact_join": exact,
        "self_join_left": sj_left,
        "self_join_right": sj_right,
        "points": points,
    }


def ktw_error_vs_bound(
    left: np.ndarray,
    right: np.ndarray,
    k: int = 256,
    trials: int = 32,
    seed: int = 0,
) -> dict:
    """Empirical k-TW error against the Lemma 4.4 standard-error bound.

    Runs ``trials`` independent k-TW estimates and reports the RMS
    absolute error alongside ``sqrt(2 SJ(F) SJ(G) / k)``; Lemma 4.4
    guarantees RMS error at or below the bound.
    """
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be >= 1")
    rng = np.random.default_rng(seed)
    exact = join_size(left, right)
    sj_l = self_join_size(left)
    sj_r = self_join_size(right)
    errors = []
    for _ in range(trials):
        errors.append(_ktw_estimate(left, right, k, rng) - exact)
    rms = float(np.sqrt(np.mean(np.square(errors))))
    bound = float(np.sqrt(2.0 * sj_l * sj_r / k))
    return {
        "exact_join": exact,
        "rms_error": rms,
        "bound": bound,
        "ratio": rms / bound if bound else float("inf"),
        "k": k,
        "trials": trials,
    }


def format_join_sweep(result: dict) -> str:
    """Render a join accuracy sweep as a text table."""
    lines = [
        f"# join accuracy: exact |F join G| = {result['exact_join']:.4g}, "
        f"SJ(F) = {result['self_join_left']:.3g}, "
        f"SJ(G) = {result['self_join_right']:.3g}",
        f"{'scheme':<8} {'words':>7} {'estimate':>13} {'rel. error':>11}",
    ]
    for p in result["points"]:
        lines.append(
            f"{p.scheme:<8} {p.memory_words:>7} {p.estimate:>13.4g} "
            f"{p.relative_error:>11.3f}"
        )
    return "\n".join(lines)


def _ktw_estimate(
    left: np.ndarray, right: np.ndarray, k: int, rng: np.random.Generator
) -> float:
    """One k-TW join estimate: two k x 1 tug-of-war sketches built from
    one seed drawn from ``rng``."""
    seed = int(rng.integers(0, 2**63 - 1))
    sig_l = TugOfWarSketch(k, 1, seed=seed)
    sig_r = TugOfWarSketch(k, 1, seed=seed)
    sig_l.update_from_stream(left)
    sig_r.update_from_stream(right)
    return sig_l.inner_product_mean(sig_r)


def _rel_err(estimate: float, actual: float) -> float:
    if actual == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(estimate - actual) / abs(actual)
