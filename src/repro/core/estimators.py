"""Estimator-combination machinery: averages, medians, median-of-means.

Both AMS approaches produce a grid of ``s = s1 * s2`` independent basic
estimators ``X_{i,j}`` whose expectation is the target quantity.  The
final estimate is the *median over j* of the *mean over i* — averaging
shrinks the variance (Chebyshev), the median boosts the confidence
(Chernoff).  This module centralises that logic so the tug-of-war
sketch, the sample-count tracker, and the join estimators all combine
their basic estimators identically, and so the ablation benchmark can
swap combiners.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "median_of_means",
    "mean_estimate",
    "median_estimate",
    "split_parameters",
    "group_shape_for",
]


def mean_estimate(basic: np.ndarray | Sequence[float]) -> float:
    """Plain average of the basic estimators (the s2 = 1 special case)."""
    arr = np.asarray(basic, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot combine zero basic estimators")
    return float(arr.mean())

def median_estimate(basic: np.ndarray | Sequence[float]) -> float:
    """Plain median of the basic estimators (the s1 = 1 special case)."""
    arr = np.asarray(basic, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot combine zero basic estimators")
    return float(np.median(arr))


def median_of_means(
    basic: np.ndarray | Sequence[float],
    s1: int | None = None,
    s2: int | None = None,
) -> float:
    """Median over s2 groups of the mean of s1 basic estimators each.

    Parameters
    ----------
    basic:
        Either a 2-D array of shape ``(s2, s1)`` — row j holding group
        j's basic estimators — or a flat array of length ``s1 * s2``
        combined with explicit ``s1``/``s2``.
    s1, s2:
        Group shape when ``basic`` is flat.  For a 2-D input they must
        be omitted or agree with the array's shape.

    Notes
    -----
    This mirrors steps 2–3 of both AMS algorithms: ``Y_j`` is the mean
    of group j and the returned estimate is ``median(Y_1..Y_s2)``.
    """
    arr = np.asarray(basic, dtype=np.float64)
    if arr.ndim == 1:
        if s1 is None or s2 is None:
            raise ValueError("flat input requires explicit s1 and s2")
        if s1 < 1 or s2 < 1:
            raise ValueError(f"s1 and s2 must be >= 1, got s1={s1}, s2={s2}")
        if arr.size != s1 * s2:
            raise ValueError(
                f"flat input has {arr.size} estimators, expected s1*s2 = {s1 * s2}"
            )
        arr = arr.reshape(s2, s1)
    elif arr.ndim == 2:
        if s2 is not None and arr.shape[0] != s2:
            raise ValueError(f"array has {arr.shape[0]} groups, s2 says {s2}")
        if s1 is not None and arr.shape[1] != s1:
            raise ValueError(f"array groups have {arr.shape[1]} members, s1 says {s1}")
    else:
        raise ValueError(f"basic estimators must be 1-D or 2-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise ValueError("cannot combine zero basic estimators")
    group_means = arr.mean(axis=1)
    # The middle of the sorted means, bit for bit what np.median
    # answers at a tenth of its cost on s2 = 5.  np.median averages the
    # middle one or two with np.mean, whose sum starts at 0.0: hence
    # the 0.0 + below, which turns a -0.0 mean into 0.0 as it does.
    ordered = np.sort(group_means)
    if ordered[-1] != ordered[-1]:
        # A NaN sorts last.  Which NaN np.median returns depends on its
        # partition, so it answers this case itself.
        return float(np.median(group_means))
    mid = ordered.size // 2
    if ordered.size % 2:
        return 0.0 + float(ordered[mid])
    return (0.0 + float(ordered[mid - 1]) + float(ordered[mid])) / 2


def split_parameters(s: int) -> tuple[int, int]:
    """Choose a default ``(s1, s2)`` split for a total budget of s words.

    The paper plots accuracy against the total sample size s; for the
    experimental sweeps we follow the convention of spending most of
    the budget on accuracy (s1) while keeping a small constant number
    of median groups for confidence.  We use s2 = min(s, 5) — an odd
    number so the median is an actual sample point — and s1 = s // s2,
    falling back to s2 = 1 while s < 5 so tiny budgets are all
    accuracy.  ``s1 * s2 <= s`` always holds.
    """
    if s < 1:
        raise ValueError(f"total budget s must be >= 1, got {s}")
    if s < 5:
        return s, 1
    s2 = 5
    s1 = s // s2
    return s1, s2


def group_shape_for(s1: int, s2: int) -> tuple[int, int]:
    """Validate an explicit (s1, s2) pair and return it.

    Raises ``ValueError`` on non-positive entries; used by the sketch
    constructors so error messages are uniform.
    """
    s1 = int(s1)
    s2 = int(s2)
    if s1 < 1:
        raise ValueError(f"s1 (accuracy groups size) must be >= 1, got {s1}")
    if s2 < 1:
        raise ValueError(f"s2 (confidence groups) must be >= 1, got {s2}")
    return s1, s2


def theoretical_relative_error(s1: int) -> float:
    """The Theorem 2.2 tug-of-war error bound ``4 / sqrt(s1)``.

    With probability at least ``1 - 2^(-s2/2)`` the tug-of-war estimate
    is within this relative error of SJ(R), for any input.
    """
    if s1 < 1:
        raise ValueError(f"s1 must be >= 1, got {s1}")
    return 4.0 / math.sqrt(s1)


def theoretical_confidence(s2: int) -> float:
    """The Theorem 2.1/2.2 success probability ``1 - 2^(-s2/2)``."""
    if s2 < 1:
        raise ValueError(f"s2 must be >= 1, got {s2}")
    return 1.0 - 2.0 ** (-s2 / 2.0)


__all__ += ["theoretical_relative_error", "theoretical_confidence"]
