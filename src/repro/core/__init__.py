"""Core algorithms: the paper's primary contribution.

Self-join trackers (Section 2): :class:`TugOfWarSketch`,
:class:`SampleCountSketch` (+ fast-query variant), and the
:class:`NaiveSamplingEstimator` baseline, all over the exact
:class:`FrequencyVector` ground truth.  Join signatures (Section 4):
a k-TW signature is a :class:`TugOfWarSketch` with ``s2 = 1``, and
:class:`SampleJoinSignature` is the t_cross scheme.  Analytic bounds
live in :mod:`repro.core.bounds`.
"""

from . import bounds
from .estimators import (
    mean_estimate,
    median_estimate,
    median_of_means,
    split_parameters,
    theoretical_confidence,
    theoretical_relative_error,
)
from .distinct import DistinctCountSketch
from .fkmoments import FkMomentSketch
from .frequency import (
    FrequencyVector,
    distinct_values,
    first_moment,
    join_size,
    self_join_size,
)
from .hashing import MERSENNE_PRIME_31, PolynomialHashFamily, SignHashFamily
from .join import SampleJoinSignature, sample_join_estimate
from .moments import (
    FrequencyMomentTracker,
    UnsupportedMomentError,
    exact_moment,
    fk_estimate_offline,
    fk_sample_size_bound,
)
from .multijoin import MultiJoinFamily, MultiJoinSignature
from .naivesampling import (
    NaiveSamplingEstimator,
    naive_sampling_estimate_offline,
    scale_sample_self_join,
)
from .samplecount import (
    SampleCountFastQuery,
    SampleCountSketch,
    sample_count_estimate_offline,
)
from .tugofwar import TugOfWarSketch

__all__ = [
    "bounds",
    "FrequencyVector",
    "self_join_size",
    "join_size",
    "first_moment",
    "distinct_values",
    "MERSENNE_PRIME_31",
    "PolynomialHashFamily",
    "SignHashFamily",
    "TugOfWarSketch",
    "SampleCountSketch",
    "SampleCountFastQuery",
    "sample_count_estimate_offline",
    "NaiveSamplingEstimator",
    "naive_sampling_estimate_offline",
    "scale_sample_self_join",
    "SampleJoinSignature",
    "sample_join_estimate",
    "MultiJoinFamily",
    "MultiJoinSignature",
    "FrequencyMomentTracker",
    "FkMomentSketch",
    "DistinctCountSketch",
    "UnsupportedMomentError",
    "exact_moment",
    "fk_estimate_offline",
    "fk_sample_size_bound",
    "median_of_means",
    "mean_estimate",
    "median_estimate",
    "split_parameters",
    "theoretical_relative_error",
    "theoretical_confidence",
]
