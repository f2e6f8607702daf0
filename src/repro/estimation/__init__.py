"""Online distribution-parameter estimation (paper §4.2).

Three estimators over the earliest ``r`` of ``k`` arrivals: Cedar's
order-statistic method, the biased empirical baseline, and the exact
censored MLE reference, plus a streaming facade that keeps each
estimator's running fit (:class:`Accumulator`) per aggregator.
"""

from .base import Accumulator, Estimator, ParameterEstimate, validate_arrivals
from .empirical import EmpiricalEstimator
from .mle import CensoredMLEEstimator
from .conservative import ConservativeEstimator
from .online import StreamingEstimator
from .order_statistic import OrderStatisticEstimator
from .tracker import DistributionTracker

__all__ = [
    "Accumulator",
    "ConservativeEstimator",
    "Estimator",
    "ParameterEstimate",
    "validate_arrivals",
    "OrderStatisticEstimator",
    "EmpiricalEstimator",
    "CensoredMLEEstimator",
    "StreamingEstimator",
    "DistributionTracker",
]
