"""Objective functions (finite-sum losses) and regularizers.

Every objective exposes value / gradient / Hessian-vector-product evaluation;
dense Hessians are only formed by :meth:`Objective.hessian` for small problems
(used in tests to validate the Hessian-free path).
"""

from repro.objectives.base import (
    Objective,
    RegularizedObjective,
    ScaledObjective,
    ProximallyAugmentedObjective,
    LinearlyPerturbedObjective,
)
from repro.objectives.numerics import log_sum_exp, softmax_probabilities
from repro.objectives.regularizers import (
    ElasticNetRegularizer,
    L2Regularizer,
    SmoothedL1Regularizer,
    ZeroRegularizer,
)
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.objectives.logistic import BinaryLogistic

__all__ = [
    "Objective",
    "RegularizedObjective",
    "ScaledObjective",
    "ProximallyAugmentedObjective",
    "LinearlyPerturbedObjective",
    "log_sum_exp",
    "softmax_probabilities",
    "L2Regularizer",
    "SmoothedL1Regularizer",
    "ElasticNetRegularizer",
    "ZeroRegularizer",
    "SoftmaxCrossEntropy",
    "BinaryLogistic",
]
