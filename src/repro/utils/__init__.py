"""Shared low-level utilities used throughout the Newton-ADMM reproduction.

This package deliberately has no dependencies on the rest of :mod:`repro`,
so that every other subpackage may import it freely.
"""

from repro.utils.rng import check_random_state
from repro.utils.timer import Stopwatch, SimulatedClock
from repro.utils.validation import (
    check_array,
    check_labels,
    check_positive,
    check_probability,
    check_in_range,
)
from repro.utils.flops import (
    gemv_flops,
    gemm_flops,
    axpy_flops,
    dot_flops,
    softmax_objective_flops,
    softmax_gradient_flops,
    softmax_hvp_flops,
)

__all__ = [
    "check_random_state",
    "Stopwatch",
    "SimulatedClock",
    "check_array",
    "check_labels",
    "check_positive",
    "check_probability",
    "check_in_range",
    "gemv_flops",
    "gemm_flops",
    "axpy_flops",
    "dot_flops",
    "softmax_objective_flops",
    "softmax_gradient_flops",
    "softmax_hvp_flops",
]
