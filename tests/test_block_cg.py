"""The per-class softmax HVP as an independent reference for ``hvp``.

``SoftmaxCrossEntropy.hvp_per_class`` issues one GEMV per class column; the
production ``hvp`` issues one GEMM over all classes.  The two must agree up
to GEMM reassociation.
"""

from __future__ import annotations

import numpy as np

from repro.objectives.base import RegularizedObjective
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy


def _softmax_objective(n=90, p=7, c=4, seed=0, lam=1e-3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.integers(0, c, size=n)
    y[:c] = np.arange(c)
    loss = SoftmaxCrossEntropy(X, y, c)
    return RegularizedObjective(loss, L2Regularizer(loss.dim, lam))


class TestBatchedHVP:
    def test_per_class_hvp_agrees_with_batched(self):
        obj = _softmax_objective()
        loss = obj.loss
        rng = np.random.default_rng(5)
        w = rng.standard_normal(obj.dim) * 0.1
        v = rng.standard_normal(obj.dim)
        np.testing.assert_allclose(
            loss.hvp_per_class(w, v), loss.hvp(w, v), rtol=1e-10, atol=1e-13
        )
