"""Tests for SVRG, the first-order single-node solver InexactDANE runs locally."""

import numpy as np
import pytest

from repro.objectives.base import RegularizedObjective
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.svrg import SVRG


@pytest.fixture(scope="module")
def objective():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 8))
    w_true = rng.standard_normal((8, 2))
    logits = X @ w_true
    y = np.argmax(np.hstack([logits, np.zeros((200, 1))]), axis=1)
    loss = SoftmaxCrossEntropy(X, y, 3)
    return RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-3))


class TestSVRG:
    def test_decreases_objective(self, objective):
        res = SVRG(
            step_size=0.05, n_outer=5, inner_per_sample=0.5, batch_size=8,
            random_state=0,
        ).minimize(objective)
        assert res.objective < np.log(3)

    def test_records_per_outer_iteration(self, objective):
        res = SVRG(step_size=0.05, n_outer=4, max_inner=50, random_state=0).minimize(
            objective
        )
        assert len(res.records) == 4

    def test_inner_iteration_cap(self, objective):
        res = SVRG(
            step_size=0.05, n_outer=1, inner_per_sample=100.0, max_inner=20,
            random_state=0,
        ).minimize(objective)
        assert res.info["inner_iterations"] == 20

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SVRG(step_size=-0.1)
        with pytest.raises(ValueError):
            SVRG(n_outer=0)
        with pytest.raises(ValueError):
            SVRG(inner_per_sample=0.0)
