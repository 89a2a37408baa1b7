"""Tests for the distributed baselines (GIANT, InexactDANE, AIDE, synchronous
SGD) and the shared distributed-solver machinery."""

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.aide import AIDE
from repro.baselines.dane import InexactDANE
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.distributed.cluster import SimulatedCluster
from repro.harness.runner import reference_optimum


@pytest.fixture(scope="module")
def split(small_multiclass_split):
    return small_multiclass_split


@pytest.fixture(scope="module")
def cluster4(split):
    train, _ = split
    return SimulatedCluster(train, 4, random_state=0)


@pytest.fixture(scope="module")
def f_star_small(split):
    train, _ = split
    _, f_star = reference_optimum(train, 1e-3, max_iterations=60, cg_max_iter=80)
    return f_star


class TestGIANT:
    def test_objective_decreases(self, cluster4, split):
        train, test = split
        trace = GIANT(lam=1e-3, max_epochs=10).fit(cluster4, test=test)
        assert trace.final.objective < 0.5 * np.log(train.n_classes)

    def test_converges_near_optimum(self, cluster4, f_star_small):
        trace = GIANT(lam=1e-3, max_epochs=30).fit(cluster4)
        assert trace.best_objective() <= f_star_small + 0.05 * abs(f_star_small) + 1e-3

    def test_three_rounds_per_iteration(self, cluster4):
        epochs = 6
        trace = GIANT(lam=1e-3, max_epochs=epochs).fit(cluster4)
        assert trace.final.comm_rounds == 3 * epochs

    def test_step_size_recorded(self, cluster4):
        trace = GIANT(lam=1e-3, max_epochs=3).fit(cluster4)
        assert 0 < trace.final.extras["step_size"] <= 1.0

    def test_line_search_always_full_grid(self, cluster4):
        trace = GIANT(lam=1e-3, max_epochs=2, line_search_max_iter=7).fit(cluster4)
        assert trace.final.extras["line_search_evaluations"] == 8.0

    def test_single_worker_matches_newton_behaviour(self, split, f_star_small):
        train, _ = split
        cluster = SimulatedCluster(train, 1, random_state=0)
        trace = GIANT(lam=1e-3, max_epochs=20).fit(cluster)
        assert trace.best_objective() <= f_star_small + 0.05 * abs(f_star_small) + 1e-3


class TestInexactDANEAndAIDE:
    def test_dane_objective_decreases(self, cluster4, split):
        train, test = split
        trace = InexactDANE(
            lam=1e-3, max_epochs=2, svrg_step_size=0.2, svrg_outer=3, svrg_max_inner=100
        ).fit(cluster4, test=test)
        assert trace.final.objective < np.log(train.n_classes)

    def test_dane_two_rounds_per_iteration(self, cluster4):
        trace = InexactDANE(
            lam=1e-3, max_epochs=3, svrg_outer=2, svrg_max_inner=50
        ).fit(cluster4)
        assert trace.final.comm_rounds == 6

    def test_dane_epoch_time_exceeds_admm(self, cluster4):
        dane = InexactDANE(
            lam=1e-3, max_epochs=2, svrg_outer=3, svrg_max_inner=200
        ).fit(cluster4)
        admm = NewtonADMM(lam=1e-3, max_epochs=2).fit(cluster4)
        dane_epoch = dane.final.modelled_time / dane.n_epochs
        admm_epoch = admm.final.modelled_time / admm.n_epochs
        assert dane_epoch > admm_epoch

    def test_aide_runs_and_decreases(self, cluster4, split):
        train, test = split
        trace = AIDE(
            lam=1e-3, max_epochs=2, tau=1.0, svrg_outer=3, svrg_step_size=0.2,
            svrg_max_inner=100,
        ).fit(cluster4, test=test)
        assert trace.final.objective < np.log(train.n_classes)
        assert "momentum" in trace.final.extras

    def test_aide_momentum_formula(self):
        aide = AIDE(lam=1e-2, tau=1e-2)
        q = 1e-2 / 2e-2
        expected = (1 - np.sqrt(q)) / (1 + np.sqrt(q))
        assert aide._momentum() == pytest.approx(expected)

    def test_aide_zero_tau_no_momentum(self):
        assert AIDE(lam=1e-3, tau=0.0)._momentum() == 0.0

    def test_dane_invalid_mu_rejected(self):
        with pytest.raises(ValueError):
            InexactDANE(mu=-1.0)


class TestSynchronousSGD:
    def test_objective_decreases(self, cluster4, split):
        train, test = split
        trace = SynchronousSGD(
            lam=1e-3, max_epochs=10, step_size=0.5, batch_size=32, random_state=0
        ).fit(cluster4, test=test)
        assert trace.final.objective < np.log(train.n_classes)

    def test_many_rounds_per_epoch(self, cluster4):
        trace = SynchronousSGD(
            lam=1e-3, max_epochs=2, step_size=0.1, batch_size=16, random_state=0
        ).fit(cluster4)
        steps = trace.final.extras["steps"]
        assert steps > 1
        assert trace.final.comm_rounds == pytest.approx(2 * steps)

    def test_steps_per_epoch_override(self, cluster4):
        trace = SynchronousSGD(
            lam=1e-3, max_epochs=2, step_size=0.1, steps_per_epoch=3, random_state=0
        ).fit(cluster4)
        assert trace.final.extras["steps"] == 3.0

    def test_momentum_accepted(self, cluster4):
        trace = SynchronousSGD(
            lam=1e-3, max_epochs=2, step_size=0.1, momentum=0.9, random_state=0
        ).fit(cluster4)
        assert np.isfinite(trace.final.objective)

    def test_newton_admm_faster_to_target_than_sgd(self, cluster4):
        # The Figure-4 claim, at test scale: ADMM reaches SGD's final
        # objective in less modelled time than SGD needed.
        sgd = SynchronousSGD(
            lam=1e-3, max_epochs=8, step_size=0.5, batch_size=32, random_state=0
        ).fit(cluster4)
        admm = NewtonADMM(lam=1e-3, max_epochs=15).fit(cluster4)
        from repro.metrics.traces import time_to_objective

        t_admm = time_to_objective(admm, sgd.final.objective)
        assert t_admm < sgd.total_time()

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SynchronousSGD(step_size=0.0)
        with pytest.raises(ValueError):
            SynchronousSGD(batch_size=0)
        with pytest.raises(ValueError):
            SynchronousSGD(momentum=1.5)


class TestSolverBaseBehaviour:
    def test_hyperparameters_serializable(self):
        solver = GIANT(lam=1e-3, max_epochs=5)
        params = solver.hyperparameters()
        assert params["lam"] == 1e-3
        assert params["max_epochs"] == 5

    def test_trace_info_contains_provenance(self, cluster4, split):
        _, test = split
        trace = GIANT(lam=1e-3, max_epochs=2).fit(cluster4, test=test)
        assert trace.info["cluster"]["n_workers"] == 4
        assert "communication" in trace.info
        assert trace.info["communication"]["rounds"] == trace.final.comm_rounds

    def test_record_accuracy_can_be_disabled(self, cluster4):
        trace = GIANT(lam=1e-3, max_epochs=2, record_accuracy=False).fit(cluster4)
        assert np.isnan(trace.final.train_accuracy)

    def test_invalid_base_params_rejected(self):
        with pytest.raises(ValueError):
            GIANT(max_epochs=0)
        with pytest.raises(ValueError):
            GIANT(evaluate_every=0)
        with pytest.raises(ValueError):
            GIANT(lam=-0.1)
