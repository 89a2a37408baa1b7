"""Tests for the Newton-ADMM extensions: over-relaxation, residual-based
stopping, and the decreasing CG-tolerance (inexactness) schedule."""

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.harness.runner import reference_optimum


@pytest.fixture(scope="module")
def dataset():
    return make_multiclass_gaussian(
        n_samples=320,
        n_features=10,
        n_classes=3,
        class_separation=3.0,
        random_state=0,
        name="admm-ext",
    )


@pytest.fixture(scope="module")
def f_star(dataset):
    _, value = reference_optimum(dataset, 1e-3, max_iterations=100, cg_max_iter=100)
    return value


def make_cluster(dataset, n_workers=4):
    return SimulatedCluster(dataset, n_workers, random_state=0)


class TestOverRelaxation:
    def test_alpha_one_reproduces_default(self, dataset):
        plain = NewtonADMM(lam=1e-3, max_epochs=5, record_accuracy=False).fit(
            make_cluster(dataset)
        )
        explicit = NewtonADMM(
            lam=1e-3, max_epochs=5, over_relaxation=1.0, record_accuracy=False
        ).fit(make_cluster(dataset))
        np.testing.assert_allclose(plain.final_w, explicit.final_w)

    def test_over_relaxed_run_still_converges(self, dataset, f_star):
        trace = NewtonADMM(
            lam=1e-3, max_epochs=40, over_relaxation=1.6, record_accuracy=False
        ).fit(make_cluster(dataset))
        assert trace.final.objective <= f_star * 1.05 + 1e-6

    def test_over_relaxation_changes_iterates(self, dataset):
        plain = NewtonADMM(lam=1e-3, max_epochs=5, record_accuracy=False).fit(
            make_cluster(dataset)
        )
        relaxed = NewtonADMM(
            lam=1e-3, max_epochs=5, over_relaxation=1.7, record_accuracy=False
        ).fit(make_cluster(dataset))
        assert not np.allclose(plain.final_w, relaxed.final_w)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            NewtonADMM(over_relaxation=0.9)
        with pytest.raises(ValueError):
            NewtonADMM(over_relaxation=2.0)


class TestResidualStopping:
    def test_stops_before_max_epochs_on_loose_tolerance(self, dataset):
        trace = NewtonADMM(
            lam=1e-3,
            max_epochs=200,
            stop_abs_tol=1e-2,
            stop_rel_tol=1e-1,
            record_accuracy=False,
        ).fit(make_cluster(dataset))
        assert trace.final.epoch < 200

    def test_tight_tolerance_runs_longer_than_loose(self, dataset):
        loose = NewtonADMM(
            lam=1e-3,
            max_epochs=100,
            stop_abs_tol=1e-2,
            stop_rel_tol=1e-1,
            record_accuracy=False,
        ).fit(make_cluster(dataset))
        tight = NewtonADMM(
            lam=1e-3,
            max_epochs=100,
            stop_abs_tol=1e-6,
            stop_rel_tol=1e-5,
            record_accuracy=False,
        ).fit(make_cluster(dataset))
        assert tight.final.epoch >= loose.final.epoch

    def test_disabled_by_default(self, dataset):
        trace = NewtonADMM(lam=1e-3, max_epochs=12, record_accuracy=False).fit(
            make_cluster(dataset)
        )
        assert trace.final.epoch == 12

    def test_early_stop_records_final_epoch(self, dataset):
        trace = NewtonADMM(
            lam=1e-3,
            max_epochs=200,
            evaluate_every=5,
            stop_abs_tol=1e-2,
            stop_rel_tol=1e-1,
            record_accuracy=False,
        ).fit(make_cluster(dataset))
        # The stopping epoch is recorded even when it is not a multiple of
        # evaluate_every.
        assert trace.records
        assert trace.final.extras["primal_residual"] >= 0

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError):
            NewtonADMM(stop_abs_tol=-1.0)
        with pytest.raises(ValueError):
            NewtonADMM(stop_rel_tol=-1.0)


class TestHyperparameters:
    def test_hyperparameters_serialized(self):
        solver = NewtonADMM(over_relaxation=1.5, stop_abs_tol=1e-4)
        params = solver.hyperparameters()
        assert params["over_relaxation"] == 1.5
        assert params["stop_abs_tol"] == 1e-4
