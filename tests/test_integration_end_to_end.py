"""End-to-end and cross-cutting integration tests.

These pin down the paper-level behaviours the reproduction is built around:
communication-round structure, epoch-time scaling shape, the Newton-ADMM vs.
first/second-order comparisons, and the public package API.
"""

import numpy as np
import pytest

import repro
from repro import (
    GIANT,
    NewtonADMM,
    SimulatedCluster,
    SynchronousSGD,
    load_dataset,
)
from repro.distributed.network import ethernet_10g, wan_slow
from repro.harness.runner import reference_optimum
from repro.metrics.traces import average_epoch_time, time_to_relative_objective


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet_runs(self):
        train, test = load_dataset("mnist_like", n_train=400, n_test=100)
        cluster = SimulatedCluster(train, n_workers=2, random_state=0)
        trace = NewtonADMM(lam=1e-5, max_epochs=5).fit(cluster, test=test)
        assert np.isfinite(trace.final.objective)
        assert 0.0 <= trace.final.test_accuracy <= 1.0


@pytest.fixture(scope="module")
def mnist_small():
    return load_dataset("mnist_like", n_train=1200, n_test=300, random_state=0)


@pytest.mark.slow
class TestCommunicationStructure:
    """Remark 1 and the GIANT comparison: rounds per iteration."""

    def test_rounds_admm_vs_giant_vs_sgd(self, mnist_small):
        train, test = mnist_small
        cluster = SimulatedCluster(train, 4, random_state=0)
        epochs = 4
        admm = NewtonADMM(lam=1e-5, max_epochs=epochs).fit(cluster)
        giant = GIANT(lam=1e-5, max_epochs=epochs).fit(cluster)
        sgd = SynchronousSGD(
            lam=1e-5, max_epochs=epochs, step_size=0.1, batch_size=64, random_state=0
        ).fit(cluster)
        assert admm.final.comm_rounds == epochs
        assert giant.final.comm_rounds == 3 * epochs
        assert sgd.final.comm_rounds > giant.final.comm_rounds

    def test_slow_network_hurts_giant_more_than_admm(self, mnist_small):
        """The paper: extra rounds matter more on slower interconnects."""
        train, _ = mnist_small
        epochs = 4

        def comm_time(network, solver_cls, **kwargs):
            cluster = SimulatedCluster(train, 4, network=network, random_state=0)
            trace = solver_cls(lam=1e-5, max_epochs=epochs, **kwargs).fit(cluster)
            return trace.final.comm_time

        admm_eth, giant_eth = (
            comm_time(ethernet_10g(), NewtonADMM),
            comm_time(ethernet_10g(), GIANT),
        )
        admm_wan, giant_wan = (
            comm_time(wan_slow(), NewtonADMM),
            comm_time(wan_slow(), GIANT),
        )
        assert giant_eth > admm_eth
        assert giant_wan > admm_wan
        # The absolute gap grows as the network slows down.
        assert (giant_wan - admm_wan) > (giant_eth - admm_eth)


@pytest.mark.slow
class TestScalingShape:
    """Figure 2's shape: strong scaling reduces epoch time, weak keeps it flat."""

    def test_strong_scaling_reduces_epoch_time(self):
        # Use the MNIST-like workload: it is compute-heavy enough that the
        # modelled epoch time is dominated by FLOPs rather than fixed
        # per-round overheads, which is the regime the paper's Figure 2 shows.
        train, _ = load_dataset("mnist_like", n_train=3000, n_test=200, random_state=0)
        times = {}
        for n_workers in (1, 4):
            cluster = SimulatedCluster(train, n_workers, random_state=0)
            trace = NewtonADMM(lam=1e-5, max_epochs=3, record_accuracy=False).fit(cluster)
            times[n_workers] = average_epoch_time(trace)
        assert times[4] < times[1]
        # Ideal halving would give 4x; allow generous slack for overheads.
        assert times[1] / times[4] > 1.8

    def test_weak_scaling_epoch_time_roughly_constant(self):
        per_worker = 750
        times = {}
        for n_workers in (1, 4):
            train, _ = load_dataset(
                "mnist_like", n_train=per_worker * n_workers, n_test=200, random_state=0
            )
            cluster = SimulatedCluster(train, n_workers, random_state=0)
            trace = NewtonADMM(lam=1e-5, max_epochs=3, record_accuracy=False).fit(cluster)
            times[n_workers] = average_epoch_time(trace)
        ratio = times[4] / times[1]
        assert 0.5 < ratio < 2.0


@pytest.mark.slow
class TestHeadlineComparisons:
    def test_admm_beats_sgd_in_time_to_objective(self, mnist_small):
        """Figure 4's shape: Newton-ADMM reaches SGD's final objective sooner."""
        train, test = mnist_small
        cluster = SimulatedCluster(train, 4, random_state=0)
        sgd = SynchronousSGD(
            lam=1e-5, max_epochs=10, step_size=0.1, batch_size=128, random_state=0
        ).fit(cluster, test=test)
        admm = NewtonADMM(lam=1e-5, max_epochs=15).fit(cluster, test=test)
        from repro.metrics.traces import time_to_objective

        t = time_to_objective(admm, sgd.final.objective)
        assert t < sgd.total_time()
        assert admm.final.test_accuracy >= sgd.final.test_accuracy - 0.05

    def test_admm_competitive_with_giant_time_to_theta(self, mnist_small):
        """Figure 3's shape: speed-up ratio of ADMM over GIANT is >= ~1."""
        train, _ = mnist_small
        lam = 1e-4
        _, f_star = reference_optimum(train, lam, max_iterations=60, cg_max_iter=80)
        cluster = SimulatedCluster(train, 4, random_state=0)
        admm = NewtonADMM(lam=lam, max_epochs=40).fit(cluster)
        giant = GIANT(lam=lam, max_epochs=40).fit(cluster)
        t_admm = time_to_relative_objective(admm, f_star, theta=0.05)
        t_giant = time_to_relative_objective(giant, f_star, theta=0.05)
        assert np.isfinite(t_admm)
        # Newton-ADMM should not be dramatically slower; typically faster.
        if np.isfinite(t_giant):
            assert t_admm <= 2.0 * t_giant

    def test_both_second_order_methods_reach_same_quality(self, mnist_small):
        train, test = mnist_small
        cluster = SimulatedCluster(train, 4, random_state=0)
        admm = NewtonADMM(lam=1e-4, max_epochs=30).fit(cluster, test=test)
        giant = GIANT(lam=1e-4, max_epochs=30).fit(cluster, test=test)
        assert abs(admm.final.test_accuracy - giant.final.test_accuracy) < 0.1


@pytest.mark.slow
class TestSparseHighDimensionalPath:
    def test_e18_like_hessian_free_run(self):
        train, test = load_dataset("e18_like", n_train=400, n_test=100, random_state=0)
        cluster = SimulatedCluster(train, 4, random_state=0)
        trace = NewtonADMM(lam=1e-3, max_epochs=8).fit(cluster, test=test)
        assert np.isfinite(trace.final.objective)
        assert trace.final.objective < np.log(train.n_classes)
        assert trace.final.test_accuracy > 1.0 / train.n_classes
