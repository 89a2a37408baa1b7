"""Tests for the communicator, workers and the simulated cluster."""

import numpy as np
import pytest

from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.comm import Communicator
from repro.distributed.device import tesla_p100
from repro.distributed.engine import EventEngine
from repro.distributed.network import ethernet_10g, infiniband_100g
from repro.distributed.worker import Worker
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.base import CountingObjective


@pytest.fixture()
def comm():
    return Communicator(4, infiniband_100g(), EventEngine(4))


class TestCommunicator:
    def test_allreduce_sums(self, comm):
        buffers = [np.full(3, float(i)) for i in range(4)]
        out = comm.allreduce(buffers)
        np.testing.assert_allclose(out, [6.0, 6.0, 6.0])

    def test_gather_returns_copies(self, comm):
        buffers = [np.arange(3, dtype=float) + i for i in range(4)]
        gathered = comm.gather(buffers)
        gathered[0][0] = 999.0
        assert buffers[0][0] == 0.0

    def test_broadcast_replicates(self, comm):
        out = comm.broadcast(np.array([1.0, 2.0]))
        assert len(out) == 4
        for b in out:
            np.testing.assert_allclose(b, [1.0, 2.0])

    def test_scatter_shapes(self, comm):
        out = comm.scatter([np.full(2, i, dtype=float) for i in range(4)])
        np.testing.assert_allclose(out[2], [2.0, 2.0])

    def test_allgather(self, comm):
        out = comm.allgather([np.array([float(i)]) for i in range(4)])
        assert [b[0] for b in out] == [0.0, 1.0, 2.0, 3.0]

    def test_reduce_scalar(self, comm):
        assert comm.reduce_scalar([1.0, 2.0, 3.0, 4.0]) == 10.0

    def test_round_counting_and_joint_rounds(self, comm):
        buffers = [np.ones(2) for _ in range(4)]
        comm.gather(buffers)
        comm.broadcast(np.ones(2), joint_with_previous=True)
        assert comm.rounds == 1
        assert comm.log.n_collectives == 2
        comm.allreduce(buffers)
        assert comm.rounds == 2

    def test_clock_advanced(self, comm):
        before = comm.clock.time
        comm.allreduce([np.ones(1000) for _ in range(4)])
        assert comm.clock.time > before
        assert comm.clock.category("communication") > 0

    def test_bytes_accounted(self, comm):
        comm.allreduce([np.ones(100) for _ in range(4)])
        assert comm.log.bytes_transferred == pytest.approx(100 * 8 * 4)

    def test_wrong_buffer_count_rejected(self, comm):
        with pytest.raises(ValueError):
            comm.gather([np.ones(2)] * 3)

    def test_allreduce_shape_mismatch_rejected(self, comm):
        with pytest.raises(ValueError):
            comm.allreduce([np.ones(2), np.ones(3), np.ones(2), np.ones(2)])

    def test_reset_log(self, comm):
        comm.broadcast(np.ones(2))
        comm.reset_log()
        assert comm.rounds == 0
        assert comm.log.bytes_transferred == 0.0

    def test_slower_network_costs_more_time(self):
        fast = Communicator(8, infiniband_100g(), EventEngine(8))
        slow = Communicator(8, ethernet_10g(), EventEngine(8))
        payload = [np.ones(10000) for _ in range(8)]
        fast.allreduce(payload)
        slow.allreduce(payload)
        assert slow.clock.time > fast.clock.time


@pytest.fixture()
def dataset():
    return make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0)


class TestWorker:
    def test_counting_wrapper_applied(self, dataset):
        loss = SoftmaxCrossEntropy(dataset.X, dataset.y, 3, scale=1.0 / 240)
        worker = Worker(0, dataset, loss, tesla_p100())
        assert isinstance(worker.objective, CountingObjective)
        assert worker.n_local_samples == 240
        assert worker.dim == loss.dim

    def test_flop_marking_and_modelled_time(self, dataset):
        loss = SoftmaxCrossEntropy(dataset.X, dataset.y, 3, scale=1.0 / 240)
        worker = Worker(1, dataset, loss, tesla_p100())
        worker.mark_flops()
        worker.objective.gradient(np.zeros(worker.dim))
        assert worker.flops_since_mark() > 0
        assert worker.modelled_compute_time() > 0

    def test_state_vectors(self, dataset):
        loss = SoftmaxCrossEntropy(dataset.X, dataset.y, 3)
        worker = Worker(0, dataset, loss, tesla_p100())
        worker.set_vector("x", np.ones(3))
        np.testing.assert_allclose(worker.get_vector("x"), 1.0)
        with pytest.raises(KeyError):
            worker.get_vector("missing")

    def test_negative_id_rejected(self, dataset):
        loss = SoftmaxCrossEntropy(dataset.X, dataset.y, 3)
        with pytest.raises(ValueError):
            Worker(-1, dataset, loss, tesla_p100())


class TestSimulatedCluster:
    def test_construction_and_shapes(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        assert cluster.n_workers == 4
        assert cluster.n_total == 240
        assert sum(cluster.worker_sizes()) == 240
        assert cluster.dim == 2 * 10

    def test_local_losses_sum_to_global_mean(self, dataset):
        cluster = SimulatedCluster(dataset, 3, random_state=0)
        w = np.random.default_rng(1).standard_normal(cluster.dim) * 0.2
        local_sum = sum(wk.objective.value(w) for wk in cluster.workers)
        global_loss = cluster.global_loss().value(w)
        np.testing.assert_allclose(local_sum, global_loss, rtol=1e-10)

    def test_local_gradients_sum_to_global(self, dataset):
        # fp64 storage: the scaling convention holds to rounding only when
        # both sides sum float64 products (float32 shards reassociate ~1e-7).
        cluster = SimulatedCluster(dataset, 4, random_state=0, precision="fp64")
        w = np.random.default_rng(2).standard_normal(cluster.dim) * 0.2
        total = sum(wk.objective.gradient(w) for wk in cluster.workers)
        np.testing.assert_allclose(total, cluster.global_loss().gradient(w), atol=1e-12)

    def test_global_objective_includes_regularizer(self, dataset):
        cluster = SimulatedCluster(dataset, 2, random_state=0)
        obj = cluster.global_objective(0.5)
        w = np.ones(cluster.dim)
        expected = cluster.global_loss().value(w) + 0.25 * cluster.dim
        np.testing.assert_allclose(obj.value(w), expected)

    def test_map_workers_advances_clock_by_max(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        w = np.zeros(cluster.dim)
        before = cluster.clock.time
        cluster.map_workers(lambda wk: wk.objective.gradient(w))
        after = cluster.clock.time
        per_worker = [wk.modelled_compute_time() for wk in cluster.workers]
        assert after - before == pytest.approx(max(per_worker))

    def test_reset_accounting(self, dataset):
        cluster = SimulatedCluster(dataset, 2, random_state=0)
        cluster.map_workers(lambda wk: wk.objective.gradient(np.zeros(cluster.dim)))
        cluster.comm.broadcast(np.ones(3))
        cluster.reset_accounting()
        assert cluster.clock.time == 0.0
        assert cluster.comm.rounds == 0
        assert cluster.total_flops() == 0.0

    def test_logistic_loss_option(self):
        ds = make_multiclass_gaussian(100, 5, 2, random_state=1)
        cluster = SimulatedCluster(ds, 2, loss="logistic", random_state=0)
        assert cluster.dim == 5

    def test_custom_loss_factory(self, dataset):
        def factory(shard, n_total):
            return SoftmaxCrossEntropy(shard.X, shard.y, 3, scale=1.0 / n_total)

        cluster = SimulatedCluster(dataset, 2, loss=factory, random_state=0)
        assert cluster.dim == 20

    def test_invalid_options_rejected(self, dataset):
        with pytest.raises(ValueError):
            SimulatedCluster(dataset, 0)
        with pytest.raises(ValueError):
            SimulatedCluster(dataset, 2, loss="hinge")

    def test_describe(self, dataset):
        info = SimulatedCluster(dataset, 2, random_state=0).describe()
        assert info["n_workers"] == 2
        assert info["device"] == "tesla_p100"
