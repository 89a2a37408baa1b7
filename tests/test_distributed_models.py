"""Tests for the device and network cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.device import DeviceModel, cpu_xeon_gold, tesla_p100
from repro.distributed.network import (
    NetworkModel,
    ethernet_10g,
    infiniband_100g,
    wan_slow,
)


class TestDeviceModel:
    def test_zero_work_zero_time(self):
        assert tesla_p100().compute_time(0.0) == 0.0

    def test_time_increases_with_flops(self):
        dev = tesla_p100()
        assert dev.compute_time(1e12) > dev.compute_time(1e9) > 0.0

    def test_roofline_memory_bound(self):
        dev = DeviceModel("d", peak_flops=1e12, memory_bandwidth=1e9, efficiency=1.0,
                          kernel_overhead=0.0)
        # 1 GFLOP but 10 GB moved: memory dominates.
        t = dev.compute_time(1e9, bytes_moved=1e10)
        assert t == pytest.approx(10.0)

    def test_overhead_charged(self):
        dev = DeviceModel("d", peak_flops=1e15, memory_bandwidth=1e15,
                          efficiency=1.0, kernel_overhead=1e-3)
        assert dev.compute_time(1.0) >= 1e-3

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            tesla_p100().compute_time(-1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DeviceModel("d", peak_flops=0.0, memory_bandwidth=1.0)

    def test_p100_faster_than_cpu(self):
        flops = 1e12
        assert tesla_p100().compute_time(flops) < cpu_xeon_gold().compute_time(flops)

    def test_sustained_flops(self):
        dev = tesla_p100()
        assert dev.sustained_flops() == pytest.approx(dev.peak_flops * dev.efficiency)

    @settings(max_examples=30, deadline=None)
    @given(flops=st.floats(0, 1e15), extra=st.floats(0, 1e12))
    def test_property_monotone(self, flops, extra):
        dev = tesla_p100()
        assert dev.compute_time(flops + extra) >= dev.compute_time(flops)


class TestNetworkModel:
    def test_point_to_point(self):
        net = NetworkModel("n", latency=1e-3, bandwidth=1e9)
        assert net.point_to_point(1e9) == pytest.approx(1e-3 + 1.0)

    def test_single_worker_collectives_free(self):
        net = infiniband_100g()
        assert net.gather(1, 1e6) == 0.0
        assert net.scatter(1, 1e6) == 0.0
        assert net.broadcast(1, 1e6) == 0.0
        assert net.allgather(1, 1e6) == 0.0

    def test_collectives_grow_logarithmically(self):
        net = NetworkModel("n", latency=1e-3, bandwidth=1e12)
        # latency-dominated: broadcast cost ~ ceil(log2(N)) * latency
        t2 = net.broadcast(2, 8.0)
        t8 = net.broadcast(8, 8.0)
        t64 = net.broadcast(64, 8.0)
        assert t8 == pytest.approx(3 * t2, rel=1e-6)
        assert t64 == pytest.approx(6 * t2, rel=1e-6)

    def test_allreduce_costs_reduce_plus_broadcast(self):
        net = ethernet_10g()
        assert net.allreduce(8, 1e6) == pytest.approx(
            net.reduce(8, 1e6) + net.broadcast(8, 1e6)
        )

    def test_gather_monotone_in_size(self):
        net = infiniband_100g()
        assert net.gather(8, 1e7) > net.gather(8, 1e6)

    def test_allgather_ring(self):
        net = NetworkModel("n", latency=0.0, bandwidth=1e6)
        assert net.allgather(5, 1e6) == pytest.approx(4.0)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            infiniband_100g().gather(0, 8.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            infiniband_100g().point_to_point(-1.0)

    def test_presets_ordering(self):
        # Same collective is cheapest on InfiniBand and most expensive on WAN.
        nbytes = 1e6
        ib = infiniband_100g().allreduce(8, nbytes)
        eth = ethernet_10g().allreduce(8, nbytes)
        wan = wan_slow().allreduce(8, nbytes)
        assert ib < eth < wan

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 64), nbytes=st.floats(0, 1e9))
    def test_property_nonnegative(self, n, nbytes):
        net = ethernet_10g()
        assert net.gather(n, nbytes) >= 0.0
        assert net.broadcast(n, nbytes) >= 0.0
        assert net.allreduce(n, nbytes) >= 0.0


class TestCollectiveCostInvariants:
    """Structural invariants of the collective cost model.

    The claims the docstrings make — tree symmetry, reduce+broadcast
    composition, monotonicity, free single-worker degenerate case — are
    pinned here directly rather than assumed.
    """

    _NETS = (infiniband_100g, ethernet_10g, wan_slow)
    _COLLECTIVES = ("gather", "scatter", "broadcast", "reduce", "allreduce",
                    "allgather")

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 128), extra=st.integers(1, 64),
           nbytes=st.floats(1.0, 1e9))
    def test_monotone_in_worker_count(self, n, extra, nbytes):
        net = ethernet_10g()
        for op in self._COLLECTIVES:
            fn = getattr(net, op)
            assert fn(n + extra, nbytes) >= fn(n, nbytes), op

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 128), nbytes=st.floats(0.0, 1e9),
           extra=st.floats(1.0, 1e9))
    def test_monotone_in_bytes(self, n, nbytes, extra):
        net = wan_slow()
        for op in self._COLLECTIVES:
            fn = getattr(net, op)
            assert fn(n, nbytes + extra) >= fn(n, nbytes), op

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 256), nbytes=st.floats(0.0, 1e9))
    def test_scatter_equals_gather_symmetry(self, n, nbytes):
        # The documented claim: under the binomial-tree schedule the scatter
        # is the time-reversed gather, so their modelled costs coincide.
        for make in self._NETS:
            net = make()
            assert net.scatter(n, nbytes) == net.gather(n, nbytes)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 256), nbytes=st.floats(0.0, 1e9))
    def test_allreduce_is_reduce_plus_broadcast(self, n, nbytes):
        for make in self._NETS:
            net = make()
            assert net.allreduce(n, nbytes) == pytest.approx(
                net.reduce(n, nbytes) + net.broadcast(n, nbytes)
            )

    def test_single_worker_degenerate_costs_are_zero(self):
        # A one-worker "cluster" never touches the wire: every collective is
        # free, whatever the interconnect.
        for make in self._NETS:
            net = make()
            for op in self._COLLECTIVES:
                assert getattr(net, op)(1, 1e8) == 0.0, op
