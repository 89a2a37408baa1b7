"""Micro-batching engine: batched-scoring equivalence (S2) and hot swap.

The load-bearing claims pinned here:

* N requests scored as one stacked batch return, per request, results
  *bit-identical* to scoring each request alone, and bit-identical to
  ``SoftmaxCrossEntropy.predict_proba`` on the NumPy fp64 path.
* A batch of N requests issues exactly **one** forward pass (one ``matmul``
  + one ``fused_lse_probs``), asserted with :class:`TracingBackend`.
* A model hot swap during a stream of requests loses zero requests, and
  every result is exactly the reference output of the version it names —
  never a mixture, never the version read after scoring.
* Batching is natural: whatever is queued forms the next batch (the caps
  split it) and the scoring thread never waits on a timer.
"""

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.backend.numpy_backend import NumpyBackend
from repro.backend.testing import TracingBackend
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.serving.engine import (
    InferenceEngine,
    MicroBatcher,
    score_probabilities,
    validate_rows,
)
from repro.serving.errors import InferenceError
from repro.serving.registry import ModelRegistry

P, C = 12, 5  # features, classes


@pytest.fixture
def backend():
    return NumpyBackend()


def _model(registry_root, dtype=np.float64, name="m", seed=0):
    rng = np.random.default_rng(seed)
    registry = ModelRegistry(registry_root)
    w = rng.standard_normal(P * (C - 1)).astype(dtype)
    return registry, registry.publish(name, w, n_classes=C)


def _requests(n, rows_each=3, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows_each, P)) for _ in range(n)]


def _one_batch(batcher, requests, kind="proba"):
    """Stage all requests while the scoring thread is parked, then let it
    take them: one batch unless a cap splits it.  Returns the results."""
    batcher.hold()
    futures = [batcher.submit(X, kind=kind) for X in requests]
    batcher.release()
    assert not wait(futures, timeout=10.0).not_done
    return [f.result()[0] for f in futures]


class TestBatchedEquivalence:
    def test_batched_matches_individual_bit_exact_fp64(self, tmp_path, backend):
        _, model = _model(tmp_path)
        requests = _requests(8)
        batcher = MicroBatcher(backend, model)
        try:
            batched = _one_batch(batcher, requests)
        finally:
            batcher.close()
        assert batcher.stats.n_batches == 1, "requests were split across batches"
        for X, got in zip(requests, batched):
            alone = score_probabilities(backend, model, X)
            assert np.array_equal(got, alone), "batched != individual (fp64)"

    def test_batched_matches_objective_predict_proba(self, tmp_path, backend):
        """The serving path and the training objective agree bit-for-bit."""
        _, model = _model(tmp_path)
        requests = _requests(6)
        rng = np.random.default_rng(2)
        X_train = rng.standard_normal((20, P))
        y = rng.integers(0, C, size=20)
        objective = SoftmaxCrossEntropy(X_train, y, n_classes=C, backend=backend)
        batcher = MicroBatcher(backend, model)
        try:
            batched = _one_batch(batcher, requests)
        finally:
            batcher.close()
        for X, got in zip(requests, batched):
            reference = objective.predict_proba(model.weights, X)
            assert np.array_equal(got, reference)

    def test_fp32_model_scores_at_storage_precision(self, tmp_path, backend):
        """fp32 models score in fp32; batched remains identical to individual
        (same dtype, same ops) even though it differs from fp64 by ~1e-7."""
        _, model = _model(tmp_path, dtype=np.float32)
        requests = _requests(4)
        batcher = MicroBatcher(backend, model)
        try:
            batched = _one_batch(batcher, requests)
        finally:
            batcher.close()
        _, model64 = _model(tmp_path / "r64", dtype=np.float64, seed=0)
        for X, got in zip(requests, batched):
            assert np.array_equal(got, score_probabilities(backend, model, X))
            ref64 = score_probabilities(
                backend, model64, X
            )  # documented fp32-vs-fp64 tolerance (docs/serving.md)
            np.testing.assert_allclose(got, ref64, rtol=0, atol=5e-6)

    def test_probabilities_are_valid(self, tmp_path, backend):
        _, model = _model(tmp_path)
        probs = score_probabilities(backend, model, _requests(1, rows_each=50)[0])
        assert probs.shape == (50, C)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_predict_is_argmax_of_proba(self, tmp_path, backend):
        _, model = _model(tmp_path)
        requests = _requests(5)
        batcher = MicroBatcher(backend, model)
        try:
            labels = _one_batch(batcher, requests, kind="predict")
        finally:
            batcher.close()
        for X, got in zip(requests, labels):
            expected = np.argmax(score_probabilities(backend, model, X), axis=1)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)


class TestOneForwardPassPerBatch:
    def test_single_gemm_for_n_requests(self, tmp_path):
        """TracingBackend pins the op budget: a batch of N requests costs one
        matmul + one fused_lse_probs, not N of each."""
        tracing = TracingBackend()
        _, model = _model(tmp_path)
        batcher = MicroBatcher(tracing, model)
        try:
            batcher.hold()
            futures = [batcher.submit(X) for X in _requests(7)]
            tracing.reset()
            batcher.release()
            wait(futures, timeout=10.0)
        finally:
            batcher.close()
        assert batcher.stats.n_batches == 1
        assert tracing.calls["matmul"] == 1
        assert tracing.calls["fused_lse_probs"] == 1

    def test_per_request_baseline_costs_n_gemms(self, tmp_path):
        tracing = TracingBackend()
        _, model = _model(tmp_path)
        requests = _requests(7)
        tracing.reset()
        for X in requests:
            score_probabilities(tracing, model, X)
        assert tracing.calls["matmul"] == len(requests)
        assert tracing.calls["fused_lse_probs"] == len(requests)


class TestBatchingPolicy:
    def test_staged_requests_form_one_batch(self, tmp_path, backend):
        _, model = _model(tmp_path)
        batcher = MicroBatcher(backend, model)
        try:
            results = _one_batch(batcher, _requests(9))
        finally:
            batcher.close()
        assert len(results) == 9
        assert batcher.stats.summary() == {
            "requests": 9,
            "rows": 27,
            "batches": 1,
            "mean_batch_requests": 9.0,
            "max_batch_requests": 9,
            "model_swaps": 0,
        }

    def test_max_batch_rows_splits_batches(self, tmp_path, backend):
        _, model = _model(tmp_path)
        batcher = MicroBatcher(backend, model, max_batch_rows=7)
        try:
            results = _one_batch(batcher, _requests(6, rows_each=3))
        finally:
            batcher.close()
        assert len(results) == 6
        assert batcher.stats.n_batches == 3  # two three-row requests fit in 7 rows
        assert batcher.stats.max_batch_requests == 2

    def test_max_batch_requests_splits_batches(self, tmp_path, backend):
        _, model = _model(tmp_path)
        batcher = MicroBatcher(backend, model, max_batch_requests=4)
        try:
            results = _one_batch(batcher, _requests(10))
        finally:
            batcher.close()
        assert len(results) == 10
        assert batcher.stats.n_batches == 3  # 4 + 4 + 2
        assert batcher.stats.max_batch_requests == 4

    def test_oversized_single_request_still_scores(self, tmp_path, backend):
        _, model = _model(tmp_path)
        big = _requests(1, rows_each=64)[0]
        batcher = MicroBatcher(backend, model, max_batch_rows=16)
        try:
            result, version = batcher.submit(big).result(timeout=10.0)
        finally:
            batcher.close()
        assert version == model.version
        assert np.array_equal(result, score_probabilities(backend, model, big))

    def test_lone_request_never_waits_on_a_timer(self, tmp_path, backend):
        """The scoring thread sleeps only on an empty queue: serving a lone
        request on an idle batcher passes no timeout to ``Condition.wait``."""
        _, model = _model(tmp_path)
        batcher = MicroBatcher(backend, model)
        timeouts = []
        wait_on_condition = batcher._cond.wait

        def recording_wait(timeout=None):
            timeouts.append(timeout)
            return wait_on_condition(timeout)

        batcher._cond.wait = recording_wait
        try:
            for X in _requests(3):
                result, _ = batcher.submit(X).result(timeout=10.0)
                assert np.array_equal(result, score_probabilities(backend, model, X))
        finally:
            batcher.close()
        assert batcher.stats.n_batches == 3
        assert all(timeout is None for timeout in timeouts), timeouts

    def test_stats_stay_constant_size(self, tmp_path, backend):
        _, model = _model(tmp_path)
        batcher = MicroBatcher(backend, model)
        try:
            before = {k: v for k, v in vars(batcher.stats).items() if k != "_lock"}
            for X in _requests(50, rows_each=1):
                batcher.submit(X).result(timeout=10.0)
            after = {k: v for k, v in vars(batcher.stats).items() if k != "_lock"}
        finally:
            batcher.close()
        assert before.keys() == after.keys()
        assert all(isinstance(v, int) for v in after.values()), after
        assert after["n_requests"] == 50

    def test_close_rejects_new_requests(self, tmp_path, backend):
        _, model = _model(tmp_path)
        batcher = MicroBatcher(backend, model)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(_requests(1)[0])

    def test_invalid_parameters(self, tmp_path, backend):
        _, model = _model(tmp_path)
        with pytest.raises(ValueError, match="max_batch_rows"):
            MicroBatcher(backend, model, max_batch_rows=0)
        with pytest.raises(ValueError, match="max_batch_requests"):
            MicroBatcher(backend, model, max_batch_requests=0)
        batcher = MicroBatcher(backend, model)
        try:
            with pytest.raises(ValueError, match="kind"):
                batcher.submit(_requests(1)[0], kind="bogus")
        finally:
            batcher.close()


class TestHotSwap:
    def test_no_request_lost_and_no_torn_results(self, tmp_path, backend):
        """Swap models while threads stream requests: every future resolves,
        and each result is the reference output of exactly the version it
        names."""
        registry, model_v1 = _model(tmp_path)
        w2 = np.asarray(model_v1.weights) + 1.0
        model_v2 = registry.publish("m", w2, n_classes=C)
        X = _requests(1)[0]
        ref = {
            1: score_probabilities(backend, model_v1, X),
            2: score_probabilities(backend, model_v2, X),
        }
        assert not np.array_equal(ref[1], ref[2])

        batcher = MicroBatcher(backend, model_v1)
        futures = []
        futures_lock = threading.Lock()
        stop = threading.Event()

        def submitter():
            while not stop.is_set():
                burst = [batcher.submit(X) for _ in range(8)]
                with futures_lock:
                    futures.extend(burst)
                burst[-1].result(timeout=10.0)  # bounds the queue, not the check

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for _ in range(20):  # swap back and forth under load
                for model in (model_v2, model_v1):
                    batcher.set_model(model)
                    # Two batches later, one has snapshotted this version.
                    seen = batcher.stats.n_batches + 2
                    deadline = time.monotonic() + 10.0
                    while batcher.stats.n_batches < seen:
                        assert time.monotonic() < deadline, "the batcher stalled"
                        time.sleep(0.0002)
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            with futures_lock:
                pending = list(futures)
            done, not_done = wait(pending, timeout=30.0)
            assert not not_done, f"{len(not_done)} in-flight requests lost"
            named = set()
            for f in done:
                result, version = f.result()
                named.add(version)
                assert np.array_equal(result, ref[version]), (
                    f"reply names version {version} but was not scored by it"
                )
            assert named == {1, 2}, "the storm never served one of the versions"
        finally:
            stop.set()
            batcher.close()
        assert batcher.stats.swaps == 40
        assert batcher.stats.n_requests == len(pending)


class TestValidateRows:
    def test_row_vector_promoted(self):
        assert validate_rows(np.zeros(P), P).shape == (1, P)

    def test_list_input_accepted(self):
        assert validate_rows([[0.0] * P], P).shape == (1, P)

    @pytest.mark.parametrize(
        "rows, match",
        [
            (np.zeros((2, P + 1)), "features"),
            (np.zeros((0, P)), "non-empty"),
            (np.zeros((2, 2, 2)), "non-empty|2-D"),
            ([["a"] * P], "not numeric"),
            ([[np.nan] + [0.0] * (P - 1)], "NaN or Inf"),
        ],
    )
    def test_bad_rows_raise_inference_error(self, rows, match):
        with pytest.raises(InferenceError, match=match):
            validate_rows(rows, P)


class TestInferenceEngine:
    def test_batched_and_direct_agree(self, tmp_path, backend):
        _model(tmp_path)
        engine = InferenceEngine(ModelRegistry(tmp_path), backend=backend)
        try:
            X = _requests(1)[0]
            batched = engine.predict_proba("m", X)
            direct = engine.predict_proba("m", X, batched=False)
            assert np.array_equal(batched, direct)
            assert np.array_equal(
                engine.predict("m", X), engine.predict("m", X, batched=False)
            )
        finally:
            engine.close()

    def test_refresh_hot_swaps_to_new_version(self, tmp_path, backend):
        registry, _ = _model(tmp_path)
        engine = InferenceEngine(registry, backend=backend)
        try:
            assert engine.model("m").version == 1
            registry.publish("m", np.ones(P * (C - 1)), n_classes=C)
            assert engine.model("m").version == 1  # not yet refreshed
            engine.refresh("m")
            assert engine.model("m").version == 2
            stats = engine.stats()
            assert stats["models"]["m"]["version"] == 2
            assert stats["models"]["m"]["model_swaps"] == 1
        finally:
            engine.close()

    def test_stats_shape(self, tmp_path, backend):
        _model(tmp_path)
        engine = InferenceEngine(ModelRegistry(tmp_path), backend=backend)
        try:
            engine.predict_proba("m", _requests(1)[0])
            stats = engine.stats()
            assert stats["backend"] == backend.name
            assert stats["models"]["m"]["requests"] == 1
            assert stats["models"]["m"]["batches"] == 1
        finally:
            engine.close()
