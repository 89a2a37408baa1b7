"""Micro-batched inference: many concurrent requests, one backend GEMM.

The paper's serving-side observation is that multiclass scoring is a single
``(n, p) @ (p, C-1)`` GEMM plus elementwise softmax work — so *n* concurrent
one-row requests cost barely more than one of them if they are stacked into
one batch.  :class:`MicroBatcher` batches *naturally*: the scoring thread
takes whatever is queued (up to ``max_batch_rows`` / ``max_batch_requests``),
scores the stacked rows with **one** forward pass through the same fused
log-sum-exp machinery the training objectives use
(:meth:`~repro.backend.base.ArrayBackend.fused_lse_probs`), and the requests
that arrived meanwhile are the next batch.  It never waits on a timer: a lone
request on an idle server is scored at once, and under load the batch size
follows the arrival rate by itself, so there is no batching window to tune.
Per-request slices are handed back through futures, each with the version of
the model that scored it.

Equivalence contract (pinned in ``tests/test_serving_engine.py``): scoring N
stacked requests as one batch returns, for every request, probabilities
*bit-identical* to scoring it alone on the NumPy fp64 path at the pinned
shapes, and identical to ``SoftmaxCrossEntropy.predict_proba`` — the scorer
replicates its reference-class completion op for op.  The one caveat: BLAS
may select a different GEMM kernel per batch *shape*, which can move results
by ~1 ulp between, say, a 1-row and an 8-row batch at large feature counts;
fp32 models additionally score at their storage precision.  Both tolerances
are documented in ``docs/serving.md``.

Hot swap: each batch snapshots the model reference once, immediately before
scoring; :meth:`MicroBatcher.set_model` replaces the reference atomically
under the queue lock.  An in-flight request is therefore scored by exactly
one fully-loaded :class:`~repro.serving.registry.ServedModel` — never a torn
mixture of two versions — and its reply names that model's version.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import BackendLike, get_backend
from repro.serving.errors import InferenceError
from repro.serving.registry import ModelRegistry, ServedModel


def validate_rows(rows, n_features: int) -> np.ndarray:
    """Coerce one request's rows into a dense ``(r, n_features)`` float array."""
    try:
        X = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InferenceError(f"rows are not numeric: {exc}") from exc
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InferenceError(
            f"rows must be a non-empty 1-D or 2-D array, got shape {X.shape}"
        )
    if X.shape[1] != n_features:
        raise InferenceError(
            f"rows have {X.shape[1]} features, model expects {n_features}"
        )
    if not np.all(np.isfinite(X)):
        raise InferenceError("rows contain NaN or Inf")
    return X


def score_probabilities(backend, model: ServedModel, X) -> np.ndarray:
    """Full-class probabilities ``(n, C)`` for ``X`` under ``model`` — one GEMM.

    Issues exactly one forward pass: one ``matmul`` for the logits and one
    fused log-sum-exp + softmax kernel, then the same reference-class
    completion as :func:`repro.objectives.numerics.full_class_probabilities`
    (op-for-op, so results are bit-identical to the objective's
    ``predict_proba`` on the NumPy backend).  Inputs are cast to the model's
    storage dtype, so fp32 models score in fp32.
    """
    xp = backend.xp
    W = backend.asarray(model.weight_matrix())
    X = backend.asarray(X, dtype=model.dtype)
    logits = xp.matmul(X, W)
    _, p_nonref = backend.fused_lse_probs(logits)
    p_ref = 1.0 - xp.sum(p_nonref, axis=1, keepdims=True)
    p_ref = xp.clip(p_ref, 0.0, 1.0)
    return backend.to_numpy(xp.hstack([p_nonref, p_ref]))


def _result(probs: np.ndarray, kind: str) -> np.ndarray:
    """One request's reply from its block of the batch's probabilities."""
    if kind == "predict":
        return np.argmax(probs, axis=1).astype(np.int64)
    return np.array(probs, copy=True)


@dataclass
class _Request:
    X: np.ndarray
    kind: str  # "proba" | "predict"
    future: Future


class BatcherStats:
    """Counters the bench and the ``/stats`` endpoint read (constant size)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.n_requests = 0
        self.n_rows = 0
        self.n_batches = 0
        self.max_batch_requests = 0
        self.swaps = 0

    def record_batch(self, n_requests: int, n_rows: int) -> None:
        with self._lock:
            self.n_requests += n_requests
            self.n_rows += n_rows
            self.n_batches += 1
            self.max_batch_requests = max(self.max_batch_requests, n_requests)

    def record_swap(self) -> None:
        with self._lock:
            self.swaps += 1

    def summary(self) -> dict:
        with self._lock:
            return {
                "requests": self.n_requests,
                "rows": self.n_rows,
                "batches": self.n_batches,
                "mean_batch_requests": (
                    self.n_requests / self.n_batches if self.n_batches else 0.0
                ),
                "max_batch_requests": self.max_batch_requests,
                "model_swaps": self.swaps,
            }


class MicroBatcher:
    """Score the requests queued for one model together, as they come.

    The scoring thread sleeps only while the queue is empty; a batch is
    whatever queued up while the previous one was being scored.

    Parameters
    ----------
    backend:
        Array backend the forward pass runs on.
    model:
        Initial :class:`ServedModel`; replace with :meth:`set_model`.
    max_batch_rows:
        Hard cap on stacked rows per forward pass (memory bound); a single
        request with more rows is scored alone.
    max_batch_requests:
        Cap on requests per forward pass (``None`` = no cap).
    """

    def __init__(
        self,
        backend,
        model: ServedModel,
        *,
        max_batch_rows: int = 8192,
        max_batch_requests: Optional[int] = None,
        scorer: Callable = score_probabilities,
    ):
        if max_batch_rows < 1:
            raise ValueError(f"max_batch_rows must be >= 1, got {max_batch_rows}")
        if max_batch_requests is not None and max_batch_requests < 1:
            raise ValueError(
                f"max_batch_requests must be >= 1 or None, got {max_batch_requests}"
            )
        self.backend = backend
        self.max_batch_rows = int(max_batch_rows)
        self.max_batch_requests = (
            None if max_batch_requests is None else int(max_batch_requests)
        )
        self._scorer = scorer
        self._model = model
        self._cond = threading.Condition()
        self._queue: List[_Request] = []
        self._held = False
        self._closed = False
        self.stats = BatcherStats()
        self._thread = threading.Thread(
            target=self._run, name=f"microbatch-{model.name}", daemon=True
        )
        self._thread.start()

    # -- public API --------------------------------------------------------
    @property
    def model(self) -> ServedModel:
        with self._cond:
            return self._model

    def set_model(self, model: ServedModel) -> ServedModel:
        """Hot-swap the served model; returns the previous one.

        Requests already queued are scored with whichever snapshot their
        batch takes — each batch sees exactly one model.
        """
        with self._cond:
            previous, self._model = self._model, model
        self.stats.record_swap()
        return previous

    def submit(self, X: np.ndarray, kind: str = "proba") -> Future:
        """Enqueue one request; the future resolves to ``(result, version)`` —
        its sliced result and the version of the model that scored it."""
        if kind not in ("proba", "predict"):
            raise ValueError(f"kind must be 'proba' or 'predict', got {kind!r}")
        future: Future = Future()
        request = _Request(X=X, kind=kind, future=future)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.append(request)
            self._cond.notify_all()
        return future

    def hold(self) -> None:
        """Test hook: park the scoring thread so a batch can be staged."""
        with self._cond:
            self._held = True

    def release(self) -> None:
        with self._cond:
            self._held = False
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    # -- scoring loop ------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while (not self._queue or self._held) and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                # The head of the queue always goes (an over-sized request is
                # scored alone); the caps bound what rides along with it.
                batch = [self._queue.pop(0)]
                rows = batch[0].X.shape[0]
                while (
                    self._queue
                    and len(batch) != self.max_batch_requests  # None: no cap
                    and rows + self._queue[0].X.shape[0] <= self.max_batch_rows
                ):
                    request = self._queue.pop(0)
                    rows += request.X.shape[0]
                    batch.append(request)
                model = self._model  # one snapshot per batch (hot-swap safety)
            self._score_batch(batch, model)

    def _score_batch(self, batch: List[_Request], model: ServedModel) -> None:
        X = (
            np.concatenate([r.X for r in batch], axis=0)
            if len(batch) > 1
            else batch[0].X
        )
        try:
            probs = self._scorer(self.backend, model, X)
        except BaseException as exc:  # surface scoring failures per request
            for request in batch:
                request.future.set_exception(exc)
            return
        self.stats.record_batch(len(batch), X.shape[0])
        offset = 0
        for request in batch:
            r = request.X.shape[0]
            block = probs[offset : offset + r]
            offset += r
            request.future.set_result((_result(block, request.kind), model.version))


class InferenceEngine:
    """Registry-backed serving engine: one :class:`MicroBatcher` per model.

    ``predict``/``predict_proba`` with ``batched=True`` (the default) go
    through the micro-batcher; ``batched=False`` scores the request
    immediately in the calling thread with its own forward pass — the
    per-request baseline the bench compares against.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        backend: BackendLike = None,
        max_batch_rows: int = 8192,
        max_batch_requests: Optional[int] = None,
    ):
        self.registry = registry
        self.backend = get_backend(backend)
        self.max_batch_rows = int(max_batch_rows)
        self.max_batch_requests = max_batch_requests
        self._batchers: Dict[str, MicroBatcher] = {}
        self._lock = threading.Lock()

    # -- model lifecycle ---------------------------------------------------
    def _batcher(self, name: str) -> MicroBatcher:
        with self._lock:
            batcher = self._batchers.get(name)
            if batcher is None:
                model = self.registry.load(name)
                batcher = MicroBatcher(
                    self.backend,
                    model,
                    max_batch_rows=self.max_batch_rows,
                    max_batch_requests=self.max_batch_requests,
                )
                self._batchers[name] = batcher
            return batcher

    def model(self, name: str) -> ServedModel:
        """The model currently being served for ``name``."""
        return self._batcher(name).model

    def refresh(self, name: str) -> ServedModel:
        """Reload ``name``'s active registry version and hot-swap it in.

        Returns the model now being served.  In-flight requests finish on
        whichever snapshot their batch took; no request is dropped.
        """
        model = self.registry.load(name)
        with self._lock:
            batcher = self._batchers.get(name)
        if batcher is None:
            return self._batcher(name).model
        if batcher.model.version != model.version:
            batcher.set_model(model)
        return model

    # -- scoring -----------------------------------------------------------
    def score(
        self, name: str, rows, *, kind: str = "proba", batched: bool = True
    ) -> Tuple[np.ndarray, int]:
        """One request's result (``kind="proba"``: probabilities ``(r, C)``,
        ``"predict"``: most-likely class per row) and the version of the
        model that scored it."""
        batcher = self._batcher(name)
        model = batcher.model
        X = validate_rows(rows, model.n_features)
        if batched:
            return batcher.submit(X, kind=kind).result()
        return _result(score_probabilities(self.backend, model, X), kind), model.version

    def predict_proba(self, name: str, rows, *, batched: bool = True) -> np.ndarray:
        """Class probabilities ``(r, C)`` for one request."""
        return self.score(name, rows, kind="proba", batched=batched)[0]

    def predict(self, name: str, rows, *, batched: bool = True) -> np.ndarray:
        """Most-likely class per row for one request."""
        return self.score(name, rows, kind="predict", batched=batched)[0]

    # -- introspection / shutdown -----------------------------------------
    def stats(self) -> dict:
        with self._lock:
            batchers = dict(self._batchers)
        return {
            "max_batch_rows": self.max_batch_rows,
            "max_batch_requests": self.max_batch_requests,
            "backend": self.backend.name,
            "models": {
                name: {"version": b.model.version, **b.stats.summary()}
                for name, b in batchers.items()
            },
        }

    def close(self) -> None:
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()
