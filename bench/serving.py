"""The serve phase: a closed-loop HTTP load on a real server process, and the
in-process replay of the same payloads that prices each serving layer.

Closed loop because callers of a prediction service wait for their reply:
each client thread sends its next request when the previous one returned, one
connection per request (the server closes them).  Every ``BIG_EVERY``-th
request of a client carries 32 rows, the others 1 row, all ``predict_proba``
from pre-encoded bodies — a fixed 90/10 mix, so throughput does not vary with
the draw; client 0 also republishes the two weight vectors in turn every
``PUBLISH_EVERY_S`` (hot swap), so a read-path gain that costs the write path,
or loses or tears a request under a swap, shows.
"""

from __future__ import annotations

import http.client
import json
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from bench import host, stats
from bench.spec import ROOT

MODEL = "bench"
PREDICT_PATH = f"/api/v1/models/{MODEL}/predict_proba"
PUBLISH_PATH = f"/api/v1/models/{MODEL}"
WARMUP_S = 0.5
PUBLISH_EVERY_S = 2.0
BIG_ROWS = 32
BIG_EVERY = 10
N_SMALL_BODIES = 64
N_BIG_BODIES = 8
#: probabilities travel as repr()-exact JSON floats; what remains is BLAS
#: choosing another kernel per batch shape (~1 ulp, docs/serving.md)
PROB_TOL = 1e-9
#: a client gives up after this many failures in a row (the server is gone)
MAX_CONSECUTIVE_FAILURES = 20
#: in-process replay: calls per layer function, and the time after which a slow one is cut short
REPLAY_CALLS = 200
REPLAY_MIN_CALLS = 15
REPLAY_BUDGET_S = 0.5


def request(port: int, method: str, path: str, body: bytes = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def reference_probabilities(w: np.ndarray, n_classes: int, X: np.ndarray) -> np.ndarray:
    """Softmax class probabilities from first principles (NumPy only): class
    ``C-1`` is the reference class with an implicit zero logit, last column."""
    W = w.reshape(n_classes - 1, -1).T
    logits = np.hstack([X @ W, np.zeros((X.shape[0], 1))])
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


class Payloads:
    """Pre-encoded request bodies and, per published weight vector, the
    probabilities each must come back with."""

    def __init__(self, rows: np.ndarray, weights: List[np.ndarray], n_classes: int, rng):
        from repro.harness.serialization import encode_array

        self.n_classes = n_classes
        self.weights = weights
        self.publish_bodies = [
            json.dumps({"weights": encode_array(w), "n_classes": n_classes}).encode()
            for w in weights
        ]
        self.small = self._bodies(rows, 1, N_SMALL_BODIES, rng)
        self.big = self._bodies(rows, BIG_ROWS, N_BIG_BODIES, rng)

    def _bodies(self, rows, n_rows, count, rng):
        out = []
        for _ in range(count):
            X = rows[rng.choice(rows.shape[0], size=n_rows, replace=False)]
            refs = [reference_probabilities(w, self.n_classes, X) for w in self.weights]
            out.append((json.dumps({"rows": X.tolist()}).encode(), X, refs))
        return out

    def weights_of(self, version: int) -> int:
        """Index of the weight vector published as ``version`` (1-based)."""
        return (version - 1) % len(self.weights)


class _Client:
    """One closed-loop client; all state is thread-local until joined."""

    def __init__(self, cid: int, port: int, payloads: Payloads, t_record: float, t_stop: float):
        self.cid, self.port, self.payloads = cid, port, payloads
        self.t_record, self.t_stop = t_record, t_stop
        self.latency_ms = {1: [], BIG_ROWS: []}
        self.publish_ms: List[float] = []
        self.attempted = self.failed = self.predicts_ok = self.version_lag = 0
        self.notes: List[str] = []
        self.last_version = 0
        self.thread = threading.Thread(target=self.run, name=f"bench-client-{cid}")

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"client {self.cid}: {note}")

    def _check(self, status: int, raw: bytes, refs) -> str:
        if status != 200:
            return f"predict returned {status}: {raw[:200]!r}"
        reply = json.loads(raw)
        version = int(reply["version"])
        if version < self.last_version:
            return f"version went backwards: {version} after {self.last_version}"
        self.last_version = version
        probs = np.asarray(reply["probabilities"], dtype=np.float64)
        if probs.shape != refs[0].shape:
            return f"probabilities have shape {probs.shape}, expected {refs[0].shape}"
        if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=PROB_TOL):
            return "probability rows do not sum to 1"
        if np.allclose(probs, refs[self.payloads.weights_of(version)], rtol=0.0, atol=PROB_TOL):
            return ""
        # The API reads the version it reports after it scored, so under a hot
        # swap it may name the next version; any other mismatch is a torn or
        # wrong reply.
        if version > 1 and np.allclose(
            probs, refs[self.payloads.weights_of(version - 1)], rtol=0.0, atol=PROB_TOL
        ):
            self.version_lag += 1
            return ""
        return f"probabilities match neither version {version} nor {version - 1}"

    def _predict(self, i: int) -> None:
        # Clients are half a cycle apart, so their 32-row requests do not line up.
        big = (i + self.cid * BIG_EVERY // 2) % BIG_EVERY == BIG_EVERY - 1
        pool = self.payloads.big if big else self.payloads.small
        body, _, refs = pool[i % len(pool)]
        t0 = time.perf_counter()
        status, raw = request(self.port, "POST", PREDICT_PATH, body)
        t1 = time.perf_counter()
        error = self._check(status, raw, refs)
        if error:
            raise ValueError(error)
        self.predicts_ok += 1
        if t0 >= self.t_record and t1 <= self.t_stop:
            self.latency_ms[BIG_ROWS if big else 1].append((t1 - t0) * 1e3)

    def _publish(self, expected_version: int) -> None:
        body = self.payloads.publish_bodies[self.payloads.weights_of(expected_version)]
        t0 = time.perf_counter()
        status, raw = request(self.port, "POST", PUBLISH_PATH, body)
        self.publish_ms.append((time.perf_counter() - t0) * 1e3)
        if status != 201:
            raise ValueError(f"publish returned {status}: {raw[:200]!r}")
        version = json.loads(raw)["published"]["version"]
        if version != expected_version:
            raise ValueError(f"published version {version}, expected {expected_version}")

    def run(self) -> None:
        next_publish = time.perf_counter() + PUBLISH_EVERY_S
        published = 1  # version 1 went out during set-up
        consecutive = i = 0
        while time.perf_counter() < self.t_stop and consecutive < MAX_CONSECUTIVE_FAILURES:
            publish = self.cid == 0 and time.perf_counter() >= next_publish
            self.attempted += 1
            try:
                if publish:
                    next_publish += PUBLISH_EVERY_S
                    published += 1
                    self._publish(published)
                else:
                    self._predict(i)
                    i += 1
                consecutive = 0
            except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                consecutive += 1
                self._fail(f"{type(exc).__name__}: {exc}")


def _start_server(registry_root: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "bench.server_child", registry_root],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )


def _stop_server(server: subprocess.Popen) -> None:
    server.terminate()
    try:
        server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def http_phase(registry_root: str, payloads: Payloads, n_clients: int, record_seconds: float, ops) -> dict:
    """Spawn the server, publish, warm up, record for ``record_seconds``,
    reconcile with the server's own counters, and reap the server."""
    t_setup = time.perf_counter()
    server = _start_server(registry_root)
    try:
        port = json.loads(server.stdout.readline())["port"]
        # The port is printed once the socket listens, so this waits for the accept loop.
        ops.check(request(port, "GET", "/api/v1/health")[0] == 200, "server is not healthy")
        status, raw = request(port, "POST", PUBLISH_PATH, payloads.publish_bodies[0])
        ops.check(status == 201, f"first publish returned {status}: {raw[:200]!r}")
        t_record = time.perf_counter() + WARMUP_S
        t_stop = t_record + record_seconds
        clients = [
            _Client(cid, port, payloads, t_record, t_stop) for cid in range(n_clients)
        ]
        for client in clients:
            client.thread.start()
        for client in clients:
            client.thread.join()
        status, raw = request(port, "GET", "/api/v1/stats")
        served = json.loads(raw)["engine"]["models"].get(MODEL, {}) if status == 200 else {}
        server_rss_mb = host.peak_rss_mb(server.pid)
    finally:
        _stop_server(server)

    for client in clients:
        ops.merge(client.attempted, client.failed, client.notes)
    predicts_ok = sum(c.predicts_ok for c in clients)
    ops.check(
        served.get("requests") == predicts_ok,
        f"/api/v1/stats counts {served.get('requests')} requests, clients got {predicts_ok} replies",
    )
    small = [ms for c in clients for ms in c.latency_ms[1]]
    big = [ms for c in clients for ms in c.latency_ms[BIG_ROWS]]
    if not small or not big:
        raise RuntimeError(
            f"the {record_seconds:.1f} s HTTP window recorded {len(small)} 1-row and {len(big)} "
            f"{BIG_ROWS}-row replies; failures: {ops.notes}"
        )
    publish_ms = [ms for c in clients for ms in c.publish_ms]
    return {
        "setup_s": t_record - t_setup,
        "requests_per_s": (len(small) + len(big)) / record_seconds,
        "predict1_ms": stats.summary(small),
        "predict32_ms": stats.summary(big),
        "predict1_p99": stats.tail(small, 0.99),
        "predict32_p95": stats.tail(big, 0.95),
        "publish_http_ms": statistics.median(publish_ms) if publish_ms else 0.0,
        "version_lag": sum(c.version_lag for c in clients),
        "server_stats": served,
        "server_rss_mb": server_rss_mb,
    }


def _median_ms(fn: Callable[[], object]) -> float:
    """Median milliseconds of ``fn()`` over ``REPLAY_CALLS`` calls, cut short
    (never below ``REPLAY_MIN_CALLS``) once ``REPLAY_BUDGET_S`` is spent — a
    32-row request on the sparse model costs tens of milliseconds."""
    times = []
    t_end = time.perf_counter() + REPLAY_BUDGET_S
    while len(times) < REPLAY_CALLS and (
        len(times) < REPLAY_MIN_CALLS or time.perf_counter() < t_end
    ):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def replay_layers(registry_root: str, payloads: Payloads) -> Tuple[Dict[str, float], float]:
    """Price each serving layer by replaying the HTTP phase's payloads
    in-process through the public functions the request path is made of.

    Returns the layer metrics and the in-process cost of a whole 1-row request
    (JSON decode + dispatch + JSON encode) — what the HTTP median is measured
    against to isolate the front end."""
    from repro.serving.app import build_api
    from repro.serving.engine import score_probabilities, validate_rows

    api = build_api(registry_root)
    try:
        registry, engine = api.registry, api.engine
        w, C = payloads.weights[0], payloads.n_classes
        out = {
            "serving.registry.publish_ms": _median_ms(lambda: registry.publish(MODEL, w, n_classes=C)),
            "serving.registry.load_ms": _median_ms(lambda: registry.load(MODEL)),
        }
        model = engine.model(MODEL)
        body1, X1, _ = payloads.small[0]
        body32, X32, _ = payloads.big[0]
        request1, request32 = json.loads(body1), json.loads(body32)
        reply1 = api.dispatch("POST", PREDICT_PATH, {}, request1)[1]
        reply32 = api.dispatch("POST", PREDICT_PATH, {}, request32)[1]
        out.update(
            {
                "serving.api.dispatch_ms_1": _median_ms(lambda: api.dispatch("POST", PREDICT_PATH, {}, request1)),
                "serving.api.dispatch_ms_32": _median_ms(lambda: api.dispatch("POST", PREDICT_PATH, {}, request32)),
                "serving.json.decode_ms_32": _median_ms(lambda: json.loads(body32)),
                "serving.json.encode_ms_32": _median_ms(lambda: json.dumps(reply32)),
                "serving.engine.validate_ms": _median_ms(lambda: validate_rows(request32["rows"], model.n_features)),
                "serving.engine.score_ms_1": _median_ms(lambda: score_probabilities(engine.backend, model, X1)),
                "serving.engine.score_ms_32": _median_ms(lambda: score_probabilities(engine.backend, model, X32)),
                "serving.engine.direct_ms": _median_ms(lambda: engine.predict_proba(MODEL, request1["rows"], batched=False)),
                "serving.engine.batched_ms": _median_ms(lambda: engine.predict_proba(MODEL, request1["rows"], batched=True)),
            }
        )
        json_ms_1 = _median_ms(lambda: json.loads(body1)) + _median_ms(lambda: json.dumps(reply1))
    finally:
        api.engine.close()
    return out, out["serving.api.dispatch_ms_1"] + json_ms_1
