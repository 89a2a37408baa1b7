"""HTTP API tests over the stdlib fallback server (full round trips with
``http.client``), plus a FastAPI-parity test when the ``serve`` extra is
installed.  Every client error must come back as a structured
``{"error": {"type", "detail"}}`` body — never a traceback — and a request
whose framing is broken must cost only its own connection."""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.harness.serialization import encode_array, save_trace
from repro.metrics.traces import EpochRecord, RunTrace
from repro.serving import engine as engine_module
from repro.serving.app import build_api, fastapi_available
from repro.serving.engine import score_probabilities
from repro.serving.http_fallback import FallbackServer

P, C = 6, 4


def _weights(seed=0, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(P * (C - 1)).astype(dtype)


class Client:
    """Tiny JSON client over http.client against the fallback server."""

    def __init__(self, server):
        self.host, self.port = server.host, server.port

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload=None):
        return self.request("POST", path, payload)


@pytest.fixture
def server(tmp_path):
    api = build_api(tmp_path / "registry")
    server = FallbackServer(api).start_background()
    yield server
    server.shutdown()


@pytest.fixture
def client(server):
    return Client(server)


def _publish(client, name="m", dtype=np.float64, seed=0):
    payload = {"weights": encode_array(_weights(seed, dtype)), "n_classes": C}
    status, body = client.post(f"/api/v1/models/{name}", payload)
    assert status == 201, body
    return body


class TestModels:
    def test_health(self, client):
        status, body = client.get("/api/v1/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_publish_describe_list(self, client):
        body = _publish(client)
        assert body["published"]["version"] == 1
        assert body["active"] is True
        status, described = client.get("/api/v1/models/m")
        assert status == 200
        assert described["current"] == 1
        assert described["model"]["n_classes"] == C
        status, listed = client.get("/api/v1/models")
        assert [m["name"] for m in listed["models"]] == ["m"]

    def test_publish_preserves_dtype(self, client, server):
        _publish(client, dtype=np.float32)
        model = server.api.registry.load("m")
        assert model.weights.dtype == np.float32
        w = _weights(0, np.float32)
        assert np.array_equal(model.weights.view(np.uint32), w.view(np.uint32))

    def test_publish_plain_list_weights(self, client):
        payload = {"weights": [0.1] * (P * (C - 1)), "n_classes": C}
        status, body = client.post("/api/v1/models/plain", payload)
        assert status == 201, body

    def test_publish_from_trace_path(self, client, tmp_path):
        trace = RunTrace(method="newton_admm", dataset="d", n_workers=2)
        trace.records.append(EpochRecord(epoch=1, objective=0.5, test_accuracy=0.8))
        trace.final_w = _weights()
        trace.info["cluster"] = {"n_classes": C}
        path = save_trace(trace, tmp_path / "run.json", include_weights=True)
        status, body = client.post(
            "/api/v1/models/traced", {"trace_path": str(path)}
        )
        assert status == 201, body
        assert body["published"]["metadata"]["method"] == "newton_admm"

    def test_publish_missing_trace_path_is_structured_400(self, client):
        status, body = client.post(
            "/api/v1/models/m", {"trace_path": "/nope/missing.json"}
        )
        assert status == 400
        assert body["error"]["type"] == "registry_error"

    def test_publish_incomplete_payload(self, client):
        status, body = client.post("/api/v1/models/m", {"n_classes": C})
        assert status == 400
        assert "weights" in body["error"]["detail"]

    def test_activate_and_rollback(self, client):
        _publish(client, seed=1)
        _publish(client, seed=2)
        status, body = client.post("/api/v1/models/m/activate", {"version": 1})
        assert status == 200
        assert body["activated"]["version"] == 1
        status, body = client.post("/api/v1/models/m/rollback")
        assert status == 200
        assert body["activated"]["version"] == 2

    def test_activate_unknown_version_is_404(self, client):
        _publish(client)
        status, body = client.post("/api/v1/models/m/activate", {"version": 7})
        assert status == 404
        assert body["error"]["type"] == "model_not_found"


class TestPredict:
    def test_batched_and_direct_agree(self, client):
        _publish(client)
        rows = np.random.default_rng(3).standard_normal((4, P)).tolist()
        status, batched = client.post(
            "/api/v1/models/m/predict_proba", {"rows": rows}
        )
        assert status == 200
        assert batched["mode"] == "batched"
        assert batched["n_classes"] == C
        status, direct = client.post(
            "/api/v1/models/m/predict_proba", {"rows": rows, "mode": "direct"}
        )
        assert status == 200
        assert batched["probabilities"] == direct["probabilities"]
        status, labels = client.post("/api/v1/models/m/predict", {"rows": rows})
        assert status == 200
        expected = [int(np.argmax(row)) for row in batched["probabilities"]]
        assert labels["predictions"] == expected

    def test_feature_mismatch_is_422(self, client):
        _publish(client)
        status, body = client.post(
            "/api/v1/models/m/predict", {"rows": [[1.0, 2.0]]}
        )
        assert status == 422
        assert body["error"]["type"] == "inference_error"
        assert "features" in body["error"]["detail"]

    def test_bad_mode_is_422(self, client):
        _publish(client)
        status, body = client.post(
            "/api/v1/models/m/predict", {"rows": [[0.0] * P], "mode": "turbo"}
        )
        assert status == 422

    def test_unknown_model_is_404(self, client):
        status, body = client.post(
            "/api/v1/models/ghost/predict", {"rows": [[0.0] * P]}
        )
        assert status == 404
        assert body["error"]["type"] == "model_not_found"

    def test_corrupt_model_file_is_structured_409(self, client, server):
        """A model corrupted on disk before the engine ever loaded it (an
        already-served model keeps scoring from its in-memory snapshot)."""
        model_dir = server.api.registry.root / "rotten"
        model_file = model_dir / "versions" / "000001" / "model.json"
        model_file.parent.mkdir(parents=True)
        model_file.write_text("{ definitely not json")
        (model_dir / "CURRENT").write_text("1\n")
        status, body = client.post(
            "/api/v1/models/rotten/predict", {"rows": [[0.0] * P]}
        )
        assert status == 409
        assert body["error"]["type"] == "model_format_error"
        assert "Traceback" not in json.dumps(body)

    def test_stats_counts_requests(self, client):
        _publish(client)
        client.post("/api/v1/models/m/predict", {"rows": [[0.0] * P]})
        status, body = client.get("/api/v1/stats")
        assert status == 200
        assert body["engine"]["models"]["m"]["requests"] >= 1


class TestRouting:
    def test_unknown_path_is_404(self, client):
        status, body = client.get("/api/v2/na")
        assert status == 404
        assert body["error"]["type"] == "not_found"

    def test_wrong_method_is_405(self, client):
        status, body = client.get("/api/v1/jobs/job-0001/cancel")
        assert status == 405
        assert body["error"]["type"] == "method_not_allowed"

    def test_bad_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/api/v1/models/m",
                body="{ nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["type"] == "bad_json"


class TestReplyNamesItsVersion:
    def test_direct_reply_names_the_model_that_scored_it(self, client, server, monkeypatch):
        """A swap landing between scoring and building the reply must not
        change the version the reply names."""
        _publish(client, seed=1)
        engine = server.api.engine
        reference = engine.model("m")
        rows = np.random.default_rng(5).standard_normal((2, P))

        def score_then_swap(backend, model, X):
            probs = score_probabilities(backend, model, X)
            server.api.registry.publish("m", _weights(2), n_classes=C)
            engine.refresh("m")
            return probs

        monkeypatch.setattr(engine_module, "score_probabilities", score_then_swap)
        status, body = client.post(
            "/api/v1/models/m/predict_proba", {"rows": rows.tolist(), "mode": "direct"}
        )
        assert status == 200
        assert engine.model("m").version == 2  # the swap did land
        assert body["version"] == 1
        assert body["probabilities"] == score_probabilities(
            engine.backend, reference, rows
        ).tolist()

    def test_swap_storm_replies_match_the_version_they_name(self, client, server):
        """Publish over HTTP while clients predict: every reply's
        probabilities are the reference of exactly the version it names."""
        weights = [_weights(1), _weights(2)]
        rows = np.random.default_rng(6).standard_normal((3, P))
        _publish(client, seed=1)
        engine = server.api.engine
        v1 = engine.model("m")
        references = [
            score_probabilities(engine.backend, v1, rows).tolist(),
            score_probabilities(
                engine.backend,
                server.api.registry.publish("m", weights[1], n_classes=C),
                rows,
            ).tolist(),
        ]
        engine.refresh("m")  # serving version 2; odd versions carry weights[0]
        stop = threading.Event()
        replies, failures = [], []

        def predictor():
            own = Client(server)
            while not stop.is_set():
                status, body = own.post(
                    "/api/v1/models/m/predict_proba", {"rows": rows.tolist()}
                )
                if status != 200:
                    failures.append(body)
                    return
                replies.append((body["version"], body["probabilities"]))

        threads = [threading.Thread(target=predictor) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for version in range(3, 23):
                payload = {
                    "weights": encode_array(weights[(version - 1) % 2]),
                    "n_classes": C,
                }
                status, body = client.post("/api/v1/models/m", payload)
                assert status == 201 and body["published"]["version"] == version
                time.sleep(0.005)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]
        assert len({version for version, _ in replies}) > 5, "the storm saw no swaps"
        lagging = [
            version
            for version, probs in replies
            if not np.allclose(probs, references[(version - 1) % 2], rtol=0.0, atol=1e-12)
        ]
        assert not lagging, f"{len(lagging)} of {len(replies)} replies name the wrong version"


def _raw_exchange(server, data: bytes) -> bytes:
    """Send raw bytes, half-close, and return everything the server replies
    before it closes the connection.  A server that closes with some of our
    bytes unread resets the connection; what arrived before that counts."""
    chunks = []
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except TimeoutError:
            raise
        except OSError:
            pass
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionError:
            pass
    return b"".join(chunks)


def _parse_reply(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


PREDICT = b"POST /api/v1/models/m/predict HTTP/1.1\r\nHost: t\r\n"


class TestKeepAlive:
    def test_two_requests_reuse_one_socket(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("GET", "/api/v1/health")
            response = conn.getresponse()
            assert response.status == 200
            assert response.version == 11
            response.read()
            sock = conn.sock
            assert sock is not None, "the server closed the connection"
            body = json.dumps({"weights": encode_array(_weights()), "n_classes": C})
            conn.request("POST", "/api/v1/models/m", body=body)
            response = conn.getresponse()
            assert response.status == 201
            response.read()
            assert conn.sock is sock
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            conn.close()

    def test_connection_close_is_honoured(self, server):
        raw = _raw_exchange(
            server, b"GET /api/v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        status, headers, body = _parse_reply(raw)
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == "ok"

    def test_pipelined_requests_are_answered_in_order(self, server):
        one = b"GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n"
        other = b"GET /api/v2/na HTTP/1.1\r\nHost: t\r\n\r\n"
        raw = _raw_exchange(server, one + other)
        first, _, rest = raw.partition(b'"models": 0}')
        assert first.startswith(b"HTTP/1.1 200 ")
        assert rest.startswith(b"HTTP/1.1 404 ")

    def test_idle_connection_times_out(self, server):
        handler = server._server.RequestHandlerClass
        handler.timeout = 0.2  # KEEPALIVE_TIMEOUT_S is what a real server waits
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n")
            status, _, _ = _parse_reply(sock.recv(65536))
            assert status == 200
            started = time.monotonic()
            assert sock.recv(65536) == b"", "the server kept the idle connection"
            assert time.monotonic() - started < 5.0


class TestBrokenFraming:
    """ROADMAP 9d, HTTP share: a request the server cannot delimit gets a
    structured 4xx and loses only its own connection."""

    @pytest.mark.parametrize(
        "request_bytes, status, error_type",
        [
            (PREDICT + b'Content-Length: 100\r\n\r\n{"rows": [[0.0', 400, "incomplete_body"),
            (PREDICT + b"Content-Length: twelve\r\n\r\n", 400, "bad_content_length"),
            (PREDICT + b"Content-Length: 1_0\r\n\r\n0123456789", 400, "bad_content_length"),
            (PREDICT + b"Content-Length: -1\r\n\r\n", 400, "bad_content_length"),
            (PREDICT + b"\r\n", 411, "length_required"),
            (
                PREDICT + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                411,
                "length_required",
            ),
            (PREDICT + b"Content-Length: 6\r\n\r\n{ nope", 400, "bad_json"),
            (PREDICT + b"X-Long: " + b"a" * 70000 + b"\r\n\r\n", 431, "bad_request"),
            (b"X" * 70000 + b" / HTTP/1.1\r\n\r\n", 414, "bad_request"),
            (b"BREW /api/v1/health HTTP/1.1\r\n\r\n", 501, "bad_request"),
            (b"no request line here\r\n\r\n", 400, "bad_request"),
        ],
        ids=[
            "truncated-body",
            "non-integer-length",
            "underscore-length",
            "negative-length",
            "missing-length",
            "chunked",
            "non-json",
            "over-long-header",
            "over-long-request-line",
            "unknown-method",
            "garbage",
        ],
    )
    def test_structured_4xx_then_the_server_still_serves(
        self, server, client, request_bytes, status, error_type
    ):
        raw = _raw_exchange(server, request_bytes)
        if raw:
            got, headers, body = _parse_reply(raw)
            assert got == status
            assert headers["content-type"] == "application/json"
            assert json.loads(body)["error"]["type"] == error_type
            if error_type != "bad_json":  # its body was read: framing intact
                assert headers["connection"] == "close"
        else:  # reset before the reply could be read: a clean close
            assert len(request_bytes) > 65536, "only an over-long request may see a bare close"
        status, body = client.get("/api/v1/health")
        assert status == 200 and body["status"] == "ok"

    def test_bad_json_keeps_the_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/api/v1/models/m", body="{ nope")
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["type"] == "bad_json"
            sock = conn.sock
            conn.request("GET", "/api/v1/health")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            assert sock is not None and conn.sock is sock
        finally:
            conn.close()


class TestJobs:
    TINY = {
        "solver": {"name": "newton_admm", "max_epochs": 2},
        "cluster": {
            "dataset": "mnist_like",
            "n_workers": 2,
            "n_train": 240,
            "n_test": 60,
        },
    }

    def test_submit_poll_and_serve_result(self, client, server):
        payload = dict(self.TINY, publish_as="trained")
        status, body = client.post("/api/v1/jobs", payload)
        assert status == 201, body
        job_id = body["id"]
        done = server.api.jobs.wait(job_id, timeout=120.0)
        assert done["status"] == "succeeded"
        status, body = client.get(f"/api/v1/jobs/{job_id}?after=1")
        assert status == 200
        assert [r["epoch"] for r in body["records"]] == [2]
        # the published model is immediately servable
        n_features = server.api.registry.load("trained").n_features
        status, body = client.post(
            "/api/v1/models/trained/predict", {"rows": [[0.0] * n_features]}
        )
        assert status == 200
        status, listed = client.get("/api/v1/jobs")
        assert status == 200
        assert listed["jobs"][0]["id"] == job_id

    def test_invalid_job_is_400(self, client):
        status, body = client.post("/api/v1/jobs", {"solver": {"name": "nope"}})
        assert status == 400
        assert body["error"]["type"] == "job_error"

    def test_unknown_job_is_404(self, client):
        status, body = client.get("/api/v1/jobs/job-9999")
        assert status == 404
        assert body["error"]["type"] == "job_not_found"

    def test_cancel_long_job(self, client, server):
        payload = {
            "solver": {"name": "newton_admm", "max_epochs": 500},
            "cluster": dict(self.TINY["cluster"]),
        }
        status, body = client.post("/api/v1/jobs", payload)
        assert status == 201
        job_id = body["id"]
        import time

        for _ in range(2000):
            if server.api.jobs.get(job_id)["epochs_done"] >= 1:
                break
            time.sleep(0.01)
        status, body = client.post(f"/api/v1/jobs/{job_id}/cancel")
        assert status == 200
        assert body["cancel_requested"] is True
        done = server.api.jobs.wait(job_id, timeout=120.0)
        assert done["status"] == "cancelled"
        assert done["epochs_done"] < 500


@pytest.mark.skipif(not fastapi_available(), reason="serve extra not installed")
class TestFastAPIParity:
    """When FastAPI is installed (CI's serving job), the app must serve the
    same routes with the same JSON as the stdlib fallback."""

    def test_routes_match_fallback(self, tmp_path):
        httpx = pytest.importorskip("httpx")
        starlette_client = pytest.importorskip("starlette.testclient")
        from repro.serving.app import create_app

        api = build_api(tmp_path / "registry")
        app = create_app(api=api)
        with starlette_client.TestClient(app) as tc:
            assert tc.get("/api/v1/health").json()["status"] == "ok"
            payload = {"weights": encode_array(_weights()), "n_classes": C}
            response = tc.post("/api/v1/models/m", json=payload)
            assert response.status_code == 201
            rows = [[0.1] * P, [0.2] * P]
            response = tc.post("/api/v1/models/m/predict", json={"rows": rows})
            assert response.status_code == 200
            assert len(response.json()["predictions"]) == 2
            response = tc.post("/api/v1/models/m/predict", json={"rows": [[1.0]]})
            assert response.status_code == 422
            assert response.json()["error"]["type"] == "inference_error"
            assert tc.get("/api/v1/models/ghost").status_code == 404
        api.engine.close()
        del httpx  # imported only to skip when the extra is missing
