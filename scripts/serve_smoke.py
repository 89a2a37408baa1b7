"""End-to-end smoke of the serving stack (CI's serving job runs this).

Starts the HTTP app on a free port (FastAPI when installed, else the stdlib
fallback — same routes either way), then drives the full lifecycle over real
HTTP: publish → predict → stats over one kept-alive connection, batched +
per-request predicts (checked against each other), structured client errors,
submit a training job and poll it to completion, serve the published result,
and cancel a long job mid-run.
Prints ``serve_smoke: OK`` and exits 0 on success; any failure raises.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import time

import numpy as np

from repro.harness.serialization import encode_array
from repro.serving.app import build_api, fastapi_available
from repro.serving.http_fallback import FallbackServer

P, C = 6, 4


def exchange(conn: http.client.HTTPConnection, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class Client:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def request(self, method: str, path: str, payload=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            return exchange(conn, method, path, payload)
        finally:
            conn.close()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"serve_smoke: {message}")


def main() -> int:
    print(
        "serve_smoke: fastapi "
        + ("installed (serve extra)" if fastapi_available() else "not installed; "
           "exercising the stdlib fallback frontend")
    )
    with tempfile.TemporaryDirectory() as root:
        api = build_api(f"{root}/registry")
        server = FallbackServer(api).start_background()
        client = Client(server.host, server.port)
        try:
            status, body = client.request("GET", "/api/v1/health")
            expect(status == 200 and body["status"] == "ok", f"health: {body}")

            # one kept-alive connection serves publish -> predict -> stats
            # (the model is published with a known dtype, bit-exactly)
            weights = np.random.default_rng(0).standard_normal(P * (C - 1))
            rows = [[0.1 * i] * P for i in range(4)]
            conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
            try:
                status, body = exchange(
                    conn,
                    "POST",
                    "/api/v1/models/smoke",
                    {"weights": encode_array(weights), "n_classes": C},
                )
                expect(status == 201, f"publish: {status} {body}")
                sock = conn.sock
                expect(sock is not None, "the server closed the connection after one reply")
                status, body = exchange(
                    conn, "POST", "/api/v1/models/smoke/predict", {"rows": rows}
                )
                expect(
                    status == 200 and body["version"] == 1 and len(body["predictions"]) == 4,
                    f"predict: {status} {body}",
                )
                status, body = exchange(conn, "GET", "/api/v1/stats")
                expect(
                    status == 200 and body["engine"]["models"]["smoke"]["requests"] == 1,
                    f"stats: {status} {body}",
                )
                expect(conn.sock is sock, "the three requests did not share one connection")
            finally:
                conn.close()

            # batched and per-request predicts agree
            status, batched = client.request(
                "POST", "/api/v1/models/smoke/predict_proba", {"rows": rows}
            )
            expect(status == 200, f"batched predict: {status} {batched}")
            status, direct = client.request(
                "POST",
                "/api/v1/models/smoke/predict_proba",
                {"rows": rows, "mode": "direct"},
            )
            expect(status == 200, f"direct predict: {status} {direct}")
            expect(
                batched["probabilities"] == direct["probabilities"],
                "batched and direct probabilities diverged",
            )

            # structured errors, not tracebacks
            status, body = client.request(
                "POST", "/api/v1/models/smoke/predict", {"rows": [[1.0, 2.0]]}
            )
            expect(
                status == 422 and body["error"]["type"] == "inference_error",
                f"feature mismatch: {status} {body}",
            )
            status, body = client.request(
                "POST", "/api/v1/models/ghost/predict", {"rows": rows}
            )
            expect(status == 404, f"unknown model: {status} {body}")

            # train a tiny model through the job API and serve the result
            status, body = client.request(
                "POST",
                "/api/v1/jobs",
                {
                    "solver": {"name": "newton_admm", "max_epochs": 2},
                    "cluster": {
                        "dataset": "mnist_like",
                        "n_workers": 2,
                        "n_train": 240,
                        "n_test": 60,
                    },
                    "publish_as": "trained",
                },
            )
            expect(status == 201, f"submit job: {status} {body}")
            job_id = body["id"]
            deadline = time.time() + 180
            while True:
                status, body = client.request("GET", f"/api/v1/jobs/{job_id}")
                if body["status"] in ("succeeded", "failed", "cancelled"):
                    break
                expect(time.time() < deadline, f"job timed out: {body}")
                time.sleep(0.2)
            expect(body["status"] == "succeeded", f"job: {body['status']} {body}")
            expect(body["published"]["name"] == "trained", f"publish: {body}")
            n_features = api.registry.load("trained").n_features
            status, body = client.request(
                "POST",
                "/api/v1/models/trained/predict",
                {"rows": [[0.0] * n_features]},
            )
            expect(status == 200, f"serve trained model: {status} {body}")

            # cancel a long job mid-run
            status, body = client.request(
                "POST",
                "/api/v1/jobs",
                {
                    "solver": {"name": "newton_admm", "max_epochs": 500},
                    "cluster": {
                        "dataset": "mnist_like",
                        "n_workers": 2,
                        "n_train": 240,
                        "n_test": 60,
                    },
                },
            )
            expect(status == 201, f"submit long job: {status} {body}")
            long_id = body["id"]
            deadline = time.time() + 60
            while client.request("GET", f"/api/v1/jobs/{long_id}")[1]["epochs_done"] < 1:
                expect(time.time() < deadline, "long job produced no records")
                time.sleep(0.05)
            status, body = client.request("POST", f"/api/v1/jobs/{long_id}/cancel")
            expect(status == 200, f"cancel: {status} {body}")
            done = api.jobs.wait(long_id, timeout=120.0)
            expect(
                done["status"] == "cancelled" and done["epochs_done"] < 500,
                f"cancelled job: {done['status']} after {done['epochs_done']} epochs",
            )

            status, body = client.request("GET", "/api/v1/stats")
            expect(status == 200, f"stats: {status}")
            expect(
                set(body["engine"]["models"]) >= {"smoke", "trained"},
                f"stats models: {body}",
            )
        finally:
            server.shutdown()
    print("serve_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
