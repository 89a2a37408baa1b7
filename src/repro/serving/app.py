"""FastAPI application factory (the ``serve`` extra) plus server bootstrap.

FastAPI / uvicorn are optional (``pip install .[serve]``).  When they are
missing, :func:`create_app` raises a structured
:class:`~repro.serving.errors.ServingDependencyError` and
:func:`run_server` transparently falls back to the stdlib HTTP server
(:mod:`repro.serving.http_fallback`) — same routes, same JSON, no extra
dependencies — so ``python -m repro serve`` works in any environment.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.backend import BackendLike
from repro.serving.api.v1 import ROUTES, V1Api
from repro.serving.engine import InferenceEngine
from repro.serving.errors import ServingDependencyError
from repro.serving.jobs.manager import TrainingJobManager
from repro.serving.registry import ModelRegistry


def build_api(
    root,
    *,
    backend: BackendLike = None,
    max_batch_rows: int = 8192,
    max_batch_requests: Optional[int] = None,
) -> V1Api:
    """Wire registry + engine + job manager into one :class:`V1Api`."""
    registry = ModelRegistry(root)
    engine = InferenceEngine(
        registry,
        backend=backend,
        max_batch_rows=max_batch_rows,
        max_batch_requests=max_batch_requests,
    )
    jobs = TrainingJobManager(registry)
    return V1Api(registry, engine, jobs)


def fastapi_available() -> bool:
    try:
        import fastapi  # noqa: F401
    except ImportError:
        return False
    return True


def create_app(root=None, *, api: Optional[V1Api] = None, **engine_kwargs):
    """Build the FastAPI app over an existing or freshly-wired :class:`V1Api`.

    Every route in :data:`~repro.serving.api.v1.ROUTES` is registered to
    delegate to the shared dispatcher, so the FastAPI surface is identical to
    the stdlib fallback's.
    """
    try:
        from fastapi import FastAPI, Request
        from fastapi.responses import JSONResponse
    except ImportError as exc:
        raise ServingDependencyError(
            "FastAPI is not installed; pip install 'repro-newton-admm[serve]' "
            "or use repro.serving.http_fallback (python -m repro serve does "
            "this automatically)"
        ) from exc
    if api is None:
        if root is None:
            raise ValueError("create_app needs a registry root or a prebuilt api")
        api = build_api(root, **engine_kwargs)

    app = FastAPI(
        title="repro-newton-admm serving",
        description="Micro-batched inference + training jobs over the model registry",
        version="1.0",
    )
    app.state.api = api

    def _make_endpoint(handler_name: str):
        async def endpoint(request: Request):
            body = await request.body()
            if body:
                try:
                    payload = json.loads(body)
                except ValueError:
                    return JSONResponse(
                        status_code=400,
                        content={"error": {"type": "bad_json", "detail": "body is not JSON"}},
                    )
            else:
                payload = {}
            status, content = api.call(
                handler_name,
                dict(request.path_params),
                dict(request.query_params),
                payload,
            )
            return JSONResponse(status_code=status, content=content)

        endpoint.__name__ = handler_name
        return endpoint

    for method, template, handler_name in ROUTES:
        app.add_api_route(
            template, _make_endpoint(handler_name), methods=[method], name=handler_name
        )
    return app


def run_server(
    root,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    backend: BackendLike = None,
    max_batch_rows: int = 8192,
    max_batch_requests: Optional[int] = None,
    print_fn=print,
) -> int:
    """Start the serving app, preferring uvicorn+FastAPI, else the fallback.

    Blocks until interrupted; returns a process exit code.
    """
    api = build_api(
        root,
        backend=backend,
        max_batch_rows=max_batch_rows,
        max_batch_requests=max_batch_requests,
    )
    if fastapi_available():
        try:
            import uvicorn
        except ImportError:
            uvicorn = None
        if uvicorn is not None:
            app = create_app(api=api)
            print_fn(
                f"serving (FastAPI/uvicorn) on http://{host}:{port} — registry "
                f"root {api.registry.root}"
            )
            uvicorn.run(app, host=host, port=port, log_level="warning")
            return 0
    from repro.serving.http_fallback import FallbackServer

    server = FallbackServer(api, host=host, port=port)
    print_fn(
        f"serving (stdlib fallback; install '[serve]' extra for FastAPI) on "
        f"http://{host}:{server.port} — registry root {api.registry.root}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0
