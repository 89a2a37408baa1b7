"""``/api/v1`` — the serving API's route table and dispatcher.

The route table below is the single definition of the HTTP surface.  Two
frontends consume it:

* :mod:`repro.serving.app` registers every route on a FastAPI app (when
  FastAPI is installed — the ``serve`` extra);
* :mod:`repro.serving.http_fallback` serves the same routes from a
  stdlib ``ThreadingHTTPServer`` so ``python -m repro serve`` works without
  optional dependencies (and so CI can smoke-test the API anywhere).

Handlers return ``(status_code, payload)`` and never raise for client
errors: every :class:`~repro.serving.errors.ServingError` is mapped to its
structured ``{"error": {"type": ..., "detail": ...}}`` response.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from repro.serving.engine import InferenceEngine
from repro.serving.errors import ServingError
from repro.serving.jobs.manager import TrainingJobManager
from repro.serving.registry import ModelRegistry
from repro.serving.services.inference import InferenceService
from repro.serving.services.models import ModelService

#: (HTTP method, path template, V1Api handler name).  ``{param}`` segments
#: become FastAPI path parameters / fallback-regex capture groups.
ROUTES = (
    ("GET", "/api/v1/health", "health"),
    ("GET", "/api/v1/models", "list_models"),
    ("GET", "/api/v1/models/{name}", "describe_model"),
    ("POST", "/api/v1/models/{name}", "publish_model"),
    ("POST", "/api/v1/models/{name}/activate", "activate_model"),
    ("POST", "/api/v1/models/{name}/rollback", "rollback_model"),
    ("POST", "/api/v1/models/{name}/predict", "predict"),
    ("POST", "/api/v1/models/{name}/predict_proba", "predict_proba"),
    ("GET", "/api/v1/stats", "stats"),
    ("GET", "/api/v1/jobs", "list_jobs"),
    ("POST", "/api/v1/jobs", "submit_job"),
    ("GET", "/api/v1/jobs/{job_id}", "get_job"),
    ("POST", "/api/v1/jobs/{job_id}/cancel", "cancel_job"),
)


def _template_regex(template: str) -> re.Pattern:
    pattern = re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template)
    return re.compile(f"^{pattern}$")


class V1Api:
    """The v1 API: services wired together plus a method/path dispatcher."""

    def __init__(
        self,
        registry: ModelRegistry,
        engine: InferenceEngine,
        jobs: TrainingJobManager,
    ):
        self.registry = registry
        self.engine = engine
        self.jobs = jobs
        self.models = ModelService(registry, engine)
        self.inference = InferenceService(engine)
        self._routes = [
            (method, template, _template_regex(template), handler)
            for method, template, handler in ROUTES
        ]

    # -- handlers (each returns (status, payload)) -------------------------
    def health(self, params, query, payload):
        return 200, {
            "status": "ok",
            "backend": self.engine.backend.name,
            "models": len(self.registry.list_models()),
        }

    def list_models(self, params, query, payload):
        return 200, self.models.list_models()

    def describe_model(self, params, query, payload):
        return 200, self.models.describe(params["name"])

    def publish_model(self, params, query, payload):
        return 201, self.models.publish(params["name"], payload or {})

    def activate_model(self, params, query, payload):
        return 200, self.models.activate(params["name"], payload or {})

    def rollback_model(self, params, query, payload):
        return 200, self.models.rollback(params["name"])

    def predict(self, params, query, payload):
        return 200, self.inference.predict(params["name"], payload or {})

    def predict_proba(self, params, query, payload):
        return 200, self.inference.predict_proba(params["name"], payload or {})

    def stats(self, params, query, payload):
        return 200, self.inference.stats()

    def list_jobs(self, params, query, payload):
        return 200, {"jobs": self.jobs.list_jobs()}

    def submit_job(self, params, query, payload):
        return 201, self.jobs.submit(payload or {})

    def get_job(self, params, query, payload):
        after = int(query.get("after", 0)) if query else 0
        return 200, self.jobs.get(params["job_id"], after=after)

    def cancel_job(self, params, query, payload):
        return 200, self.jobs.cancel(params["job_id"])

    # -- dispatch ----------------------------------------------------------
    def call(
        self,
        handler: str,
        params: Dict[str, str],
        query: Optional[Dict[str, str]] = None,
        payload: Optional[dict] = None,
    ) -> Tuple[int, dict]:
        """Invoke one handler by name, mapping ServingError to its status."""
        try:
            return getattr(self, handler)(params, query or {}, payload or {})
        except ServingError as exc:
            return exc.status, {"error": exc.to_payload()}

    def dispatch(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        payload: Optional[dict] = None,
    ) -> Tuple[int, dict]:
        """Route a raw (method, path) — the stdlib fallback server's entry."""
        path_exists = False
        for route_method, _, regex, handler in self._routes:
            match = regex.match(path)
            if not match:
                continue
            path_exists = True
            if route_method != method.upper():
                continue
            return self.call(handler, match.groupdict(), query, payload)
        if path_exists:
            return 405, {"error": {"type": "method_not_allowed", "detail": method}}
        return 404, {"error": {"type": "not_found", "detail": path}}
