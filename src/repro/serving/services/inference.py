"""Prediction operations behind the ``/predict`` routes."""

from __future__ import annotations

from repro.serving.engine import InferenceEngine
from repro.serving.errors import InferenceError


class InferenceService:
    """Score requests through the micro-batching engine; every reply names
    the version of the model that scored it."""

    def __init__(self, engine: InferenceEngine):
        self.engine = engine

    def _mode(self, payload: dict) -> bool:
        mode = payload.get("mode", "batched")
        if mode not in ("batched", "direct"):
            raise InferenceError(
                f"mode must be 'batched' or 'direct', got {mode!r}"
            )
        return mode == "batched"

    def predict(self, name: str, payload: dict) -> dict:
        """Class labels for ``payload["rows"]`` (one request, r rows)."""
        batched = self._mode(payload)
        labels, version = self.engine.score(
            name, payload.get("rows"), kind="predict", batched=batched
        )
        return {
            "model": name,
            "version": version,
            "mode": "batched" if batched else "direct",
            "predictions": [int(label) for label in labels],
        }

    def predict_proba(self, name: str, payload: dict) -> dict:
        """Class probabilities ``(r, C)`` for ``payload["rows"]``."""
        batched = self._mode(payload)
        probs, version = self.engine.score(
            name, payload.get("rows"), kind="proba", batched=batched
        )
        return {
            "model": name,
            "version": version,
            "mode": "batched" if batched else "direct",
            "n_classes": probs.shape[1],
            "probabilities": [[float(p) for p in row] for row in probs],
        }

    def stats(self) -> dict:
        return {"engine": self.engine.stats()}
