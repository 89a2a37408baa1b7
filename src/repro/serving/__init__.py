"""High-throughput serving layer: model registry, micro-batched inference,
and a training-job API.

See ``docs/serving.md`` for the guide.  Quick tour::

    from repro.serving import ModelRegistry, InferenceEngine

    registry = ModelRegistry("model_registry")
    registry.publish("mnist", w, n_classes=10)          # atomic, versioned
    engine = InferenceEngine(registry)                  # natural micro-batching
    engine.predict_proba("mnist", rows)                 # one GEMM per batch

    python -m repro serve --root model_registry         # the HTTP app
"""

from repro.serving.engine import InferenceEngine, MicroBatcher, score_probabilities
from repro.serving.errors import (
    InferenceError,
    JobError,
    JobNotFoundError,
    ModelFormatError,
    ModelNotFoundError,
    RegistryError,
    ServingDependencyError,
    ServingError,
)
from repro.serving.jobs.manager import TrainingJob, TrainingJobManager
from repro.serving.registry import ModelRegistry, ServedModel
