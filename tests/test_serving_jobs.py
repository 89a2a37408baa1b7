"""Training-job API: validation, progress streaming, cancellation, publish."""

import numpy as np
import pytest

from repro.serving.errors import JobError, JobNotFoundError
from repro.serving.jobs.manager import TERMINAL_STATES, TrainingJobManager
from repro.serving.registry import ModelRegistry

TINY = {
    "solver": {"name": "newton_admm", "max_epochs": 3},
    "cluster": {"dataset": "mnist_like", "n_workers": 2, "n_train": 240, "n_test": 60},
}


def _payload(**overrides):
    payload = {
        "solver": dict(TINY["solver"]),
        "cluster": dict(TINY["cluster"]),
    }
    payload.update(overrides)
    return payload


class TestValidation:
    def test_missing_solver_name(self):
        with pytest.raises(JobError, match="solver.name is required"):
            TrainingJobManager().submit({"cluster": {"dataset": "mnist_like"}})

    @pytest.mark.parametrize("name", ["adamw", "disco", "cocoa"])
    def test_unknown_solver(self, name):
        payload = _payload()
        payload["solver"]["name"] = name
        with pytest.raises(JobError, match="unknown solver"):
            TrainingJobManager().submit(payload)

    def test_missing_dataset(self):
        payload = _payload()
        del payload["cluster"]["dataset"]
        with pytest.raises(JobError, match="cluster.dataset is required"):
            TrainingJobManager().submit(payload)

    @pytest.mark.parametrize("option", ["gpus", "executor"])
    def test_unknown_cluster_option(self, option):
        payload = _payload()
        payload["cluster"][option] = 8
        with pytest.raises(JobError, match="unknown cluster option"):
            TrainingJobManager().submit(payload)

    def test_publish_without_registry(self):
        with pytest.raises(JobError, match="requires a model registry"):
            TrainingJobManager().submit(_payload(publish_as="m"))

    def test_unknown_job_id(self):
        manager = TrainingJobManager()
        with pytest.raises(JobNotFoundError):
            manager.get("job-9999")
        with pytest.raises(JobNotFoundError):
            manager.cancel("job-9999")


class TestLifecycle:
    def test_tiny_job_succeeds_with_streamed_records(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        manager = TrainingJobManager(registry)
        snapshot = manager.submit(_payload(publish_as="served"))
        assert snapshot["id"] == "job-0001"
        assert snapshot["status"] in ("queued", "running")
        done = manager.wait(snapshot["id"], timeout=120.0)
        assert done["status"] == "succeeded"
        assert done["epochs_done"] == 3
        epochs = [r["epoch"] for r in done["records"]]
        assert epochs == [1, 2, 3]
        assert done["result"]["final_objective"] is not None
        assert done["result"]["method"] == "newton_admm"
        # the finished job auto-published its final iterate
        assert done["published"] == {"name": "served", "version": 1}
        model = registry.load("served")
        assert model.metadata["job_id"] == "job-0001"
        assert model.n_classes >= 2
        assert np.all(np.isfinite(model.weights))
        # incremental polling: after the last epoch there is nothing new
        assert manager.get(snapshot["id"], after=3)["records"] == []
        assert len(manager.get(snapshot["id"], after=1)["records"]) == 2

    def test_failed_job_reports_structured_error(self):
        manager = TrainingJobManager()
        payload = _payload()
        payload["cluster"]["dataset"] = "no_such_dataset"
        snapshot = manager.submit(payload)
        done = manager.wait(snapshot["id"], timeout=60.0)
        assert done["status"] == "failed"
        assert done["error"]["type"]
        assert done["error"]["detail"]

    def test_cancel_stops_midway_with_partial_records(self):
        manager = TrainingJobManager()
        payload = _payload()
        payload["solver"]["max_epochs"] = 500  # would run for a long while
        snapshot = manager.submit(payload)
        job_id = snapshot["id"]
        # wait for the first record so we know the solver is in its epoch loop
        deadline_records = 0
        for _ in range(2000):
            deadline_records = manager.get(job_id)["epochs_done"]
            if deadline_records >= 1:
                break
            import time

            time.sleep(0.01)
        assert deadline_records >= 1, "job never produced a record"
        manager.cancel(job_id)
        done = manager.wait(job_id, timeout=120.0)
        assert done["status"] == "cancelled"
        assert 1 <= done["epochs_done"] < 500
        assert done["cancel_requested"] is True
        assert done["published"] is None

    def test_cancel_terminal_job_is_a_noop(self):
        manager = TrainingJobManager()
        snapshot = manager.submit(_payload())
        done = manager.wait(snapshot["id"], timeout=120.0)
        assert done["status"] in TERMINAL_STATES
        again = manager.cancel(snapshot["id"])
        assert again["status"] == done["status"]
        assert again["cancel_requested"] is False

    def test_list_jobs_omits_records(self):
        manager = TrainingJobManager()
        manager.wait(manager.submit(_payload())["id"], timeout=120.0)
        listed = manager.list_jobs()
        assert len(listed) == 1
        assert "records" not in listed[0]
        assert listed[0]["epochs_done"] == 3

    @pytest.mark.process_engine
    def test_process_engine_job(self, tmp_path):
        """Jobs accept engine='process' (real worker OS processes); records
        arrive when the fit returns rather than streaming per epoch."""
        registry = ModelRegistry(tmp_path / "registry")
        manager = TrainingJobManager(registry)
        payload = _payload(publish_as="proc")
        payload["solver"]["max_epochs"] = 2
        payload["cluster"]["engine"] = "process"
        snapshot = manager.submit(payload)
        done = manager.wait(snapshot["id"], timeout=300.0)
        assert done["status"] == "succeeded"
        assert done["epochs_done"] == 2
        assert done["published"] == {"name": "proc", "version": 1}
