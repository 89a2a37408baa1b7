"""Base class shared by all distributed solvers (Newton-ADMM and baselines).

A distributed solver owns hyper-parameters only; all problem state lives on a
:class:`~repro.distributed.cluster.SimulatedCluster`.  The base class runs the
outer loop, keeps the per-epoch :class:`~repro.metrics.traces.RunTrace`
(objective, accuracy, modelled/wall time, communication rounds), and leaves
two hooks to subclasses: :meth:`_initialize` plus *one of*

- :meth:`_plan_epoch` — the declarative hook every synchronous solver uses:
  return a :class:`~repro.distributed.schedule.RoundPlan` describing the
  epoch's round structure; the base class executes it through
  :func:`~repro.distributed.schedule.execute_plan` (which checks the declared
  communication-round count against what actually ran) and records the
  schedule into ``trace.info["schedule"]``;
- :meth:`_epoch` — the imperative hook, overridden only by the asynchronous
  solvers whose schedules *emerge* from the engine's event queue and cannot
  be declared as a static plan.

Reporting evaluations (global objective, accuracies) are performed outside the
cluster's accounting, so they do not pollute the modelled epoch times — the
paper's timings likewise exclude evaluation.  Like the paper's nodes, each
rank evaluates only the shards it holds: an epoch record folds per-shard
partials (:class:`ShardedLoss`), and no rank ever builds a loss over the
full training set.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import Callable, List, Optional

import numpy as np

from repro.backend import copy_array
from repro.datasets.base import ClassificationDataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.engine import timelines_dict
from repro.distributed.faults import FAULT_POLICIES
from repro.distributed.schedule import RoundPlan, execute_plan
from repro.metrics.classification import accuracy
from repro.metrics.timeline import timeline_summary
from repro.metrics.traces import EpochRecord, RunTrace
from repro.objectives.base import Objective, RegularizedObjective
from repro.objectives.regularizers import L2Regularizer
from repro.utils.validation import check_positive


class ShardedLoss(Objective):
    """The global mean loss as a rank-ordered fold of per-shard partials.

    Every worker's loss carries ``scale = 1 / n_total``, so its value and
    gradient on its own shard are that shard's share of the training-set
    mean.  :meth:`value_and_gradient` evaluates the shards this process holds
    (:meth:`SimulatedCluster.local_workers`), hands the partials around with
    :meth:`SimulatedCluster.map_shards` — one transport exchange on the
    process engine, none on the event engine — and sums them left to
    right in rank order.  Every engine folds the same partials in the same
    order, so epoch records are bit-identical across engines; against a
    full-data evaluation they differ by that reassociation only.

    With ``count_correct`` each partial also counts its shard's correctly
    classified rows; ``n_correct`` holds the total of the last evaluation.
    The per-shard losses are built apart from the workers' own, so a record
    never disturbs the per-iterate caches or FLOP counters of the losses the
    local steps run on; both view the same shard buffers.
    """

    def __init__(self, cluster: SimulatedCluster, *, count_correct: bool):
        self._cluster = cluster
        self._losses = {
            w.worker_id: cluster.shard_loss(w.shard) for w in cluster.local_workers()
        }
        self._first = self._losses[min(self._losses)]
        self.dim = cluster.dim
        self.count_correct = count_correct and hasattr(self._first, "predict")
        self.n_correct = 0

    @property
    def backend(self):
        return self._first.backend

    def initial_point(self) -> np.ndarray:
        return self._first.initial_point()

    def value_and_gradient(self, w):
        def partial(worker):
            loss = self._losses[worker.worker_id]
            value, grad = loss.value_and_gradient(w)
            correct = 0
            if self.count_correct:
                correct = int(np.count_nonzero(loss.predict(w) == worker.shard.y))
            return value, grad, correct

        parts = self._cluster.map_shards(partial)
        value, grad, correct = parts[0]
        for v, g, c in parts[1:]:
            value, grad, correct = value + v, grad + g, correct + c
        self.n_correct = correct
        return value, grad

    def value(self, w) -> float:
        return self.value_and_gradient(w)[0]

    def gradient(self, w):
        return self.value_and_gradient(w)[1]

    def hvp(self, w, v):
        raise NotImplementedError("the epoch record needs no curvature")

    def predict(self, w, X) -> np.ndarray:
        """Class predictions for rows ``X`` (e.g. a test set)."""
        return self._first.predict(w, X)


class DistributedSolver(ABC):
    """Common outer loop for distributed optimization methods.

    Parameters
    ----------
    lam:
        L2 regularization strength (the paper's lambda).
    max_epochs:
        Number of outer iterations.
    evaluate_every:
        Record the trace every this many epochs (1 = every epoch).
    record_accuracy:
        Also compute train/test accuracy at every recorded epoch.
    tol_grad:
        Optional early stop when the global gradient norm falls below this.
    on_failure:
        Declared reaction of this solver's round plans to a worker lost under
        an injected :class:`~repro.distributed.faults.FailureModel`:
        ``"raise"`` (default) aborts with a structured
        :class:`~repro.distributed.faults.WorkerLostError`, ``"stall"`` idles
        the cluster until the worker restarts.  Asynchronous solvers ignore it — their quorum schedules always ride
        through with the surviving workers.
    """

    #: human-readable method name used in traces and reports
    name: str = "distributed"

    #: whether this solver's schedule can run replicated across real OS
    #: processes (``engine="process"``).  True for every declarative
    #: synchronous solver — identical replicas reach identical RoundPlans
    #: and meet at every local round.  Asynchronous solvers set this False:
    #: their schedules emerge from a single shared event queue that has no
    #: SPMD equivalent, so they fall back to the in-process event engine.
    supports_process_engine: bool = True

    #: set by subclasses (from inside :meth:`_epoch`) to stop the outer loop
    #: early, e.g. when ADMM primal/dual residuals fall below tolerance
    _stop_requested: bool = False

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 100,
        evaluate_every: int = 1,
        record_accuracy: bool = True,
        tol_grad: float = 0.0,
        on_failure: str = "raise",
    ):
        self.lam = check_positive(lam, name="lam", strict=False)
        if max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
        if evaluate_every < 1:
            raise ValueError(f"evaluate_every must be >= 1, got {evaluate_every}")
        if on_failure not in FAULT_POLICIES:
            raise ValueError(
                f"on_failure must be one of {FAULT_POLICIES}, got {on_failure!r}"
            )
        self.max_epochs = int(max_epochs)
        self.evaluate_every = int(evaluate_every)
        self.record_accuracy = bool(record_accuracy)
        self.tol_grad = float(tol_grad)
        self.on_failure = on_failure
        self._schedule_log: List[dict] = []
        self._schedule_declared: Optional[dict] = None

    # -- subclass hooks ------------------------------------------------------
    @abstractmethod
    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        """Set up per-worker state before the first epoch."""

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int) -> RoundPlan:
        """Compile one outer iteration into a :class:`RoundPlan`.

        Synchronous solvers implement this; the base :meth:`_epoch` executes
        the plan, verifies its declared communication-round count against what
        the engine actually ran, and logs the schedule for the trace.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _plan_epoch() "
            "(or override _epoch() for event-driven schedules)"
        )

    def _epoch(self, cluster: SimulatedCluster, epoch: int) -> np.ndarray:
        """Run one outer iteration and return the current global iterate.

        The default implementation compiles the epoch with :meth:`_plan_epoch`
        and executes the plan; asynchronous solvers override it to schedule
        directly on the engine's event queue.
        """
        plan = self._plan_epoch(cluster, epoch)
        if plan.on_failure == "raise" and self.on_failure != "raise":
            # The solver-declared policy lands in the plan; plans that set an
            # explicit non-default policy of their own keep it.
            plan.on_failure = self.on_failure
        execution = execute_plan(cluster, plan)
        if self._schedule_declared is None:
            self._schedule_declared = plan.describe()
        self._schedule_log.append({"epoch": epoch, **execution.summary()})
        return execution.result

    # -- outer loop -----------------------------------------------------------
    def fit(
        self,
        cluster: SimulatedCluster,
        *,
        test: Optional[ClassificationDataset] = None,
        w0: Optional[np.ndarray] = None,
        reset_cluster: bool = True,
        on_record: Optional[Callable[[EpochRecord], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RunTrace:
        """Run the solver on ``cluster`` and return the per-epoch trace.

        ``on_record`` is invoked with every :class:`EpochRecord` right after
        it is appended to the trace (the training-job API streams progress
        through it); ``should_stop`` is polled before each epoch and ends the
        run cooperatively when it returns True (the trace records
        ``info["stopped"] = "requested"``).  On the process engine the fit
        runs in worker processes, so ``should_stop`` cannot interrupt it and
        ``on_record`` is replayed once the trace returns.
        """
        runtime = getattr(cluster, "process_runtime", None)
        if runtime is not None and runtime.should_dispatch(self):
            # engine="process": hand the fit to the process runtime, which
            # replicates this solver across real worker processes and re-enters
            # fit() on every rank with the transport active.
            trace = runtime.run_fit(
                self, cluster, test=test, w0=w0, reset_cluster=reset_cluster
            )
            if on_record is not None:
                for record in trace.records:
                    on_record(record)
            return trace
        if reset_cluster:
            cluster.reset_accounting()
        backend = cluster.backend
        objective = RegularizedObjective(
            ShardedLoss(cluster, count_correct=self.record_accuracy),
            L2Regularizer(cluster.dim, self.lam),
        )
        if w0 is None:
            # Zeros on the cluster backend, float32 only under "fp32".
            w0 = objective.initial_point()
        else:
            w0 = copy_array(backend.as_vector(w0, cluster.dim, name="w0"))
        trace = RunTrace(
            method=self.name,
            dataset=cluster.dataset_name,
            n_workers=cluster.n_workers,
            info={
                "lam": self.lam,
                "max_epochs": self.max_epochs,
                "cluster": cluster.describe(),
                "hyperparameters": self.hyperparameters(),
            },
        )

        cluster.wall.start()
        self._stop_requested = False
        self._schedule_log: List[dict] = []
        self._schedule_declared: Optional[dict] = None
        epoch_boundaries: List[List[float]] = []
        self._initialize(cluster, w0)
        w = w0

        for epoch in range(1, self.max_epochs + 1):
            if should_stop is not None and should_stop():
                trace.info["stopped"] = "requested"
                break
            w = self._epoch(cluster, epoch)
            # Per-worker local clocks at the epoch boundary; lets the Gantt
            # export slice a single epoch out of the cumulative timelines.
            epoch_boundaries.append(
                [tl.t for tl in cluster.engine.timelines]
            )
            if (
                epoch % self.evaluate_every != 0
                and epoch != self.max_epochs
                and not self._stop_requested
            ):
                continue
            record = self._make_record(epoch, w, cluster, objective, test)
            trace.records.append(record)
            if on_record is not None:
                on_record(record)
            if self.tol_grad > 0 and record.grad_norm <= self.tol_grad:
                break
            if self._stop_requested:
                break

        cluster.wall.stop()
        trace.final_w = np.asarray(backend.to_numpy(w), dtype=np.float64).copy()
        trace.info["total_flops"] = cluster.total_flops()
        trace.info["communication"] = {
            "rounds": cluster.comm.log.n_rounds,
            "collectives": cluster.comm.log.n_collectives,
            "bytes": cluster.comm.log.bytes_transferred,
        }
        if self._schedule_log:
            trace.info["schedule"] = {
                "declared": self._schedule_declared,
                "epochs": self._schedule_log,
            }
        fault_state = getattr(cluster, "fault_state", None)
        if fault_state is not None:
            # Permanently lost workers get their open downtime drawn so the
            # Gantt chart shows them down to the end of the run.
            fault_state.close_open_downtime(cluster.engine, cluster.clock.time)
            if fault_state.events:
                trace.info["faults"] = {
                    "model": cluster.faults.describe(),
                    "events": [dict(e) for e in fault_state.events],
                }
        self._attach_timelines(trace, cluster, epoch_boundaries)
        return trace

    @staticmethod
    def _attach_timelines(
        trace: RunTrace,
        cluster: SimulatedCluster,
        epoch_boundaries: Optional[List[List[float]]] = None,
    ) -> None:
        """Record the per-worker busy/wait/comm timelines the engine drew.

        Every run schedules through the engine; one that ran no round leaves
        the timelines empty and the trace unchanged.  Alongside the
        cumulative timelines, the per-worker clocks at every epoch boundary
        are stored so ``plot_gantt(trace, epoch=k)`` can render one epoch.
        """
        timelines = cluster.engine.timelines
        if not any(tl.segments for tl in timelines):
            return
        trace.info["timelines"] = timelines_dict(timelines)
        trace.info["timeline_summary"] = timeline_summary(timelines)
        if epoch_boundaries:
            trace.info["timeline_epochs"] = {
                "boundaries": [list(b) for b in epoch_boundaries]
            }

    # -- helpers -------------------------------------------------------
    def _make_record(
        self,
        epoch: int,
        w: np.ndarray,
        cluster: SimulatedCluster,
        objective: RegularizedObjective,
        test: Optional[ClassificationDataset],
    ) -> EpochRecord:
        # One call folds every shard's partials (and their correct counts);
        # test accuracy is rank 0's alone — other ranks are given no test set.
        value, grad = objective.value_and_gradient(
            objective.backend.as_vector(w, objective.dim, name="w")
        )
        loss = objective.loss
        train_acc = float("nan")
        test_acc = float("nan")
        if loss.count_correct:
            train_acc = loss.n_correct / cluster.n_total
            if test is not None:
                test_acc = accuracy(test.y, loss.predict(w, test.X))
        return EpochRecord(
            epoch=epoch,
            objective=float(value),
            grad_norm=objective.backend.norm(grad),
            train_accuracy=train_acc,
            test_accuracy=test_acc,
            modelled_time=cluster.clock.time,
            compute_time=cluster.clock.category("compute"),
            comm_time=cluster.clock.category("communication"),
            wall_time=cluster.wall.elapsed,
            comm_rounds=cluster.comm.log.n_rounds,
            extras=self._epoch_extras(cluster),
        )

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        """Method-specific diagnostics added to every epoch record."""
        return {}

    def hyperparameters(self) -> dict:
        """Serializable hyper-parameter dictionary (for run provenance).

        Underscore-prefixed attributes are run state (clocks, versions,
        counters), not hyper-parameters, and are excluded.  Scalars and
        ``None`` pass through unchanged; everything else (tuples, lists,
        callables, RNGs) is serialized via ``repr`` so no hyper-parameter is
        silently dropped from the provenance record.
        """
        out = {}
        for k, v in vars(self).items():
            if k.startswith("_"):
                continue
            if v is None or isinstance(v, (int, float, str, bool)):
                out[k] = v
            else:
                # Memory addresses (default object/Generator reprs) would
                # make the provenance of two identical runs differ.
                out[k] = re.sub(r" at 0x[0-9a-fA-F]+", "", repr(v))
        return out
