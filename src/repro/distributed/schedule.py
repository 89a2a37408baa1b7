"""Declarative round-schedule IR: compile a solver epoch into an engine plan.

The paper's central systems claim is *schedule-shaped*: Newton-ADMM needs one
communication round per outer iteration where GIANT needs three.  Before this
module, every distributed solver encoded its schedule imperatively — ad-hoc
``cluster.map_workers`` and ``cluster.comm.*`` calls whose round count was an
emergent property of call order.  The IR here makes the round structure a
first-class, inspectable object:

``LocalStep``
    One parallel compute phase: a per-worker thunk ``fn(worker, ctx)`` whose
    modelled cost (max over workers of FLOPs-derived time, straggler factors
    applied) is charged exactly as ``map_workers`` always charged it.

``Collective``
    One engine collective (``allreduce`` / ``broadcast`` / ``gather`` /
    ``scatter`` / ``allgather`` / ``reduce_scalar``) with the round-accounting
    flags of :class:`~repro.distributed.comm.Communicator`:
    ``joint_with_previous=True`` merges it into the preceding collective's
    synchronization point (the paper's "one round" for a back-to-back
    reduce+broadcast pair).

``GlobalStep``
    Master-side glue (the ADMM z-update, a line-search argmin): pure Python on
    already-communicated values, charged to nobody — the same accounting the
    imperative solvers used.

``Repeat``
    A body of steps executed a known number of times (sync-SGD's
    per-mini-batch round): declared counts multiply through while the
    description stays one body long.

A :class:`RoundPlan` is an ordered list of steps plus an initial context.
:func:`execute_plan` runs it against a :class:`SimulatedCluster` on any
engine (the steps call the same ``map_workers`` / ``comm`` primitives the
imperative code called, so iterates and modelled times are bit-identical)
and *checks the declared structure*: if the observed communication rounds
or collectives differ from the plan's declared counts, a
:class:`ScheduleError` is raised.
``RunTrace.info["schedule"]`` records the declared plan and the per-epoch
observations for the harness and plotting to consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.distributed.faults import (
    FAULT_POLICIES,
    PartitionError,
    WorkerLostError,
)

#: collective operations a :class:`Collective` step may name
COLLECTIVE_OPS = (
    "allreduce",
    "broadcast",
    "gather",
    "scatter",
    "allgather",
    "reduce_scalar",
)


class ScheduleError(RuntimeError):
    """A plan's declared round structure disagreed with what the engine ran."""


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------

@dataclass
class LocalStep:
    """Per-worker compute thunk ``fn(worker, ctx)``; results bind to ``name``."""

    name: str
    fn: Callable[..., Any]
    label: str = "compute"

    def describe(self) -> dict:
        return {"step": "local", "name": self.name, "label": self.label}


@dataclass
class Collective:
    """One communicator collective; ``payload(ctx)`` builds the buffers."""

    name: str
    op: str
    payload: Callable[[dict], Any]
    joint_with_previous: bool = False

    def __post_init__(self) -> None:
        if self.op not in COLLECTIVE_OPS:
            raise ValueError(
                f"unknown collective op {self.op!r}; expected one of {COLLECTIVE_OPS}"
            )

    @property
    def opens_round(self) -> bool:
        return not self.joint_with_previous

    def describe(self) -> dict:
        return {
            "step": "collective",
            "name": self.name,
            "op": self.op,
            "joint_with_previous": self.joint_with_previous,
        }


@dataclass
class GlobalStep:
    """Uncharged master-side glue ``fn(ctx)``; the result binds to ``name``."""

    fn: Callable[[dict], Any]
    name: Optional[str] = None

    def describe(self) -> dict:
        return {"step": "global", "name": self.name or ""}


@dataclass
class Repeat:
    """A body of steps executed ``times`` times (one trip through per round).

    Keeps the declared structure compact when an epoch is a known number of
    identical rounds (sync-SGD's per-mini-batch step): the description holds
    the body once plus the count, however many times it runs, and the declared
    round total multiplies through.
    """

    times: int
    steps: List["Step"]

    def __post_init__(self) -> None:
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def describe(self) -> dict:
        return {
            "step": "repeat",
            "times": self.times,
            "steps": [s.describe() for s in self.steps],
        }


Step = Union[LocalStep, Collective, GlobalStep, Repeat]


# ---------------------------------------------------------------------------
# Introspection
# ---------------------------------------------------------------------------
def _tally(steps: Sequence[Step], counts: Callable[[Step], bool]) -> int:
    """Number of steps ``counts`` accepts, a :class:`Repeat` body counted
    ``times`` times (module-level: a self-recursive closure is a reference
    cycle)."""
    total = 0
    for step in steps:
        if isinstance(step, Repeat):
            total += step.times * _tally(step.steps, counts)
        elif counts(step):
            total += 1
    return total


# ---------------------------------------------------------------------------
# RoundPlan
# ---------------------------------------------------------------------------
class RoundPlan:
    """An ordered, inspectable schedule for one solver epoch.

    Built with the fluent helpers below and executed by :func:`execute_plan`.
    Steps communicate through a per-execution context dictionary: a
    :class:`LocalStep` binds the list of per-worker results to its name, a
    :class:`Collective` binds the reduced/distributed value, a
    :class:`GlobalStep` binds its return value.  ``returns`` names the context
    key whose value is the epoch's resulting iterate.

    ``on_failure`` declares how the plan reacts when an attached
    :class:`~repro.distributed.faults.FailureModel` takes a worker down at
    one of its synchronization points: ``"raise"`` (default) aborts with a
    structured :class:`~repro.distributed.faults.WorkerLostError`, ``"stall"``
    idles the cluster until the worker restarts (re-running the lost round).

    Examples
    --------
    >>> plan = RoundPlan("mean-of-ones", on_failure="stall")
    >>> _ = plan.local("ones", lambda worker, ctx: 1.0)
    >>> _ = plan.allreduce("total", lambda ctx: ctx["ones"]).returns("total")
    >>> plan.declared_rounds
    1
    """

    def __init__(
        self,
        name: str,
        *,
        context: Optional[dict] = None,
        on_failure: str = "raise",
    ):
        self.name = name
        self.steps: List[Step] = []
        self.context: Dict[str, Any] = dict(context or {})
        self.returns_key: Optional[str] = None
        if on_failure not in FAULT_POLICIES:
            raise ValueError(
                f"on_failure must be one of {FAULT_POLICIES}, got {on_failure!r}"
            )
        self.on_failure = on_failure

    # -- builders ----------------------------------------------------------
    def add(self, step: Step) -> "RoundPlan":
        """Append an already-constructed step; returns the plan (fluent)."""
        self.steps.append(step)
        return self

    def local(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        label: str = "compute",
    ) -> "RoundPlan":
        """Append a :class:`LocalStep`: run ``fn(worker, ctx)`` on every
        worker in parallel; the list of results binds to ``ctx[name]``."""
        return self.add(LocalStep(name, fn, label=label))

    def collective(
        self,
        name: str,
        op: str,
        payload: Callable[[dict], Any],
        *,
        joint_with_previous: bool = False,
    ) -> "RoundPlan":
        """Append a :class:`Collective` of kind ``op`` (see
        :data:`COLLECTIVE_OPS`); ``payload(ctx)`` builds the buffers and the
        reduced/distributed value binds to ``ctx[name]``."""
        return self.add(
            Collective(name, op, payload, joint_with_previous=joint_with_previous)
        )

    def allreduce(self, name: str, payload, **kwargs) -> "RoundPlan":
        """Append an all-reduce collective (element-wise sum, visible everywhere)."""
        return self.collective(name, "allreduce", payload, **kwargs)

    def broadcast(self, name: str, payload, **kwargs) -> "RoundPlan":
        """Append a master-to-everyone broadcast collective."""
        return self.collective(name, "broadcast", payload, **kwargs)

    def gather(self, name: str, payload, **kwargs) -> "RoundPlan":
        """Append a gather-at-the-master collective (one buffer per worker)."""
        return self.collective(name, "gather", payload, **kwargs)

    def scatter(self, name: str, payload, **kwargs) -> "RoundPlan":
        """Append a master-to-each-worker scatter collective."""
        return self.collective(name, "scatter", payload, **kwargs)

    def allgather(self, name: str, payload, **kwargs) -> "RoundPlan":
        """Append an all-gather collective (everyone receives every buffer)."""
        return self.collective(name, "allgather", payload, **kwargs)

    def reduce_scalar(self, name: str, payload, **kwargs) -> "RoundPlan":
        """Append a scalar reduction (one float per worker, summed at the
        master) — typically joined to the preceding collective's round via
        ``joint_with_previous=True``."""
        return self.collective(name, "reduce_scalar", payload, **kwargs)

    def master(
        self,
        fn: Callable[[dict], Any],
        *,
        name: Optional[str] = None,
    ) -> "RoundPlan":
        """Append a :class:`GlobalStep`: uncharged master-side glue ``fn(ctx)``
        whose return value binds to ``ctx[name]`` when named."""
        return self.add(GlobalStep(fn, name=name))

    def repeat(self, times: int, build: Callable[["RoundPlan"], Any]) -> "RoundPlan":
        """Append a body of steps executed ``times`` times.

        ``build`` receives a fresh builder and adds the body's steps to it;
        the description stays one body long regardless of ``times``.
        """
        body = RoundPlan(f"{self.name}-body")
        build(body)
        return self.add(Repeat(times, body.steps))

    def returns(self, key: str) -> "RoundPlan":
        """Name the context key whose value is the epoch's resulting iterate."""
        self.returns_key = key
        return self

    # -- declared structure ------------------------------------------------
    @property
    def declared_rounds(self) -> int:
        """Communication rounds this plan opens."""
        return _tally(
            self.steps, lambda s: isinstance(s, Collective) and s.opens_round
        )

    @property
    def declared_collectives(self) -> int:
        """Collectives this plan issues, joint or not."""
        return _tally(self.steps, lambda s: isinstance(s, Collective))

    def describe(self) -> dict:
        """Serializable declared structure (``RunTrace.info['schedule']``)."""
        return {
            "plan": self.name,
            "rounds": self.declared_rounds,
            "collectives": self.declared_collectives,
            "local_steps": _tally(self.steps, lambda s: isinstance(s, LocalStep)),
            "on_failure": self.on_failure,
            "steps": [s.describe() for s in self.steps],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundPlan({self.name!r}, steps={len(self.steps)}, "
            f"rounds={self.declared_rounds})"
        )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
@dataclass
class PlanExecution:
    """Outcome of one :func:`execute_plan` call: result + observed schedule."""

    result: Any
    context: dict = field(repr=False, default_factory=dict)
    rounds: int = 0
    collectives: int = 0
    bytes_transferred: float = 0.0

    def summary(self) -> dict:
        """Observed per-epoch schedule facts (logged to ``trace.info``)."""
        return {
            "rounds": self.rounds,
            "collectives": self.collectives,
            "bytes": self.bytes_transferred,
        }


def _guard_collective(cluster, policy: str) -> None:
    """Apply the fault policy at a collective's synchronization point.

    ``"raise"`` aborts if any worker is down (or behind a network partition:
    :class:`PartitionError`); ``"stall"`` idles the cluster until every down
    worker restarts and every cut link heals.
    """
    fs = getattr(cluster, "fault_state", None)
    if fs is None:
        return
    now = cluster.clock.time
    # Cut workers whose window closed since the last synchronization point
    # rejoin here: the heal event is recorded and their unreachable window
    # is drawn before a barrier would render it as wait.
    fs.rejoin_healed(now, cluster.engine)
    down = [
        wid for wid in range(cluster.n_workers) if fs.is_down(wid, now)
    ]
    for wid in down:
        fs.note_crash(wid, fs.crash_time_of(wid, now))
    cut = [
        wid for wid in range(cluster.n_workers)
        if wid not in down and fs.is_cut(wid, now)
    ]
    if down and policy == "raise":
        raise WorkerLostError(
            down[0], now, round=fs.round,
            reason="down at collective (policy 'raise')",
        )
    if cut and policy == "raise":
        wid = cut[0]
        fs.note_partition(wid, fs.cut_start(wid, now))
        raise PartitionError(
            wid, now, heals_at=fs.heal_time(wid, now), round=fs.round,
            reason="unreachable at collective (policy 'raise')",
        )
    while down or cut:
        if down:
            cluster.stall_for_restart(down, label="collective-stall")
        else:
            cluster.stall_for_heal(cut, label="collective-stall")
        now = cluster.clock.time
        down = [
            wid for wid in range(cluster.n_workers)
            if fs.is_down(wid, now)
        ]
        cut = [
            wid for wid in range(cluster.n_workers)
            if wid not in down and fs.is_cut(wid, now)
        ]


def _execute_steps(cluster, steps: Sequence[Step], ctx: dict, *, policy: str) -> None:
    """Run ``steps`` in order, binding each step's result into ``ctx``."""
    comm = cluster.comm
    for step in steps:
        if isinstance(step, LocalStep):
            fn = step.fn
            ctx[step.name] = cluster.map_workers(
                lambda worker, _fn=fn: _fn(worker, ctx)
            )
        elif isinstance(step, Collective):
            _guard_collective(cluster, policy)
            ctx[step.name] = getattr(comm, step.op)(
                step.payload(ctx), joint_with_previous=step.joint_with_previous
            )
        elif isinstance(step, GlobalStep):
            value = step.fn(ctx)
            if step.name is not None:
                ctx[step.name] = value
        elif isinstance(step, Repeat):
            for _ in range(step.times):
                _execute_steps(cluster, step.steps, ctx, policy=policy)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown plan step {step!r}")


def execute_plan(cluster, plan: RoundPlan) -> PlanExecution:
    """Run ``plan`` on ``cluster`` and verify its declared round structure.

    The executor issues the *same* ``map_workers`` / ``comm`` calls, in the
    same order with the same buffers, that the imperative solver code issued —
    which is what makes the port bit-identical in iterates and modelled times
    on every engine (pinned by the golden-trace fixtures in
    ``tests/test_schedule.py``).

    When the cluster carries a :class:`~repro.distributed.faults.FailureModel`,
    the plan's ``on_failure`` policy governs every synchronization point for
    the duration of the execution (local rounds via ``map_workers``,
    collectives via the guard here).

    Examples
    --------
    ::

        plan = RoundPlan("one-allreduce")
        plan.local("g", lambda worker, ctx: worker.objective.gradient(w))
        plan.allreduce("g_sum", lambda ctx: ctx["g"])
        plan.returns("g_sum")
        execution = execute_plan(cluster, plan)   # raises ScheduleError on a
        execution.rounds                          # declared-round mismatch
    """
    comm = cluster.comm
    rounds0 = comm.log.n_rounds
    collectives0 = comm.log.n_collectives
    bytes0 = comm.log.bytes_transferred
    ctx = dict(plan.context)
    with cluster.fault_policy(plan.on_failure):
        _execute_steps(cluster, plan.steps, ctx, policy=plan.on_failure)

    # Indexing (not .get) so a typoed returns key fails here, at the plan.
    result = ctx[plan.returns_key] if plan.returns_key else None
    execution = PlanExecution(
        result=result,
        context=ctx,
        rounds=comm.log.n_rounds - rounds0,
        collectives=comm.log.n_collectives - collectives0,
        bytes_transferred=comm.log.bytes_transferred - bytes0,
    )
    if execution.rounds != plan.declared_rounds:
        raise ScheduleError(
            f"plan {plan.name!r} declares {plan.declared_rounds} "
            f"communication round(s) per epoch but executed {execution.rounds}"
        )
    if execution.collectives != plan.declared_collectives:
        raise ScheduleError(
            f"plan {plan.name!r} declares {plan.declared_collectives} "
            f"collective(s) per epoch but executed {execution.collectives}"
        )
    return execution
