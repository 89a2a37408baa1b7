"""Span recorder for the traced run: wraps each layer's public entry points
from outside, keeps ``(name, start, end, parent)`` in memory, and restores
every patched attribute on exit.

Spans cover the interpreter they are installed in — rank 0 on the process
engine, since patches do not cross ``spawn``; the other ranks are described by
the program's own ``trace.info["wall_clock"]``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, List, Optional

FIT_SPAN = "distributed.solver_base.fit"

#: span name -> the per-layer self-time metric it is summed into; together the
#: metrics partition one traced fit
SPAN_METRICS = {
    "objectives.hvp": "objectives.hvp_s",
    "objectives.value_and_gradient": "objectives.value_and_gradient_s",
    "objectives.regularized": "objectives.value_and_gradient_s",
    "objectives.value": "objectives.value_s",
    "objectives.minibatch": "objectives.minibatch_s",
    "objectives.gradient": "objectives.minibatch_s",
    "objectives.predict": "objectives.predict_s",
    "linalg.cg": "linalg.cg_self_s",
    "solvers.line_search": "solvers.line_search_self_s",
    "solvers.newton_cg": "solvers.newton_cg_self_s",
    "admm.local_step": "admm.local_step_self_s",
    "admm.penalty_update": "admm.penalty_update_s",
    "distributed.cluster.map_workers": "distributed.cluster.map_workers_s",
    "distributed.comm.collective": "distributed.comm.collective_s",
    "distributed.schedule.execute": "distributed.schedule.execute_self_s",
    FIT_SPAN: "distributed.solver_base.fit_unattributed_s",
}

#: spans a fit causes directly when it makes an epoch record
RECORD_SPANS = ("objectives.regularized", "objectives.predict")


class Recorder:
    """Records nested spans and named counters while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(counters, args, result)`` counts
        work at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            )
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(self.counters, args, result)
            return result

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_span(self, owner, attribute: str, name: str, after=None) -> None:
        self._patch(owner, attribute, self.span(name, owner.__dict__[attribute], after))

    def __enter__(self) -> "Recorder":
        import repro.distributed.solver_base as solver_base
        import repro.solvers.newton_cg as newton_cg
        from repro.admm.penalty import SpectralPenalty
        from repro.distributed.cluster import SimulatedCluster
        from repro.distributed.comm import Communicator
        from repro.objectives.base import RegularizedObjective
        from repro.objectives.softmax import SoftmaxCrossEntropy

        def count_hvp_flops(counters, args, result):
            counters["hvp_flops"] += args[0].flops_hvp()

        def count_cg_iters(counters, args, result):
            counters["cg_iters"] += result.n_iterations

        def count_trials(counters, args, result):
            counters["line_search_trials"] += result.n_evaluations

        self._patch_span(SoftmaxCrossEntropy, "hvp", "objectives.hvp", count_hvp_flops)
        for method in ("value_and_gradient", "value", "gradient", "minibatch", "predict"):
            self._patch_span(SoftmaxCrossEntropy, method, f"objectives.{method}")
        self._patch_span(RegularizedObjective, "value_and_gradient", "objectives.regularized")
        # The two functions as NewtonCG.minimize calls them: through its module's names.
        self._patch_span(newton_cg, "conjugate_gradient", "linalg.cg", count_cg_iters)
        self._patch_span(newton_cg, "armijo_backtracking", "solvers.line_search", count_trials)
        self._patch_span(newton_cg.NewtonCG, "minimize", "solvers.newton_cg")
        self._patch_span(SpectralPenalty, "update", "admm.penalty_update")
        for op in ("gather", "scatter", "broadcast", "allreduce", "allgather", "reduce_scalar"):
            self._patch_span(Communicator, op, "distributed.comm.collective")
        self._patch_span(solver_base, "execute_plan", "distributed.schedule.execute")
        self._patch_span(solver_base.DistributedSolver, "fit", FIT_SPAN)

        # map_workers is split in two: the worker function it is handed becomes
        # the local step, what remains is dispatch, gather and waiting for ranks.
        original = SimulatedCluster.__dict__["map_workers"]

        def map_workers(cluster, fn, **kwargs):
            return original(cluster, self.span("admm.local_step", fn), **kwargs)

        self._patch(
            SimulatedCluster,
            "map_workers",
            self.span("distributed.cluster.map_workers", map_workers),
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def record_seconds(self) -> float:
        """Inclusive time of the spans a fit causes directly to make its epoch
        records (global value+gradient, train and test prediction).  A view
        across layers: it overlaps the ``objectives.*`` self times."""
        return sum(
            end - start
            for name, start, end, parent in self.spans
            if name in RECORD_SPANS and parent >= 0 and self.spans[parent][0] == FIT_SPAN
        )
