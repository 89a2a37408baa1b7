"""Effect model for the schedule IR: what each plan step reads and writes.

Every step of a :class:`~repro.distributed.schedule.RoundPlan` moves data
through the execution context (``ctx[key]``) and, for local steps, through
per-worker state (``worker.state`` / ``get_vector`` / ``set_vector``).  The
static verifier needs those footprints *before* execution, so this module
computes an :class:`Effects` record per step:

* **Declared**: a step built with ``effects={"reads": [...], "writes":
  [...]}`` states its footprint explicitly.  Worker-state channels use
  ``worker:<key>`` pseudo-keys (``worker:x`` for ``get_vector("x")`` /
  ``set_vector("x", ...)`` / ``state["x"]``).  A declaration is trusted and
  marks the footprint *exact*.

* **Inferred**: otherwise the thunk's source is parsed (``ast`` over the
  module file located via ``fn.__code__``) and context subscripts
  (``ctx["k"]`` loads/stores), ``ctx.get("k")`` calls and worker-state
  channels are collected.  String keys held in closure cells, defaults or
  module globals resolve through the function object.  Anything the walk
  cannot account for — ``ctx`` escaping into a call, a non-literal key, a
  missing source file — degrades the record to *inexact*, and the verifier
  treats an inexact step conservatively.

The binding write (``ctx[step.name] = result``) performed by the executor is
part of every named step's effects regardless of what the thunk does.
"""

from __future__ import annotations

import ast
import linecache
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.distributed.schedule import (
    Barrier,
    Collective,
    DynamicStep,
    GlobalStep,
    Join,
    LocalStep,
    Repeat,
    Step,
)

#: prefix for per-worker state pseudo-keys in reads/writes sets
WORKER_PREFIX = "worker:"

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Effects:
    """Static footprint of one plan step over context and worker state.

    ``reads``/``writes`` hold context keys plus ``worker:<key>`` pseudo-keys.
    ``ctx_exact`` means the context footprint is complete (no unanalyzable
    use of the context object); ``state_exact`` the same for worker state.
    The verifier's race rules only need ``ctx_exact``; PLN010 and the
    per-step ``exact`` flag use both.
    """

    reads: FrozenSet[str] = _EMPTY
    writes: FrozenSet[str] = _EMPTY
    ctx_exact: bool = True
    state_exact: bool = True

    @property
    def exact(self) -> bool:
        return self.ctx_exact and self.state_exact

    def ctx_reads(self) -> FrozenSet[str]:
        return frozenset(k for k in self.reads if not k.startswith(WORKER_PREFIX))

    def ctx_writes(self) -> FrozenSet[str]:
        return frozenset(k for k in self.writes if not k.startswith(WORKER_PREFIX))

    def merge(self, other: "Effects") -> "Effects":
        return Effects(
            reads=self.reads | other.reads,
            writes=self.writes | other.writes,
            ctx_exact=self.ctx_exact and other.ctx_exact,
            state_exact=self.state_exact and other.state_exact,
        )

    def describe(self) -> dict:
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "exact": self.exact,
        }


#: the footprint of a step nothing is known about
UNKNOWN_EFFECTS = Effects(ctx_exact=False, state_exact=False)


def declared_effects(spec: Dict[str, Any]) -> Effects:
    """Normalize a step's ``effects={"reads": [...], "writes": [...]}``.

    A declaration is an exact contract: the step touches these keys and no
    others.  Unknown dict keys raise — a typoed ``"write"`` must not silently
    declare an empty footprint.
    """
    extra = set(spec) - {"reads", "writes"}
    if extra:
        raise ValueError(
            f"unknown effect spec key(s) {sorted(extra)}; expected 'reads'/'writes'"
        )

    def _keys(value: Any) -> FrozenSet[str]:
        if value is None:
            return _EMPTY
        if isinstance(value, str):
            raise ValueError(
                f"effect spec lists key names, got bare string {value!r}"
            )
        keys = list(value)
        bad = [k for k in keys if not isinstance(k, str)]
        if bad:
            raise ValueError(f"effect spec keys must be strings, got {bad!r}")
        return frozenset(keys)

    return Effects(reads=_keys(spec.get("reads")), writes=_keys(spec.get("writes")))


# ---------------------------------------------------------------------------
# AST inference
# ---------------------------------------------------------------------------
_ast_cache: Dict[str, Optional[ast.Module]] = {}


_FunctionNode = Union[ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef]


def _module_tree(filename: str) -> Optional[ast.Module]:
    if filename in _ast_cache:
        return _ast_cache[filename]
    lines = linecache.getlines(filename)
    parsed: Optional[ast.Module] = None
    if lines:
        try:
            parsed = ast.parse("".join(lines), filename=filename)
        except SyntaxError:  # pragma: no cover - source newer than bytecode
            parsed = None
    _ast_cache[filename] = parsed
    return parsed


def _positional_params(node: _FunctionNode) -> Tuple[str, ...]:
    args = node.args
    return tuple(a.arg for a in list(args.posonlyargs) + list(args.args))


def _find_function_node(fn: Callable[..., Any]) -> Optional[_FunctionNode]:
    """Locate ``fn``'s def/lambda node in its module AST, or ``None``.

    Matched by first line number plus positional parameter names; an
    ambiguous line (two lambdas with identical signatures on one line)
    returns ``None`` so inference stays conservative.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    tree = _module_tree(code.co_filename)
    if tree is None:
        return None
    params = tuple(code.co_varnames[: code.co_argcount])
    matches: List[_FunctionNode] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.lineno == code.co_firstlineno and _positional_params(node) == params:
                matches.append(node)
    if len(matches) != 1:
        return None
    return matches[0]


def _resolve_str(fn: Callable[..., Any], name: str) -> Optional[str]:
    """Resolve a variable name in ``fn``'s environment to a string constant."""
    code = fn.__code__
    freevars = code.co_freevars
    if name in freevars:
        closure = fn.__closure__ or ()
        try:
            value = closure[freevars.index(name)].cell_contents
        except (IndexError, ValueError):
            return None
        return value if isinstance(value, str) else None
    defaults = fn.__defaults__ or ()
    if defaults:
        params = code.co_varnames[: code.co_argcount]
        by_name = dict(zip(params[len(params) - len(defaults):], defaults))
        if name in by_name:
            value = by_name[name]
            return value if isinstance(value, str) else None
    value = getattr(fn, "__globals__", {}).get(name)
    return value if isinstance(value, str) else None


#: worker methods that read / write a named state vector
_WORKER_READERS = ("get_vector",)
_WORKER_WRITERS = ("set_vector",)


class _EffectWalker(ast.NodeVisitor):
    """Collect ctx/worker footprints from a thunk body.

    The walker special-cases the recognized access shapes and *consumes*
    them (their sub-trees are visited selectively), so that any leftover
    bare reference to the context or worker name — aliasing, passing into a
    call — is seen by :meth:`visit_Name` and poisons exactness.
    """

    def __init__(self, fn: Callable[..., Any], ctx_name: Optional[str], worker_name: Optional[str]):
        self.fn = fn
        self.ctx_name = ctx_name
        self.worker_name = worker_name
        self.reads: set = set()
        self.writes: set = set()
        self.ctx_exact = True
        self.state_exact = True

    # -- helpers -----------------------------------------------------------
    def _key_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return _resolve_str(self.fn, node.id)
        return None

    def _is_ctx(self, node: ast.expr) -> bool:
        return (
            self.ctx_name is not None
            and isinstance(node, ast.Name)
            and node.id == self.ctx_name
        )

    def _is_worker(self, node: ast.expr) -> bool:
        return (
            self.worker_name is not None
            and isinstance(node, ast.Name)
            and node.id == self.worker_name
        )

    def _record(self, key: Optional[str], *, store: bool, state: bool) -> None:
        if key is None:
            if state:
                self.state_exact = False
            else:
                self.ctx_exact = False
            return
        full = WORKER_PREFIX + key if state else key
        (self.writes if store else self.reads).add(full)

    # -- recognized shapes -------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        store = isinstance(node.ctx, (ast.Store, ast.Del))
        if self._is_ctx(node.value):
            # ctx["k"] / ctx[k] — load, store or del
            self._record(self._key_of(node.slice), store=store, state=False)
            self.visit(node.slice)
            return
        if (
            isinstance(node.value, ast.Attribute)
            and node.value.attr == "state"
            and self._is_worker(node.value.value)
        ):
            # worker.state["k"]
            self._record(self._key_of(node.slice), store=store, state=True)
            self.visit(node.slice)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if self._is_ctx(func.value) and func.attr == "get":
                # ctx.get("k"[, default]) — a read, same contract as indexing
                key = self._key_of(node.args[0]) if node.args else None
                self._record(key, store=False, state=False)
                for extra in node.args[1:]:
                    self.visit(extra)
                for kw in node.keywords:
                    self.visit(kw.value)
                return
            if self._is_worker(func.value) and func.attr in (
                _WORKER_READERS + _WORKER_WRITERS
            ):
                # worker.get_vector("k") / worker.set_vector("k", v)
                key = self._key_of(node.args[0]) if node.args else None
                self._record(
                    key, store=func.attr in _WORKER_WRITERS, state=True
                )
                for extra in node.args[1:]:
                    self.visit(extra)
                for kw in node.keywords:
                    self.visit(kw.value)
                return
            if (
                isinstance(func.value, ast.Attribute)
                and func.value.attr == "state"
                and self._is_worker(func.value.value)
            ):
                # worker.state.get("k") and friends: reads are precise,
                # anything else on the dict is an unknown state effect.
                if func.attr == "get" and node.args:
                    self._record(self._key_of(node.args[0]), store=False, state=True)
                    for extra in node.args[1:]:
                        self.visit(extra)
                    return
                self.state_exact = False
                for arg in node.args:
                    self.visit(arg)
                return
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._is_worker(node.value):
            # Plain attribute access on the worker (worker.objective.…,
            # worker.data, worker.n_samples) is treated as a pure read of
            # static worker structure — not a state channel.  Assigning to
            # a worker attribute, however, is an unknown state effect.
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self.state_exact = False
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare ctx/worker reference that no recognized shape consumed:
        # the object escapes (aliased, passed to a call) and the footprint
        # can no longer be proven complete.
        if self._is_ctx(node):
            self.ctx_exact = False
        elif self._is_worker(node):
            self.state_exact = False


def infer_effects(
    fn: Callable[..., Any],
    *,
    ctx_param: Optional[int] = None,
    worker_param: Optional[int] = None,
) -> Effects:
    """Infer a thunk's effect footprint from its source.

    ``ctx_param``/``worker_param`` give the positional index of the context
    and worker arguments (``None`` = the thunk has no such argument).
    Returns :data:`UNKNOWN_EFFECTS` when the source cannot be located.
    """
    code = getattr(fn, "__code__", None)
    if code is None:  # builtins, functools.partial, callables
        return UNKNOWN_EFFECTS
    node = _find_function_node(fn)
    if node is None:
        return UNKNOWN_EFFECTS
    params = tuple(code.co_varnames[: code.co_argcount])

    def _param(index: Optional[int]) -> Optional[str]:
        if index is None or index >= len(params):
            return None
        return params[index]

    walker = _EffectWalker(fn, _param(ctx_param), _param(worker_param))
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        walker.visit(stmt)
    return Effects(
        reads=frozenset(walker.reads),
        writes=frozenset(walker.writes),
        ctx_exact=walker.ctx_exact,
        state_exact=walker.state_exact,
    )


# ---------------------------------------------------------------------------
# Per-step dispatch
# ---------------------------------------------------------------------------
def step_effects(step: Step) -> Effects:
    """Resolve the effect footprint of one plan step.

    Declared ``effects=`` win over inference; the executor's binding write
    (``ctx[step.name] = ...``) is added either way.  :class:`Join` /
    :class:`Barrier` have empty footprints; a :class:`Repeat` merges its
    body (loop-carried dependencies collapse into one set).  A
    :class:`DynamicStep` without a declaration is fully unknown — it may
    read or write anything.
    """
    if isinstance(step, (Join, Barrier)):
        return Effects()
    if isinstance(step, Repeat):
        merged = Effects()
        for inner in step.steps:
            merged = merged.merge(step_effects(inner))
        return merged

    declared = getattr(step, "effects", None)
    if declared is not None:
        base = declared_effects(declared)
    elif isinstance(step, LocalStep):
        base = infer_effects(step.fn, ctx_param=1, worker_param=0)
    elif isinstance(step, Collective):
        base = infer_effects(step.payload, ctx_param=0)
    elif isinstance(step, GlobalStep):
        base = infer_effects(step.fn, ctx_param=0)
    elif isinstance(step, DynamicStep):
        base = UNKNOWN_EFFECTS
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown plan step {step!r}")

    name = getattr(step, "name", None)
    if name:
        base = Effects(
            reads=base.reads,
            writes=base.writes | {name},
            ctx_exact=base.ctx_exact,
            state_exact=base.state_exact,
        )
    return base


def plan_effects(steps: Iterable[Step]) -> List[Tuple[Step, Effects]]:
    """Resolve effects for a flattened step sequence (verifier input)."""
    return [(step, step_effects(step)) for step in steps]
