"""Every module under ``src/repro`` is used by something that runs.

The roots are what a user or the benchmark runs: the top-level ``repro``
package (its public API), ``python -m repro``, and every file under
``bench/``, ``scripts/`` and ``examples/``.  From them the test follows
imports statically (stdlib :mod:`ast`, nothing is imported):

* ``import a.b`` and ``from a import b`` (when ``a.b`` is a module) use that
  module; a package used this way uses everything its ``__init__`` imports;
* ``from pkg import name`` for a re-exported ``name`` resolves through the
  package ``__init__`` to the module that defines it, so a re-export alone
  keeps nothing alive;
* a reached module uses everything it imports, at any depth (lazy imports
  inside functions count).

A module no root reaches is dead code unless :data:`KEPT_UNREACHABLE` names
it with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: unreachable modules that stay, with the reason
KEPT_UNREACHABLE = {
    "repro.linalg.preconditioners": "candidate for a preconditioned local CG solve",
    "repro.admm.consensus": "reference for the rho-weighted consensus average",
    "repro.backend.testing": "test doubles (TracingBackend) for backend tests",
    "repro.datasets.io": "documented loader for users who have the real datasets",
    "repro.datasets.preprocessing": "documented preprocessing for the real datasets",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULES: Dict[str, Path] = {
    _module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))
}
PACKAGES: Set[str] = {
    name for name, path in MODULES.items() if path.name == "__init__.py"
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _from_base(node: ast.ImportFrom, module: Optional[str], is_package: bool) -> str:
    """Absolute module named by ``from <base> import ...`` (relative or not)."""
    if not node.level:
        return node.module or ""
    parts = (module or "").split(".")
    if not is_package:
        parts = parts[:-1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _imports(
    tree: ast.AST, module: Optional[str] = None, is_package: bool = False
) -> Iterator[Tuple[str, Optional[str]]]:
    """``(module, None)`` for ``import module``; ``(base, name)`` for
    ``from base import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, module, is_package)
            for alias in node.names:
                yield base, alias.name


def _binding(package: str, name: str) -> Optional[Tuple[str, Optional[str]]]:
    """Where ``package/__init__.py`` gets ``name`` from.

    ``(module, name)`` for a re-export, ``(package, None)`` for a name the
    ``__init__`` binds itself, ``None`` when it binds no such name.
    """
    tree = _parse(MODULES[package])
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            base = _from_base(node, package, True)
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return base, alias.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return package, None
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return package, None
    return None


def _defines(module: str, name: str) -> bool:
    """Whether ``name`` resolves to something bound at top level of ``module``."""
    if f"{module}.{name}" in MODULES:
        return True
    if module in PACKAGES:
        binding = _binding(module, name)
        if binding is None:
            return False
        base, original = binding
        return original is None or _defines(base, original)
    for node in _parse(MODULES[module]).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any((a.asname or a.name).split(".")[0] == name for a in node.names):
                return True
    return False


class _Graph:
    def __init__(self) -> None:
        self.reached: Set[str] = set()

    def use_module(self, module: str) -> None:
        if module not in MODULES or module in self.reached:
            return
        self.reached.add(module)
        is_package = module in PACKAGES
        for base, name in _imports(_parse(MODULES[module]), module, is_package):
            self.use(base, name)

    def use(self, base: str, name: Optional[str]) -> None:
        if name is None:
            self.use_module(base)
        elif f"{base}.{name}" in MODULES:
            self.use_module(f"{base}.{name}")
        elif base in PACKAGES:
            binding = _binding(base, name)
            if binding is not None and binding[1] is not None:
                self.use(*binding)
        else:
            self.use_module(base)

    def use_file(self, path: Path) -> None:
        for base, name in _imports(_parse(path)):
            self.use(base, name)


def _reached() -> Set[str]:
    graph = _Graph()
    graph.use_module("repro")
    graph.use_module("repro.__main__")
    for directory in ("bench", "scripts", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            graph.use_file(path)
    return graph.reached


def test_every_module_is_reachable_or_kept():
    reached = _reached()
    unreachable = {
        name
        for name in MODULES
        if name not in PACKAGES and name not in reached
    }
    dead = sorted(unreachable - set(KEPT_UNREACHABLE))
    assert not dead, f"modules nothing runs (delete them or keep them with a reason): {dead}"
    # A kept module that became reachable no longer needs its entry.
    stale = sorted(set(KEPT_UNREACHABLE) - unreachable)
    assert not stale, f"reachable modules still on the keep list: {stale}"


def test_every_subpackage_all_entry_resolves():
    missing = []
    for package in sorted(PACKAGES):
        tree = _parse(MODULES[package])
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    if not _defines(package, name):
                        missing.append(f"{package}.{name}")
    assert not missing, f"__all__ names that resolve to nothing: {missing}"
