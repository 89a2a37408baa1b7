"""Test-double backend exercising the dispatch seam without GPU libraries.

:class:`TracingBackend` computes with NumPy semantics (so results are
bit-identical to the default backend) but routes every ``xp`` namespace call
and every conversion through counting proxies.  Parity tests assert both that
the numbers match the NumPy reference *and* that the code under test actually
dispatched through the backend — i.e. no stray ``np.*`` call bypassed the
seam on the hot path.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np

from repro.backend.numpy_backend import NumpyBackend


class _TracingNamespace:
    """Attribute proxy over :mod:`numpy` that counts function calls."""

    def __init__(self, calls: Counter):
        self._calls = calls

    def __getattr__(self, name: str) -> Any:
        attr = getattr(np, name)
        if not callable(attr):
            return attr
        calls = self._calls

        def traced(*args, **kwargs):
            calls[name] += 1
            return attr(*args, **kwargs)

        traced.__name__ = name
        return traced


class TracingBackend(NumpyBackend):
    """NumPy-identical backend that records which operations it served.

    Attributes
    ----------
    calls:
        ``Counter`` of ``xp.<op>`` invocations plus the conversion helpers
        (``asarray``, ``as_vector``, ``asarray_data``, ``zeros``, ``norm``,
        ``dot``, ``to_numpy`` — the device-to-host transfer — and the fused /
        high-precision kernels ``fused_lse_probs``, ``dot_hp``, ``norm_hp``).
        The fused kernel's *internal* ufunc calls are also traced (its
        reference implementation runs on this namespace), so op budgets of
        fused vs. composed paths are directly comparable.
    """

    name = "tracing"

    def __init__(self):
        self.calls: Counter = Counter()
        self._xp = _TracingNamespace(self.calls)

    @property
    def xp(self):
        return self._xp

    def reset(self) -> None:
        self.calls.clear()

    def total_calls(self) -> int:
        return int(sum(self.calls.values()))

    def asarray(self, x, dtype=None):
        self.calls["asarray"] += 1
        return super().asarray(x, dtype=dtype)

    def asarray_data(self, X):
        self.calls["asarray_data"] += 1
        return super().asarray_data(X)

    def zeros(self, shape, dtype=None):
        self.calls["zeros"] += 1
        return super().zeros(shape, dtype=dtype)

    def norm(self, v) -> float:
        self.calls["norm"] += 1
        return super().norm(v)

    def dot(self, a, b) -> float:
        self.calls["dot"] += 1
        return super().dot(a, b)

    def to_numpy(self, x):
        self.calls["to_numpy"] += 1
        return super().to_numpy(x)

    def dot_hp(self, a, b) -> float:
        self.calls["dot_hp"] += 1
        return super().dot_hp(a, b)

    def norm_hp(self, v) -> float:
        self.calls["norm_hp"] += 1
        return super().norm_hp(v)

    def fused_lse_probs(self, logits):
        self.calls["fused_lse_probs"] += 1
        return super().fused_lse_probs(logits)
