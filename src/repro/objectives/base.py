"""Objective-function interfaces.

An :class:`Objective` binds a loss to a particular dataset (or dataset shard)
and exposes value / gradient / Hessian-vector products of the *empirical*
objective as a function of the flat weight vector ``w``.

Scaling convention
------------------
``scale`` multiplies the raw per-sample loss sum:

* ``"mean"`` (default) — objective is the average loss, the form used for the
  single-machine problem and for reporting training objective values;
* ``"sum"`` — raw finite sum, as written in the paper's eq. (1);
* a float — arbitrary multiplier.  Distributed solvers give worker ``k`` the
  multiplier ``1 / n_total`` so that the *sum over workers* of local
  objectives equals the global mean objective.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, is_float_dtype as _is_float_dtype
from repro.utils.validation import check_positive

ScaleLike = Union[str, float]


def validate_design_matrix(X, backend: ArrayBackend, *, name: str = "X"):
    """Validate a design matrix at the API boundary, trusting device arrays.

    Host inputs — NumPy arrays, scipy sparse matrices, lists — get the full
    :func:`~repro.utils.validation.check_array` treatment (finiteness, shape,
    float coercion).  A host input that already carries a floating dtype keeps
    it (float32 data stays float32 through the whole pipeline); non-float
    inputs are promoted to float64.  Arrays already native to an *accelerator*
    backend are trusted as validated when first loaded, so construction never
    forces a device-to-host round-trip.
    """
    from repro.utils.validation import check_array, issparse

    if isinstance(X, np.ndarray) or issparse(X) or not backend.is_native(X):
        dtype = getattr(X, "dtype", None)
        target = dtype if dtype is not None and _is_float_dtype(dtype) else np.float64
        X = check_array(X, name=name, allow_sparse=True, dtype=target)
    return X


def data_float_dtype(X):
    """The floating dtype of a design matrix, or ``None`` when not exposed.

    Used so auxiliary caches (indicators, label vectors) follow the data's
    precision instead of hard-coding float64.
    """
    dtype = getattr(X, "dtype", None)
    if dtype is None or not _is_float_dtype(dtype):
        return None
    return dtype


def resolve_scale(scale: ScaleLike, n_samples: int) -> float:
    """Convert a ``scale`` specification into a float multiplier."""
    if isinstance(scale, str):
        if scale == "mean":
            return 1.0 / max(n_samples, 1)
        if scale == "sum":
            return 1.0
        raise ValueError(f"unknown scale {scale!r}; expected 'mean', 'sum' or a float")
    return check_positive(scale, name="scale")


class Objective(ABC):
    """Abstract smooth objective ``w -> R`` with Hessian-vector products.

    Concrete data-bound objectives accept a ``backend=`` argument and store it
    as ``self._backend``; composite objectives delegate :attr:`backend` to
    their inner objective, so an entire objective tree computes on one array
    backend (see :mod:`repro.backend`).
    """

    #: dimension of the flat weight vector
    dim: int

    #: array backend set by concrete objectives at construction (their
    #: ``backend=None`` resolves the *session default* at that moment);
    #: ``None`` here means "never set", and :attr:`backend` then falls back
    #: to plain NumPy for determinism
    _backend: Optional[ArrayBackend] = None

    @property
    def backend(self) -> ArrayBackend:
        """The array backend this objective computes on."""
        if self._backend is None:
            return get_backend("numpy")
        return self._backend

    def _adopt_backend(self, backend: Optional[ArrayBackend]) -> None:
        """Inherit ``backend`` unless one was set explicitly (used by
        composites to push the data-bound loss's backend into data-free
        terms like regularizers)."""
        if self._backend is None and backend is not None:
            self._backend = backend

    @abstractmethod
    def value(self, w: np.ndarray) -> float:
        """Objective value at ``w``."""

    @abstractmethod
    def gradient(self, w: np.ndarray) -> np.ndarray:
        """Gradient at ``w`` (same shape as ``w``)."""

    @abstractmethod
    def hvp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product ``H(w) @ v``."""

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        """Value and gradient together (overridden where sharing work helps)."""
        return self.value(w), self.gradient(w)

    def value_and_gradient_and_hvp_operator(self, w: np.ndarray):
        """Value, gradient, and a Hessian operator sharing one iterate's work.

        Returns ``(value, gradient, operator)`` where ``operator`` is a
        :class:`~repro.linalg.operators.LinearOperator` computing
        ``H(w) @ v``.  This is the fused entry point for Newton-type solvers:
        objectives with per-iterate caches (the softmax computes
        logits/log-sum-exp/softmax once per distinct ``w``) serve the value,
        the gradient *and* every HVP of the subsequent CG solve from that one
        forward pass.

        The operator is bound to this exact iterate object; it must not be
        applied after ``w`` is mutated in place (solvers here never do).
        """
        from repro.linalg.operators import HessianOperator

        value, grad = self.value_and_gradient(w)
        return value, grad, HessianOperator(self, w)

    def hessian(self, w: np.ndarray) -> np.ndarray:
        """Dense Hessian at ``w``, one :meth:`hvp` per basis vector.

        Intended for small problems (tests); cost is ``dim`` Hessian-vector
        products.
        """
        d = self.dim
        backend = self.backend
        H = np.empty((d, d))  # repro-lint: ignore[RPR001] host-side by contract
        E = np.eye(d)  # repro-lint: ignore[RPR001] host-side by contract
        for j in range(d):
            H[:, j] = backend.to_numpy(self.hvp(w, backend.asarray(E[j])))
        return 0.5 * (H + H.T)

    def initial_point(self) -> np.ndarray:
        """Default starting iterate (all zeros, on this objective's backend).

        Follows the design matrix's floating dtype where one is exposed, so
        native float32 problems start from float32 zeros instead of forcing a
        float64 promotion on the first matmul; ``"mixed"`` iterates are float64.
        """
        dtype = getattr(getattr(self, "X", None), "dtype", None)
        if dtype is not None and not _is_float_dtype(dtype):
            dtype = None
        if getattr(self, "precision", None) == "mixed":
            dtype = np.float64
        return self.backend.zeros(self.dim, dtype=dtype)

    def check_weights(self, w: np.ndarray) -> np.ndarray:
        return self.backend.as_vector(w, self.dim, name="weight vector")

    def _at_storage(self, w):
        """``w`` in the dtype of the design matrix ``self.X``.

        A float64 iterate or direction meeting float32 storage (``"mixed"``
        and ``"fp32"``) is cast once — it is only as large as the weights —
        so the products with ``X`` run in single precision instead of
        upcasting ``X``; one already in the storage dtype is returned as is.
        """
        if w.dtype == self.X.dtype:
            return w
        return self.backend.asarray(w, dtype=self.X.dtype)

    def _promoted(self, out, like):
        """``out`` in ``like``'s dtype where that is wider than ``out``'s.

        Gradients and HVPs come back in the dtype a float64 iterate would
        get from an un-cast product, so callers mixing them with their own
        vectors see no change of dtype.
        """
        if like.dtype.itemsize > out.dtype.itemsize:
            return self.backend.asarray(out, dtype=like.dtype)
        return out

    def _eval_matrix(self, X):
        """Checked, converted evaluation matrix for ``predict`` /
        ``predict_proba`` with an explicit ``X``, in the storage dtype of the
        objective's own design matrix (float64 when there is none), so it is
        scored by the same products as the objective's own data.

        The epoch record scores one test matrix every epoch, so a
        single-entry cache keyed on identity (``X is cached``) saves a
        finiteness check, a float32 cast or a device transfer per record; the
        caller must not mutate ``X`` in place between evaluations.
        """
        from repro.utils.validation import check_array

        cached = getattr(self, "_eval_matrix_cache", None)
        if cached is not None and cached[0] is X:
            return cached[1]
        data = self.backend.asarray_data(
            check_array(X, name="X", allow_sparse=True)
        )
        storage = getattr(getattr(self, "X", None), "dtype", None)
        if storage is not None and data.dtype != storage:  # float32 storage
            data = self.backend.demote_fp32(data)
        self._eval_matrix_cache = (X, data)
        return data

    def _rows(self, indices: np.ndarray):
        """Row subset of this objective's design matrix (for minibatching),
        with a clear error for backend sparse formats that cannot be indexed."""
        try:
            return self.X[indices]
        except TypeError as exc:
            raise NotImplementedError(
                f"backend {self.backend.name!r} does not support row "
                "subsetting of sparse design matrices"
            ) from exc

    # FLOP estimates (overridden by concrete objectives); the distributed
    # runtime uses them to convert work into modelled compute time.
    def flops_value(self) -> float:
        return 0.0

    def flops_gradient(self) -> float:
        return 0.0

    def flops_hvp(self) -> float:
        return 0.0

    def flops_value_and_gradient(self) -> float:
        """FLOPs of one fused ``value_and_gradient`` call.

        Defaults to the sum of the separate calls; objectives whose fused
        path shares work (the softmax computes the logits GEMM and the
        softmax normalization once) override this so modelled engine times
        track what the kernels actually execute.
        """
        return self.flops_value() + self.flops_gradient()

    @property
    def n_samples(self) -> int:
        """Number of samples behind this objective (0 for pure penalties)."""
        return 0


class RegularizedObjective(Objective):
    """Sum of a data-fit objective and a regularizer: ``F(w) = L(w) + R(w)``."""

    def __init__(self, loss: Objective, regularizer: Objective):
        if loss.dim != regularizer.dim:
            raise ValueError(
                f"loss dim {loss.dim} != regularizer dim {regularizer.dim}"
            )
        self.loss = loss
        self.regularizer = regularizer
        # Data-free regularizers inherit the loss's backend so the whole tree
        # computes on one device.  The *resolved* backend is used so wrapper
        # losses (ScaledObjective, CountingObjective, ...) that delegate their
        # backend propagate it too.
        regularizer._adopt_backend(loss.backend)
        self.dim = loss.dim

    @property
    def backend(self) -> ArrayBackend:
        return self.loss.backend

    def initial_point(self) -> np.ndarray:
        return self.loss.initial_point()

    def value(self, w: np.ndarray) -> float:
        w = self.check_weights(w)
        return self.loss.value(w) + self.regularizer.value(w)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = self.check_weights(w)
        return self.loss.gradient(w) + self.regularizer.gradient(w)

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        w = self.check_weights(w)
        lv, lg = self.loss.value_and_gradient(w)
        rv, rg = self.regularizer.value_and_gradient(w)
        return lv + rv, lg + rg

    def hvp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = self.check_weights(w)
        return self.loss.hvp(w, v) + self.regularizer.hvp(w, v)

    def flops_value(self) -> float:
        return self.loss.flops_value() + self.regularizer.flops_value()

    def flops_value_and_gradient(self) -> float:
        return (
            self.loss.flops_value_and_gradient()
            + self.regularizer.flops_value_and_gradient()
        )

    def flops_gradient(self) -> float:
        return self.loss.flops_gradient() + self.regularizer.flops_gradient()

    def flops_hvp(self) -> float:
        return self.loss.flops_hvp() + self.regularizer.flops_hvp()

    def minibatch(self, indices: np.ndarray) -> "RegularizedObjective":
        """Unbiased mini-batch version (requires the loss to support it)."""
        if not hasattr(self.loss, "minibatch"):
            raise AttributeError("underlying loss does not support minibatching")
        return RegularizedObjective(self.loss.minibatch(indices), self.regularizer)

    @property
    def n_samples(self) -> int:
        return self.loss.n_samples


class ScaledObjective(Objective):
    """``factor * f(w)`` — rescales an existing objective.

    Distributed baselines use this to convert a worker's "global contribution"
    loss (scaled by ``1 / n_total``) into the *local mean* loss GIANT/DANE
    solve (scaled by ``1 / n_local``), without re-binding the data.
    """

    def __init__(self, base: Objective, factor: float):
        self.base = base
        self.factor = float(factor)
        if not np.isfinite(self.factor):
            raise ValueError(f"factor must be finite, got {factor}")
        self.dim = base.dim

    @property
    def backend(self) -> ArrayBackend:
        return self.base.backend

    def initial_point(self) -> np.ndarray:
        return self.base.initial_point()

    def value(self, w: np.ndarray) -> float:
        return self.factor * self.base.value(w)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.factor * self.base.gradient(w)

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        v, g = self.base.value_and_gradient(w)
        return self.factor * v, self.factor * g

    def hvp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.factor * self.base.hvp(w, v)

    def flops_value(self) -> float:
        return self.base.flops_value()

    def flops_value_and_gradient(self) -> float:
        return self.base.flops_value_and_gradient()

    def flops_gradient(self) -> float:
        return self.base.flops_gradient()

    def flops_hvp(self) -> float:
        return self.base.flops_hvp()

    @property
    def n_samples(self) -> int:
        return self.base.n_samples


class ProximallyAugmentedObjective(Objective):
    """``f(w) + (rho / 2) * ||w - center||^2`` — the ADMM local subproblem.

    This is eq. (6a) of the paper rewritten with ``center = z + y / rho``; the
    worker-side Newton solver minimizes exactly this object.
    """

    def __init__(self, base: Objective, rho: float, center: np.ndarray):
        self.base = base
        self.rho = check_positive(rho, name="rho")
        self.center = base.backend.as_vector(center, base.dim, name="center")
        self.dim = base.dim

    @property
    def backend(self) -> ArrayBackend:
        return self.base.backend

    def value(self, w: np.ndarray) -> float:
        w = self.check_weights(w)
        diff = w - self.center
        return self.base.value(w) + 0.5 * self.rho * float(diff @ diff)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = self.check_weights(w)
        return self.base.gradient(w) + self.rho * (w - self.center)

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        w = self.check_weights(w)
        v, g = self.base.value_and_gradient(w)
        diff = w - self.center
        return v + 0.5 * self.rho * float(diff @ diff), g + self.rho * diff

    def hvp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = self.check_weights(w)
        return self.base.hvp(w, v) + self.rho * v

    def flops_value(self) -> float:
        return self.base.flops_value() + 3.0 * self.dim

    def flops_value_and_gradient(self) -> float:
        # The fused override computes diff / value term / gradient term once.
        return self.base.flops_value_and_gradient() + 4.0 * self.dim

    def flops_gradient(self) -> float:
        return self.base.flops_gradient() + 3.0 * self.dim

    def flops_hvp(self) -> float:
        return self.base.flops_hvp() + 2.0 * self.dim

    @property
    def n_samples(self) -> int:
        return self.base.n_samples


class LinearlyPerturbedObjective(Objective):
    """``f(w) - b @ w + (mu / 2) * ||w - center||^2``.

    The DANE/AIDE local subproblem: the base local loss perturbed by a linear
    term (built from local and global gradients) plus a proximal term.
    """

    def __init__(
        self,
        base: Objective,
        linear: np.ndarray,
        mu: float = 0.0,
        center: Optional[np.ndarray] = None,
    ):
        self.base = base
        self.linear = base.backend.as_vector(linear, base.dim, name="linear term")
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = float(mu)
        if center is None:
            center = base.backend.zeros(
                base.dim, dtype=getattr(self.linear, "dtype", None)
            )
        self.center = base.backend.as_vector(center, base.dim, name="center")
        self.dim = base.dim

    @property
    def backend(self) -> ArrayBackend:
        return self.base.backend

    def value(self, w: np.ndarray) -> float:
        w = self.check_weights(w)
        out = self.base.value(w) - float(self.linear @ w)
        if self.mu > 0:
            diff = w - self.center
            out += 0.5 * self.mu * float(diff @ diff)
        return out

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = self.check_weights(w)
        g = self.base.gradient(w) - self.linear
        if self.mu > 0:
            g = g + self.mu * (w - self.center)
        return g

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        w = self.check_weights(w)
        v, g = self.base.value_and_gradient(w)
        out_v = v - float(self.linear @ w)
        out_g = g - self.linear
        if self.mu > 0:
            diff = w - self.center
            out_v += 0.5 * self.mu * float(diff @ diff)
            out_g = out_g + self.mu * diff
        return out_v, out_g

    def hvp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = self.check_weights(w)
        out = self.base.hvp(w, v)
        if self.mu > 0:
            out = out + self.mu * v
        return out

    def flops_value(self) -> float:
        return self.base.flops_value() + 4.0 * self.dim

    def flops_value_and_gradient(self) -> float:
        # value+gradient on the same iterate share the base's forward work
        # through its per-iterate cache; the perturbation terms are cheap.
        return self.base.flops_value_and_gradient() + 8.0 * self.dim

    def flops_gradient(self) -> float:
        return self.base.flops_gradient() + 4.0 * self.dim

    def flops_hvp(self) -> float:
        return self.base.flops_hvp() + 2.0 * self.dim

    def minibatch(self, indices: np.ndarray) -> "LinearlyPerturbedObjective":
        """Unbiased mini-batch version: the stochastic part is the base loss;
        the linear and proximal terms are deterministic and kept in full."""
        if not hasattr(self.base, "minibatch"):
            raise AttributeError("underlying objective does not support minibatching")
        return LinearlyPerturbedObjective(
            self.base.minibatch(indices), self.linear, self.mu, self.center
        )

    @property
    def n_samples(self) -> int:
        return self.base.n_samples
