"""Model families whose tangent kernel evolves under gradient descent.

Three families:

* quadratic models (pure, with-bias, or generic) built from static
  per-datapoint feature vectors and symmetric meta-feature matrices,
* two-layer nets with a scale-invariant activation (ReLU as the special
  case with slopes (0, 1)),
* a three-layer ReLU net with one square hidden matrix and no biases, used
  for the image experiments.

Every family exposes outputs, the D x D tangent kernel (the 1/D-normalized
Gram matrix of per-sample output gradients), an exact full-batch
gradient-descent step, its squared weight norm, its ``degree`` in the
weights, and the norm its single-datapoint window is proved on
(``certified_norm``; None where that is the weight norm itself, or where
no window is proved).  A family states
its trainable arrays in a fixed order (``weights``) and, from one forward pass,
one gradient factor pair ``(left, right)`` per array: sample a's output
gradient with respect to that array is ``scale * outer(left[a], right[a])``,
or ``scale * left[a]`` when the array is a vector (``right`` is None).  The
kernel (``tangent_kernel``) and the step (``loss_gradients``) are written
once over those factors, so both always come from the same gradients.
Models are value-like records over numpy arrays; a single trainer owns and
mutates one model.

Each model keeps the forward pass of its current weights.  ``outputs(x)``
always runs the pass afresh and keeps it together with the object ``x``;
``ntk(x)`` and ``apply_gd_step(x, ...)`` build their factors from the kept
pass when they are handed that same object (``is``), and run their own pass
otherwise.  The kept pass is valid from ``outputs(x)`` until the model's next
update, so the inputs must not be written in between.  Weights change only
through ``apply_gd_step``, whose one in-place update drops the kept pass and
writes each gradient into a buffer the model keeps; code that writes the
arrays of ``weights()`` itself must call ``outputs`` again before ``ntk`` or a
step.  ``clone()`` and pickling carry neither the pass nor the buffers.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from catapult.numerics import Rng

# Orthogonality tolerance for the with-bias variant: every meta-feature
# matrix must annihilate every feature vector to this absolute precision.
BIAS_ORTHOGONALITY_TOL = 1e-10


class ModelError(ValueError):
    """A model was constructed or used outside its documented contract."""


def scale_invariant(x: np.ndarray, a_minus: float, a_plus: float) -> np.ndarray:
    """Piecewise-linear activation: a_plus*x for x >= 0, a_minus*x for x < 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, a_plus * x, a_minus * x)


def scale_invariant_deriv(x: np.ndarray, a_minus: float, a_plus: float) -> np.ndarray:
    """Slope of the scale-invariant activation; (a_plus+a_minus)/2 at exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(
        x > 0.0, a_plus, np.where(x < 0.0, a_minus, 0.5 * (a_plus + a_minus))
    )


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy; (a+a.T)/2 is bitwise symmetric."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def _as_inputs(inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ModelError(f"inputs must be a (D, d) matrix, got shape {x.shape}")
    return x


def tangent_kernel(factors, scale: float) -> np.ndarray:
    """D x D kernel of per-sample output gradients: the Gram matrix
    ``(left left^T) * (right right^T)`` summed over the factor pairs, times
    ``scale**2 / D``."""
    gram = sum(
        left @ left.T if right is None else (left @ left.T) * (right @ right.T)
        for left, right in factors
    )
    return _symmetrize(gram) * (scale**2 / factors[0][0].shape[0])


def loss_gradients(factors, errors, scale: float, out=None) -> list[np.ndarray]:
    """Gradient of the 1/(2D) squared loss for per-datapoint errors z - y,
    one array per factor pair: ``scale/D * sum_a errors[a] * outer(left[a],
    right[a])``.  Each gradient is built by one product, into its array of
    ``out`` when given, and scaled there."""
    errors = np.asarray(errors, dtype=np.float64)
    step = scale / errors.shape[0]
    gradients = [
        np.matmul(left.T, errors, out=g)
        if right is None
        else np.matmul((left * errors[:, None]).T, right, out=g)
        for (left, right), g in zip(factors, out or [None] * len(factors))
    ]
    for g in gradients:
        g *= step
    return gradients


def _squared_norm(weights: list[np.ndarray]) -> float:
    return sum(float(w @ w) if w.ndim == 1 else float((w**2).sum()) for w in weights)


class _KeptPass:
    """The forward pass of the current weights, kept with the inputs object
    it was run on (see the module docstring), and the one in-place update.
    A family supplies ``_forward(inputs)`` and ``weights()``."""

    _kept = None  # (inputs, forward pass), or None once the weights moved
    _gradients = None  # one buffer per array of weights(), made at the first step

    def _keep(self, inputs, forward):
        self._kept = (inputs, forward)
        return forward

    def _pass(self, inputs):
        """The kept pass when ``inputs`` is the object it was run on, else a
        fresh one."""
        kept = self._kept
        if kept is not None and kept[0] is inputs:
            return kept[1]
        return self._forward(inputs)

    def _update(self, factors, errors, eta: float, scale: float) -> None:
        """One gradient-descent step in place, ``w -= eta * g`` per array,
        with each gradient built and scaled in its kept buffer."""
        self._kept = None
        if self._gradients is None:
            self._gradients = [np.empty_like(w) for w in self.weights()]
        for w, g in zip(self.weights(), loss_gradients(factors, errors, scale, self._gradients)):
            g *= eta
            w -= g

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_kept", None)
        state.pop("_gradients", None)
        return state


# ---------------------------------------------------------------------------
# Quadratic models
# ---------------------------------------------------------------------------


@dataclass
class QuadraticModel(_KeptPass):
    """Quadratic-in-the-weights model with static (meta-)feature data.

    The output on datapoint ``a`` is
    ``theta @ features[a] + (zeta/2) * theta @ meta_features[a] @ theta``.

    Variants:
      * ``pure``: all feature vectors are zero,
      * ``with_bias``: every meta-feature matrix annihilates every feature
        vector (checked to ``BIAS_ORTHOGONALITY_TOL``),
      * ``generic``: no structural constraint; no learning-rate guarantees
        are issued for this variant.
    """

    theta: np.ndarray  # (n,)
    features: np.ndarray  # (D, n)
    meta_features: np.ndarray  # (D, n, n), each exactly symmetric
    zeta: float
    variant: str = "generic"
    degree = 2  # of the meta-feature term; the feature term has degree one

    def __post_init__(self):
        # Trainable arrays are copied: every GD step updates them in place.
        self.theta = np.array(self.theta, dtype=np.float64).reshape(-1)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.meta_features = np.asarray(self.meta_features, dtype=np.float64)
        self.zeta = float(self.zeta)
        n = self.theta.shape[0]
        if self.features.ndim != 2 or self.features.shape[1] != n:
            raise ModelError(
                f"features must have shape (D, {n}), got {self.features.shape}"
            )
        d_pts = self.features.shape[0]
        if self.meta_features.shape != (d_pts, n, n):
            raise ModelError(
                f"meta_features must have shape ({d_pts}, {n}, {n}), "
                f"got {self.meta_features.shape}"
            )
        if not self.zeta >= 0.0:
            raise ModelError("zeta must be a non-negative real number")
        if not np.array_equal(self.meta_features, self.meta_features.swapaxes(1, 2)):
            raise ModelError("every meta-feature matrix must be exactly symmetric")
        if self.variant not in ("pure", "with_bias", "generic"):
            raise ModelError(f"unknown variant {self.variant!r}")
        if self.variant == "pure" and np.any(self.features != 0.0):
            raise ModelError("pure variant requires all feature vectors to be zero")
        if self.variant == "with_bias":
            overlap = np.einsum("aij,bj->abi", self.meta_features, self.features)
            worst = float(np.abs(overlap).max()) if overlap.size else 0.0
            if worst > BIAS_ORTHOGONALITY_TOL:
                raise ModelError(
                    "with_bias variant requires meta_features @ features == 0; "
                    f"max violation {worst:.3e}"
                )

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def num_points(self) -> int:
        return self.features.shape[0]

    def _check_inputs(self, inputs) -> None:
        if inputs is not None and len(inputs) != self.num_points:
            raise ModelError(
                f"model carries features for {self.num_points} datapoints, "
                f"got {len(inputs)} inputs"
            )

    def _forward(self, inputs) -> np.ndarray:
        """The psi pass ``meta_features @ theta``, (D, n); the features are
        static, so the inputs only name the datapoints."""
        return self.meta_features @ self.theta

    def outputs(self, inputs=None) -> np.ndarray:
        """Model outputs on the datapoints the features were built for."""
        self._check_inputs(inputs)
        meta_theta = self._keep(inputs, self._forward(inputs))
        return self.features @ self.theta + 0.5 * self.zeta * (meta_theta @ self.theta)

    def effective_features(self) -> np.ndarray:
        """Theta-dependent features: row a is the output gradient on
        datapoint a."""
        return self.features + self.zeta * self._forward(None)

    def weights(self) -> list[np.ndarray]:
        return [self.theta]

    def _factors(self, inputs) -> list:
        return [(self.features + self.zeta * self._pass(inputs), None)]

    def ntk(self, inputs=None) -> np.ndarray:
        self._check_inputs(inputs)
        return tangent_kernel(self._factors(inputs), 1.0)

    def grad_theta(self, errors: np.ndarray) -> np.ndarray:
        """Loss gradient for supplied per-datapoint errors z - y."""
        return loss_gradients(self._factors(None), errors, 1.0)[0]

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        self._update(self._factors(inputs), errors, eta, 1.0)

    def weight_norm(self) -> float:
        return _squared_norm(self.weights())

    @functools.cached_property
    def psi_spectrum(self) -> np.ndarray:
        """Eigenvalues of the one meta-feature matrix, ascending, from one
        eigenvalues-only solve.  Defined on one datapoint only.  Meta-features
        are static, so the solve runs once per model and every bound reads
        it; a clone made after the first read shares it."""
        if self.num_points != 1:
            raise ModelError("the meta-feature spectrum is kept for one datapoint only")
        spectrum = np.linalg.eigvalsh(self.meta_features[0])
        spectrum.flags.writeable = False
        return spectrum

    def certified_norm(self, inputs=None) -> float | None:
        """Squared weight norm plus the squared feature-aligned component.

        Defined for the single-datapoint with-bias model, whose window is
        proved on it; None elsewhere, where the weight norm is the
        certified quantity (or none is).
        """
        if self.variant != "with_bias" or self.num_points != 1:
            return None
        phi = self.features[0]
        phi_sq = float(phi @ phi)
        if phi_sq == 0.0:
            return None
        return self.weight_norm() + float(phi @ self.theta) ** 2 / phi_sq

    def clone(self) -> "QuadraticModel":
        # The clone shares the features this model's __post_init__ already
        # checked, so it copies theta and does not check them again; the copy
        # goes through __getstate__, so the kept pass and buffers stay behind.
        twin = copy.copy(self)
        twin.theta = self.theta.copy()
        return twin


def linear_net_with_bias_embedding(
    width: int, rng: Rng, bias0: float = 0.0
) -> QuadraticModel:
    """Two-layer linear net with an output bias, as a with-bias quadratic model.

    The abstract weights are the concatenation (u, v, b).  The only non-zero
    feature component sits on the bias coordinate, and the meta-feature
    matrix couples u_i to v_i, so the quadratic form reproduces
    ``u @ v / sqrt(width) + b`` with ``zeta = width**-0.5``.
    """
    if width < 1:
        raise ModelError("width must be >= 1")
    n = 2 * width + 1
    u0 = rng.normal(width)
    v0 = rng.normal(width)
    theta = np.concatenate([u0, v0, [float(bias0)]])
    phi = np.zeros((1, n))
    phi[0, -1] = 1.0
    psi = np.zeros((1, n, n))
    idx = np.arange(width)
    psi[0, idx, width + idx] = 1.0
    psi[0, width + idx, idx] = 1.0
    return QuadraticModel(
        theta=theta,
        features=phi,
        meta_features=psi,
        zeta=1.0 / math.sqrt(width),
        variant="with_bias",
    )


# ---------------------------------------------------------------------------
# Two-layer homogenous nets
# ---------------------------------------------------------------------------


@dataclass
class HomogenousNet(_KeptPass):
    """Two-layer net with a scale-invariant activation.

    Output on input x is ``v @ sigma(u @ x) / sqrt(n)`` where sigma has
    slopes (a_minus, a_plus) and ``0 <= a_minus <= a_plus``.  ReLU is the
    special case (0, 1).  The output is a degree-2 positively homogeneous
    function of the weights.
    """

    u: np.ndarray  # (n, d)
    v: np.ndarray  # (n,)
    a_minus: float
    a_plus: float
    # Sign of the first layer at construction (u >= 0), kept for 1d nets
    # with a zero negative slope: on one datapoint only the neurons on the
    # side active at initialization ever move.
    frozen_plus: np.ndarray | None = field(default=None, init=False, repr=False)
    degree = 2

    def __post_init__(self):
        # Trainable arrays are copied: every GD step updates them in place.
        self.u = np.array(self.u, dtype=np.float64)
        if self.u.ndim == 1:
            self.u = self.u[:, None]
        self.v = np.array(self.v, dtype=np.float64).reshape(-1)
        self.a_minus = float(self.a_minus)
        self.a_plus = float(self.a_plus)
        if self.u.shape[0] != self.v.shape[0]:
            raise ModelError("u and v must agree on the hidden width")
        if not (0.0 <= self.a_minus <= self.a_plus):
            raise ModelError("slopes must satisfy 0 <= a_minus <= a_plus")
        if self.a_minus == 0.0 and self.input_dim == 1:
            self.frozen_plus = self.u[:, 0] >= 0.0

    @classmethod
    def init_random(
        cls,
        width: int,
        rng: Rng,
        a_minus: float,
        a_plus: float,
        input_dim: int = 1,
    ) -> "HomogenousNet":
        """Standard-normal initialization."""
        return cls(
            u=rng.normal((width, input_dim)),
            v=rng.normal(width),
            a_minus=a_minus,
            a_plus=a_plus,
        )

    @property
    def width(self) -> int:
        return self.v.shape[0]

    @property
    def input_dim(self) -> int:
        return self.u.shape[1]

    @property
    def output_scale(self) -> float:
        return 1.0 / math.sqrt(self.width)

    def weights(self) -> list[np.ndarray]:
        return [self.v, self.u]

    def _forward(self, inputs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = _as_inputs(inputs)
        pre = x @ self.u.T  # (D, n)
        return x, pre, scale_invariant(pre, self.a_minus, self.a_plus)

    def _factors(self, inputs) -> list:
        """Factors of ``weights()``."""
        x, pre, act = self._pass(inputs)
        return [(act, None), (scale_invariant_deriv(pre, self.a_minus, self.a_plus) * self.v, x)]

    def activations(self, inputs) -> list[np.ndarray]:
        return [self._forward(inputs)[2]]

    def outputs(self, inputs) -> np.ndarray:
        return self._keep(inputs, self._forward(inputs))[2] @ self.v / math.sqrt(self.width)

    def ntk(self, inputs) -> np.ndarray:
        return tangent_kernel(self._factors(inputs), self.output_scale)

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        self._update(self._factors(inputs), errors, eta, self.output_scale)

    def weight_norm(self) -> float:
        return _squared_norm(self.weights())

    def active_on(self, x: float) -> np.ndarray:
        """Mask of the neurons active on the 1d input x at construction
        (``u x > 0``): the u < 0 side when x < 0, otherwise the u >= 0 side."""
        if self.frozen_plus is None:
            raise ModelError("the sign split is kept for 1d nets with a_minus == 0 only")
        return ~self.frozen_plus if x < 0.0 else self.frozen_plus

    def certified_norm(self, inputs) -> float | None:
        """Squared norm over the neurons active on a single 1d datapoint
        (first layer plus the matching second-layer slots): the quantity the
        zero-negative-slope window is proved on.  None on several points and
        for nets with a non-zero negative slope, whose window is proved on
        the weight norm."""
        x = _as_inputs(inputs)
        if self.frozen_plus is None or x.shape != (1, 1):
            return None
        mask = self.active_on(float(x[0, 0]))
        u, v = self.u[mask, 0], self.v[mask]
        return float(u @ u + v @ v)

    def clone(self) -> "HomogenousNet":
        # __post_init__ copies the trainable arrays, once; the sign split
        # stays the one frozen at construction
        twin = replace(self)
        twin.frozen_plus = self.frozen_plus
        return twin


# ---------------------------------------------------------------------------
# Three-layer ReLU net for image tasks
# ---------------------------------------------------------------------------


@dataclass
class DeepReluNet(_KeptPass):
    """Bias-free three-layer ReLU net: one square hidden matrix.

    Output on input x is ``v @ relu(W relu(U x)) / width``, of degree 3 in
    the weights.  The two-layer ReLU net is ``HomogenousNet`` (0, 1).
    """

    input_weights: np.ndarray  # (n, d)
    hidden_weights: np.ndarray  # (n, n)
    output_weights: np.ndarray  # (n,)
    degree = 3

    def __post_init__(self):
        # Trainable arrays are copied: every GD step updates them in place.
        self.input_weights = np.array(self.input_weights, dtype=np.float64)
        self.hidden_weights = np.array(self.hidden_weights, dtype=np.float64)
        self.output_weights = np.array(self.output_weights, dtype=np.float64).reshape(-1)
        n = self.input_weights.shape[0]
        if self.hidden_weights.shape != (n, n):
            raise ModelError("the hidden matrix must be square with the net width")
        if self.output_weights.shape[0] != n:
            raise ModelError("output weights must match the net width")

    @classmethod
    def init_random(cls, width: int, input_dim: int, rng: Rng) -> "DeepReluNet":
        return cls(
            input_weights=rng.normal((width, input_dim)),
            hidden_weights=rng.normal((width, width)),
            output_weights=rng.normal(width),
        )

    @property
    def width(self) -> int:
        return self.input_weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]

    @property
    def output_scale(self) -> float:
        return self.width ** -1.0

    def weights(self) -> list[np.ndarray]:
        return [self.input_weights, self.output_weights, self.hidden_weights]

    def _forward(self, inputs) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        x = _as_inputs(inputs)
        pre_in = x @ self.input_weights.T
        act_in = scale_invariant(pre_in, 0.0, 1.0)
        pre_hidden = act_in @ self.hidden_weights.T
        return x, [pre_in, pre_hidden], [act_in, scale_invariant(pre_hidden, 0.0, 1.0)]

    def outputs(self, inputs) -> np.ndarray:
        _, _, acts = self._keep(inputs, self._forward(inputs))
        return self.output_scale * (acts[-1] @ self.output_weights)

    def activations(self, inputs) -> list[np.ndarray]:
        """Post-activation maps per ReLU layer; used by the sparsity metric."""
        return self._forward(inputs)[2]

    def _factors(self, inputs) -> list:
        """Factors of ``weights()``: each layer's backpropagated gates times
        the activations feeding it."""
        x, (pre_in, pre_hidden), (act_in, act_hidden) = self._pass(inputs)
        back_hidden = self.output_weights[None, :] * scale_invariant_deriv(pre_hidden, 0.0, 1.0)
        back_in = (back_hidden @ self.hidden_weights) * scale_invariant_deriv(pre_in, 0.0, 1.0)
        return [(back_in, x), (act_hidden, None), (back_hidden, act_in)]

    def ntk(self, inputs) -> np.ndarray:
        return tangent_kernel(self._factors(inputs), self.output_scale)

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        self._update(self._factors(inputs), errors, eta, self.output_scale)

    def weight_norm(self) -> float:
        return _squared_norm(self.weights())

    def certified_norm(self, inputs) -> None:
        """No window is proved for the three-layer net."""
        return None

    def clone(self) -> "DeepReluNet":
        # __post_init__ copies the trainable arrays, once
        return replace(self)

