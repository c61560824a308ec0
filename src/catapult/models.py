"""Model families whose tangent kernel evolves under gradient descent.

Three families:

* quadratic models (pure, with-bias, or generic) built from static
  per-datapoint feature vectors and symmetric meta-feature matrices,
* two-layer nets with a scale-invariant activation (ReLU as the special
  case with slopes (0, 1)),
* a three-layer ReLU net with one square hidden matrix and no biases, used
  for the image experiments.

A family states only its own facts: the names of its trainable arrays in a
fixed order (``weights()``) and their validation, its ``output_scale``, its
``degree`` in the weights, its number of ``activation_layers``, ``outputs``,
one forward pass (``_forward``) and, from that pass, one gradient factor
pair ``(left, right)`` per array (``_factors``): sample a's output gradient
with respect to that array is ``output_scale * outer(left[a], right[a])``,
or ``output_scale * left[a]`` when the array is a vector (``right`` is
None).  A family whose single-datapoint window is proved on another norm
than the squared weight norm states that norm (``certified_norm``).

The base, ``_KeptPass``, writes the rest once: ``weights()``, the squared
``weight_norm``, ``clone``, ``certified_norm`` (None: the weight norm itself
is certified, or no window is proved), the D x D tangent kernel (``ntk``,
the 1/D-normalized Gram matrix of per-sample output gradients) and the
exact full-batch gradient-descent step (``apply_gd_step``).  The kernel
(``tangent_kernel``) and the step (``loss_gradients``) are written over the
same factors, so both always come from the same gradients.  Models are
value-like records over numpy arrays; a single trainer owns and mutates one
model.

Each model keeps the forward pass of its current weights; a net's holds one
slope array per layer, which its kernel and update read.  ``outputs(x)``
always runs the pass and keeps it with the object ``x``; ``ntk(x)`` and
``apply_gd_step(x, ...)`` build their factors from it when handed that same
object (``is``), and run their own pass otherwise.  The pass stays valid
until the next update; the inputs must not be written meanwhile.  Weights
change only through ``apply_gd_step``, whose one in-place update drops the
kept pass and writes each gradient into a buffer the model keeps; code that
writes the arrays of ``weights()`` itself must call ``outputs`` again before
``ntk`` or a step.  ``clone()`` and pickling carry neither pass nor buffers;
a clone copies the trainable arrays and shares everything frozen at
construction.

The row-space rule.  When a net steps on inputs with fewer points than
dimensions (D < d), its first layer (``HomogenousNet.u``,
``DeepReluNet.input_weights``) moves only in the row space of those inputs:
its gradient is ``G @ x`` for some (n, D) matrix G.  So the first step on an
inputs object runs densely and then keeps the layer as ``U = U0 + B Q^T``,
where ``x^T = Q R`` is one reduced QR and ``P0 = x U0^T`` is computed once.
From then on a step on that same object (``is``) writes only the (n, D)
coefficients B, the pass computes the preactivations as ``P0 + R^T B^T``,
the layer's gradient factor is ``(left, R^T)`` instead of ``(left, x)``, so
the kernel and the step work on D x D blocks instead of D x d ones, and
``weight_norm`` reads ``|U0|^2 + 2 <U0 Q, B> + |B|^2``.  Nothing outside this
module sees B or Q: reading the attribute or ``weights()`` folds the layer
back into one array (and drops the kept pass), a pass on any other inputs
object reads it folded, and ``clone()`` and pickling carry the full layer.
The results agree with the dense arithmetic to roundoff.  With D >= d, on
every quadratic model and before a net's first step, the dense arithmetic
runs unchanged, bit for bit.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from catapult.numerics import Rng

# Orthogonality tolerance for the with-bias variant: every meta-feature
# matrix must annihilate every feature vector to this absolute precision.
BIAS_ORTHOGONALITY_TOL = 1e-10


class ModelError(ValueError):
    """A model was constructed or used outside its documented contract."""


def scale_invariant_slope(x: np.ndarray, a_minus: float, a_plus: float) -> np.ndarray:
    """Slope of the scale-invariant activation: a_plus where x > 0, a_minus
    where x < 0, the midpoint (a_plus + a_minus)/2 at +0 and -0, and 0 at
    NaN, which no state that training steps holds.  ``slope * x`` is the
    activation, a_plus*x for x >= 0 and a_minus*x below, sign bits included."""
    slope = (x > 0.0).astype(np.float64)
    slope *= a_plus
    below = (x < 0.0).astype(np.float64)
    below *= a_minus
    slope += below
    slope[x == 0.0] = 0.5 * (a_plus + a_minus)
    return slope


def _layer(pre: np.ndarray, a_minus: float, a_plus: float):
    """A layer's slopes and its activations, written over its preactivations."""
    slope = scale_invariant_slope(pre, a_minus, a_plus)
    return slope, np.multiply(slope, pre, out=pre)


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


class _RowSpace:
    """A first layer kept as ``U = u0 + b @ q.T`` on the inputs object it was
    built on, where ``x.T = q r`` is one reduced QR: ``q`` is (d, D) with
    orthonormal columns.  Then ``x @ U.T = p0 + r.T @ b.T`` with ``p0 = x @
    u0.T``, and a step's gradient ``G @ x = (G @ r.T) @ q.T`` moves only the
    (n, D) coefficients ``b``."""

    def __init__(self, inputs, x: np.ndarray, u0: np.ndarray):
        self.inputs = inputs
        self.q, r = np.linalg.qr(x.T)
        self.rt = np.ascontiguousarray(r.T)  # the first layer's right factor, x @ q
        self.p0 = x @ u0.T
        self.u0 = u0
        self.u0q = u0 @ self.q
        self.u0_norm = float((u0**2).sum())
        self.b = np.zeros_like(self.u0q)

    def pre(self) -> np.ndarray:
        pre = self.rt @ self.b.T
        pre += self.p0
        return pre

    def full(self) -> np.ndarray:
        return self.u0 + self.b @ self.q.T

    def norm_offset(self) -> float:
        """``|U|^2 - |b|^2 = |u0|^2 + 2 <u0 q, b>``, as q's columns are orthonormal."""
        return self.u0_norm + 2.0 * float((self.u0q * self.b).sum())


class _KeptPass:
    """The forward pass of the current weights, kept with its inputs object
    (module docstring), and everything a family does not state itself:
    its weights, their norm, its clone, its kernel and its step.  Each family
    restates ``ntk`` and ``apply_gd_step`` in its own namespace, where
    ``perfbench/tracing.py`` times them per class."""

    _weight_names: tuple[str, ...] = ()  # trainable attributes, in weights() order
    activation_layers = 0  # activation maps per input, one sparsity column each
    _kept = None  # (inputs, forward pass), or None once the weights moved
    _gradients = None  # one buffer per array a step writes, made at the first step
    _row_space_name = None  # the first layer, whose right factor is the inputs
    _row_space = None  # that layer as a _RowSpace while it is kept in one

    def __getattr__(self, name):
        # reached only when normal lookup fails: the first layer while the
        # row space holds it, which reading folds back into one array
        if name != self._row_space_name or self._row_space is None:
            raise AttributeError(name)
        self.__dict__[name] = self._row_space.full()
        self._row_space = self._kept = self._gradients = None
        return self.__dict__[name]

    def weights(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._weight_names]

    def _trained(self) -> list[np.ndarray]:
        """The arrays a step writes: ``weights()``, with the row space's
        coefficients in place of the first layer while it is kept in one."""
        rows = self._row_space
        return [
            rows.b if rows is not None and name == self._row_space_name else getattr(self, name)
            for name in self._weight_names
        ]

    def weight_norm(self) -> float:
        norm = _squared_norm(self._trained())
        if self._row_space is not None:
            norm += self._row_space.norm_offset()
        return norm

    def certified_norm(self, inputs=None) -> float | None:
        """The norm the single-datapoint window is proved on, where it is
        not the weight norm; None here."""
        return None

    def clone(self):
        """A twin with its own trainable arrays.  ``copy.copy`` goes through
        ``__getstate__``, so it carries no pass, no buffer and no row space;
        everything frozen at construction is shared, not recomputed."""
        twin = copy.copy(self)
        for name in self._weight_names:
            setattr(twin, name, getattr(twin, name).copy())
        return twin

    def _keep(self, inputs, forward):
        self._kept = (inputs, forward)
        return forward

    def _pass(self, inputs):
        """The kept pass if it was run on the object ``inputs``, else a fresh one."""
        kept = self._kept
        if kept is not None and kept[0] is inputs:
            return kept[1]
        return self._forward(inputs)

    def _input_layer(self, inputs) -> tuple[np.ndarray, np.ndarray]:
        """The first layer's right factor and its (D, n) preactivations:
        ``r.T`` and ``p0 + r.T @ b.T`` on the row space's own inputs object,
        else the inputs and ``x @ U.T``."""
        rows = self._row_space
        if rows is not None and rows.inputs is inputs:
            return rows.rt, rows.pre()
        x = _as_inputs(inputs)
        return x, x @ getattr(self, self._row_space_name).T

    def ntk(self, inputs=None) -> np.ndarray:
        """The D x D tangent kernel of the current weights on the inputs."""
        return tangent_kernel(self._factors(inputs), self.output_scale)

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        self._update(self._factors(inputs), errors, eta)
        self._keep_row_space(inputs)

    def _update(self, factors, errors, eta: float) -> None:
        """One gradient-descent step in place, ``w -= eta * g`` per array,
        with each gradient built and scaled in its kept buffer."""
        self._kept = None
        trained = self._trained()
        if self._gradients is None:
            self._gradients = [np.empty_like(w) for w in trained]
        gradients = loss_gradients(factors, errors, self.output_scale, self._gradients)
        for w, g in zip(trained, gradients):
            g *= eta
            w -= g

    def _keep_row_space(self, inputs) -> None:
        """After a step on inputs with fewer points than dimensions, keep the
        first layer in their row space (module docstring)."""
        name = self._row_space_name
        if name is None or self._row_space is not None:
            return  # kept on these inputs: a pass on other inputs folds it
        x = _as_inputs(inputs)
        if x.shape[0] < x.shape[1]:
            self._row_space = _RowSpace(inputs, x, self.__dict__.pop(name))
            self._gradients = None

    def __getstate__(self):
        state = {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("_kept", "_gradients", "_row_space")
        }
        if self._row_space is not None:
            state[self._row_space_name] = self._row_space.full()
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
    _weight_names = ("theta",)
    output_scale = 1.0
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

    def _forward(self, inputs) -> np.ndarray:
        """The psi pass ``meta_features @ theta``, (D, n); the features are
        static, so the inputs only name the datapoints."""
        if inputs is not None and len(inputs) != self.num_points:
            raise ModelError(
                f"model carries features for {self.num_points} datapoints, "
                f"got {len(inputs)} inputs"
            )
        return self.meta_features @ self.theta

    def outputs(self, inputs=None) -> np.ndarray:
        """Model outputs on the datapoints the features were built for."""
        meta_theta = self._keep(inputs, self._forward(inputs))
        return self.features @ self.theta + 0.5 * self.zeta * (meta_theta @ self.theta)

    def effective_features(self) -> np.ndarray:
        """Theta-dependent features: row a is the output gradient on
        datapoint a."""
        return self.features + self.zeta * self._forward(None)

    def _factors(self, inputs) -> list:
        return [(self.features + self.zeta * self._pass(inputs), None)]

    ntk, apply_gd_step = _KeptPass.ntk, _KeptPass.apply_gd_step

    def grad_theta(self, errors: np.ndarray) -> np.ndarray:
        """Loss gradient for supplied per-datapoint errors z - y."""
        return loss_gradients(self._factors(None), errors, self.output_scale)[0]

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
    # First-layer column at construction, kept for 1d nets with a zero
    # negative slope: on one datapoint x only the neurons with u x >= 0 at
    # initialization ever move (u = 0 moves, at the midpoint slope, on both).
    frozen_u: np.ndarray | None = field(default=None, init=False, repr=False)
    _weight_names = ("v", "u")
    _row_space_name = "u"
    activation_layers = 1
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
            self.frozen_u = self.u[:, 0].copy()

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

    def _forward(self, inputs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        right, pre = self._input_layer(inputs)
        return right, *_layer(pre, self.a_minus, self.a_plus)  # slopes, activations: (D, n)

    def _factors(self, inputs) -> list:
        """Factors of ``weights()``."""
        right, slope, act = self._pass(inputs)
        return [(act, None), (slope * self.v, right)]

    def activations(self, inputs) -> list[np.ndarray]:
        """The post-activation map; the kept one on the object ``outputs``
        last ran on."""
        return [self._pass(inputs)[2]]

    def outputs(self, inputs) -> np.ndarray:
        return self._keep(inputs, self._forward(inputs))[2] @ self.v / math.sqrt(self.width)

    ntk, apply_gd_step = _KeptPass.ntk, _KeptPass.apply_gd_step

    def active_on(self, x: float) -> np.ndarray:
        """Mask of the neurons that move on the 1d input x: ``u x >= 0`` at
        construction, so a neuron with u = 0 counts on both sides."""
        if self.frozen_u is None:
            raise ModelError("the sign split is kept for 1d nets with a_minus == 0 only")
        return self.frozen_u * x >= 0.0

    def certified_norm(self, inputs) -> float | None:
        """Squared norm over the neurons active on a single 1d datapoint
        (first layer plus the matching second-layer slots): the quantity the
        zero-negative-slope window is proved on.  None on several points and
        for nets with a non-zero negative slope, whose window is proved on
        the weight norm."""
        x = _as_inputs(inputs)
        if self.frozen_u is None or x.shape != (1, 1):
            return None
        mask = self.active_on(float(x[0, 0]))
        u, v = self.u[mask, 0], self.v[mask]
        return float(u @ u + v @ v)


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
    _weight_names = ("input_weights", "output_weights", "hidden_weights")
    _row_space_name = "input_weights"
    activation_layers = 2
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
        return self.output_weights.shape[0]

    @property
    def output_scale(self) -> float:
        return self.width ** -1.0

    def _forward(self, inputs) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        right, pre = self._input_layer(inputs)
        slope_in, act_in = _layer(pre, 0.0, 1.0)
        slope_hidden, act_hidden = _layer(act_in @ self.hidden_weights.T, 0.0, 1.0)
        return right, [slope_in, slope_hidden], [act_in, act_hidden]

    def outputs(self, inputs) -> np.ndarray:
        _, _, acts = self._keep(inputs, self._forward(inputs))
        return self.output_scale * (acts[-1] @ self.output_weights)

    def activations(self, inputs) -> list[np.ndarray]:
        """Post-activation maps per ReLU layer, the kept ones on the object
        ``outputs`` last ran on; used by the sparsity metric."""
        return self._pass(inputs)[2]

    def _factors(self, inputs) -> list:
        """Factors of ``weights()``: each layer's backpropagated gates times
        the activations feeding it."""
        right, (slope_in, slope_hidden), (act_in, act_hidden) = self._pass(inputs)
        back_hidden = self.output_weights[None, :] * slope_hidden
        back_in = (back_hidden @ self.hidden_weights) * slope_in
        return [(back_in, right), (act_hidden, None), (back_hidden, act_in)]

    ntk, apply_gd_step = _KeptPass.ntk, _KeptPass.apply_gd_step

