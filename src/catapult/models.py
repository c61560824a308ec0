"""Model families whose tangent kernel evolves under gradient descent.

Three families:

* quadratic models (pure, with-bias, or generic) built from static
  per-datapoint feature vectors and symmetric meta-feature matrices,
  stored dense or, where they are diagonal, as their diagonals,
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

What a step costs.  A net's step is its matrix products (the deep net's
five: two forward, one back through the hidden matrix, two gradients) plus
few array passes: a slope is one compare converted to 0 and 1, the weight
norm is one BLAS dot per array, and the errors scale the left factors in
place.  That is safe because the step drops the kept pass and ``_factors``
builds every left factor that has a right one fresh for the call.  Past the
first step, a step allocates only those factors (the deep net's two
backpropagated gate arrays, D x width each), and a pass keeps one slope and
one activation array per layer.

The row-space rule.  A net's first layer moves only in the row space of its
training inputs.  When they have fewer points than dimensions (D < d),
``train`` steps the net through ``row_space`` on D x D blocks instead of
D x d ones; the results agree with dense steps to roundoff.
"""

from __future__ import annotations

import contextlib
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
    activation, a_plus*x for x >= 0 and a_minus*x below, sign bits included.

    The result is the one array allocated: one compare converted to 0 and 1,
    scaled by a_plus, and raised to a_minus below (``0 <= a_minus <=
    a_plus``, so the maximum is exact); ReLU's slopes (0, 1) need neither
    pass.  Exact zeros and NaN, which both compares miss, are fixed up only
    when one occurs."""
    above = x > 0.0
    slope = above.astype(np.float64)
    if a_plus != 1.0:
        slope *= a_plus
    if a_minus != 0.0:
        np.maximum(slope, a_minus, out=slope)
    if np.count_nonzero(above) + np.count_nonzero(x < 0.0) < x.size:
        slope[x == 0.0] = 0.5 * (a_plus + a_minus)
        slope[np.isnan(x)] = 0.0
    return slope


def _layer(inputs: np.ndarray, weights: np.ndarray, a_minus: float, a_plus: float):
    """A layer's slopes and its activations, written over ``inputs @ weights.T``."""
    pre = inputs @ weights.T
    slope = scale_invariant_slope(pre, a_minus, a_plus)
    return slope, np.multiply(slope, pre, out=pre)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy; (a+a.T)/2 is bitwise symmetric."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def psi_matrices(psi: np.ndarray) -> np.ndarray:
    """Meta-feature matrices as a dense (D, n, n) array: a (D, n) array of
    diagonals is spread onto zero matrices, a dense array is returned
    itself.  The one dense view of a diagonal psi, built on request."""
    if psi.ndim == 3:
        return psi
    dense = np.zeros(psi.shape + psi.shape[-1:])
    idx = np.arange(psi.shape[-1])
    dense[..., idx, idx] = psi
    return dense


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
    ``out`` when given, and scaled there.

    A pair with a right factor first scales its left factor by the errors
    in place, so the call makes no copy of a factor; the factors are
    spent.  ``_KeptPass`` builds each such left factor fresh for the step,
    which drops the kept pass anyway; a caller that still needs a left
    factor passes a copy."""
    errors = np.asarray(errors, dtype=np.float64)
    step = scale / errors.shape[0]
    gradients = [
        np.matmul(left.T, errors, out=g)
        if right is None
        else np.matmul(np.multiply(left, errors[:, None], out=left).T, right, out=g)
        for (left, right), g in zip(factors, out or [None] * len(factors))
    ]
    for g in gradients:
        g *= step
    return gradients


def _squared_norm(weights: list[np.ndarray]) -> float:
    """Sum of squares, one BLAS dot per array; no array is squared."""
    return sum(float(np.vdot(w, w)) for w in weights)


class _KeptPass:
    """The forward pass of the current weights, kept with its inputs object
    (module docstring), and everything a family does not state itself:
    its weights, their norm, its clone, its kernel and its step.  Each family
    restates ``ntk`` and ``apply_gd_step`` in its own namespace, where
    ``perfbench/tracing.py`` times them per class."""

    _weight_names: tuple[str, ...] = ()  # trainable attributes, in weights() order
    _first_layer = None  # a net's first layer, whose right factor is the inputs
    activation_layers = 0  # activation maps per input, one sparsity column each
    _kept = None  # (inputs, forward pass), or None once the weights moved
    _gradients = None  # one buffer per array of weights(), made at the first step

    def weights(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._weight_names]

    def weight_norm(self) -> float:
        return _squared_norm(self.weights())

    def certified_norm(self, inputs=None) -> float | None:
        """The norm the single-datapoint window is proved on, where it is
        not the weight norm; None here."""
        return None

    def clone(self):
        """A twin with its own trainable arrays.  ``copy.copy`` goes through
        ``__getstate__``, so it carries no pass and no buffer; everything
        frozen at construction is shared, not recomputed."""
        twin = copy.copy(self)
        for name in self._weight_names:
            setattr(twin, name, getattr(self, name).copy())
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

    def ntk(self, inputs=None) -> np.ndarray:
        """The D x D tangent kernel of the current weights on the inputs."""
        return tangent_kernel(self._factors(inputs), self.output_scale)

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        self._update(self._factors(inputs), errors, eta)

    def _update(self, factors, errors, eta: float) -> None:
        """One gradient-descent step in place, ``w -= eta * g`` per array,
        with each gradient built and scaled in its kept buffer.  The step
        drops the kept pass first, so the factors are spent:
        ``loss_gradients`` scales the left ones by the errors in place.
        Past the first step, the only arrays a step allocates are the left
        factors that ``_factors`` builds for it (a deep net's two
        backpropagated gate arrays, D x width each)."""
        self._kept = None
        if self._gradients is None:
            self._gradients = [np.empty_like(w) for w in self.weights()]
        gradients = loss_gradients(factors, errors, self.output_scale, self._gradients)
        for w, g in zip(self.weights(), gradients):
            g *= eta
            w -= g

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_kept", "_gradients")}


@contextlib.contextmanager
def row_space(model, inputs):
    """The model ``train`` steps, the inputs it steps it on, and the squared
    weight norm that model leaves out.  A net on inputs with fewer points
    than dimensions, ``x.T = Q R`` (reduced QR), yields a twin that shares
    every array but the first layer, held as ``C = U0 Q``, and steps on the
    coordinates ``R.T``: its preactivations ``R.T C.T`` are ``x U.T``.  The
    norm it leaves out is ``|U0|^2 - |U0 Q|^2``, which no step moves.  On
    exit, after an exception too, the net's layer becomes ``U0 + (C - U0 Q)
    Q.T`` in place and its kept pass, stale once the twin moved the shared
    arrays, is dropped.  Any other model is yielded itself, with 0.0."""
    name = model._first_layer
    x = None if name is None else _as_inputs(inputs)
    if x is None or x.shape[0] >= x.shape[1]:
        yield model, inputs, 0.0
        return
    q, r = np.linalg.qr(x.T)
    u0 = getattr(model, name)
    u0q = u0 @ q
    twin = copy.copy(model)
    setattr(twin, name, u0q.copy())
    try:
        yield twin, np.ascontiguousarray(r.T), float((u0**2).sum()) - float((u0q**2).sum())
    finally:
        with np.errstate(over="ignore", invalid="ignore"):
            u0 += (getattr(twin, name) - u0q) @ q.T
        model._kept = None


# ---------------------------------------------------------------------------
# Quadratic models
# ---------------------------------------------------------------------------


@dataclass
class QuadraticModel(_KeptPass):
    """Quadratic-in-the-weights model with static (meta-)feature data.

    The output on datapoint ``a`` is
    ``theta @ features[a] + (zeta/2) * theta @ meta_features[a] @ theta``.

    The meta-features are stored dense, (D, n, n), or as diagonals, (D, n):
    row a is then the diagonal of the matrix psi_a (``psi_matrices`` builds
    the dense view).  A diagonal psi is symmetric by construction, its pass
    ``psi theta`` is one entrywise product, O(D n) per GD step, and on one
    datapoint its spectrum is its sorted diagonal.  Everything else reads
    both forms alike.

    Variants:
      * ``pure``: all feature vectors are zero,
      * ``with_bias``: every meta-feature matrix annihilates every feature
        vector (checked to ``BIAS_ORTHOGONALITY_TOL``),
      * ``generic``: no structural constraint; no learning-rate guarantees
        are issued for this variant.
    """

    theta: np.ndarray  # (n,)
    features: np.ndarray  # (D, n)
    meta_features: np.ndarray  # (D, n, n), each exactly symmetric, or (D, n) diagonals
    zeta: float
    variant: str = "generic"
    _weight_names = ("theta",)
    output_scale = 1.0
    degree = 2  # of the meta-feature term; the feature term has degree one

    def __post_init__(self):
        """Checks the arrays as given.  Trainable arrays are copied, since
        every GD step updates them in place; the feature arrays are kept as
        they are.  The symmetry and with-bias checks run one point at a
        time, so besides the model's own arrays they hold one point's
        (n, n) comparison or (n, D) product, never an array the size of the
        meta-features (the one-array rule of ``QuadraticFeatureMap.at``)."""
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
        if self.meta_features.shape not in ((d_pts, n, n), (d_pts, n)):
            raise ModelError(
                f"meta_features must have shape ({d_pts}, {n}, {n}), or ({d_pts}, {n}) "
                f"for diagonals, got {self.meta_features.shape}"
            )
        if not self.zeta >= 0.0:
            raise ModelError("zeta must be a non-negative real number")
        if not (self.diagonal or all(np.array_equal(psi, psi.T) for psi in self.meta_features)):
            raise ModelError("every meta-feature matrix must be exactly symmetric")
        if self.variant not in ("pure", "with_bias", "generic"):
            raise ModelError(f"unknown variant {self.variant!r}")
        if self.variant == "pure" and np.any(self.features != 0.0):
            raise ModelError("pure variant requires all feature vectors to be zero")
        if self.variant == "with_bias":
            # psi_a's rows against every feature vector, one (n, D) product
            # per point; row j of a diagonal psi_a meets phi_b in one entry
            worst = 0.0
            for psi in self.meta_features:
                overlap = psi[:, None] * self.features.T if self.diagonal else psi @ self.features.T
                worst = max(worst, float(np.abs(overlap).max(initial=0.0)))
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

    @property
    def diagonal(self) -> bool:
        """Whether the meta-features are stored as (D, n) diagonals."""
        return self.meta_features.ndim == 2

    def _forward(self, inputs) -> np.ndarray:
        """The psi pass ``psi_a @ theta`` per datapoint, (D, n); the features
        are static, so the inputs only name the datapoints."""
        if inputs is not None and len(inputs) != self.num_points:
            raise ModelError(
                f"model carries features for {self.num_points} datapoints, "
                f"got {len(inputs)} inputs"
            )
        if self.diagonal:
            return self.meta_features * self.theta
        return self.meta_features @ self.theta

    def outputs(self, inputs=None) -> np.ndarray:
        """Model outputs on the datapoints the features were built for."""
        psi_theta = self._keep(inputs, self._forward(inputs))
        return self.features @ self.theta + 0.5 * self.zeta * (psi_theta @ self.theta)

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
        """Eigenvalues of the one meta-feature matrix, ascending, read-only.
        Defined on one datapoint only.  A stored diagonal (one datapoint of a
        one-generator identity map, ``datasets.build_meta_features``) gives
        its sorted diagonal, as does a dense matrix that is diagonal; any
        other one eigenvalues-only solve, at most once per model; a clone
        shares it, and ``__setstate__`` restores the read-only flag that
        pickling drops."""
        if self.num_points != 1:
            raise ModelError("the meta-feature spectrum is kept for one datapoint only")
        psi = self.meta_features[0]
        if self.diagonal:
            spectrum = np.sort(psi)
        elif np.count_nonzero(psi) == np.count_nonzero(psi.diagonal()):
            spectrum = np.sort(psi.diagonal())
        else:
            spectrum = np.linalg.eigvalsh(psi)
        spectrum.flags.writeable = False
        return spectrum

    def __setstate__(self, state):
        self.__dict__.update(state)
        if "psi_spectrum" in state:
            self.psi_spectrum.flags.writeable = False

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
    _first_layer = "u"
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
        x = _as_inputs(inputs)
        return x, *_layer(x, self.u, self.a_minus, self.a_plus)  # slopes, activations: (D, n)

    def _factors(self, inputs) -> list:
        """Factors of ``weights()``."""
        x, slope, act = self._pass(inputs)
        return [(act, None), (slope * self.v, x)]

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
    _first_layer = "input_weights"
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
        return self.input_weights.shape[0]

    @property
    def output_scale(self) -> float:
        return self.width ** -1.0

    def _forward(self, inputs) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        x = _as_inputs(inputs)
        slope_in, act_in = _layer(x, self.input_weights, 0.0, 1.0)
        slope_hidden, act_hidden = _layer(act_in, self.hidden_weights, 0.0, 1.0)
        return x, [slope_in, slope_hidden], [act_in, act_hidden]

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
        x, (slope_in, slope_hidden), (act_in, act_hidden) = self._pass(inputs)
        back_hidden = self.output_weights[None, :] * slope_hidden
        back_in = back_hidden @ self.hidden_weights
        back_in *= slope_in
        return [(back_in, x), (act_hidden, None), (back_hidden, act_in)]

    ntk, apply_gd_step = _KeptPass.ntk, _KeptPass.apply_gd_step

