"""Model families whose tangent kernel evolves under gradient descent.

Three families:

* quadratic models (pure, with-bias, or generic) built from static
  per-datapoint feature vectors and symmetric meta-feature matrices,
* two-layer nets with a scale-invariant activation (ReLU as the special
  case with slopes (0, 1)),
* deeper ReLU nets with one or two hidden layers and no biases, used for
  the image experiments.

Every family exposes outputs, the D x D tangent kernel (the 1/D-normalized
Gram matrix of per-sample output gradients), an exact full-batch
gradient-descent step, and its squared weight norm.  Models are value-like
records over numpy arrays; a single trainer owns and mutates one model.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Quadratic models
# ---------------------------------------------------------------------------


@dataclass
class QuadraticModel:
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

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
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

    def outputs(self, inputs=None) -> np.ndarray:
        """Model outputs on the datapoints the features were built for."""
        self._check_inputs(inputs)
        meta_theta = self.meta_features @ self.theta  # (D, n)
        return self.features @ self.theta + 0.5 * self.zeta * (meta_theta @ self.theta)

    def effective_features(self) -> np.ndarray:
        """Theta-dependent features whose Gram matrix is the tangent kernel."""
        return self.features + self.zeta * (self.meta_features @ self.theta)

    def ntk(self, inputs=None) -> np.ndarray:
        self._check_inputs(inputs)
        eff = self.effective_features()
        return _symmetrize(eff @ eff.T) / self.num_points

    def grad_theta(self, errors: np.ndarray) -> np.ndarray:
        """Loss gradient for supplied per-datapoint errors z - y."""
        errors = np.asarray(errors, dtype=np.float64)
        meta_theta = self.meta_features @ self.theta
        return (
            self.features.T @ errors + self.zeta * (meta_theta.T @ errors)
        ) / self.num_points

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        self.theta -= eta * self.grad_theta(errors)

    def weight_norm(self) -> float:
        return float(self.theta @ self.theta)

    def bias_combined_norm(self) -> float | None:
        """Squared weight norm plus the squared feature-aligned component.

        Defined for the single-datapoint with-bias model; this is the
        quantity that decreases monotonically inside the certified window.
        """
        if self.variant != "with_bias" or self.num_points != 1:
            return None
        phi = self.features[0]
        phi_sq = float(phi @ phi)
        if phi_sq == 0.0:
            return None
        return self.weight_norm() + float(phi @ self.theta) ** 2 / phi_sq

    def clone(self) -> "QuadraticModel":
        return replace(self, theta=self.theta.copy())


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


@dataclass(frozen=True)
class ReluProjectorDecomposition:
    """Split of the first-layer weights by their sign at a reference time.

    ``u_plus + u_minus == u`` exactly and the two parts have disjoint
    support; ``p_plus``/``p_minus`` are the diagonals of the complementary
    0/1 projectors (components with ``u == 0`` go to the plus side).
    """

    u_plus: np.ndarray
    u_minus: np.ndarray
    p_plus: np.ndarray  # bool mask, diagonal of the plus projector
    p_minus: np.ndarray

    def __post_init__(self):
        if np.any(self.p_plus & self.p_minus) or not np.all(self.p_plus | self.p_minus):
            raise ModelError("projector diagonals must partition the coordinates")
        if self.u_plus @ self.u_minus != 0.0:
            raise ModelError("u_plus and u_minus must have disjoint support")

    def active_on(self, x: float) -> np.ndarray:
        """Mask of the neurons active on the 1d input x (``u x > 0``): the
        minus side when x < 0, otherwise the plus side."""
        return self.p_minus if x < 0.0 else self.p_plus


@dataclass
class HomogenousNet:
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
    frozen_split: ReluProjectorDecomposition | None = None
    # Test hook for the self-check negative control: when set, the gradient
    # path uses this slope at exactly-zero preactivations while the kernel
    # keeps the documented (a_plus+a_minus)/2 convention.
    _grad_zero_slope_override: float | None = field(default=None, repr=False)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim == 1:
            self.u = self.u[:, None]
        self.v = np.asarray(self.v, dtype=np.float64).reshape(-1)
        self.a_minus = float(self.a_minus)
        self.a_plus = float(self.a_plus)
        if self.u.shape[0] != self.v.shape[0]:
            raise ModelError("u and v must agree on the hidden width")
        if not (0.0 <= self.a_minus <= self.a_plus):
            raise ModelError("slopes must satisfy 0 <= a_minus <= a_plus")

    @classmethod
    def init_random(
        cls,
        width: int,
        rng: Rng,
        a_minus: float,
        a_plus: float,
        input_dim: int = 1,
    ) -> "HomogenousNet":
        """Standard-normal initialization; ReLU nets on 1d inputs also get
        their sign split frozen at initialization."""
        net = cls(
            u=rng.normal((width, input_dim)),
            v=rng.normal(width),
            a_minus=a_minus,
            a_plus=a_plus,
        )
        if net.is_relu and input_dim == 1:
            net.frozen_split = relu_project(net)
        return net

    @property
    def width(self) -> int:
        return self.v.shape[0]

    @property
    def input_dim(self) -> int:
        return self.u.shape[1]

    @property
    def is_relu(self) -> bool:
        return self.a_minus == 0.0 and self.a_plus == 1.0

    def preactivations(self, inputs) -> np.ndarray:
        return _as_inputs(inputs) @ self.u.T  # (D, n)

    def activations(self, inputs) -> list[np.ndarray]:
        return [scale_invariant(self.preactivations(inputs), self.a_minus, self.a_plus)]

    def outputs(self, inputs) -> np.ndarray:
        act = scale_invariant(self.preactivations(inputs), self.a_minus, self.a_plus)
        return act @ self.v / math.sqrt(self.width)

    def ntk(self, inputs) -> np.ndarray:
        x = _as_inputs(inputs)
        pre = x @ self.u.T
        act = scale_invariant(pre, self.a_minus, self.a_plus)
        gate = scale_invariant_deriv(pre, self.a_minus, self.a_plus) * self.v
        d_pts = x.shape[0]
        h = (act @ act.T + (x @ x.T) * (gate @ gate.T)) / (self.width * d_pts)
        return _symmetrize(h)

    def _grad_slopes(self, pre: np.ndarray) -> np.ndarray:
        slopes = scale_invariant_deriv(pre, self.a_minus, self.a_plus)
        if self._grad_zero_slope_override is not None:
            slopes = slopes.copy()
            slopes[pre == 0.0] = self._grad_zero_slope_override
        return slopes

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        x = _as_inputs(inputs)
        errors = np.asarray(errors, dtype=np.float64)
        pre = x @ self.u.T
        act = scale_invariant(pre, self.a_minus, self.a_plus)
        slopes = self._grad_slopes(pre)
        scale = 1.0 / (x.shape[0] * math.sqrt(self.width))
        grad_v = scale * (act.T @ errors)
        grad_u = scale * ((slopes * self.v * errors[:, None]).T @ x)
        self.u -= eta * grad_u
        self.v -= eta * grad_v

    def weight_norm(self) -> float:
        return float((self.u * self.u).sum() + self.v @ self.v)

    def reduced_weight_norm(self, inputs=None) -> float | None:
        """Squared norm restricted to the coordinates active at the frozen
        reference time (first layer plus the matching second-layer slots).

        On a single 1d datapoint those are the neurons active on it, so the
        u < 0 side when x < 0; otherwise (no inputs, or several points) the
        u >= 0 side."""
        if self.frozen_split is None:
            return None
        mask = self.frozen_split.p_plus
        if inputs is not None:
            x = _as_inputs(inputs)
            if x.shape == (1, 1):
                mask = self.frozen_split.active_on(float(x[0, 0]))
        u_part = self.u[mask, 0] if self.input_dim == 1 else self.u[mask]
        return float((u_part * u_part).sum() + self.v[mask] @ self.v[mask])

    def clone(self) -> "HomogenousNet":
        return replace(self, u=self.u.copy(), v=self.v.copy())


def relu_project(net: HomogenousNet) -> ReluProjectorDecomposition:
    """Sign decomposition of the first layer, frozen at the supplied weights.

    Only defined for 1d inputs; components with ``u == 0`` land on the plus
    side.  ``u_plus`` keeps the non-negative components, ``u_minus`` the
    negative ones, so they sum back to ``u`` exactly.
    """
    if net.input_dim != 1:
        raise ModelError("the sign decomposition is defined for 1d inputs only")
    u = net.u[:, 0]
    p_plus = u >= 0.0
    u_plus = np.where(p_plus, u, 0.0)
    u_minus = np.where(p_plus, 0.0, u)
    return ReluProjectorDecomposition(
        u_plus=u_plus, u_minus=u_minus, p_plus=p_plus, p_minus=~p_plus
    )


# ---------------------------------------------------------------------------
# Deep ReLU nets for image tasks
# ---------------------------------------------------------------------------


@dataclass
class DeepReluNet:
    """Bias-free ReLU net with one or two hidden layers of equal width.

    Output on input x is ``v @ relu(W_1 relu(... relu(U x)))`` scaled by
    ``width ** -(depth+1)/2`` where depth counts the square hidden matrices
    (0 for a two-layer net, 1 for a three-layer net).
    """

    input_weights: np.ndarray  # (n, d)
    hidden_weights: list[np.ndarray]  # depth matrices, each (n, n)
    output_weights: np.ndarray  # (n,)

    def __post_init__(self):
        self.input_weights = np.asarray(self.input_weights, dtype=np.float64)
        self.hidden_weights = [
            np.asarray(w, dtype=np.float64) for w in self.hidden_weights
        ]
        self.output_weights = np.asarray(self.output_weights, dtype=np.float64).reshape(-1)
        n = self.input_weights.shape[0]
        if len(self.hidden_weights) > 1:
            raise ModelError(
                f"unsupported depth {len(self.hidden_weights)}; only 0 or 1 hidden "
                "matrices (two- and three-layer nets) are supported"
            )
        for w in self.hidden_weights:
            if w.shape != (n, n):
                raise ModelError("hidden matrices must be square with the net width")
        if self.output_weights.shape[0] != n:
            raise ModelError("output weights must match the net width")

    @classmethod
    def init_random(
        cls, width: int, input_dim: int, depth: int, rng: Rng
    ) -> "DeepReluNet":
        if depth not in (0, 1):
            raise ModelError(f"unsupported depth {depth}; expected 0 or 1")
        return cls(
            input_weights=rng.normal((width, input_dim)),
            hidden_weights=[rng.normal((width, width)) for _ in range(depth)],
            output_weights=rng.normal(width),
        )

    @property
    def width(self) -> int:
        return self.input_weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]

    @property
    def depth(self) -> int:
        return len(self.hidden_weights)

    @property
    def output_scale(self) -> float:
        return self.width ** (-(self.depth + 1) / 2.0)

    def _forward_states(self, inputs) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        x = _as_inputs(inputs)
        pres = [x @ self.input_weights.T]
        acts = [scale_invariant(pres[0], 0.0, 1.0)]
        for w in self.hidden_weights:
            pres.append(acts[-1] @ w.T)
            acts.append(scale_invariant(pres[-1], 0.0, 1.0))
        return x, pres, acts

    def outputs(self, inputs) -> np.ndarray:
        _, _, acts = self._forward_states(inputs)
        return self.output_scale * (acts[-1] @ self.output_weights)

    def activations(self, inputs) -> list[np.ndarray]:
        """Post-activation maps per ReLU layer; used by the sparsity metric."""
        return self._forward_states(inputs)[2]

    def _gradient_factors(self, inputs):
        """Per-sample gradient factor vectors.

        Each per-sample weight gradient is rank one, so the D x D kernel can
        be assembled from Gram matrices of these factors without ever
        materializing the Jacobian.
        """
        x, pres, acts = self._forward_states(inputs)
        gates = [scale_invariant_deriv(p, 0.0, 1.0) for p in pres]
        back = [self.output_weights[None, :] * gates[-1]]  # (D, n) per layer, top down
        for w, gate in zip(reversed(self.hidden_weights), reversed(gates[:-1])):
            back.append((back[-1] @ w) * gate)
        back.reverse()  # back[0] pairs with x, back[i] pairs with acts[i-1]
        return x, acts, back

    def ntk(self, inputs) -> np.ndarray:
        x, acts, back = self._gradient_factors(inputs)
        d_pts = x.shape[0]
        h = acts[-1] @ acts[-1].T  # output-layer gradients
        h = h + (back[0] @ back[0].T) * (x @ x.T)
        for i in range(1, len(back)):
            h = h + (back[i] @ back[i].T) * (acts[i - 1] @ acts[i - 1].T)
        return _symmetrize(h) * (self.output_scale**2 / d_pts)

    def apply_gd_step(self, inputs, errors: np.ndarray, eta: float) -> None:
        x, acts, back = self._gradient_factors(inputs)
        errors = np.asarray(errors, dtype=np.float64)
        scale = self.output_scale / x.shape[0]
        grad_out = scale * (acts[-1].T @ errors)
        weighted = [b * errors[:, None] for b in back]
        grad_in = scale * (weighted[0].T @ x)
        grad_hidden = [
            scale * (weighted[i].T @ acts[i - 1]) for i in range(1, len(back))
        ]
        self.output_weights -= eta * grad_out
        self.input_weights -= eta * grad_in
        for w, g in zip(self.hidden_weights, grad_hidden):
            w -= eta * g

    def weight_norm(self) -> float:
        total = float((self.input_weights**2).sum() + self.output_weights @ self.output_weights)
        for w in self.hidden_weights:
            total += float((w**2).sum())
        return total

    def clone(self) -> "DeepReluNet":
        return DeepReluNet(
            input_weights=self.input_weights.copy(),
            hidden_weights=[w.copy() for w in self.hidden_weights],
            output_weights=self.output_weights.copy(),
        )

