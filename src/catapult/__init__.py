"""Gradient-descent phase transitions in quadratic models and homogenous nets.

The package simulates exact full-batch gradient descent for model families
whose tangent kernel evolves during training, certifies learning-rate windows
in which the catapult phase provably exists, and provides the sweep and
reporting machinery used to reproduce the phase-transition experiments.
"""

__version__ = "0.22.0"

from catapult.numerics import Rng
from catapult.models import (
    DeepReluNet,
    HomogenousNet,
    QuadraticModel,
    linear_net_with_bias_embedding,
)
from catapult.training import TrainConfig, Trajectory, mse_loss, train
from catapult.datasets import Dataset, make_random, make_toy, make_toy_relu

__all__ = [
    "__version__",
    "Rng",
    "QuadraticModel",
    "HomogenousNet",
    "DeepReluNet",
    "linear_net_with_bias_embedding",
    "TrainConfig",
    "Trajectory",
    "mse_loss",
    "train",
    "Dataset",
    "make_toy",
    "make_toy_relu",
    "make_random",
]
