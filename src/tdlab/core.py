"""Shared types: feature vectors, transitions, trajectories, the
configuration error with the checks every module shares (an integer
count or index in [low, high], a finite real in [0, high], a master
seed), and the reader for JSON input files.

Feature vectors are dense float64 numpy arrays: state features phi for
prediction, or action-stacked features psi (one block of phi per action)
for control, which every learner consumes alike. A terminal state is
represented by the all-zero feature vector, which makes its value
estimate exactly 0 without special-casing.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

_LARGEST_FLOAT = sys.float_info.max


class ConfigError(ValueError):
    """Fatal configuration problem (dimension mismatch, invalid parameter)."""


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool, and a float even when whole, is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool (a bool is an int in Python)."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_integer(value, name: str, low: int | None = None, high: int | None = None) -> None:
    """A count or index: an integer, >= low if given, and in [low, high] if both
    are given (high only with low); a bool or a float is refused."""
    # int first: the Integral ABC check is about ten times slower, and
    # control episodes check each step's action
    if not ((type(value) is int or is_integer(value))
            and (low is None or value >= low) and (high is None or value <= high)):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise ConfigError(f"{name} must be an integer{bounds}, got {value!r}")


def check_real(value, name: str, high: float = math.inf) -> None:
    """A finite real in [0, high]; NaN, +-inf, a bool and an int beyond the floats are refused."""
    # float first: the Real ABC check is about ten times slower, and each recorded
    # transition checks its gamma; math.isfinite(10**400) would raise OverflowError.
    # A numpy float is compared as a Python float: a float32 or float16 would cast
    # _LARGEST_FLOAT to its own width (NEP 50), where it is inf. The type test
    # spares a Python float the np.floating check, about 200 ns.
    x = value
    if type(x) is not float and isinstance(x, np.floating):
        x = float(x)
    if not ((type(x) is float or is_real(x)) and 0.0 <= x <= high and x <= _LARGEST_FLOAT):
        bounds = "be finite and >= 0" if high == math.inf else f"lie in [0, {high:g}]"
        raise ConfigError(f"{name} must {bounds}, got {value!r}")


def check_seed(seed: int, name: str) -> None:
    """A master seed is an integer in [0, 2^64): mix64 would fold any other into that range."""
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise ConfigError(f"{name} must be in [0, 2^64), got {seed!r}")


def read_json_object(path: str) -> dict:
    """The JSON object a file holds; anything else is a ConfigError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


def dot(w: np.ndarray, phi: np.ndarray) -> float:
    """Inner product w . phi, the linear value estimate."""
    if w.shape[0] != phi.shape[0]:
        raise ConfigError(f"dimension mismatch: weights {w.shape[0]}, features {phi.shape[0]}")
    return float(w @ phi)


def stack_action_features(phi: np.ndarray, action: int, num_actions: int) -> np.ndarray:
    """Embed state features into the block of one action.

    The result has length n * num_actions; block `action` holds phi and
    every other block is zero, so distinct actions use disjoint weights.
    """
    check_integer(num_actions, "num_actions", low=1)
    check_integer(action, "action", 0, num_actions - 1)
    n = phi.shape[0]
    try:
        out = np.zeros(n * num_actions)
    except (ValueError, MemoryError) as exc:  # more features than numpy can hold
        raise ConfigError(f"cannot allocate {n * num_actions} features: {exc}") from exc
    out[action * n : (action + 1) * n] = phi
    return out


def action_values(theta: np.ndarray, phi: np.ndarray, num_actions: int) -> np.ndarray:
    n = phi.shape[0]
    if theta.shape[0] != n * num_actions:
        raise ConfigError(
            f"dimension mismatch: weights {theta.shape[0]}, expected {n * num_actions}"
        )
    return theta.reshape(num_actions, n) @ phi


@dataclass(frozen=True)
class Transition:
    """One observed step: features, reward, next features, discount in [0, 1]."""

    phi: np.ndarray
    reward: float
    phi_next: np.ndarray
    gamma: float
    terminal: bool = False

    def __post_init__(self):
        check_real(self.gamma, "gamma", 1.0)
        if self.terminal and np.any(self.phi_next != 0.0):
            raise ConfigError("terminal transition must have all-zero next features")


@dataclass
class Trajectory:
    """Recorded step sequence enabling exact forward-view replay.

    `steps` holds state-level transitions, S_{t+1}'s features in step t's
    phi_next only. A control run also records the per-step chosen action
    and greedy flag, and in `stepped` the action-stacked transitions its
    learner stepped on: `stepped.steps[j]` is Transition(psi(S_j, A_j), R,
    psi', gamma), psi' the features of the bootstrap pair.
    """

    steps: list[Transition] = field(default_factory=list)
    actions: list[int] | None = None
    greedy: list[bool] | None = None
    num_actions: int | None = None
    stepped: Trajectory | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def episodic(self) -> bool:
        return bool(self.steps) and self.steps[-1].terminal

    def validate(self) -> None:
        terminal_count = sum(1 for s in self.steps if s.terminal)
        if terminal_count > 1 or (terminal_count == 1 and not self.steps[-1].terminal):
            raise ConfigError("episodic trajectory must end with exactly one terminal step")
        if self.actions is not None and len(self.actions) != len(self.steps):
            raise ConfigError("one action per step required")
        if self.greedy is not None and len(self.greedy) != len(self.steps):
            raise ConfigError("one greedy flag per step required")
        if self.stepped is not None:
            self.stepped.validate()
            if len(self.stepped) != len(self.steps):
                raise ConfigError("one stepped transition per step required")
