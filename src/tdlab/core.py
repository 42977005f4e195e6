"""Shared types: feature vectors, transitions, trajectories, the
configuration error with the integer and seed checks every module
shares, and the reader for JSON input files.

Feature vectors are dense float64 numpy arrays: state features phi for
prediction, or action-stacked features psi (one block of phi per action)
for control, which every learner consumes alike. A terminal state is
represented by the all-zero feature vector, which makes its value
estimate exactly 0 without special-casing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np


class ConfigError(ValueError):
    """Fatal configuration problem (dimension mismatch, invalid parameter)."""


def check_integer(value, name: str) -> None:
    """A count is an integer: a float, even a whole one, is refused."""
    if not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_seed(seed: int, name: str) -> None:
    """A master seed is an integer in [0, 2^64): mix64 would fold any other into that range."""
    if not (isinstance(seed, Integral) and 0 <= seed < 2**64):
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
    if not 0 <= action < num_actions:
        raise ConfigError(f"action {action} out of range for {num_actions} actions")
    n = phi.shape[0]
    out = np.zeros(n * num_actions)
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
        if not 0.0 <= self.gamma <= 1.0:  # False on NaN
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma!r}")
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
