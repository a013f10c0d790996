"""Multi-term reward for the chin-up task.

Each term is a separate formula; the total is a weighted sum over the
configured active terms.  Penalty rows are expressed as positive
magnitudes combined with negative weights, so signs compose only in the
weighted sum.

All terms broadcast over an optional leading batch axis: vector inputs of
shape (n,) describe one environment, (B, n) a batch of B environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TERM_NAMES = (
    "chinup",
    "hollow_cylinder",
    "base_position",
    "joint_regularization",
    "orientation",
    "torque",
    "joint_acceleration",
    "action_rate",
    "joint_position_limit",
    "joint_velocity_limit",
    "joint_torque_limit",
)

DEFAULT_WEIGHTS = {
    "chinup": 30.0,
    "hollow_cylinder": -2.0,
    "base_position": -2.0,
    "joint_regularization": -5.0,
    "orientation": -5.0,
    "torque": -1e-5,
    "joint_acceleration": -1e-5,
    "action_rate": -1e-3,
    "joint_position_limit": -2.0,
    "joint_velocity_limit": -2.0,
    "joint_torque_limit": -2.0,
}

# The planar environment has no floating base, so orientation is off by default.
DEFAULT_ACTIVE = tuple(t for t in TERM_NAMES if t != "orientation")


@dataclass
class RewardInputs:
    """Everything the reward formulas read at one control step."""

    pos_head: np.ndarray
    pos_goal: np.ndarray
    cyl_gap: float | np.ndarray
    base_ok: bool | np.ndarray
    sym_pairs: tuple[tuple[int, int], ...]
    g_proj_xy: np.ndarray
    tau: np.ndarray
    qdot: np.ndarray
    prev_qdot: np.ndarray
    dt: float
    action: np.ndarray
    prev_action: np.ndarray
    q: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    qdot_max: np.ndarray
    tau_max: np.ndarray


@dataclass
class RewardBreakdown:
    """Per-term values (unweighted) plus the weighted total."""

    chinup: float | np.ndarray = 0.0
    hollow_cylinder: float | np.ndarray = 0.0
    base_position: float | np.ndarray = 0.0
    joint_regularization: float | np.ndarray = 0.0
    orientation: float | np.ndarray = 0.0
    torque: float | np.ndarray = 0.0
    joint_acceleration: float | np.ndarray = 0.0
    action_rate: float | np.ndarray = 0.0
    joint_position_limit: float | np.ndarray = 0.0
    joint_velocity_limit: float | np.ndarray = 0.0
    joint_torque_limit: float | np.ndarray = 0.0
    total: float | np.ndarray = 0.0


@dataclass
class RewardConfig:
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    active: tuple[str, ...] = DEFAULT_ACTIVE
    cyl_window: tuple[float, float] = (0.5, 0.8)
    cyl_out_value: float = 10.0
    base_out_value: float = 20.0

    def __post_init__(self):
        for name in self.weights:
            if name not in TERM_NAMES:
                raise ConfigError(f"unknown reward term in weights: {name!r}")
        for name in self.active:
            if name not in TERM_NAMES:
                raise ConfigError(f"unknown reward term in active mask: {name!r}")
        missing = [t for t in TERM_NAMES if t not in self.weights]
        if missing:
            raise ConfigError(f"weights missing for terms: {missing}")
        if not all(np.isfinite(w) for w in self.weights.values()):
            raise ConfigError("reward weights must be finite")


def _sq_norm(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.square(x), axis=-1)


def reward_terms(inputs: RewardInputs, cfg: RewardConfig) -> RewardBreakdown:
    """Evaluate every active term; inactive terms report 0."""
    active = set(cfg.active)
    batch_shape = np.shape(inputs.q)[:-1]
    zero = np.zeros(batch_shape) if batch_shape else 0.0
    out = RewardBreakdown(**{t: zero for t in TERM_NAMES}, total=zero)

    if "chinup" in active:
        out.chinup = np.exp(-_sq_norm(np.subtract(inputs.pos_head, inputs.pos_goal)))
    if "hollow_cylinder" in active:
        lo, hi = cfg.cyl_window
        gap = inputs.cyl_gap
        in_window = (gap > lo) & (gap < hi)
        out.hollow_cylinder = np.where(in_window, 0.0, cfg.cyl_out_value) + zero
    if "base_position" in active:
        out.base_position = np.where(inputs.base_ok, 0.0, cfg.base_out_value) + zero
    if "joint_regularization" in active:
        q = np.asarray(inputs.q)
        term = zero
        for i, j in inputs.sym_pairs:
            term = term + np.exp(-np.square(q[..., i] - q[..., j]))
        out.joint_regularization = term
    if "orientation" in active:
        out.orientation = _sq_norm(inputs.g_proj_xy)
    if "torque" in active:
        out.torque = _sq_norm(inputs.tau)
    if "joint_acceleration" in active:
        accel = np.subtract(inputs.qdot, inputs.prev_qdot) / inputs.dt
        out.joint_acceleration = _sq_norm(accel)
    if "action_rate" in active:
        out.action_rate = _sq_norm(np.subtract(inputs.action, inputs.prev_action))
    if "joint_position_limit" in active:
        q = np.asarray(inputs.q)
        under = np.maximum(0.0, np.subtract(inputs.q_min, q))
        over = np.maximum(0.0, np.subtract(q, inputs.q_max))
        out.joint_position_limit = np.add.reduce(under + over, axis=-1)
    if "joint_velocity_limit" in active:
        excess = np.abs(inputs.qdot) - inputs.qdot_max
        out.joint_velocity_limit = np.add.reduce(np.clip(excess, 0.0, 1.0), axis=-1)
    if "joint_torque_limit" in active:
        excess = np.abs(inputs.tau) - inputs.tau_max
        out.joint_torque_limit = np.add.reduce(np.clip(excess, 0.0, 1.0), axis=-1)
    return out


def total_reward(breakdown: RewardBreakdown, cfg: RewardConfig) -> float | np.ndarray:
    """Weighted sum over active terms; also stored into breakdown.total."""
    total = 0.0
    for name in cfg.active:
        total = total + cfg.weights[name] * getattr(breakdown, name)
    breakdown.total = total
    return total


def write_breakdown_csv(breakdowns: list[RewardBreakdown], path) -> None:
    """One row per control step, one column per term plus total."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *TERM_NAMES, "total"])
        for step, b in enumerate(breakdowns):
            row = [step] + [repr(float(getattr(b, t))) for t in TERM_NAMES]
            row.append(repr(float(b.total)))
            writer.writerow(row)


def read_breakdown_csv(path) -> list[RewardBreakdown]:
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["step", *TERM_NAMES, "total"]:
        raise ValueError(f"{path}: not a reward breakdown CSV")
    out = []
    for row in rows[1:]:
        values = [float(x) for x in row[1:]]
        b = RewardBreakdown(**dict(zip(TERM_NAMES, values[:-1])), total=values[-1])
        out.append(b)
    return out
