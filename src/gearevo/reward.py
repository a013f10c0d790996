"""Multi-term reward for the chin-up task.

Each term is a separate formula; the total is a weighted sum over the
configured active terms.  One table, `_TERMS`, gives each term's formula
and default weight in breakdown order; `TERM_NAMES`, `DEFAULT_WEIGHTS`
and the `RewardBreakdown` fields are derived from it.  Penalty rows are
expressed as positive magnitudes combined with negative weights, so
signs compose only in the weighted sum.

All terms broadcast over an optional leading batch axis: vector inputs of
shape (n,) describe one environment, (B, n) a batch of B environments.

`reward_terms` stacks the active terms as the rows of one array behind a
zero row and takes the total as one product with the weight column, which
each `RewardConfig` builds once, and one in-order `np.add.accumulate`,
which has the bits of the term-by-term sum `0.0 + w1 t1 + w2 t2 + ...` in
`active` order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, make_dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError
from .tables import write_table


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


def _sum_last(x: np.ndarray, out: np.ndarray) -> None:
    """Sum over the last axis of x into out, broadcasting to out's batch shape.

    Two entries are summed by one add: np.add.reduce's (0.0 + x0) + x1
    differs from x0 + x1 only when both are -0.0, and no term sums a
    negative zero (each sums squares, or entries clipped at 0 from below).
    """
    if x.shape[:-1] != out.shape:
        out[...] = np.add.reduce(x, axis=-1)
    elif x.shape[-1] == 2:
        np.add(x[..., 0], x[..., 1], out=out)
    else:
        np.add.reduce(x, axis=-1, out=out)


def _sq_norm(x: np.ndarray, out: np.ndarray) -> None:
    _sum_last(np.square(x), out)


# 0-d operands: numpy takes its fast path for them, not for a Python float.
_ZERO = np.array(0.0)
_ONE = np.array(1.0)


# One formula per term, each writing its (batch-shaped) value into `out`.


def _chinup(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _sq_norm(np.subtract(inputs.pos_head, inputs.pos_goal), out)
    np.negative(out, out=out)
    np.exp(out, out=out)


def _hollow_cylinder(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    # The env passes its config's constant gap, a Python float: the row is
    # one value, filled, and no array is made for the comparisons.
    lo, hi = cfg.cyl_window
    gap = inputs.cyl_gap
    out[...] = cfg.cyl_out_value + 0.0
    np.copyto(out, 0.0, where=(gap > lo) & (gap < hi))


def _base_position(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    out[...] = np.where(inputs.base_ok, 0.0, cfg.base_out_value + 0.0)


def _joint_regularization(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    # A pair's term is never -0.0, so the first one, written as it is, has
    # the bits of 0.0 plus it; later pairs add theirs in order.
    q = np.asarray(inputs.q)
    pairs = inputs.sym_pairs
    if not pairs:
        out[...] = 0.0
        return
    _pair_term(q, *pairs[0], out)
    for i, j in pairs[1:]:
        out += _pair_term(q, i, j, np.empty_like(out))


def _pair_term(q: np.ndarray, i: int, j: int, out: np.ndarray) -> np.ndarray:
    """exp(-(q_i - q_j)^2), each step written into `out`."""
    np.subtract(q[..., i], q[..., j], out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def _orientation(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _sq_norm(inputs.g_proj_xy, out)


def _torque(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _sq_norm(inputs.tau, out)


def _joint_acceleration(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _sq_norm(np.subtract(inputs.qdot, inputs.prev_qdot) / inputs.dt, out)


def _action_rate(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _sq_norm(np.subtract(inputs.action, inputs.prev_action), out)


def _joint_position_limit(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    q = np.asarray(inputs.q)
    under = np.subtract(inputs.q_min, q)
    np.maximum(_ZERO, under, out=under)
    over = np.subtract(q, inputs.q_max)
    under += np.maximum(_ZERO, over, out=over)
    _sum_last(under, out)


def _limit_excess(x: np.ndarray, limit: np.ndarray, out: np.ndarray) -> None:
    """Sum of the excess of |x| over its limit, each entry clipped to [0, 1].

    np.maximum then np.minimum clip as np.clip does (NaN passes through with
    its bits) except that np.clip keeps a -0.0, and |x| - limit is never -0.0.
    """
    excess = np.abs(x)
    excess -= limit
    np.maximum(excess, _ZERO, out=excess)
    _sum_last(np.minimum(excess, _ONE, out=excess), out)


def _joint_velocity_limit(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _limit_excess(inputs.qdot, inputs.qdot_max, out)


def _joint_torque_limit(inputs: RewardInputs, cfg: RewardConfig, out: np.ndarray) -> None:
    _limit_excess(inputs.tau, inputs.tau_max, out)


# Term name -> (formula, default weight), in breakdown and CSV column order.
_TERMS = {
    "chinup": (_chinup, 30.0),
    "hollow_cylinder": (_hollow_cylinder, -2.0),
    "base_position": (_base_position, -2.0),
    "joint_regularization": (_joint_regularization, -5.0),
    "orientation": (_orientation, -5.0),
    "torque": (_torque, -1e-5),
    "joint_acceleration": (_joint_acceleration, -1e-5),
    "action_rate": (_action_rate, -1e-3),
    "joint_position_limit": (_joint_position_limit, -2.0),
    "joint_velocity_limit": (_joint_velocity_limit, -2.0),
    "joint_torque_limit": (_joint_torque_limit, -2.0),
}

TERM_NAMES = tuple(_TERMS)
DEFAULT_WEIGHTS = {name: weight for name, (_, weight) in _TERMS.items()}

# The planar environment has no floating base, so orientation is off by default.
DEFAULT_ACTIVE = tuple(t for t in TERM_NAMES if t != "orientation")

RewardBreakdown = make_dataclass(
    "RewardBreakdown",
    [(name, "float | np.ndarray", 0.0) for name in (*TERM_NAMES, "total")],
    namespace={"__doc__": "Per-term values (unweighted) plus the weighted total.",
               "__module__": __name__},
)


@dataclass(frozen=True)
class RewardConfig:
    """The reward's weights, active terms and constants.

    A config is immutable (its `weights` a read-only mapping), because it
    holds what `reward_terms` reads at every step, built once from
    `weights` and `active`: the weight column of the total and the
    breakdown row of every term.  Make a new config
    (`dataclasses.replace`) to change them.
    """

    weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    active: tuple[str, ...] = DEFAULT_ACTIVE
    cyl_window: tuple[float, float] = (0.5, 0.8)
    cyl_out_value: float = 10.0
    base_out_value: float = 20.0

    def __post_init__(self):
        for name in self.weights:
            if name not in TERM_NAMES:
                raise ConfigError(f"unknown reward term in weights: {name!r}")
        for k, name in enumerate(self.active):
            if name not in TERM_NAMES:
                raise ConfigError(f"unknown reward term in active mask: {name!r}")
            if name in self.active[:k]:
                raise ConfigError(f"reward term {name!r} listed twice in the active mask")
        missing = [t for t in TERM_NAMES if t not in self.weights]
        if missing:
            raise ConfigError(f"weights missing for terms: {missing}")
        if not all(np.isfinite(w) for w in self.weights.values()):
            raise ConfigError("reward weights must be finite")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        # The (1 + active, 1) weight column of reward_terms' stacked rows (1.0
        # for the zero row), and each term's row in TERM_NAMES order (0, the
        # zero row, for an inactive term).  Not fields: no config key.
        column = np.array([1.0] + [self.weights[name] for name in self.active])[:, None]
        column.flags.writeable = False
        object.__setattr__(self, "_weight_column", column)
        object.__setattr__(self, "_term_rows", tuple(
            self.active.index(name) + 1 if name in self.active else 0 for name in TERM_NAMES
        ))


def reward_terms(inputs: RewardInputs, cfg: RewardConfig) -> RewardBreakdown:
    """Evaluate every active term and the weighted total; inactive terms report 0.

    The batch shape is that of `inputs.q` without its last axis; every
    input broadcasts to it.  The active terms are written into the rows of
    one (1 + active, *batch) array behind a zero row, and each breakdown
    field is its row, so the total is one product with the config's weight
    column and one accumulation over that array.  `total` has the batch
    shape even when no term is active.
    """
    stacked = np.empty((1 + len(cfg.active),) + np.shape(inputs.q)[:-1])
    stacked[0] = 0.0
    # stacked[k, ...] is a view even unbatched (0-d); stacked[k] is then a scalar.
    for k, name in enumerate(cfg.active, 1):
        _TERMS[name][0](inputs, cfg, stacked[k, ...])
    rows = list(stacked)
    # The running sum adds one row at a time, so the total has the bits of
    # 0.0 + w1 t1 + w2 t2 + ... (the leading zero makes a -0.0 positive).
    weights = cfg._weight_column
    if stacked.ndim != 2:
        weights = weights.reshape((-1,) + (1,) * (stacked.ndim - 1))
    products = stacked * weights
    total = np.add.accumulate(products, axis=0, out=products)[-1]
    return RewardBreakdown(*map(rows.__getitem__, cfg._term_rows), total)


BREAKDOWN_COLUMNS = ("step", *TERM_NAMES, "total")


def write_breakdown_csv(breakdowns: list[RewardBreakdown], path) -> None:
    """One row per control step, one column per term plus total."""
    rows = (
        [step, *(getattr(b, t) for t in TERM_NAMES), b.total] for step, b in enumerate(breakdowns)
    )
    write_table(path, BREAKDOWN_COLUMNS, rows)
