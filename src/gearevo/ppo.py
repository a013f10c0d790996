"""PPO training over a bank of design-expanded parallel environments.

Rollouts are collected from a vectorized environment (one design per
environment block, several environments per design), advantages come from
GAE(lambda), and updates apply the clipped surrogate with minibatched
Adam steps.  Episode returns are tagged by design index; per-design mean
returns over a terminal window of iterations feed the fitness computation
of the co-design loop, which builds the bank and calls `train_on_env`.
`collect_rollouts` is also the rollout of rollout-only evaluation.

All randomness is drawn from named streams keyed by (seed, phase), so a
training call is exactly reproducible from those keys.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .chinup_env import EpisodeLog
from .errors import ConfigError, NumericError
from .policy import (
    LOSS_STATISTICS,
    AdamState,
    PolicyParams,
    Rows,
    adam_step,
    loss_and_grads,
    loss_workspace,
    policy_forward_batch,
    rollout_work,
    sample_action,
)
from .seeding import stream
from .tables import read_table, write_table


# The dtype of the network math in ppo_update (see policy.loss_and_grads).
TRAIN_DTYPE = np.float32

# The terminal window of iterations over which a training phase's
# per-design mean episode returns are taken (see `_per_design_returns`).
FITNESS_WINDOW = 10

# A training history row: the iteration, its episode statistics and the
# update's mean loss statistics (the loss total left out).
LEARNING_CURVE_COLUMNS = ("iteration", "mean_return", "std_return", *LOSS_STATISTICS[1:])


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    epochs: int = 4
    minibatches: int = 4
    value_coef: float = 0.5
    entropy_coef: float = 0.005
    learning_rate: float = 3e-4
    horizon: int = 64
    # Fixed scale on rewards entering GAE and value targets; episode-return
    # bookkeeping (and hence fitness) always uses raw rewards.
    reward_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0 and 0.0 < self.gae_lambda <= 1.0):
            raise ConfigError("gamma and gae_lambda must lie in (0, 1]")
        if self.clip_epsilon <= 0.0:
            raise ConfigError("clip_epsilon must be positive")
        if min(self.epochs, self.minibatches, self.horizon) < 1:
            raise ConfigError("epochs, minibatches, horizon must be >= 1")
        if self.learning_rate < 0.0 or self.reward_scale <= 0.0:
            raise ConfigError("learning_rate must be >= 0 and reward_scale > 0")


@dataclass
class RolloutBatch:
    """One rollout, then its GAE outputs.

    `ppo_update` trains on proprio, design, actions, log_probs, advantages
    and returns, reading them in place.  rewards, values and dones (bool)
    are GAE's inputs, and `compute_gae` sets them to None as it spends
    them.  `episodes` logs the episodes that finished during the rollout,
    each with its design index.
    """

    proprio: np.ndarray  # (n_env, horizon, proprio_dim), TRAIN_DTYPE for ppo_update
    design: np.ndarray  # (n_env, design_dim), static per env
    actions: np.ndarray  # (n_env, horizon, action_dim)
    log_probs: np.ndarray  # (n_env, horizon)
    rewards: np.ndarray | None  # (n_env, horizon), GAE input
    values: np.ndarray | None  # (n_env, horizon), GAE input
    dones: np.ndarray | None  # (n_env, horizon) bool, GAE input
    bootstrap_values: np.ndarray  # (n_env,)
    episodes: EpisodeLog | None = None
    advantages: np.ndarray | None = None  # (n_env, horizon), standardized
    returns: np.ndarray | None = None  # (n_env, horizon), value targets


def collect_rollouts(vec_env, params: PolicyParams, horizon: int, rng) -> RolloutBatch:
    """Step every environment `horizon` times under the sampled policy.

    `vec_env` is a vectorized bank (VecChinupEnv or compatible): it exposes
    n_envs, design_mat, env_to_design, episode_length, proprio() and
    step(actions), holds per-env state across calls, and auto-resets
    finished episodes while returning them as an `EpisodeLog`.
    An episode ends at the latest `episode_length` steps after it starts.

    The parameters and designs stay fixed for the whole rollout, so the
    design latent, exp(log_std) and the log-density constants are computed
    once per call (`policy.rollout_work`), and every step's forward pass
    reuses one observation buffer and the trunk's hidden buffers.  The
    forward passes read the env's float64 proprio rows; the batch stores
    them in TRAIN_DTYPE, the dtype in which `ppo_update` feeds them to the
    network.
    """
    n = vec_env.n_envs
    prop = vec_env.proprio()
    design = np.asarray(vec_env.design_mat, dtype=np.float64)
    work = rollout_work(params, design)
    out = RolloutBatch(
        proprio=np.empty((n, horizon, prop.shape[1]), TRAIN_DTYPE),
        design=design,
        actions=np.empty((n, horizon, params.action_dim)),
        log_probs=np.empty((n, horizon)),
        rewards=np.empty((n, horizon)),
        values=np.empty((n, horizon)),
        dones=np.empty((n, horizon), bool),
        bootstrap_values=np.empty(n),
    )
    finished = []
    for t in range(horizon):
        means, values = policy_forward_batch(params, design, prop, work)
        actions, log_probs = sample_action(means, work.gaussian, rng)
        rewards, dones, episodes = vec_env.step(actions)
        out.proprio[:, t] = prop
        out.actions[:, t] = actions
        out.log_probs[:, t] = log_probs
        out.values[:, t] = values
        out.rewards[:, t] = rewards
        out.dones[:, t] = dones
        finished.append(episodes)
        prop = vec_env.proprio()
    _, out.bootstrap_values = policy_forward_batch(params, design, prop, work)
    out.episodes = EpisodeLog.concat(finished)
    return out


def compute_gae(batch: RolloutBatch, gamma: float, gae_lambda: float) -> RolloutBatch:
    """Backward GAE recursion plus per-batch advantage standardization.

    delta_t = r_t + gamma*v_{t+1}*(1-done_t) - v_t
    A_t     = delta_t + gamma*lambda*(1-done_t)*A_{t+1}
    returns = A_raw + v; advantages standardized to mean 0, std 1 (eps 1e-8).

    `dones` may be bool: 1.0 - done is then the same float64 as for 0/1.
    The batch drops its inputs as they are spent: rewards and dones when
    the recursion ends, values once the returns are formed.  The raw
    advantages are then standardized in place, so GAE never holds its
    inputs beside both outputs, and at most one batch-sized temporary at a
    time.
    """
    n, horizon = batch.rewards.shape
    adv = np.zeros((n, horizon))
    next_adv = np.zeros(n)
    next_value = np.asarray(batch.bootstrap_values, dtype=np.float64)
    for t in range(horizon - 1, -1, -1):
        not_done = 1.0 - batch.dones[:, t]
        delta = batch.rewards[:, t] + gamma * next_value * not_done - batch.values[:, t]
        next_adv = delta + gamma * gae_lambda * not_done * next_adv
        adv[:, t] = next_adv
        next_value = batch.values[:, t]
    del next_value  # a view of values
    batch.rewards = batch.dones = None
    batch.returns = adv + batch.values
    batch.values = None
    mean, std = adv.mean(), adv.std()
    adv -= mean
    adv /= std + 1e-8
    batch.advantages = adv
    return batch


def ppo_update(
    params: PolicyParams, opt: AdamState, batch: RolloutBatch, cfg: PpoConfig, rng
) -> tuple[PolicyParams, AdamState, dict]:
    """One PPO update: epochs of seeded-shuffle minibatch gradient steps.

    A minibatch is one chunk of the epoch's permutation: each of its
    columns is a `policy.Rows` of those row indices into the rollout
    batch's own arrays (reshaped views, one row per step), and the loss
    gathers each 1024-row block just before it uses it, so no minibatch is
    copied.  Every minibatch step shares one loss workspace, sized for the
    largest minibatch, allocated once per update and freed when the update
    returns.  The workspace is float32, so the network's matmuls and tanh
    run in float32: the rollout stores the proprio rows in float32, and the
    design rows are cast once here.  The parameters, the Adam moments, the
    gradient sums and the loss reductions stay float64.
    """
    n, horizon = batch.log_probs.shape
    total = n * horizon
    # Update row i is step i % horizon of environment i // horizon; the
    # design is stored once per environment, so it is read at row i // horizon.
    sources = {
        "proprio": batch.proprio.reshape(total, -1),
        "design": batch.design.astype(TRAIN_DTYPE),
        "action": batch.actions.reshape(total, -1),
        "old_log_prob": batch.log_probs.reshape(total),
        "advantage": batch.advantages.reshape(total),
        "ret": batch.returns.reshape(total),
    }
    # np.array_split makes its first chunks the largest: ceil(total / minibatches).
    work = loss_workspace(-(-total // cfg.minibatches), params.hidden, TRAIN_DTYPE)
    stats_acc: dict[str, list] = {}
    for epoch in range(cfg.epochs):
        # The last epoch's permutation, and the minibatch views of it, die
        # before the next is drawn.
        perm = chunk = minibatch = None
        perm = rng.permutation(total)
        for mb_idx, chunk in enumerate(np.array_split(perm, cfg.minibatches)):
            minibatch = {
                key: Rows(src, chunk, horizon if key == "design" else 1)
                for key, src in sources.items()
            }
            try:
                losses, grad = loss_and_grads(params, minibatch, cfg, work)
            except NumericError as exc:
                raise NumericError(
                    f"PPO update aborted at epoch {epoch}, minibatch {mb_idx}: {exc}"
                ) from exc
            params, opt = adam_step(params, grad, opt)
            for key, val in losses.items():
                stats_acc.setdefault(key, []).append(val)
    stats = {key: float(np.mean(vals)) for key, vals in stats_acc.items()}
    return params, opt, stats


class TrainingPhase:
    """One PPO training phase over an existing environment bank, and all its state.

    `step()` runs one PPO iteration on the policy (`params`, `opt`), the
    `rollout` and `shuffle` streams and the bank, and appends one history
    row keyed by LEARNING_CURVE_COLUMNS.  `per_design_returns()` gives the
    per-design mean episode returns over the terminal window of up to
    `FITNESS_WINDOW` iterations.  History rows carry the latest
    completed-episode statistics forward through iterations in which no
    episode finished.

    `compute_gae` frees the batch's GAE inputs (rewards, values, dones),
    and the batch is a local of `step()`, freed before the next rollout.
    Every environment ends an episode at most `vec_env.episode_length`
    steps after its last one ended, so when a window of iterations spans
    that many steps, every design has an episode in any full window and
    the full-history fallback of `_per_design_returns` never runs: the
    phase then keeps only the last `FITNESS_WINDOW` episode logs.
    Otherwise it keeps them all.
    """

    def __init__(self, params: PolicyParams, opt: AdamState, vec_env, cfg: PpoConfig,
                 seed: int, phase: str | int = 0):
        self.params, self.opt, self.vec_env, self.cfg = params, opt, vec_env, cfg
        self.rollout_rng = stream("rollout", seed, phase)
        self.shuffle_rng = stream("shuffle", seed, phase)
        self.history: list[dict] = []
        window_covers_episode = vec_env.episode_length <= FITNESS_WINDOW * cfg.horizon
        self.logs = deque(maxlen=FITNESS_WINDOW if window_covers_episode else None)
        self.last_mean = self.last_std = float("nan")

    def step(self) -> None:
        """One PPO iteration: rollout, GAE, update, then one history row."""
        cfg = self.cfg
        batch = collect_rollouts(self.vec_env, self.params, cfg.horizon, self.rollout_rng)
        log = batch.episodes
        self.logs.append(log)
        batch.rewards *= cfg.reward_scale
        compute_gae(batch, cfg.gamma, cfg.gae_lambda)
        self.params, self.opt, stats = ppo_update(
            self.params, self.opt, batch, cfg, self.shuffle_rng
        )
        if log.returns.size:
            self.last_mean = float(np.mean(log.returns))
            self.last_std = float(np.std(log.returns))
        row = (len(self.history) + 1, self.last_mean, self.last_std,
               *(stats[key] for key in LOSS_STATISTICS[1:]))
        self.history.append(dict(zip(LEARNING_CURVE_COLUMNS, row)))

    def per_design_returns(self) -> np.ndarray:
        n_designs = int(np.max(self.vec_env.env_to_design)) + 1 if self.history else 0
        return _per_design_returns(list(self.logs), n_designs)


def train_on_env(
    params: PolicyParams,
    opt: AdamState,
    vec_env,
    n_iterations: int,
    cfg: PpoConfig,
    seed: int,
    phase: str | int = 0,
) -> tuple[PolicyParams, list[dict], np.ndarray]:
    """`n_iterations` steps of one `TrainingPhase`.

    Returns (final params, history rows, per-design mean episode returns).
    """
    training = TrainingPhase(params, opt, vec_env, cfg, seed, phase)
    for _ in range(n_iterations):
        training.step()
    return training.params, training.history, training.per_design_returns()


def _per_design_returns(logs: list[EpisodeLog], n_designs: int) -> np.ndarray:
    """Mean episode return per design over the last up-to-`FITNESS_WINDOW` iterations.

    Falls back to the full history for designs with no episode in the
    window; designs with no completed episodes at all report NaN.  Each
    mean is `np.mean` over the design's returns in the order they ended.
    """
    per_design = np.full(n_designs, np.nan)
    if not logs:
        return per_design
    window, full = EpisodeLog.concat(logs[-FITNESS_WINDOW:]), None
    for d in range(n_designs):
        returns = window.returns[window.design_idx == d]
        if not returns.size:
            if full is None:
                full = EpisodeLog.concat(logs)
            returns = full.returns[full.design_idx == d]
        if returns.size:
            per_design[d] = np.mean(returns)
    return per_design


def write_learning_curve_csv(history: list[dict], path) -> None:
    columns = LEARNING_CURVE_COLUMNS
    write_table(path, columns, ([row[c] for c in columns] for row in history))


def read_learning_curve_csv(path) -> list[dict]:
    columns = LEARNING_CURVE_COLUMNS
    rows = read_table(path, lambda h: tuple(h) == columns, "a learning curve CSV")
    return [
        {"iteration": int(row[0]), **{c: float(v) for c, v in zip(columns[1:], row[1:])}}
        for row in rows
    ]
