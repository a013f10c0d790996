"""The rollout loops with every step computed afresh, kept as oracles.

`reference_rollout` steps a `ReferenceBank` the way `ppo.collect_rollouts`
did before it held per-rollout constants: each step recomputes the design
latent, concatenates a new observation, runs the forward pass into fresh
arrays, and draws the action and its log density with exp(log_std) and the
density's constants recomputed.  `reference_rollout_returns` is the
episode loop that `codesign.rollout_returns` ran before it called
`collect_rollouts`, on the same steps.  Both share only `RolloutBatch`, the
config dataclasses and the parameter snapshot with the package under test.

`NanDraws` wraps a generator so that one action draw is NaN, which
diverges one environment.
"""

from __future__ import annotations

import numpy as np

from gearevo.chinup_env import EpisodeLog
from gearevo.ppo import RolloutBatch

from reference_env import ReferenceBank, reference_proprio


class NanDraws:
    """A generator's standard normals with one entry set to NaN on one call."""

    def __init__(self, rng, call, row):
        self.rng, self.call, self.row, self.calls = rng, call, row, 0

    def standard_normal(self, size):
        z = self.rng.standard_normal(size)
        if self.calls == self.call:
            z[self.row, 0] = np.nan
        self.calls += 1
        return z


def _forward(params, design, proprio):
    latent = np.tanh(design @ params.enc_w.T + params.enc_b)
    obs = np.concatenate([proprio, latent], axis=-1)
    h1 = np.tanh(obs @ params.w1.T + params.b1)
    h2 = np.tanh(h1 @ params.w2.T + params.b2)
    return h2 @ params.actor_w.T + params.actor_b, h2 @ params.critic_w + params.critic_b[0]


def _sample(mean, log_std, rng):
    z = rng.standard_normal(mean.shape)
    action = mean + np.exp(log_std) * z
    z = (action - mean) / np.exp(log_std)
    n = log_std.shape[-1]
    log_prob = -0.5 * np.sum(z**2, axis=-1) - np.sum(log_std) - 0.5 * n * np.log(2.0 * np.pi)
    return action, log_prob


def reference_rollout(bank, design_mat, params, horizon, rng) -> RolloutBatch:
    """`horizon` steps of `bank` under the sampled policy; `design_mat` is its designs."""
    n = bank.n_envs
    out = RolloutBatch(
        proprio=np.empty((n, horizon, reference_proprio(bank).shape[1]), np.float32),
        design=np.asarray(design_mat, dtype=np.float64),
        actions=np.empty((n, horizon, params.action_dim)),
        log_probs=np.empty((n, horizon)),
        rewards=np.empty((n, horizon)),
        values=np.empty((n, horizon)),
        dones=np.empty((n, horizon), bool),
        bootstrap_values=np.empty(n),
    )
    finished = []
    for t in range(horizon):
        prop = reference_proprio(bank)
        means, values = _forward(params, out.design, prop)
        actions, log_probs = _sample(means, params.log_std, rng)
        rewards, dones, completed, _ = bank.step(actions)
        out.proprio[:, t] = prop
        out.actions[:, t] = actions
        out.log_probs[:, t] = log_probs
        out.values[:, t] = values
        out.rewards[:, t] = rewards
        out.dones[:, t] = dones
        finished.append(completed)
    _, out.bootstrap_values = _forward(params, out.design, reference_proprio(bank))
    out.episodes = EpisodeLog.concat(finished)
    return out


def reference_rollout_returns(env_cfg, reward_cfg, params, design, n_episodes, seed, phase, rng):
    """The first `n_episodes` returns of `n_episodes` environments of one design.

    Steps a bank built as `codesign.rollout_returns` builds its one for
    `env_cfg.episode_length` steps, drawing actions from `rng`.
    """
    design_mat = np.tile(design.factors, (n_episodes, 1))
    bank = ReferenceBank(
        env_cfg, reward_cfg, design_mat, np.zeros(n_episodes, dtype=np.int64), seed=seed,
        phase=phase,
    )
    returns = []
    for _ in range(env_cfg.episode_length):
        means, _ = _forward(params, design_mat, reference_proprio(bank))
        actions, _ = _sample(means, params.log_std, rng)
        _, _, completed, _ = bank.step(actions)
        returns.extend(e.episode_return for e in completed)
    return np.asarray(returns[:n_episodes])
