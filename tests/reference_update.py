"""The PPO update, the per-design returns and the training loop as plain copies, kept as oracles.

`reference_ppo_update` is the update that casts every proprio row to
float32, repeats the design once per row, and takes each minibatch into
new arrays.  `reference_per_design_returns` averages a list of lists of
episode rows (`EpisodeLog` iterated) with Python list filters.  `ppo.ppo_update` and
`ppo._per_design_returns` must give the same bits; both oracles share only
the policy's loss, Adam step and workspace with the package under test.
`reference_train_on_env` is the training loop that keeps every
iteration's episodes and the whole batch through the update; it shares
the rollout and GAE with the package, and `ppo.train_on_env` must give
its bits.
"""

from __future__ import annotations

import numpy as np

from gearevo.errors import NumericError
from gearevo.policy import adam_step, loss_and_grads, loss_workspace
from gearevo.ppo import collect_rollouts, compute_gae
from gearevo.seeding import stream


def reference_ppo_update(params, opt, batch, cfg, rng):
    n, horizon = batch.log_probs.shape
    total = n * horizon
    flat = {
        "proprio": batch.proprio.reshape(total, -1).astype(np.float32),
        "design": batch.design.astype(np.float32)[np.repeat(np.arange(n), horizon)],
        "action": batch.actions.reshape(total, -1),
        "old_log_prob": batch.log_probs.reshape(total),
        "advantage": batch.advantages.reshape(total),
        "ret": batch.returns.reshape(total),
    }
    work = loss_workspace(-(-total // cfg.minibatches), params.hidden, np.float32)
    stats_acc: dict[str, list] = {}
    for epoch in range(cfg.epochs):
        perm = rng.permutation(total)
        for mb_idx, chunk in enumerate(np.array_split(perm, cfg.minibatches)):
            minibatch = {k: v.take(chunk, axis=0) for k, v in flat.items()}
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


def reference_per_design_returns(episodes_by_iter, n_designs):
    per_design = np.full(n_designs, np.nan)
    window = [e for it_eps in episodes_by_iter[-10:] for e in it_eps]
    full = [e for it_eps in episodes_by_iter for e in it_eps]
    for d in range(n_designs):
        returns = [e.episode_return for e in window if e.design_idx == d]
        if not returns:
            returns = [e.episode_return for e in full if e.design_idx == d]
        if returns:
            per_design[d] = np.mean(returns)
    return per_design


def reference_train_on_env(params, opt, vec_env, n_iterations, cfg, seed, phase=0):
    rollout_rng = stream("rollout", seed, phase)
    shuffle_rng = stream("shuffle", seed, phase)
    history, episodes_by_iter = [], []
    last_mean, last_std = float("nan"), float("nan")
    for it in range(n_iterations):
        batch = collect_rollouts(vec_env, params, cfg.horizon, rollout_rng)
        episodes_by_iter.append(list(batch.episodes))
        if cfg.reward_scale != 1.0:
            batch.rewards = batch.rewards * cfg.reward_scale
        compute_gae(batch, cfg.gamma, cfg.gae_lambda)
        params, opt, stats = reference_ppo_update(params, opt, batch, cfg, shuffle_rng)
        returns = [e.episode_return for e in batch.episodes]
        if returns:
            last_mean, last_std = float(np.mean(returns)), float(np.std(returns))
        history.append({"iteration": it + 1, "mean_return": last_mean, "std_return": last_std,
                        **{k: stats[k] for k in ("policy_loss", "value_loss", "entropy",
                                                 "clip_fraction", "approx_kl")}})
    n_designs = int(np.max(vec_env.env_to_design)) + 1 if n_iterations > 0 else 0
    return params, history, reference_per_design_returns(episodes_by_iter, n_designs)
