"""The loss and gradient of one block by their plain formulas, kept as an oracle.

`reference_loss_and_grads` computes what `policy.loss_and_grads` computes
for a minibatch of at most one block, with every layer a fresh array:
the network's matmuls and tanh in `dtype` (the parameters and the
proprio and design rows cast to it), the action density, the clipped
surrogate and every sum in float64, and each network gradient upcast into
a zeroed float64 vector laid out as `flat`.  Each product and sum is the
one IEEE operation the package performs, in its operand order, so the two
must agree bit for bit.  The float32 column sums are products with a
vector of ones, as the package's are.  It shares only the parameter
snapshot with the package under test.
"""

from __future__ import annotations

import numpy as np

from gearevo.policy import PolicyParams


def reference_loss_and_grads(params, minibatch, cfg, dtype):
    """(statistics, gradient) of one block; the statistics keyed as LOSS_STATISTICS."""
    net = PolicyParams(params.flat.astype(dtype), *params.dims)
    design = minibatch["design"].astype(dtype)
    latent = np.tanh(design @ net.enc_w.T + net.enc_b)
    obs = np.concatenate([minibatch["proprio"].astype(dtype), latent], axis=-1)
    h1 = np.tanh(obs @ net.w1.T + net.b1)
    h2 = np.tanh(h1 @ net.w2.T + net.b2)
    mean = (h2 @ net.actor_w.T + net.actor_b).astype(np.float64)
    value = (h2 @ net.critic_w + net.critic_b[0]).astype(np.float64)

    rows, actions = len(obs), params.action_dim
    log_std, eps = params.log_std, cfg.clip_epsilon
    std = np.exp(log_std)
    z = (minibatch["action"] - mean) / std
    lp = -0.5 * np.sum(z**2, axis=-1) - np.sum(log_std) - 0.5 * actions * np.log(2.0 * np.pi)
    ratio = np.exp(lp - minibatch["old_log_prob"])
    adv = minibatch["advantage"]
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    value_err = value - minibatch["ret"]
    ent = float(np.sum(log_std) + 0.5 * actions * (1.0 + np.log(2.0 * np.pi)))
    policy_loss = -(np.sum(np.minimum(surr1, surr2)) / rows)
    value_loss = np.sum(value_err * value_err) / rows
    stats = {
        "total": policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * ent,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": ent,
        "clip_fraction": np.count_nonzero(np.abs(ratio - 1.0) > eps) / rows,
        "approx_kl": np.sum(minibatch["old_log_prob"] - lp) / rows,
    }

    grad = np.zeros(params.n_params)
    grads = params.views(grad)
    d_lp = np.where(surr1 <= surr2, -ratio * adv / rows, 0.0)
    d_mean = z / std * d_lp[:, None]
    d_value = value_err * (cfg.value_coef * 2.0) / rows
    grads["log_std"] += d_lp @ (z**2 - 1.0)
    grads["log_std"] -= cfg.entropy_coef
    grads["actor_b"] += d_mean.sum(axis=0)
    grads["critic_b"] += d_value.sum()
    d_mean, d_value = d_mean.astype(dtype), d_value.astype(dtype)

    def column_sums(x):
        return x.sum(axis=0) if dtype == np.float64 else np.ones(len(x), dtype) @ x

    d_h2 = d_mean @ net.actor_w + net.critic_w[None, :] * d_value[:, None]
    grads["actor_w"] += d_mean.T @ h2
    grads["critic_w"] += h2.T @ d_value
    d_z2 = d_h2 * (1.0 - h2**2)
    grads["w2"] += d_z2.T @ h1
    grads["b2"] += column_sums(d_z2)
    d_z1 = (d_z2 @ net.w2) * (1.0 - h1**2)
    grads["w1"] += d_z1.T @ obs
    grads["b1"] += column_sums(d_z1)
    d_ze = (d_z1 @ net.w1)[:, params.obs_dim - params.latent:] * (1.0 - latent**2)
    grads["enc_w"] += d_ze.T @ design
    grads["enc_b"] += column_sums(d_ze)
    return {key: float(value) for key, value in stats.items()}, grad
