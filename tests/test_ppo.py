import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from gearevo import policy, ppo
from gearevo.chinup_env import ACTION_DIM, PROPRIO_DIM, EnvConfig, EpisodeLog, VecChinupEnv
from gearevo.errors import ConfigError
from gearevo.policy import PARAM_ORDER, adam_init, policy_init
from gearevo.ppo import (
    PpoConfig,
    RolloutBatch,
    collect_rollouts,
    compute_gae,
    ppo_update,
    read_learning_curve_csv,
    train_on_env,
    write_learning_curve_csv,
)
from gearevo.design_space import DesignVector, expand_designs
from gearevo.reward import RewardConfig
from gearevo.seeding import stream

from reference_env import ReferenceBank
from reference_rollout import NanDraws, reference_rollout
from reference_update import (
    reference_per_design_returns,
    reference_ppo_update,
    reference_train_on_env,
)
from sanity_env import ACTION_DIM as HOLD_ACTION_DIM
from sanity_env import PROPRIO_DIM as HOLD_PROPRIO_DIM
from sanity_env import HoldPositionEnv


def hold_policy(seed=0):
    return policy_init(HOLD_PROPRIO_DIM + 2, HOLD_ACTION_DIM, 1, seed, hidden=16, latent=2)


def make_batch(rewards, values, dones, bootstrap):
    rewards = np.asarray(rewards, dtype=float)
    n, T = rewards.shape
    return RolloutBatch(
        proprio=np.zeros((n, T, 2)),
        design=np.ones((n, 1)),
        actions=np.zeros((n, T, 1)),
        log_probs=np.zeros((n, T)),
        rewards=rewards,
        values=np.asarray(values, dtype=float),
        dones=np.asarray(dones, dtype=float),
        bootstrap_values=np.asarray(bootstrap, dtype=float),
    )


# --- config ---------------------------------------------------------------------


def test_ppo_config_validation():
    with pytest.raises(ConfigError):
        PpoConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        PpoConfig(gae_lambda=1.5)
    with pytest.raises(ConfigError):
        PpoConfig(clip_epsilon=0.0)
    with pytest.raises(ConfigError):
        PpoConfig(horizon=0)
    with pytest.raises(ConfigError):
        PpoConfig(reward_scale=0.0)


# --- GAE -------------------------------------------------------------------------


def test_gae_hand_example():
    # r=[1,1,1], v=0, gamma=0.5, lambda=1 -> A=[1.75, 1.5, 1]
    batch = make_batch([[1.0, 1.0, 1.0]], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], [0.0])
    out = compute_gae(batch, gamma=0.5, gae_lambda=1.0)
    # v = 0, so the returns are the raw advantages
    assert np.allclose(out.returns[0], [1.75, 1.5, 1.0], atol=1e-15)


def test_gae_gamma_zero_reduces_to_reward_minus_value():
    rng = np.random.default_rng(0)
    r = rng.standard_normal((2, 5))
    v = rng.standard_normal((2, 5))
    dones = np.zeros((2, 5))
    batch = make_batch(r, v, dones, rng.standard_normal(2))
    out = compute_gae(batch, gamma=1e-12, gae_lambda=0.95)
    assert np.allclose(out.returns - v, r - v, atol=1e-9)


def test_gae_lambda_zero_reduces_to_td_residual():
    rng = np.random.default_rng(1)
    r = rng.standard_normal((2, 6))
    v = rng.standard_normal((2, 6))
    boot = rng.standard_normal(2)
    dones = np.zeros((2, 6))
    dones[:, -1] = 1.0
    batch = make_batch(r, v, dones, boot)
    out = compute_gae(batch, gamma=0.9, gae_lambda=1e-300)
    v_next = np.concatenate([v[:, 1:], boot[:, None]], axis=1)
    v_next[:, -1] = 0.0  # terminal
    delta = r + 0.9 * v_next - v
    assert np.allclose(out.returns - v, delta, atol=1e-12)


def test_gae_matches_brute_force_oracle():
    # brute force: A_t = sum_l (gamma*lambda)^l * delta_{t+l}, truncated at
    # episode boundaries, delta from bootstrapped values
    rng = np.random.default_rng(7)
    gamma, lam = 0.97, 0.9
    for _ in range(100):
        n, T = 3, 20
        r = rng.standard_normal((n, T))
        v = rng.standard_normal((n, T))
        boot = rng.standard_normal(n)
        dones = (rng.random((n, T)) < 0.15).astype(float)
        out = compute_gae(make_batch(r, v, dones, boot), gamma, lam)
        brute = np.zeros((n, T))
        for e in range(n):
            for t in range(T):
                acc = 0.0
                scale = 1.0
                for l in range(t, T):
                    nonterminal = 1.0 - dones[e, l]
                    v_next = boot[e] if l == T - 1 else v[e, l + 1]
                    delta = r[e, l] + gamma * v_next * nonterminal - v[e, l]
                    acc += scale * delta
                    if nonterminal == 0.0:
                        break
                    scale *= gamma * lam
                brute[e, t] = acc
        assert np.allclose(out.returns - v, brute, atol=1e-10)
        assert np.allclose(out.returns, brute + v, atol=1e-10)


def test_gae_normalization_shift_invariant():
    # adding a constant to every raw advantage leaves the standardized
    # batch unchanged
    rng = np.random.default_rng(3)
    r = rng.standard_normal((2, 8))
    v = rng.standard_normal((2, 8))
    dones = np.zeros((2, 8))
    boot = rng.standard_normal(2)
    a = compute_gae(make_batch(r, v, dones, boot), 0.99, 0.95)
    shifted_raw = (a.returns - v) + 123.0
    renorm = (shifted_raw - shifted_raw.mean()) / (shifted_raw.std() + 1e-8)
    assert np.allclose(renorm, a.advantages, atol=1e-9)


def test_gae_standardization_properties():
    rng = np.random.default_rng(4)
    batch = make_batch(
        rng.standard_normal((3, 10)),
        rng.standard_normal((3, 10)),
        np.zeros((3, 10)),
        rng.standard_normal(3),
    )
    out = compute_gae(batch, 0.99, 0.95)
    assert out.advantages.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.advantages.std() == pytest.approx(1.0, rel=1e-6)


# --- rollouts -------------------------------------------------------------------


def test_collect_rollouts_minimal_batch():
    env = HoldPositionEnv(2, seed=0)
    params = hold_policy()
    batch = collect_rollouts(env, params, horizon=1, rng=stream("rollout", 0, 0))
    assert batch.rewards.shape == (2, 1)
    assert np.all(np.isfinite(batch.rewards))
    assert batch.proprio.shape == (2, 1, 2)
    assert batch.actions.shape == (2, 1, 1)


def test_collect_rollouts_deterministic():
    params = hold_policy()
    a = collect_rollouts(HoldPositionEnv(3, seed=5), params, 16, stream("rollout", 5, 0))
    b = collect_rollouts(HoldPositionEnv(3, seed=5), params, 16, stream("rollout", 5, 0))
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.proprio, b.proprio)


def test_collect_rollouts_design_tagging():
    plan = expand_designs(2, 4)
    designs = [DesignVector(np.array([1.0, 1.0])), DesignVector(np.array([2.0, 0.7]))]
    cfg = EnvConfig(episode_length=6)
    pop = np.stack([d.factors for d in designs])
    vec = VecChinupEnv(cfg, RewardConfig(), pop[plan.env_to_design], plan.env_to_design,
                       seed=0, phase=0)
    params = policy_init(14, ACTION_DIM, 2, 0)
    batch = collect_rollouts(vec, params, horizon=12, rng=stream("rollout", 0, 0))
    assert np.array_equal(batch.design, pop[[0, 0, 1, 1]])
    # 12 steps of 6-step episodes: every env completed exactly 2 episodes
    by_design = {}
    for rec in batch.episodes:
        by_design[rec.design_idx] = by_design.get(rec.design_idx, 0) + 1
    assert by_design == {0: 4, 1: 4}


@pytest.mark.parametrize("n_env", [1, 7, 64])
def test_collect_rollouts_matches_reference_loop_bitwise(n_env):
    # five rollouts in a row, with episode ends, and a NaN action draw that
    # diverges one environment in the third; the reference recomputes every
    # per-rollout constant at every step
    cfg = EnvConfig(episode_length=24)
    rcfg = RewardConfig()
    rng = np.random.default_rng(n_env)
    design_mat = rng.uniform(0.5, 3.0, (n_env, 2))
    env_to_design = np.arange(n_env) % 3
    env = VecChinupEnv(cfg, rcfg, design_mat, env_to_design, seed=2, phase=1)
    ref = ReferenceBank(cfg, rcfg, design_mat, env_to_design, seed=2, phase=1)
    params = policy_init(PROPRIO_DIM + 4, ACTION_DIM, 2, 5)
    flat = params.flat.copy()
    params.views(flat)["log_std"][:] = 0.5  # actions wide enough to reach the limits
    params = dataclasses.replace(params, flat=flat)
    horizon = 16
    draws = NanDraws(stream("rollout", 2, 1), call=2 * horizon + 5, row=n_env // 2)
    ref_draws = NanDraws(stream("rollout", 2, 1), call=2 * horizon + 5, row=n_env // 2)
    episodes = []
    for k in range(5):
        got = collect_rollouts(env, params, horizon, draws)
        want = reference_rollout(ref, design_mat, params, horizon, ref_draws)
        for f in dataclasses.fields(RolloutBatch):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "episodes":
                for column in ("design_idx", "returns", "diverged"):
                    x, y = getattr(a, column), getattr(b, column)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (k, column)
            elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert a.shape == b.shape and a.dtype == b.dtype, (k, f.name)
                assert a.tobytes() == b.tobytes(), (k, f.name)
            else:
                assert a == b, (k, f.name)
        episodes.extend(got.episodes)
    assert sum(e.failed for e in episodes) == 1
    assert len(episodes) >= 3 * n_env


# --- updates --------------------------------------------------------------------


def test_update_zero_advantage_moves_actor_only_via_entropy():
    env = HoldPositionEnv(4, seed=0)
    params = hold_policy()
    batch = collect_rollouts(env, params, 8, stream("rollout", 0, 0))
    batch = compute_gae(batch, 0.99, 0.95)
    batch.advantages = np.zeros_like(batch.advantages)
    cfg = PpoConfig(value_coef=0.0, entropy_coef=0.0)
    new_params, _, stats = ppo_update(
        params, adam_init(params, 1e-3), batch, cfg, stream("shuffle", 0, 0)
    )
    assert stats["clip_fraction"] == 0.0
    for name in ("actor_w", "actor_b", "w1", "b1", "w2", "b2", "enc_w", "enc_b"):
        assert np.allclose(
            new_params.views()[name], params.views()[name], atol=1e-12
        ), name


def test_update_learning_rate_zero_keeps_parameters():
    env = HoldPositionEnv(4, seed=0)
    params = hold_policy()
    batch = compute_gae(collect_rollouts(env, params, 8, stream("rollout", 0, 0)), 0.99, 0.95)
    new_params, _, _ = ppo_update(
        params, adam_init(params, 0.0), batch, PpoConfig(learning_rate=0.0),
        stream("shuffle", 0, 0),
    )
    for name in PARAM_ORDER:
        assert np.array_equal(new_params.views()[name], params.views()[name])


def test_update_is_deterministic():
    def one():
        env = HoldPositionEnv(4, seed=2)
        params = hold_policy(2)
        batch = compute_gae(
            collect_rollouts(env, params, 8, stream("rollout", 2, 0)), 0.99, 0.95
        )
        return ppo_update(
            params, adam_init(params, 1e-3), batch, PpoConfig(), stream("shuffle", 2, 0)
        )

    p1, _, s1 = one()
    p2, _, s2 = one()
    for name in PARAM_ORDER:
        assert np.array_equal(p1.views()[name], p2.views()[name])
    assert s1 == s2


def test_update_allocates_one_loss_workspace(monkeypatch):
    """Every minibatch step of one update shares a single workspace, and with
    it one block buffer per minibatch column."""
    workspaces, used, buffers = [], [], []

    def counting_workspace(rows, hidden, dtype=np.float64):
        workspaces.append(policy.loss_workspace(rows, hidden, dtype))
        return workspaces[-1]

    def recording_loss(params, minibatch, cfg, work=None):
        used.append(work)
        return policy.loss_and_grads(params, minibatch, cfg, work)

    column_buffer = policy.LossWorkspace.column_buffer

    def recording_buffer(self, k, column):
        buffers.append(column_buffer(self, k, column))
        return buffers[-1]

    monkeypatch.setattr(ppo, "loss_workspace", counting_workspace)
    monkeypatch.setattr(ppo, "loss_and_grads", recording_loss)
    monkeypatch.setattr(policy.LossWorkspace, "column_buffer", recording_buffer)
    env = HoldPositionEnv(4, seed=0)
    params = hold_policy()
    batch = compute_gae(collect_rollouts(env, params, 9, stream("rollout", 0, 0)), 0.99, 0.95)
    cfg = PpoConfig(epochs=2, minibatches=4)  # 36 rows: minibatches of 9
    ppo_update(params, adam_init(params, 1e-3), batch, cfg, stream("shuffle", 0, 0))
    assert len(workspaces) == 1
    assert len(used) == 8 and all(w is workspaces[0] for w in used)
    assert workspaces[0].arrays[0].shape == (9, params.hidden)
    assert len(buffers) == 8 * 6 and len({id(buf) for buf in buffers}) == 6


def test_update_runs_network_math_in_float32(monkeypatch):
    """Float32 network math on float64 masters; same-seed updates share their bits."""
    seen = []

    def recording_loss(params, minibatch, cfg, work=None):
        seen.append((work.dtype, minibatch["proprio"].dtype, minibatch["design"].dtype))
        return policy.loss_and_grads(params, minibatch, cfg, work)

    def update():
        env = HoldPositionEnv(4, seed=5)
        params = hold_policy(5)
        batch = compute_gae(
            collect_rollouts(env, params, 16, stream("rollout", 5, 0)), 0.99, 0.95
        )
        return ppo_update(
            params, adam_init(params, 1e-3), batch, PpoConfig(), stream("shuffle", 5, 0)
        )

    monkeypatch.setattr(ppo, "loss_and_grads", recording_loss)
    (p1, o1, s1), (p2, o2, s2) = update(), update()
    assert seen == [(np.dtype(np.float32),) * 3] * 32  # 2 updates x 4 epochs x 4 minibatches
    assert all(a.dtype == np.float64 for a in p1.views().values())
    assert o1.m.dtype == o1.v.dtype == np.float64
    for name in PARAM_ORDER:
        assert p1.views()[name].tobytes() == p2.views()[name].tobytes(), name
    assert o1.m.tobytes() == o2.m.tobytes() and o1.v.tobytes() == o2.v.tobytes()
    assert s1 == s2


def chinup_bank(n_env, episode_length, seed=0):
    """A chin-up bank of `n_env` environments over three designs, and a policy for it."""
    rng = np.random.default_rng(seed)
    env = VecChinupEnv(EnvConfig(episode_length=episode_length), RewardConfig(),
                       rng.uniform(0.5, 3.0, (n_env, 2)), np.arange(n_env) % 3,
                       seed=seed, phase=0)
    return env, policy_init(PROPRIO_DIM + 4, ACTION_DIM, 2, seed)


def chinup_batch(n_env, horizon, reward_scale=1.0, seed=0):
    """A GAE'd chin-up rollout of `n_env` environments over three designs."""
    env, params = chinup_bank(n_env, 24, seed)
    batch = collect_rollouts(env, params, horizon, stream("rollout", seed, 0))
    if reward_scale != 1.0:
        batch.rewards = batch.rewards * reward_scale
    return params, compute_gae(batch, 0.99, 0.95)


@pytest.mark.parametrize(
    "n_env, horizon, minibatches, reward_scale",
    [
        (1, 37, 4, 1.0),  # 37 rows: minibatches of 10, 9, 9, 9
        (5, 9, 4, 1.0),  # 45 rows of five environments: 12, 11, 11, 11
        (24, 64, 1, 1.0),  # one 1536-row minibatch: the loss runs two blocks
        (6, 16, 3, 0.02),
    ],
)
def test_update_matches_flat_copy_reference_bitwise(n_env, horizon, minibatches, reward_scale):
    params, batch = chinup_batch(n_env, horizon, reward_scale)
    cfg = PpoConfig(epochs=2, minibatches=minibatches, horizon=horizon, reward_scale=reward_scale)
    opt = adam_init(params, 1e-3)
    p1, o1, s1 = ppo_update(params, opt, batch, cfg, stream("shuffle", 0, 0))
    p2, o2, s2 = reference_ppo_update(params, opt, batch, cfg, stream("shuffle", 0, 0))
    assert p1.flat.tobytes() == p2.flat.tobytes()
    assert o1.m.tobytes() == o2.m.tobytes() and o1.v.tobytes() == o2.v.tobytes()
    assert o1.step == o2.step
    assert s1 == s2


def test_update_trains_from_the_rollout_batch_by_row_index(monkeypatch):
    """The minibatch contract: every column reads the rollout batch's own
    arrays (float32 proprio, the design cast once per update and read once
    per environment's 9 rows) at one minibatch's row indices, every row
    once per epoch."""
    params, batch = chinup_batch(5, 9)
    rows = []

    def recording_loss(params, minibatch, cfg, work=None):
        assert minibatch["proprio"].dtype == minibatch["design"].dtype == np.float32
        assert minibatch["design"].source.shape == batch.design.shape
        assert minibatch["design"].repeat == 9
        for key, src in (("proprio", batch.proprio), ("action", batch.actions),
                         ("old_log_prob", batch.log_probs), ("advantage", batch.advantages),
                         ("ret", batch.returns)):
            assert np.shares_memory(minibatch[key].source, src), key
            assert minibatch[key].repeat == 1, key
        index = minibatch["proprio"].index
        assert all(col.index is index for col in minibatch.values())
        rows.append(index.copy())
        return policy.loss_and_grads(params, minibatch, cfg, work)

    monkeypatch.setattr(ppo, "loss_and_grads", recording_loss)
    cfg = PpoConfig(epochs=3, minibatches=4, horizon=9)  # 45 rows: 12, 11, 11, 11
    ppo_update(params, adam_init(params, 1e-3), batch, cfg, stream("shuffle", 0, 0))
    assert [len(r) for r in rows] == [12, 11, 11, 11] * 3
    for epoch in range(3):
        assert sorted(np.concatenate(rows[4 * epoch:4 * epoch + 4])) == list(range(45))


def test_update_allocates_no_minibatch_sized_array():
    """An update's traced peak does not grow with its minibatches: on one
    batch of 8192 rows, 8192-row minibatches peak like 2048-row ones, while
    one float64 array of the larger minibatch would add 48 KiB.  Two epochs
    give both updates more than one Adam step."""
    params, batch = chinup_batch(128, 64)
    peaks = {}
    tracemalloc.start()
    try:
        for minibatches in (4, 1):
            cfg = PpoConfig(epochs=2, minibatches=minibatches)
            opt = adam_init(params, 1e-3)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ppo_update(params, opt, batch, cfg, stream("shuffle", 0, 0))
            peaks[minibatches] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[4] + 4096, peaks


@pytest.mark.parametrize("n_iters", [1, 10, 11, 25])
def test_per_design_returns_match_record_lists_bitwise(n_iters):
    # design 0 finishes often and 1 rarely, 2 finishes only in the first
    # iteration (before the window once there are more than 10), 3 never
    rng = np.random.default_rng(n_iters)
    logs = []
    for it in range(n_iters):
        designs = [0] * int(rng.integers(0, 40)) + [1] * int(rng.integers(0, 2))
        if it == 0:
            designs += [2] * 17
        rng.shuffle(designs)
        rows = [(d, rng.standard_normal() * 10.0 ** rng.integers(-3, 4), rng.random() < 0.1)
                for d in designs]
        logs.append(EpisodeLog(np.array([r[0] for r in rows], np.int32),
                               np.array([r[1] for r in rows], np.float64),
                               np.array([r[2] for r in rows], bool)))
    episodes_by_iter = [list(log) for log in logs]
    got = ppo._per_design_returns(logs, 4)
    want = reference_per_design_returns(episodes_by_iter, 4)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got[2]) and np.isnan(got[3])
    merged = EpisodeLog.concat(logs)
    assert merged.diverged.tolist() == [e.failed for eps in episodes_by_iter for e in eps]
    assert merged.design_idx.tolist() == [e.design_idx for eps in episodes_by_iter for e in eps]


# --- training loop ----------------------------------------------------------------


def test_train_zero_iterations_is_identity():
    env = HoldPositionEnv(4, seed=0)
    params = hold_policy()
    opt = adam_init(params, 1e-3)
    new_params, history, per_design = train_on_env(params, opt, env, 0, PpoConfig(), 0)
    assert history == []
    for name in PARAM_ORDER:
        assert np.array_equal(new_params.views()[name], params.views()[name])


def test_train_history_length_and_keys():
    env = HoldPositionEnv(4, seed=0, episode_length=8)
    params = hold_policy()
    opt = adam_init(params, 1e-3)
    _, history, _ = train_on_env(params, opt, env, 5, PpoConfig(horizon=8), 0)
    assert len(history) == 5
    for i, row in enumerate(history):
        assert row["iteration"] == i + 1
        assert np.isfinite(row["mean_return"])
        for key in ("mean_return", "policy_loss", "value_loss", "entropy", "clip_fraction"):
            assert key in row


def test_train_history_carries_nan_before_first_episode():
    env = HoldPositionEnv(4, seed=0)  # 60-step episodes
    params = hold_policy()
    _, history, _ = train_on_env(params, adam_init(params, 1e-3), env, 2, PpoConfig(horizon=8), 0)
    assert np.isnan(history[0]["mean_return"])  # nothing completed yet


def test_train_determinism():
    def one():
        env = HoldPositionEnv(4, seed=3, episode_length=8)
        params = hold_policy(3)
        opt = adam_init(params, 1e-3)
        return train_on_env(params, opt, env, 4, PpoConfig(horizon=8), 3, phase=1)

    p1, h1, d1 = one()
    p2, h2, d2 = one()
    for name in PARAM_ORDER:
        assert np.array_equal(p1.views()[name], p2.views()[name])
    assert h1 == h2
    assert np.array_equal(d1, d2, equal_nan=True)


def test_train_on_population_returns_per_design_fitness_inputs():
    plan = expand_designs(2, 4)
    designs = [DesignVector(np.array([1.0, 1.0])), DesignVector(np.array([1.5, 0.8]))]
    pop = np.stack([d.factors for d in designs])
    vec = VecChinupEnv(EnvConfig(episode_length=10), RewardConfig(), pop[plan.env_to_design],
                       plan.env_to_design, seed=0, phase=1)
    params = policy_init(14, ACTION_DIM, 2, 0)
    opt = adam_init(params, 3e-4)
    cfg = PpoConfig(horizon=8, reward_scale=0.02)
    new_params, history, per_design = train_on_env(params, opt, vec, 3, cfg, 0, phase=1)
    assert per_design.shape == (2,)
    assert np.all(np.isfinite(per_design))
    assert len(history) == 3


def test_reward_scale_affects_value_targets_not_returns():
    # identical seeds, different reward_scale: episode returns in history match
    def run(scale):
        env = HoldPositionEnv(4, seed=1, episode_length=8)
        params = hold_policy(1)
        opt = adam_init(params, 0.0)  # no learning so rollouts stay aligned
        return train_on_env(
            params, opt, env, 2, PpoConfig(horizon=8, learning_rate=0.0, reward_scale=scale), 1
        )

    _, h1, d1 = run(1.0)
    _, h2, d2 = run(0.01)
    assert h1[0]["mean_return"] == h2[0]["mean_return"]
    assert np.array_equal(d1, d2, equal_nan=True)


@pytest.mark.parametrize(
    "horizon, episode_length, windowed",
    [
        (8, 20, True),  # 10 x 8 steps >= 20: only the window's logs are kept
        (2, 30, False),  # 10 x 2 steps < 30: every log is kept, and the fallback runs
    ],
)
def test_train_keeps_only_the_logs_the_window_reads(
    monkeypatch, horizon, episode_length, windowed
):
    n_iters = 25
    env, params = chinup_bank(6, episode_length)
    assert env.episode_length == episode_length
    cfg = PpoConfig(horizon=horizon, epochs=1, minibatches=2, reward_scale=0.02)
    ref_env, _ = chinup_bank(6, episode_length)
    _, want_history, want = reference_train_on_env(
        params, adam_init(params, 1e-3), ref_env, n_iters, cfg, 0
    )

    live, held, episodes_by_iter = [], [], []

    def recording_rollouts(*args):
        batch = collect_rollouts(*args)
        # the earlier logs still held when this iteration's log is made
        held.append(sum(ref() is not None for ref in live))
        episodes_by_iter.append(list(batch.episodes))
        live.append(weakref.ref(batch.episodes.returns))
        return batch

    monkeypatch.setattr(ppo, "collect_rollouts", recording_rollouts)
    _, history, got = train_on_env(params, adam_init(params, 1e-3), env, n_iters, cfg, 0)
    assert got.tobytes() == want.tobytes()
    assert repr(history) == repr(want_history)
    assert max(held) == (ppo.FITNESS_WINDOW if windowed else n_iters - 1)
    window = {e.design_idx for eps in episodes_by_iter[-ppo.FITNESS_WINDOW:] for e in eps}
    full = {e.design_idx for eps in episodes_by_iter for e in eps}
    # the fallback runs exactly when the window misses a design that finished
    assert (window != full) == (not windowed)
    assert full == {0, 1, 2} and np.all(np.isfinite(got))


def test_train_frees_gae_inputs_before_the_update(monkeypatch):
    """GAE's inputs are dead by the update's first loss call; GAE itself
    still returns both outputs."""
    refs, checked = [], []

    def recording_rollouts(*args):
        batch = collect_rollouts(*args)
        refs.append([weakref.ref(getattr(batch, k)) for k in ("rewards", "values", "dones")])
        return batch

    def recording_gae(batch, gamma, gae_lambda):
        refs[-1] += [weakref.ref(getattr(batch, k)) for k in ("rewards", "values", "dones")]
        out = compute_gae(batch, gamma, gae_lambda)
        assert all(isinstance(getattr(out, k), np.ndarray) for k in ("returns", "advantages"))
        return out

    def recording_loss(params, minibatch, cfg, work=None):
        if len(checked) < len(refs):
            checked.append([ref() is None for ref in refs[-1]])
        return policy.loss_and_grads(params, minibatch, cfg, work)

    monkeypatch.setattr(ppo, "collect_rollouts", recording_rollouts)
    monkeypatch.setattr(ppo, "compute_gae", recording_gae)
    monkeypatch.setattr(ppo, "loss_and_grads", recording_loss)
    env, params = chinup_bank(6, 24)
    cfg = PpoConfig(horizon=16, epochs=2, minibatches=2, reward_scale=0.02)
    train_on_env(params, adam_init(params, 1e-3), env, 3, cfg, 0)
    # per iteration: the rollout's rewards, values and dones, then the
    # scaled rewards, values and dones GAE read
    assert checked == [[True] * 6] * 3


def test_training_phases_hold_all_their_state():
    """Two phases on two banks, stepped alternately, each give the bytes of
    their own `train_on_env`: nothing a phase reads or writes lives outside it."""
    cfg = PpoConfig(horizon=8, epochs=2, minibatches=2, reward_scale=0.02)
    n_iters = 4
    phases, want = [], []
    for seed, phase in ((0, 1), (1, "other")):
        env, params = chinup_bank(6, 12, seed)
        want.append(train_on_env(params, adam_init(params, 1e-3), env, n_iters, cfg, seed, phase))
        env, params = chinup_bank(6, 12, seed)
        phases.append(ppo.TrainingPhase(params, adam_init(params, 1e-3), env, cfg, seed, phase))
    assert want[0][0].flat.tobytes() != want[1][0].flat.tobytes()
    for _ in range(n_iters):
        for training in phases:
            training.step()
    for training, (params, history, per_design) in zip(phases, want):
        assert training.params.flat.tobytes() == params.flat.tobytes()
        assert repr(training.history) == repr(history)
        assert training.per_design_returns().tobytes() == per_design.tobytes()
        assert np.all(np.isfinite(per_design))


def test_a_step_frees_its_batch(monkeypatch):
    """No rollout batch outlives the step that collected it, so a phase never
    holds one batch while the next rollout fills another."""
    refs = []

    def recording_rollouts(*args):
        batch = collect_rollouts(*args)
        refs.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(ppo, "collect_rollouts", recording_rollouts)
    env, params = chinup_bank(6, 24)
    cfg = PpoConfig(horizon=8, epochs=1, minibatches=2)
    training = ppo.TrainingPhase(params, adam_init(params, 1e-3), env, cfg, 0)
    for n in range(1, 4):
        training.step()
        assert len(refs) == n and refs[-1]() is None


def test_update_memory_budget(monkeypatch):
    """The traced peak of one update, over the memory held before the
    rollout, stays within what the update trains on, its row indices and
    its loss workspace."""
    n_env, horizon, minibatches = 512, 64, 4
    marks = {}

    def marking_rollouts(*args):
        marks["before_rollout"] = tracemalloc.get_traced_memory()[0]
        return collect_rollouts(*args)

    def peak_update(*args):
        tracemalloc.reset_peak()
        out = ppo_update(*args)
        marks["update_peak"] = tracemalloc.get_traced_memory()[1]
        return out

    monkeypatch.setattr(ppo, "collect_rollouts", marking_rollouts)
    monkeypatch.setattr(ppo, "ppo_update", peak_update)
    tracemalloc.start()
    try:
        # 64 steps of 250-step episodes: no episode ends
        env, params = chinup_bank(n_env, 250)
        cfg = PpoConfig(horizon=horizon, minibatches=minibatches)
        train_on_env(params, adam_init(params, 1e-3), env, 1, cfg, 0)
    finally:
        tracemalloc.stop()
    total = n_env * horizon
    f32, f64 = 4, 8
    # proprio (float32), actions, log_probs, advantages and returns
    trained = total * (PROPRIO_DIM * f32 + (ACTION_DIM + 3) * f64)
    # one epoch's int64 permutation
    shuffle = total * 8
    workspace = 5 * 1024 * params.hidden * f32
    # Slack: 1 MiB for one 1024-row loss block's gathered rows (about
    # 0.11 MB) and temporaries (about 0.36 MB), Adam's step (about 0.22 MB)
    # and the env state the rollout leaves (about 0.1 MB).  No array of a
    # minibatch's rows, nor the GAE inputs and raw advantages (another
    # 4 x 8 B per row), has a place in the budget.
    slack = 1024 * 1024
    used = marks["update_peak"] - marks["before_rollout"]
    assert used <= trained + shuffle + workspace + slack, used


def test_rollout_memory_budget():
    """Over the batch it returns, a rollout's traced peak holds one block of
    trunk buffers, not one per environment: 3,000 environments run the
    trunk in blocks of 1,000 rows through buffers of 1,024."""
    n_env, horizon = 3000, 4
    env, params = chinup_bank(n_env, 250)  # no episode ends
    tracemalloc.start()
    try:
        batch = collect_rollouts(env, params, horizon, stream("rollout", 0, 0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.proprio.shape[:2] == (n_env, horizon)
    trunk = 2 * 1024 * params.hidden * 8
    # Slack: 80 float64 per environment for the observation buffer (14),
    # one step's means, values, action draws and their temporaries, and the
    # bank's state and reward terms while a step replaces them (measured
    # about 65 in all).  Trunk buffers of every environment would add
    # another 2 x 1,976 rows of 64 float64.
    slack = n_env * 80 * 8
    assert peak - held <= trunk + slack, peak - held


def test_gae_memory_budget():
    """GAE frees its inputs as it spends them: counting the rewards, values
    and dones it was handed, its traced peak is at most four batch-sized
    arrays (the inputs and the advantages during the recursion, then the
    two outputs and np.std's temporary).  Holding the inputs to the end
    would add two more."""
    n, horizon = 512, 64
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # GAE reads only these fields, and the batch holds the only reference.
        batch = RolloutBatch(
            proprio=None, design=None, actions=None, log_probs=None,
            rewards=rng.standard_normal((n, horizon)), values=rng.standard_normal((n, horizon)),
            dones=rng.random((n, horizon)) < 0.05, bootstrap_values=rng.standard_normal(n),
        )
        tracemalloc.reset_peak()
        compute_gae(batch, 0.99, 0.95)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    array = n * horizon * 8
    # Slack: 16 float64 per environment for the recursion's per-step vectors.
    slack = n * 16 * 8
    assert peak <= 4 * array + slack, peak / array
    assert batch.rewards is batch.values is batch.dones is None


def test_learning_curve_csv_round_trip(tmp_path):
    env = HoldPositionEnv(4, seed=0, episode_length=8)
    params = hold_policy()
    _, history, _ = train_on_env(params, adam_init(params, 1e-3), env, 3, PpoConfig(horizon=8), 0)
    path = tmp_path / "curve.csv"
    write_learning_curve_csv(history, path)
    back = read_learning_curve_csv(path)
    assert len(back) == 3
    for a, b in zip(history, back):
        assert a["iteration"] == b["iteration"]
        assert a["mean_return"] == pytest.approx(b["mean_return"], abs=1e-12)
        assert b["approx_kl"] == a["approx_kl"]  # written with repr: exact
    with open(path) as fh:
        assert fh.readline().rstrip("\r\n").split(",")[-1] == "approx_kl"
