import dataclasses

import numpy as np
import pytest

from gearevo.chinup_env import (
    ACTION_DIM,
    PROPRIO_DIM,
    RESET_DRAWS,
    TRAJECTORY_COLUMNS,
    EnvConfig,
    VecChinupEnv,
    forward_kinematics,
    observation_proprio,
    rollout_trajectory,
    write_trajectory_csv,
)
from gearevo.design_space import DesignVector
from gearevo.errors import ConfigError, ContractError
from gearevo.cli import parse_config
from gearevo.reward import DEFAULT_ACTIVE, TERM_NAMES, RewardBreakdown, RewardConfig
from gearevo.seeding import stream
from gearevo.tables import read_table

from reference_env import (
    ReferenceBank,
    coriolis_forces,
    gravity_forces,
    mass_matrix,
    reference_proprio,
    total_energy,
)
from sanity_env import free_swing

UNIT = DesignVector(np.array([1.0, 1.0]))


def bank(config=None, design=UNIT, key=0, rcfg=None):
    """A one-environment bank; its start comes from stream("env", key, 0, 0)."""
    return VecChinupEnv(
        config or EnvConfig(), rcfg or RewardConfig(), design.factors[None, :],
        np.zeros(1, dtype=np.int64), seed=key, phase=0,
    )


def at_state(env, q, qdot):
    env.q[0] = q
    env.qdot[0] = qdot
    return env


# --- kinematics -------------------------------------------------------------------


def test_fk_straight_down():
    head = forward_kinematics(np.array([0.0, 0.0]), EnvConfig())
    assert np.allclose(head, [0.0, -1.3], atol=1e-15)


def test_fk_straight_up():
    head = forward_kinematics(np.array([np.pi, 0.0]), EnvConfig())
    assert np.allclose(head, [0.0, 1.3], atol=1e-12)


def test_fk_right_angle():
    head = forward_kinematics(np.array([np.pi / 2, -np.pi / 2]), EnvConfig())
    assert np.allclose(head, [0.5, -0.8], atol=1e-12)


def test_fk_broadcasts():
    q = np.stack([np.zeros(2), np.array([np.pi, 0.0])])
    heads = forward_kinematics(q, EnvConfig())
    assert heads.shape == (2, 2)
    assert np.allclose(heads[0], [0.0, -1.3], atol=1e-12)


# --- dynamics terms -----------------------------------------------------------------


def test_mass_matrix_symmetric_positive_definite():
    cfg = EnvConfig()
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        M = mass_matrix(q, cfg)
        assert np.allclose(M, M.T, atol=1e-15)
        eig = np.linalg.eigvalsh(M)
        assert np.all(eig > 0)


def test_gravity_zero_at_rest_configuration():
    assert np.allclose(gravity_forces(np.zeros(2), EnvConfig()), 0.0, atol=1e-15)


def test_coriolis_vanishes_at_zero_velocity():
    cfg = EnvConfig()
    q = np.array([0.7, -0.4])
    assert np.allclose(coriolis_forces(q, np.zeros(2), cfg), 0.0, atol=1e-15)


def test_equilibrium_is_stationary():
    env = at_state(bank(), np.zeros(2), np.zeros(2))
    env.step(np.zeros((1, ACTION_DIM)))
    assert np.array_equal(env.q, np.zeros((1, 2)))
    assert np.array_equal(env.qdot, np.zeros((1, 2)))


def test_energy_drift_small_at_fine_timestep():
    # zero torque free swing from q=[0.3, 0]; a fast coarse check, the
    # acceptance suite runs the full ten-second version
    cfg = EnvConfig(dt_sim=1e-4)
    q0 = np.array([0.3, 0.0])
    e0 = total_energy(q0, np.zeros(2), cfg)
    q, qdot = free_swing(q0, cfg.dt_sim, 20_000)  # 2 s
    e1 = total_energy(q, qdot, cfg)
    assert abs(e1 - e0) / abs(e0) < 0.01


def test_energy_non_creation_at_episode_timestep():
    # at the production dt (0.005) over one 5 s episode the semi-implicit
    # integrator may drift, but must stay within 5%
    cfg = EnvConfig()  # dt_sim=0.005
    q0 = np.array([0.3, 0.0])
    e0 = total_energy(q0, np.zeros(2), cfg)
    q, qdot = free_swing(q0, cfg.dt_sim, cfg.episode_length * cfg.decimation)  # 5 s
    e1 = total_energy(q, qdot, cfg)
    assert abs(e1 - e0) / abs(e0) < 0.05


def test_small_oscillation_frequency_with_frozen_elbow():
    # with joint 2 pinned at zero the system is a compound pendulum:
    # omega = sqrt(g*(m1*l1 + m2*L) / (m1*l1^2 + m2*L^2)), L = l1+l2
    # = 2.824313634065157 rad/s at the default parameters
    cfg = EnvConfig(dt_sim=1e-4)

    # pin the elbow by integrating the reduced 1-DoF dynamics
    # qdd1 = -G1(q1, 0) / M11(q1, 0) built from the model's own terms
    q1, qdot1 = 0.02, 0.0
    crossings = []
    t = 0.0
    prev_q1 = q1
    for _ in range(70_000):  # 7 s > 3 periods
        q = np.array([q1, 0.0])
        qdd1 = -gravity_forces(q, cfg)[0] / mass_matrix(q, cfg)[0, 0]
        qdot1 += cfg.dt_sim * qdd1  # semi-implicit Euler, as in the simulator
        q1 += cfg.dt_sim * qdot1
        t += cfg.dt_sim
        if prev_q1 < 0.0 <= q1:  # upward zero crossing, linear interpolation
            frac = -prev_q1 / (q1 - prev_q1)
            crossings.append(t - cfg.dt_sim + frac * cfg.dt_sim)
        prev_q1 = q1
    assert len(crossings) >= 3
    period = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
    omega = 2.0 * np.pi / period
    assert abs(omega - 2.824313634065157) / 2.824313634065157 < 0.02


# --- reset ---------------------------------------------------------------------------


def test_reset_zero_noise_is_hanging_rest():
    cfg = EnvConfig(reset_noise=0.0)
    env = bank(cfg)
    assert np.array_equal(env.q, np.zeros((1, 2)))
    assert np.array_equal(env.qdot, np.zeros((1, 2)))
    assert np.allclose(forward_kinematics(env.q[0], cfg), [0.0, -1.3], atol=1e-15)


def test_reset_same_stream_identical():
    a = bank(key=3)
    b = bank(key=3)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.qdot, b.qdot)


def test_reset_noise_within_bounds():
    cfg = EnvConfig()
    for key in range(20):
        env = bank(cfg, key=key)
        assert np.all(np.abs(env.q) <= cfg.reset_noise)
        assert np.array_equal(env.qdot, np.zeros((1, 2)))


# --- PD controller ---------------------------------------------------------------------


def test_pd_zero_error_zero_torque():
    env = at_state(bank(), [0.4, -0.2], [1.0, 2.0])
    action = np.array([[0.4, -0.2, 1.0, 2.0]])
    assert np.allclose(env.pd_torque(action), 0.0, atol=1e-12)


def test_pd_saturates_at_limit():
    env = at_state(bank(), np.zeros(2), np.zeros(2))
    tau = env.pd_torque(np.array([[1.0, 0.0, 0.0, 0.0]]))  # kp * 1 = 60 >> 12
    assert tau[0, 0] == 12.0
    assert tau[0, 1] == 0.0


def test_pd_limit_scales_with_design():
    env = at_state(bank(design=DesignVector(np.array([2.0, 1.0]))), np.zeros(2), np.zeros(2))
    tau = env.pd_torque(np.array([[1.0, -1.0, 0.0, 0.0]]))
    assert tau[0, 0] == 24.0
    assert tau[0, 1] == -12.0


def test_pd_torque_is_per_environment():
    # three designs in one bank, each saturating at its own limit
    designs = np.array([[0.5, 1.0], [1.0, 2.0], [4.0, 0.25]])
    env = VecChinupEnv(EnvConfig(), RewardConfig(), designs, np.arange(3), seed=0)
    env.q[:] = 0.0
    env.qdot[:] = 0.0
    tau = env.pd_torque(np.tile([1.0, -1.0, 0.0, 0.0], (3, 1)))
    assert np.array_equal(tau, [[6.0, -12.0], [12.0, -24.0], [48.0, -3.0]])


# --- control step ----------------------------------------------------------------------------


def test_step_zero_action_from_rest_chinup_value():
    env = bank(EnvConfig(reset_noise=0.0))
    _, dones, _ = env.step(np.zeros((1, ACTION_DIM)))
    assert env.breakdown.chinup[0] == pytest.approx(0.140858420921045, abs=1e-13)
    assert env.breakdown.torque[0] == 0.0
    assert not dones[0]


def test_step_horizon_termination_and_contract():
    # the episode ends at the horizon; its record is reported and the
    # environment restarts from its reset stream
    cfg = EnvConfig(episode_length=5)
    env = bank(cfg)
    for t in range(5):
        _, dones, completed = env.step(np.zeros((1, ACTION_DIM)))
        assert dones[0] == (t == 4)
        assert len(completed) == (t == 4)
    assert env.step_count[0] == 0
    assert np.array_equal(env.q[0], stream("env", 0, 0, 0).uniform(-0.05, 0.05, 4)[2:])


def test_step_rejects_bad_action_shape():
    env = bank()
    with pytest.raises(ContractError):
        env.step(np.zeros((1, 3)))
    with pytest.raises(ContractError):
        env.step(np.zeros(ACTION_DIM))
    with pytest.raises(ContractError):
        env.pd_torque(np.zeros(ACTION_DIM))


def test_step_velocity_and_position_stay_clamped():
    cfg = EnvConfig()
    env = bank(cfg, DesignVector(np.array([4.0, 4.0])), key=5)  # strongest torque, tight qdot limit
    rng = np.random.default_rng(2)
    for _ in range(cfg.episode_length - 1):
        env.step(rng.uniform(-3, 3, (1, ACTION_DIM)))
        assert np.all(np.abs(env.qdot) <= env.qdot_max + 1e-12)
        assert np.all(env.q >= np.array(cfg.q_min) - 1e-12)
        assert np.all(env.q <= np.array(cfg.q_max) + 1e-12)


def test_limit_rewards_observe_preclamp_excursions():
    # command a violent swing: the post-clamp state respects every limit, yet
    # the velocity/torque rows must see the raw excursions
    cfg = EnvConfig()
    env = bank(cfg, DesignVector(np.array([0.5, 0.5])), key=1)
    action = np.array([[2.8, -2.8, 8.0, -8.0]])
    saw_torque_violation = False
    for _ in range(cfg.episode_length):
        env.step(action)
        if env.breakdown.joint_torque_limit[0] > 0:
            saw_torque_violation = True
    assert saw_torque_violation


def test_step_determinism_same_seed_same_actions():
    cfg = EnvConfig()

    def trajectory():
        env = bank(cfg, key=11)
        rng = np.random.default_rng(7)
        totals = []
        for _ in range(cfg.episode_length - 1):
            rewards, _, _ = env.step(rng.uniform(-1, 1, (1, ACTION_DIM)))
            totals.append(rewards[0])
        return np.array(totals), env.q.copy()

    t1, q1 = trajectory()
    t2, q2 = trajectory()
    assert np.array_equal(t1, t2)
    assert np.array_equal(q1, q2)


def test_step_does_not_write_into_returned_arrays():
    # callers keep what a step returns, its breakdown, proprio() and the
    # state arrays across later steps, with resets and a divergence; the
    # step's reused buffers must hold only intermediates
    env, _ = make_vec(n_designs=8, per=8, cfg=EnvConfig(episode_length=3),
                      rcfg=RewardConfig(active=TERM_NAMES))
    rng = np.random.default_rng(0)
    kept = []
    for t in range(12):
        before = [env.proprio(), env.q, env.qdot, env.prev_qdot]
        actions = rng.uniform(-3, 3, (env.n_envs, ACTION_DIM))
        if t == 4:
            actions[5, 0] = np.nan
        rewards, dones, _ = env.step(actions)
        fields = [getattr(env.breakdown, f.name) for f in dataclasses.fields(RewardBreakdown)]
        kept.append([(x, np.array(x, copy=True)) for x in (*before, rewards, dones, *fields)])
    for t, arrays in enumerate(kept):
        for k, (x, copy) in enumerate(arrays):
            assert _same_bits(x, copy), (t, k)


def test_no_active_reward_term_gives_zero_rewards():
    # `--set reward.active=` is a valid config: every step earns 0
    rcfg = parse_config(None, ["reward.active="]).reward
    assert rcfg.active == ()
    env, _ = make_vec(rcfg=rcfg)
    rewards, dones, _ = env.step(np.zeros((env.n_envs, ACTION_DIM)))
    assert rewards.shape == (env.n_envs,) and not rewards.any()
    rows, episode_return, breakdowns = rollout_trajectory(
        EnvConfig(episode_length=5), UNIT, rcfg, lambda prop, d: np.zeros(ACTION_DIM), seed=0
    )
    assert len(rows) == 5 and episode_return == 0.0
    assert all(b.total == 0.0 for b in breakdowns)


# --- observations ---------------------------------------------------------------------------


def test_proprio_layout():
    cfg = EnvConfig()
    q = np.array([0.1, -0.2])
    qdot = np.array([2.0, -4.0])
    prev_action = np.array([0.3, 0.4, 0.5, 0.6])
    prop = observation_proprio(q, qdot, prev_action, cfg)
    assert prop.shape == (PROPRIO_DIM,)
    head = forward_kinematics(q, cfg)
    assert np.allclose(prop[:2], np.array(cfg.goal) - head)
    assert np.array_equal(prop[2:4], q)
    assert np.allclose(prop[4:6], qdot * cfg.qdot_obs_scale)
    assert np.array_equal(prop[6:], prev_action)


# --- vectorized bank -------------------------------------------------------------------------


def make_vec(n_designs=3, per=2, seed=0, cfg=None, rcfg=None):
    cfg = cfg or EnvConfig()
    rcfg = rcfg or RewardConfig()
    rng = np.random.default_rng(seed)
    designs = rng.uniform(0.5, 4.0, (n_designs, 2))
    design_mat = np.repeat(designs, per, axis=0)
    env_to_design = np.repeat(np.arange(n_designs), per)
    return VecChinupEnv(cfg, rcfg, design_mat, env_to_design, seed=seed, phase=0), designs


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_two_reward_configs_stepped_alternately_keep_their_own_weights():
    # two banks whose reward configs differ in weights and active terms,
    # stepped in turn, give every step's rewards and breakdown with the
    # bits of banks stepped alone on configs made fresh for them: each
    # config's weight column and term rows are its own
    specs = [
        ({name: 1.0 + k for k, name in enumerate(TERM_NAMES)}, DEFAULT_ACTIVE),
        ({name: -0.5 * (k + 2) for k, name in enumerate(TERM_NAMES)},
         ("torque", "chinup", "action_rate", "joint_position_limit")),
    ]
    cfg = EnvConfig(episode_length=20)
    paired = [make_vec(4, 4, seed=7, cfg=cfg, rcfg=RewardConfig(dict(w), a))[0] for w, a in specs]
    rng = np.random.default_rng(8)
    actions = rng.uniform(-3, 3, (30, 16, ACTION_DIM))
    stepped = [[], []]
    for step_actions in actions:
        for k, env in enumerate(paired):
            rewards, _, _ = env.step(step_actions)
            stepped[k].append((rewards, dataclasses.astuple(env.breakdown)))
    for (weights, active), got in zip(specs, stepped):
        alone = make_vec(4, 4, seed=7, cfg=cfg, rcfg=RewardConfig(dict(weights), active))[0]
        for t, step_actions in enumerate(actions):
            rewards, _, _ = alone.step(step_actions)
            assert _same_bits(got[t][0], rewards), t
            for a, b in zip(got[t][1], dataclasses.astuple(alone.breakdown)):
                assert _same_bits(a, b), t


@pytest.mark.parametrize("n_envs", [1, 64])
def test_vec_env_matches_reference_step_bitwise(n_envs):
    # 600 steps of 50-step episodes, actions far past every limit, and a
    # NaN action at steps 100 and 377 that diverges one environment, with
    # all eleven reward terms and with the default ones; the reference's
    # reward is the frozen term-by-term one
    cfg = EnvConfig(episode_length=50)
    for active in (TERM_NAMES, DEFAULT_ACTIVE):
        rcfg = RewardConfig(active=active)
        rng = np.random.default_rng(n_envs)
        design_mat = rng.uniform(0.25, 4.0, (n_envs, 2))
        env_to_design = np.arange(n_envs) % 5
        env = VecChinupEnv(cfg, rcfg, design_mat, env_to_design, seed=4, phase=1)
        ref = ReferenceBank(cfg, rcfg, design_mat, env_to_design, seed=4, phase=1)
        records = []
        for t in range(600):
            assert _same_bits(env.proprio(), reference_proprio(ref)), t
            actions = rng.uniform(-3, 3, (n_envs, ACTION_DIM))
            actions *= rng.choice([1.0, 10.0], (n_envs, 1))
            if t in (100, 377):
                actions[n_envs // 2, t % ACTION_DIM] = np.nan
            rewards, dones, completed = env.step(actions)
            ref_rewards, ref_dones, ref_completed, ref_breakdown = ref.step(actions)
            assert _same_bits(rewards, ref_rewards), t
            assert _same_bits(dones, ref_dones), t
            for name in ("design_idx", "returns", "diverged"):
                assert _same_bits(getattr(completed, name), getattr(ref_completed, name)), t
            for name in ("q", "qdot", "prev_qdot", "prev_action", "ep_return", "step_count"):
                assert _same_bits(getattr(env, name), getattr(ref, name)), (t, name)
            for name in (*TERM_NAMES, "total"):
                got, want = getattr(env.breakdown, name), getattr(ref_breakdown, name)
                assert _same_bits(got, want), (t, name)
            records.extend(completed)
        assert sum(r.failed for r in records) == 2
        assert len(records) >= 12 * n_envs


def test_reset_noise_refills_match_live_generators():
    # 3-step episodes for 60 steps: 20 resets per environment after the
    # first, past the second refill of the noise table, and NaN actions
    # that end some rows' episodes early, so rows refill at different steps
    cfg = EnvConfig(episode_length=3)
    rcfg = RewardConfig()
    n = 7
    rng = np.random.default_rng(11)
    design_mat = rng.uniform(0.5, 3.0, (n, 2))
    env = VecChinupEnv(cfg, rcfg, design_mat, np.arange(n) % 3, seed=6, phase="refill")
    ref = ReferenceBank(cfg, rcfg, design_mat, np.arange(n) % 3, seed=6, phase="refill")
    assert _same_bits(env.q, ref.q)
    resets = np.ones(n, dtype=np.int64)
    for t in range(60):
        actions = rng.uniform(-1, 1, (n, ACTION_DIM))
        if t % 5 == 1:
            actions[t % n, 0] = np.nan
        rewards, dones, _ = env.step(actions)
        ref_rewards, ref_dones, _, _ = ref.step(actions)
        assert _same_bits(rewards, ref_rewards), t
        assert _same_bits(dones, ref_dones), t
        assert _same_bits(env.q, ref.q), t
        resets += dones
    assert resets.min() > 2 * RESET_DRAWS and len(set(resets.tolist())) > 1, resets


def test_vec_env_autoreset_and_tagging():
    cfg = EnvConfig(episode_length=10)
    vec, _ = make_vec(cfg=cfg)
    rng = np.random.default_rng(0)
    records = []
    for _ in range(25):
        _, dones, completed = vec.step(rng.uniform(-1, 1, (vec.n_envs, ACTION_DIM)))
        records.extend(completed)
    # after 25 steps every env finished exactly twice (episodes of 10)
    assert len(records) == 2 * vec.n_envs
    by_design = {}
    for rec in records:
        by_design.setdefault(rec.design_idx, 0)
        by_design[rec.design_idx] += 1
    assert by_design == {0: 4, 1: 4, 2: 4}
    assert all(np.isfinite(r.episode_return) for r in records)
    assert all(not r.failed for r in records)


def test_vec_env_returns_accumulate_raw_rewards():
    cfg = EnvConfig(episode_length=4)
    rcfg = RewardConfig()
    vec, _ = make_vec(n_designs=1, per=1, cfg=cfg, rcfg=rcfg)
    rng = np.random.default_rng(4)
    total = 0.0
    for _ in range(4):
        rewards, dones, completed = vec.step(rng.uniform(-1, 1, (1, ACTION_DIM)))
        total += rewards[0]
    assert completed.returns[0] == pytest.approx(total, abs=1e-12)


# --- trajectory dump -------------------------------------------------------------------------


def test_rollout_trajectory_csv_round_trip(tmp_path):
    cfg = EnvConfig(episode_length=12)
    rows, episode_return, breakdowns = rollout_trajectory(
        cfg, UNIT, RewardConfig(), lambda prop, d: np.zeros(ACTION_DIM), seed=0
    )
    assert len(rows) == 12
    assert len(breakdowns) == 12
    assert episode_return == pytest.approx(sum(r["reward_total"] for r in rows), abs=1e-9)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rows, path)
    back = read_table(path, lambda h: tuple(h) == TRAJECTORY_COLUMNS, "a trajectory CSV")
    assert len(back) == 12
    for a, cells in zip(rows, back):
        b = dict(zip(TRAJECTORY_COLUMNS, map(float, cells)))
        for key in a:
            assert float(a[key]) == pytest.approx(b[key], abs=1e-12)


def test_rollout_trajectory_matches_reference_step():
    # the episode starts from stream("trajectory", seed), records the state
    # after each step and the saturated torque at its start
    cfg = EnvConfig(episode_length=30)
    rcfg = RewardConfig()
    design = DesignVector(np.array([2.5, 0.5]))
    rng = np.random.default_rng(5)
    actions = rng.uniform(-3, 3, (30, ACTION_DIM))
    proprios = []

    def action_fn(proprio, dsn):
        proprios.append(proprio)
        return actions[len(proprios) - 1]

    rows, episode_return, breakdowns = rollout_trajectory(cfg, design, rcfg, action_fn, seed=8)
    ref = ReferenceBank(
        EnvConfig(episode_length=31), rcfg, design.factors[None, :], np.zeros(1), seed=0
    )
    ref.q[0] = stream("trajectory", 8).uniform(-cfg.reset_noise, cfg.reset_noise, 2)
    total = 0.0
    for t, row in enumerate(rows):
        assert np.array_equal(
            proprios[t], observation_proprio(ref.q[0], ref.qdot[0], ref.prev_action[0], cfg)
        )
        tau = np.clip(
            cfg.kp * (actions[t, :2] - ref.q[0]) + cfg.kd * (actions[t, 2:] - ref.qdot[0]),
            -ref.tau_max[0], ref.tau_max[0],
        )
        rewards, _, _, breakdown = ref.step(actions[t][None, :])
        total += float(rewards[0])
        head = forward_kinematics(ref.q[0], cfg)
        expected = {
            "step": t, "q1": ref.q[0, 0], "q2": ref.q[0, 1], "qd1": ref.qdot[0, 0],
            "qd2": ref.qdot[0, 1], "tau1": tau[0], "tau2": tau[1], "head_x": head[0],
            "head_y": head[1], "reward_total": rewards[0],
        }
        assert row == expected
        for name in (*TERM_NAMES, "total"):
            assert getattr(breakdowns[t], name) == getattr(breakdown, name)[0]
    assert len(rows) == 30
    assert episode_return == total


def test_rollout_trajectory_ends_at_divergence():
    cfg = EnvConfig(episode_length=20)
    calls = []

    def action_fn(proprio, dsn):  # NaN at step 3
        calls.append(proprio)
        return np.full(ACTION_DIM, np.nan if len(calls) == 4 else 0.0)

    rows, episode_return, breakdowns = rollout_trajectory(cfg, UNIT, RewardConfig(), action_fn, 0)
    assert [r["step"] for r in rows] == [0, 1, 2, 3]
    assert np.isnan(rows[-1]["q1"]) and np.isnan(rows[-1]["head_y"])
    assert rows[-1]["reward_total"] == 0.0
    assert breakdowns[-1] == RewardBreakdown()
    assert np.isfinite(episode_return)


# --- config validation ------------------------------------------------------------------------


def test_env_config_validation():
    with pytest.raises(ConfigError):
        EnvConfig(dt_sim=0.0)
    with pytest.raises(ConfigError):
        EnvConfig(decimation=0)
    with pytest.raises(ConfigError):
        EnvConfig(episode_length=0)
    with pytest.raises(ConfigError):
        EnvConfig(q_min=(1.0, -2.8), q_max=(0.5, 2.8))
