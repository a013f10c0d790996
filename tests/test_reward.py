import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gearevo.errors import ConfigError
from gearevo.reward import (
    BREAKDOWN_COLUMNS,
    DEFAULT_ACTIVE,
    DEFAULT_WEIGHTS,
    TERM_NAMES,
    RewardConfig,
    RewardInputs,
    reward_terms,
    write_breakdown_csv,
)
from gearevo.tables import read_table

import reference_env


def make_inputs(**overrides) -> RewardInputs:
    base = dict(
        pos_head=np.array([0.0, -1.3]),
        pos_goal=np.array([0.0, 0.1]),
        cyl_gap=0.65,
        base_ok=True,
        sym_pairs=((0, 1),),
        g_proj_xy=np.zeros(2),
        tau=np.zeros(2),
        qdot=np.zeros(2),
        prev_qdot=np.zeros(2),
        dt=0.02,
        action=np.zeros(4),
        prev_action=np.zeros(4),
        q=np.zeros(2),
        q_min=np.array([-2.8, -2.8]),
        q_max=np.array([2.8, 2.8]),
        qdot_max=np.array([8.0, 8.0]),
        tau_max=np.array([12.0, 12.0]),
    )
    base.update(overrides)
    return RewardInputs(**base)


ALL_ACTIVE_CFG = RewardConfig(active=TERM_NAMES)


# --- individual term examples ---------------------------------------------------


def test_chinup_is_one_at_goal():
    b = reward_terms(make_inputs(pos_head=np.array([0.0, 0.1])), ALL_ACTIVE_CFG)
    assert b.chinup == 1.0


def test_chinup_hanging_rest_value():
    # head (0, -1.3), goal (0, 0.1): squared distance 1.96
    b = reward_terms(make_inputs(), ALL_ACTIVE_CFG)
    assert b.chinup == pytest.approx(0.140858420921045, abs=1e-15)


def test_hollow_cylinder_window():
    assert reward_terms(make_inputs(cyl_gap=0.65), ALL_ACTIVE_CFG).hollow_cylinder == 0.0
    assert reward_terms(make_inputs(cyl_gap=0.9), ALL_ACTIVE_CFG).hollow_cylinder == 10.0


def test_hollow_cylinder_open_interval_boundaries():
    assert reward_terms(make_inputs(cyl_gap=0.5), ALL_ACTIVE_CFG).hollow_cylinder == 10.0
    assert reward_terms(make_inputs(cyl_gap=0.8), ALL_ACTIVE_CFG).hollow_cylinder == 10.0


def test_base_position_indicator():
    assert reward_terms(make_inputs(base_ok=True), ALL_ACTIVE_CFG).base_position == 0.0
    assert reward_terms(make_inputs(base_ok=False), ALL_ACTIVE_CFG).base_position == 20.0


def test_joint_regularization_equal_pair():
    b = reward_terms(make_inputs(q=np.array([0.7, 0.7])), ALL_ACTIVE_CFG)
    assert b.joint_regularization == 1.0


def test_torque_sum_of_squares():
    b = reward_terms(make_inputs(tau=np.array([3.0, 4.0])), ALL_ACTIVE_CFG)
    assert b.torque == 25.0


def test_torque_zero_for_zero_torque():
    assert reward_terms(make_inputs(), ALL_ACTIVE_CFG).torque == 0.0


def test_velocity_limit_clip_saturation():
    b = reward_terms(
        make_inputs(qdot=np.array([9.0, 0.0]), qdot_max=np.array([8.0, 8.0])),
        ALL_ACTIVE_CFG,
    )
    assert b.joint_velocity_limit == 1.0
    b = reward_terms(
        make_inputs(qdot=np.array([8.4, 0.0]), qdot_max=np.array([8.0, 8.0])),
        ALL_ACTIVE_CFG,
    )
    assert b.joint_velocity_limit == pytest.approx(0.4, abs=1e-12)


def test_torque_limit_clip_saturation():
    b = reward_terms(
        make_inputs(tau=np.array([-15.0, 12.3]), tau_max=np.array([12.0, 12.0])),
        ALL_ACTIVE_CFG,
    )
    assert b.joint_torque_limit == pytest.approx(1.0 + 0.3, abs=1e-12)


def test_position_limit_linear_excess():
    b = reward_terms(
        make_inputs(q=np.array([-3.0, 3.1])), ALL_ACTIVE_CFG
    )
    assert b.joint_position_limit == pytest.approx(0.2 + 0.3, abs=1e-12)


def test_joint_acceleration_uses_dt():
    b = reward_terms(
        make_inputs(qdot=np.array([1.0, 0.0]), prev_qdot=np.zeros(2), dt=0.02),
        ALL_ACTIVE_CFG,
    )
    assert b.joint_acceleration == pytest.approx(2500.0, abs=1e-9)


def test_action_rate():
    b = reward_terms(
        make_inputs(action=np.array([1.0, 0.0, 0.0, 0.0]), prev_action=np.zeros(4)),
        ALL_ACTIVE_CFG,
    )
    assert b.action_rate == 1.0


def test_orientation_square_norm():
    b = reward_terms(make_inputs(g_proj_xy=np.array([0.3, -0.4])), ALL_ACTIVE_CFG)
    assert b.orientation == pytest.approx(0.25, abs=1e-15)


def test_inactive_terms_report_zero():
    cfg = RewardConfig(active=("chinup",))
    b = reward_terms(make_inputs(tau=np.array([3.0, 4.0])), cfg)
    assert b.torque == 0.0 and b.joint_regularization == 0.0


# --- totals ----------------------------------------------------------------------


AT_GOAL = np.array([0.0, 0.1])


def test_total_only_chinup_active():
    cfg = RewardConfig(active=("chinup",))
    b = reward_terms(make_inputs(pos_head=AT_GOAL), cfg)
    assert b.chinup == 1.0
    assert b.total == 30.0


def test_total_all_terms_zero():
    # at rest with no symmetric joint pair, every default term but the
    # chinup reward is zero
    cfg = RewardConfig(active=tuple(t for t in DEFAULT_ACTIVE if t != "chinup"))
    b = reward_terms(make_inputs(sym_pairs=()), cfg)
    assert b.total == 0.0


def test_total_chinup_and_torque():
    cfg = RewardConfig(active=("chinup", "torque"))
    b = reward_terms(make_inputs(pos_head=AT_GOAL, tau=np.array([3.0, 4.0])), cfg)
    assert (b.chinup, b.torque) == (1.0, 25.0)
    assert b.total == pytest.approx(29.99975, abs=1e-12)


def test_default_weights_match_task_table():
    assert DEFAULT_WEIGHTS["chinup"] == 30.0
    assert DEFAULT_WEIGHTS["hollow_cylinder"] == -2.0
    assert DEFAULT_WEIGHTS["base_position"] == -2.0
    assert DEFAULT_WEIGHTS["joint_regularization"] == -5.0
    assert DEFAULT_WEIGHTS["orientation"] == -5.0
    assert DEFAULT_WEIGHTS["torque"] == -1e-5
    assert DEFAULT_WEIGHTS["joint_acceleration"] == -1e-5
    assert DEFAULT_WEIGHTS["action_rate"] == -1e-3
    assert DEFAULT_WEIGHTS["joint_position_limit"] == -2.0
    assert DEFAULT_WEIGHTS["joint_velocity_limit"] == -2.0
    assert DEFAULT_WEIGHTS["joint_torque_limit"] == -2.0
    assert "orientation" not in DEFAULT_ACTIVE
    assert len(DEFAULT_ACTIVE) == 10


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_total_is_linear_in_terms(a, b_):
    cfg = RewardConfig(active=("chinup", "torque"))
    b = reward_terms(make_inputs(pos_head=np.array([a, 0.1]), tau=np.array([b_, 0.0])), cfg)
    assert b.total == pytest.approx(30.0 * b.chinup + (-1e-5) * b.torque, rel=1e-12, abs=1e-12)


def test_total_keeps_positive_zero():
    # 0.0 + (-1e-5 * 0.0) is +0.0, as the term-by-term sum gives
    cfg = RewardConfig(active=("torque",))
    total = reward_terms(make_inputs(tau=np.zeros((3, 2)), q=np.zeros((3, 2))), cfg).total
    assert np.array_equal(total, np.zeros(3)) and not np.signbit(total).any()


def test_no_active_term_gives_batch_shaped_zero_total():
    cfg = RewardConfig(active=())
    b = reward_terms(make_inputs(q=np.zeros((4, 2))), cfg)
    assert b.total.shape == (4,) and not b.total.any()
    assert reward_terms(make_inputs(), cfg).total == 0.0


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [(), (1,), (9,), (64,)])
def test_reward_terms_match_term_by_term_oracle_bitwise(batch):
    # random subsets of the terms in random order and random finite weights
    # (zeros of both signs included), against the frozen term-by-term
    # formulas and Python-loop total of tests/reference_env.py; also on the
    # operands VecChinupEnv passes: (n, 2) arrays in column order, its
    # config's Python-float gap (in and out of the window), no, one or two
    # symmetry pairs, and rows holding NaN or +-inf, as a diverged
    # environment gives
    rng = np.random.default_rng(len(batch) and batch[0])
    gaps = (lambda: rng.uniform(0.3, 1.0, batch), lambda: 0.9, lambda: 0.65)
    pairs = (((0, 1),), (), ((0, 1), (1, 0)))

    def arr(*shape, scale=1.0, fortran=False):
        x = rng.normal(size=batch + shape) * scale
        x[rng.random(x.shape) < 0.1] = 0.0
        return np.asfortranarray(x) if fortran else x

    for trial in range(60):
        active = tuple(rng.permutation(TERM_NAMES)[: rng.integers(0, len(TERM_NAMES) + 1)])
        weights = {t: float(rng.choice([0.0, -0.0, 1e-5, -2.0, 30.0]) * rng.random())
                   for t in TERM_NAMES}
        cfg = RewardConfig(weights=weights, active=active)
        fortran = trial % 2 == 1
        columns = {
            key: arr(2, scale=scale, fortran=fortran)
            for key, scale in (("pos_head", 1.0), ("g_proj_xy", 1.0), ("tau", 20.0),
                               ("qdot", 10.0), ("prev_qdot", 10.0), ("q", 3.0))
        }
        if batch and trial % 4 == 3:
            for key in ("pos_head", "tau", "qdot", "q"):
                row = rng.integers(batch[0])
                columns[key][row, rng.integers(2)] = rng.choice([np.nan, np.inf, -np.inf])
        inputs = make_inputs(
            cyl_gap=gaps[trial % 3](), base_ok=rng.random(batch) > 0.5,
            sym_pairs=pairs[trial // 3 % 3], action=arr(4), prev_action=arr(4),
            qdot_max=np.broadcast_to([8.0, 6.0], batch + (2,)),
            tau_max=np.broadcast_to([12.0, 9.0], batch + (2,)), **columns,
        )
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf in the NaN rows
            got = reward_terms(inputs, cfg)
            want = reference_env.reward_terms(inputs, cfg)
            # with no term active the frozen total is a bare 0.0: the batch shape is the fix
            want.total = reference_env.total_reward(want, cfg) + np.zeros(batch)
        for name in (*TERM_NAMES, "total"):
            assert _same_bits(getattr(got, name), getattr(want, name)), (trial, name)


# --- batching ---------------------------------------------------------------------


def test_batched_inputs_match_loop():
    rng = np.random.default_rng(0)
    B = 7
    singles = []
    batch = make_inputs(
        pos_head=rng.normal(size=(B, 2)),
        cyl_gap=rng.uniform(0.3, 1.0, B),
        base_ok=rng.random(B) > 0.5,
        tau=rng.normal(size=(B, 2)) * 10,
        qdot=rng.normal(size=(B, 2)) * 5,
        prev_qdot=rng.normal(size=(B, 2)) * 5,
        action=rng.normal(size=(B, 4)),
        prev_action=rng.normal(size=(B, 4)),
        q=rng.normal(size=(B, 2)) * 2,
    )
    cfg = RewardConfig()
    out = reward_terms(batch, cfg)
    total = out.total
    assert np.shape(total) == (B,)
    for i in range(B):
        one = dataclasses.replace(
            batch,
            pos_head=batch.pos_head[i],
            cyl_gap=float(np.asarray(batch.cyl_gap)[i]),
            base_ok=bool(np.asarray(batch.base_ok)[i]),
            tau=batch.tau[i],
            qdot=batch.qdot[i],
            prev_qdot=batch.prev_qdot[i],
            action=batch.action[i],
            prev_action=batch.prev_action[i],
            q=batch.q[i],
        )
        b1 = reward_terms(one, cfg)
        assert b1.total == total[i]
        for t in TERM_NAMES:
            assert np.asarray(getattr(out, t))[i] == getattr(b1, t)


# --- config validation and CSV ------------------------------------------------------


def test_config_cannot_change_after_construction():
    """The weight column and term rows are built at construction, so a config
    refuses a later change; a changed config is a new one."""
    cfg = RewardConfig()
    with pytest.raises(TypeError):
        cfg.weights["chinup"] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.active = ("chinup",)
    changed = dataclasses.replace(cfg, weights={**cfg.weights, "chinup": 1.0}, active=("chinup",))
    inputs = make_inputs(pos_head=np.array([0.0, 0.1]))
    assert reward_terms(inputs, changed).total == 1.0
    assert reward_terms(inputs, cfg).total == reference_env.total_reward(
        reference_env.reward_terms(inputs, cfg), cfg)


def test_unknown_term_rejected():
    with pytest.raises(ConfigError):
        RewardConfig(weights={**DEFAULT_WEIGHTS, "bogus": 1.0})
    with pytest.raises(ConfigError):
        RewardConfig(active=("chinup", "bogus"))


def test_duplicate_active_term_rejected():
    # a term listed twice would be counted twice in the total
    with pytest.raises(ConfigError, match="'chinup'"):
        RewardConfig(active=("chinup", "torque", "chinup"))


def test_missing_weight_rejected():
    weights = dict(DEFAULT_WEIGHTS)
    weights.pop("torque")
    with pytest.raises(ConfigError):
        RewardConfig(weights=weights)


def test_nonfinite_weight_rejected():
    with pytest.raises(ConfigError):
        RewardConfig(weights={**DEFAULT_WEIGHTS, "torque": np.nan})


def test_breakdown_csv_round_trip(tmp_path):
    cfg = RewardConfig()
    rows = []
    for gap in (0.6, 0.9):
        rows.append(reward_terms(make_inputs(cyl_gap=gap, tau=np.array([1.0, 2.0])), cfg))
    path = tmp_path / "rewards.csv"
    write_breakdown_csv(rows, path)
    back = read_table(path, lambda h: tuple(h) == BREAKDOWN_COLUMNS, "a reward breakdown CSV")
    assert len(back) == 2
    for a, cells in zip(rows, back):
        b = dict(zip(BREAKDOWN_COLUMNS, map(float, cells)))
        for t in TERM_NAMES:
            assert float(getattr(a, t)) == b[t]
        assert float(a.total) == b["total"]
