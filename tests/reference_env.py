"""The (..., 2)-form control step of the chin-up bank, kept as an oracle.

This is the environment step as it was before the bank moved to column
form: every physics quantity is built with `np.stack` over the last axis,
torques and velocities are clamped with `np.clip`, and the reward reads
the same inputs.  The reward formulas and their weighted total are frozen
copies of the term-by-term originals, summed in a Python loop.  The step
oracle `ReferenceBank` shares only the config dataclasses and `EpisodeLog`
with the package under test, so bitwise agreement between the two is
evidence that the stacked-state step and the column-form reward kept every
operand order.  The closed-form helpers below also read the package's
private `_coefficients`.

`mass_matrix`, `coriolis_forces`, `gravity_forces` and `total_energy` state
the model in closed form over joint arrays of shape (..., 2), from the
package's table of coefficients; the physics and energy checks read them.
"""

from __future__ import annotations

import numpy as np

from gearevo.chinup_env import ACTION_DIM, N_JOINTS, EpisodeLog, _coefficients
from gearevo.reward import TERM_NAMES, RewardBreakdown, RewardInputs
from gearevo.seeding import stream


def _sq_norm(x):
    return np.add.reduce(np.square(x), axis=-1)


def _mass_entries(q: np.ndarray, config):
    """M11(q), M12(q) and the constant M22 of the joint-space mass matrix."""
    k = _coefficients(config)
    c2 = np.cos(q[..., 1])
    return k.a + k.b + 2.0 * k.c * c2, k.b + k.c * c2, k.b


def mass_matrix(q: np.ndarray, config) -> np.ndarray:
    """Joint-space mass matrix M(q), shape (..., 2, 2)."""
    q = np.asarray(q, dtype=np.float64)
    m11, m12, m22 = _mass_entries(q, config)
    m22 = np.broadcast_to(m22, m11.shape)
    return np.stack(
        [np.stack([m11, m12], axis=-1), np.stack([m12, m22], axis=-1)], axis=-2
    )


def coriolis_forces(q: np.ndarray, qdot: np.ndarray, config) -> np.ndarray:
    """Velocity-product forces C(q, qdot), shape (..., 2), laid out like qdot."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    c = _coefficients(config).c
    s2 = np.sin(q[..., 1])
    qd1, qd2 = qdot[..., 0], qdot[..., 1]
    out = np.empty_like(qdot)
    np.multiply(-c * s2, 2.0 * qd1 * qd2 + qd2**2, out=out[..., 0])
    np.multiply(c * s2, qd1**2, out=out[..., 1])
    return out


def gravity_forces(q: np.ndarray, config) -> np.ndarray:
    """Gravity torques G(q), shape (..., 2), laid out like q."""
    q = np.asarray(q, dtype=np.float64)
    k = _coefficients(config)
    s1 = np.sin(q[..., 0])
    s12 = np.sin(q[..., 0] + q[..., 1])
    out = np.empty_like(q)
    np.multiply(k.g2, s12, out=out[..., 1])
    np.add(k.g1 * s1, out[..., 1], out=out[..., 0])
    return out


def total_energy(q: np.ndarray, qdot: np.ndarray, config) -> np.ndarray:
    """Kinetic plus potential energy (potential zero at the bar height)."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    m = mass_matrix(q, config)
    kinetic = 0.5 * np.einsum("...i,...ij,...j->...", qdot, m, qdot)
    k = _coefficients(config)
    potential = -k.g1 * np.cos(q[..., 0]) - k.g2 * np.cos(q[..., 0] + q[..., 1])
    return kinetic + potential


def reward_terms(inputs, cfg):
    """Every active term, one formula at a time; inactive terms report 0."""
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


def total_reward(breakdown, cfg):
    """0.0 + w1 t1 + w2 t2 + ... over the active terms in order."""
    total = 0.0
    for name in cfg.active:
        total = total + cfg.weights[name] * getattr(breakdown, name)
    breakdown.total = total
    return total


def _coriolis(q, qdot, config):
    c = config.m2 * config.l1 * config.l2
    s2 = np.sin(q[..., 1])
    qd1, qd2 = qdot[..., 0], qdot[..., 1]
    c1 = -c * s2 * (2.0 * qd1 * qd2 + qd2**2)
    c2 = c * s2 * qd1**2
    return np.stack([c1, c2], axis=-1)


def _gravity(q, config):
    g = config.gravity
    s1 = np.sin(q[..., 0])
    s12 = np.sin(q[..., 0] + q[..., 1])
    g1 = (config.m1 + config.m2) * g * config.l1 * s1 + config.m2 * g * config.l2 * s12
    g2 = config.m2 * g * config.l2 * s12
    return np.stack([g1, g2], axis=-1)


def _head(q, config):
    q1 = q[..., 0]
    q12 = q[..., 0] + q[..., 1]
    x = config.l1 * np.sin(q1) + config.l2 * np.sin(q12)
    y = -config.l1 * np.cos(q1) - config.l2 * np.cos(q12)
    return np.stack([x, y], axis=-1)


def reference_proprio(bank):
    """The bank's observation block, the forward kinematics computed afresh."""
    config = bank.config
    goal_delta = np.array(config.goal) - _head(bank.q, config)
    return np.concatenate(
        [goal_delta, bank.q, bank.qdot * config.qdot_obs_scale, bank.prev_action], axis=-1
    )


def _accel(q, qdot, tau, config):
    a = (config.m1 + config.m2) * config.l1**2
    b = config.m2 * config.l2**2
    c = config.m2 * config.l1 * config.l2
    c2 = np.cos(q[..., 1])
    m11 = a + b + 2.0 * c * c2
    m12 = b + c * c2
    rhs = tau - _coriolis(q, qdot, config) - _gravity(q, config)
    r1, r2 = rhs[..., 0], rhs[..., 1]
    det = m11 * b - m12 * m12
    qdd1 = (b * r1 - m12 * r2) / det
    qdd2 = (m11 * r2 - m12 * r1) / det
    return np.stack([qdd1, qdd2], axis=-1)


def _substep(q, qdot, tau, qdot_max, q_lo, q_hi, config):
    qdd = _accel(q, qdot, tau, config)
    qdot_pre = qdot + config.dt_sim * qdd
    qdot_new = np.clip(qdot_pre, -qdot_max, qdot_max)
    q_pre = q + config.dt_sim * qdot_new
    q_new = np.clip(q_pre, q_lo, q_hi)
    qdot_new = np.where(q_pre != q_new, 0.0, qdot_new)
    return q_new, qdot_new, q_pre, qdot_pre


def _step_core(q, qdot, prev_action, prev_qdot, action, tau_max, qdot_max, config, reward_cfg):
    q_lo = np.array(config.q_min)
    q_hi = np.array(config.q_max)
    tau_raw = None
    q_pre, qdot_pre = q, qdot
    for _ in range(config.decimation):
        tau_raw = config.kp * (action[..., :2] - q) + config.kd * (action[..., 2:] - qdot)
        tau = np.clip(tau_raw, -tau_max, tau_max)
        q, qdot, q_pre, qdot_pre = _substep(q, qdot, tau, qdot_max, q_lo, q_hi, config)
    head = _head(q, config)
    inputs = RewardInputs(
        pos_head=head,
        pos_goal=np.array(config.goal),
        cyl_gap=config.cyl_gap,
        base_ok=(head[..., 0] <= 0.0) | (head[..., 1] <= 0.0),
        sym_pairs=config.sym_pairs,
        g_proj_xy=np.zeros(q.shape[:-1] + (2,)),
        tau=tau_raw,
        qdot=qdot_pre,
        prev_qdot=prev_qdot,
        dt=config.dt_sim * config.decimation,
        action=action,
        prev_action=prev_action,
        q=q_pre,
        q_min=q_lo,
        q_max=q_hi,
        qdot_max=qdot_max,
        tau_max=tau_max,
    )
    breakdown = reward_terms(inputs, reward_cfg)
    total_reward(breakdown, reward_cfg)
    return q, qdot, breakdown, qdot_pre


class ReferenceBank:
    """The bank's state, resets and episode bookkeeping around `_step_core`."""

    def __init__(self, config, reward_cfg, design_mat, env_to_design, seed, phase=0):
        self.config = config
        self.reward_cfg = reward_cfg
        self.env_to_design = np.asarray(env_to_design, dtype=np.int64)
        n = design_mat.shape[0]
        self.n_envs = n
        self.tau_max = np.array(config.tau_default) * design_mat
        self.qdot_max = np.array(config.qdot_default) / design_mat
        self.rngs = [stream("env", seed, phase, k) for k in range(n)]
        self.q = np.zeros((n, N_JOINTS))
        self.qdot = np.zeros((n, N_JOINTS))
        self.prev_action = np.zeros((n, ACTION_DIM))
        self.prev_qdot = np.zeros((n, N_JOINTS))
        self.step_count = np.zeros(n, dtype=np.int64)
        self.ep_return = np.zeros(n)
        self.reset_mask(np.ones(n, dtype=bool))

    def reset_mask(self, mask):
        noise = self.config.reset_noise
        for k in np.nonzero(mask)[0]:
            self.q[k] = self.rngs[k].uniform(-noise, noise, size=N_JOINTS)
        self.qdot[mask] = 0.0
        self.prev_action[mask] = 0.0
        self.prev_qdot[mask] = 0.0
        self.step_count[mask] = 0
        self.ep_return[mask] = 0.0

    def step(self, actions):
        actions = np.asarray(actions, dtype=np.float64)
        q, qdot, breakdown, qdot_signal = _step_core(
            self.q, self.qdot, self.prev_action, self.prev_qdot,
            actions, self.tau_max, self.qdot_max, self.config, self.reward_cfg,
        )
        rewards = np.asarray(breakdown.total, dtype=np.float64)
        diverged = ~(np.all(np.isfinite(q), axis=1) & np.all(np.isfinite(qdot), axis=1))
        if np.any(diverged):
            rewards = np.where(diverged, 0.0, rewards)
            q = np.where(diverged[:, None], 0.0, q)
            qdot = np.where(diverged[:, None], 0.0, qdot)
        self.q = q
        self.qdot = qdot
        self.prev_action = actions.copy()
        self.prev_qdot = qdot_signal
        self.step_count += 1
        self.ep_return += rewards
        dones = diverged | (self.step_count >= self.config.episode_length)
        ended = np.nonzero(dones)[0]
        completed = EpisodeLog(
            np.array([self.env_to_design[k] for k in ended], dtype=np.int32),
            np.array([self.ep_return[k] for k in ended], dtype=np.float64),
            np.array([diverged[k] for k in ended], dtype=bool),
        )
        if np.any(dones):
            self.reset_mask(dones)
        return rewards, dones, completed, breakdown
