"""Planar two-link chin-up environment.

A two-link point-mass pendulum hangs from a bar (pin joint at the origin,
y up).  Joint 1 is the shoulder-group analog at the bar, joint 2 the
elbow-group analog.  Angles are measured from straight-down vertical.
PD-controlled actuators saturate at design-scaled torque limits and joint
velocities are clamped to design-scaled speed limits, so a gear-ratio
design trades strength against speed at constant power.

The task: raise the head point (tip of link 2) to a goal just above the
bar.  Gravity torque at the shoulder far exceeds the torque limit for any
admissible design, so the task requires dynamic swing-up rather than a
static lift.

Reward convention: the limit-violation terms observe pre-clamp excursions
(commanded PD torque before saturation, joint state before the velocity
and position clamps of the final substep), while dynamics and observations
use the clamped actual state.  Without this the clamps would make those
terms identically zero.

The physics helpers take joint arrays of shape (..., 2) and broadcast over
the leading axes.  `VecChinupEnv.step` is the one control-step
implementation.  It keeps the bank's (n_envs, 2) joint arrays in column
(Fortran) order, so each joint is one contiguous column and a whole
substep costs about fifty NumPy calls however many environments it steps.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np

from .design_space import DesignVector
from .errors import ConfigError, ContractError
from .reward import RewardBreakdown, RewardConfig, RewardInputs, reward_terms, total_reward
from .seeding import stream

N_JOINTS = 2
ACTION_DIM = 4  # [q_target (2), qdot_target (2)]
PROPRIO_DIM = 10  # goal_delta (2) + q (2) + qdot (2) + prev_action (4)


@dataclass(frozen=True)
class EnvConfig:
    m1: float = 2.0
    m2: float = 8.0
    l1: float = 0.5
    l2: float = 0.8
    gravity: float = 9.81
    dt_sim: float = 0.005
    decimation: int = 4
    episode_length: int = 250
    tau_default: tuple[float, float] = (12.0, 12.0)
    qdot_default: tuple[float, float] = (8.0, 8.0)
    kp: float = 60.0
    kd: float = 3.0
    goal: tuple[float, float] = (0.0, 0.10)
    q_min: tuple[float, float] = (-2.8, -2.8)
    q_max: tuple[float, float] = (2.8, 2.8)
    reset_noise: float = 0.05
    cyl_gap: float = 0.65  # surrogate hand/bar gap fed to the hollow-cylinder term
    qdot_obs_scale: float = 0.25  # fixed observation scaling to keep tanh inputs sane
    sym_pairs: tuple[tuple[int, int], ...] = ((0, 1),)

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "gravity", "dt_sim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.decimation < 1:
            raise ConfigError("decimation must be >= 1")
        if self.episode_length < 1:
            raise ConfigError("episode_length must be >= 1")
        if self.kp < 0 or self.kd < 0:
            raise ConfigError("PD gains must be non-negative")
        for name in ("tau_default", "qdot_default", "q_min", "q_max", "goal"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must have one entry per joint")
        if any(t <= 0 for t in self.tau_default) or any(v <= 0 for v in self.qdot_default):
            raise ConfigError("default actuator limits must be strictly positive")
        if any(lo >= hi for lo, hi in zip(self.q_min, self.q_max)):
            raise ConfigError("q_min must be below q_max per joint")
        if self.reset_noise < 0:
            raise ConfigError("reset_noise must be non-negative")
        if any(len(pair) != 2 or not all(0 <= k < N_JOINTS for k in pair)
               for pair in self.sym_pairs):
            raise ConfigError(
                f"sym_pairs must pair joint indices in [0, {N_JOINTS}), got {self.sym_pairs}"
            )


def _mass_entries(q: np.ndarray, config: EnvConfig):
    """M11(q), M12(q) and the constant M22 of the joint-space mass matrix."""
    a = (config.m1 + config.m2) * config.l1**2
    b = config.m2 * config.l2**2
    c = config.m2 * config.l1 * config.l2
    c2 = np.cos(q[..., 1])
    return a + b + 2.0 * c * c2, b + c * c2, b


def mass_matrix(q: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Joint-space mass matrix M(q), shape (..., 2, 2)."""
    q = np.asarray(q, dtype=np.float64)
    m11, m12, m22 = _mass_entries(q, config)
    m22 = np.broadcast_to(m22, m11.shape)
    return np.stack(
        [np.stack([m11, m12], axis=-1), np.stack([m12, m22], axis=-1)], axis=-2
    )


def coriolis_forces(q: np.ndarray, qdot: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Velocity-product forces C(q, qdot), shape (..., 2), laid out like qdot."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    c = config.m2 * config.l1 * config.l2
    s2 = np.sin(q[..., 1])
    qd1, qd2 = qdot[..., 0], qdot[..., 1]
    out = np.empty_like(qdot)
    np.multiply(-c * s2, 2.0 * qd1 * qd2 + qd2**2, out=out[..., 0])
    np.multiply(c * s2, qd1**2, out=out[..., 1])
    return out


def gravity_forces(q: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Gravity torques G(q), shape (..., 2), laid out like q."""
    q = np.asarray(q, dtype=np.float64)
    g = config.gravity
    s1 = np.sin(q[..., 0])
    s12 = np.sin(q[..., 0] + q[..., 1])
    out = np.empty_like(q)
    np.multiply(config.m2 * g * config.l2, s12, out=out[..., 1])
    np.add((config.m1 + config.m2) * g * config.l1 * s1, out[..., 1], out=out[..., 0])
    return out


def total_energy(q: np.ndarray, qdot: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Kinetic plus potential energy (potential zero at the bar height)."""
    q = np.asarray(q, dtype=np.float64)
    qdot = np.asarray(qdot, dtype=np.float64)
    m = mass_matrix(q, config)
    kinetic = 0.5 * np.einsum("...i,...ij,...j->...", qdot, m, qdot)
    g = config.gravity
    potential = -(config.m1 + config.m2) * g * config.l1 * np.cos(
        q[..., 0]
    ) - config.m2 * g * config.l2 * np.cos(q[..., 0] + q[..., 1])
    return kinetic + potential


def forward_kinematics(q: np.ndarray, config: EnvConfig) -> np.ndarray:
    """Head position (tip of link 2), bar at origin, y up; shape (..., 2), laid out like q."""
    q = np.asarray(q, dtype=np.float64)
    q1 = q[..., 0]
    q12 = q[..., 0] + q[..., 1]
    head = np.empty_like(q)
    np.add(config.l1 * np.sin(q1), config.l2 * np.sin(q12), out=head[..., 0])
    np.subtract(-config.l1 * np.cos(q1), config.l2 * np.cos(q12), out=head[..., 1])
    return head


def _base_ok(head: np.ndarray) -> np.ndarray:
    """Body-position predicate: head may not swing past the bar in front.

    True (no penalty) when the head is behind the bar plane or below it;
    only the front-upper quadrant is penalized, so reaching the goal on the
    bar plane itself is never punished.
    """
    return (head[..., 0] <= 0.0) | (head[..., 1] <= 0.0)


def observation_proprio(state_q, state_qdot, prev_action, config: EnvConfig) -> np.ndarray:
    """Proprioceptive observation block: goal delta, q, scaled qdot, prev action."""
    head = forward_kinematics(state_q, config)
    goal_delta = np.array(config.goal) - head
    return np.concatenate(
        [goal_delta, state_q, state_qdot * config.qdot_obs_scale, prev_action], axis=-1
    )


@dataclass
class EpisodeRecord:
    design_idx: int
    episode_return: float
    failed: bool = False


class VecChinupEnv:
    """A bank of independent chin-up environments stepped in lockstep.

    Each environment evaluates one design from a population (several
    environments per design).  Episodes auto-reset on termination and
    completed episode returns are reported tagged by design index.
    Per-environment random streams are derived from (seed, phase, env
    index), so trajectories depend only on those keys and the actions.

    `q`, `qdot` and `prev_qdot` are (n_envs, 2) arrays in column order;
    `step` replaces them with new arrays rather than writing into them.
    """

    def __init__(
        self,
        config: EnvConfig,
        reward_cfg: RewardConfig,
        design_mat: np.ndarray,
        env_to_design: np.ndarray,
        seed: int,
        phase: str | int = 0,
    ):
        design_mat = np.asarray(design_mat, dtype=np.float64)
        if design_mat.ndim != 2 or design_mat.shape[1] != N_JOINTS:
            raise ContractError(f"design matrix must be (n_env, {N_JOINTS})")
        self.config = config
        self.reward_cfg = reward_cfg
        self.design_mat = design_mat
        self.env_to_design = np.asarray(env_to_design, dtype=np.int64)
        self.n_envs = design_mat.shape[0]
        self.tau_max = np.asfortranarray(np.array(config.tau_default) * design_mat)
        self.qdot_max = np.asfortranarray(np.array(config.qdot_default) / design_mat)
        self.rngs = [stream("env", seed, phase, k) for k in range(self.n_envs)]
        # Per-bank constants of the control step.
        self._neg_tau_max = -self.tau_max
        self._neg_qdot_max = -self.qdot_max
        self._q_lo = np.array(config.q_min)
        self._q_hi = np.array(config.q_max)
        self._goal = np.array(config.goal)
        self._g_proj_xy = np.zeros((self.n_envs, 2))
        # The reward breakdown of the last step, before a diverged
        # environment's reward is zeroed.
        self.breakdown: RewardBreakdown | None = None

        self.q = np.zeros((self.n_envs, N_JOINTS), order="F")
        self.qdot = np.zeros((self.n_envs, N_JOINTS), order="F")
        self.prev_action = np.zeros((self.n_envs, ACTION_DIM))
        self.prev_qdot = np.zeros((self.n_envs, N_JOINTS), order="F")
        self.step_count = np.zeros(self.n_envs, dtype=np.int64)
        self.ep_return = np.zeros(self.n_envs)
        self.reset_mask(np.ones(self.n_envs, dtype=bool))

    def reset_mask(self, mask: np.ndarray) -> None:
        noise = self.config.reset_noise
        for k in np.flatnonzero(mask):
            self.q[k] = self.rngs[k].uniform(-noise, noise, size=N_JOINTS)
        self.qdot[mask] = 0.0
        self.prev_action[mask] = 0.0
        self.prev_qdot[mask] = 0.0
        self.step_count[mask] = 0
        self.ep_return[mask] = 0.0

    def proprio(self) -> np.ndarray:
        return observation_proprio(self.q, self.qdot, self.prev_action, self.config)

    def _torque(self, target, q, qdot):
        """PD torque toward target [q (2), qdot (2)]: (unsaturated, saturated)."""
        raw = target[:, :2] - q
        raw *= self.config.kp
        damping = target[:, 2:] - qdot
        damping *= self.config.kd
        raw += damping
        tau = np.maximum(raw, self._neg_tau_max)
        return raw, np.minimum(tau, self.tau_max, out=tau)

    def _checked(self, actions) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (self.n_envs, ACTION_DIM):
            raise ContractError(f"actions must be ({self.n_envs}, {ACTION_DIM})")
        return actions

    def pd_torque(self, actions: np.ndarray) -> np.ndarray:
        """The saturated PD torque (n_envs, 2) that `actions` command now."""
        return self._torque(self._checked(actions), self.q, self.qdot)[1]

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[EpisodeRecord]]:
        """Advance every environment one control step.

        Runs `decimation` semi-implicit Euler substeps with the action held
        (PD torque recomputed each substep, velocity then position clamped,
        velocity zeroed at a position stop), then evaluates the reward.
        Returns (rewards, dones, completed episode records); environments
        that finished are reset in place after their record is taken.
        """
        actions = self._checked(actions)
        cfg = self.config
        dt = cfg.dt_sim
        target = np.asfortranarray(actions)
        q, qdot = self.q, self.qdot
        # Each in-place product or sum below only swaps the operands of one
        # IEEE operation of qdd = (b r1 - m12 r2) / det, qdot + dt qdd and
        # q + dt qdot, so the results have the bits of the (..., 2) form.
        for _ in range(cfg.decimation):
            tau_raw, tau = self._torque(target, q, qdot)
            # Closed-form solve of M qdd = tau - C - G for the 2x2 system.
            m11, m12, m22 = _mass_entries(q, cfg)
            rhs = tau - coriolis_forces(q, qdot, cfg)
            rhs -= gravity_forces(q, cfg)
            r1, r2 = rhs[:, 0], rhs[:, 1]
            det = m11 * m22  # = m2 l1^2 l2^2 (m1 + m2 sin^2 q2) > 0
            det -= m12 * m12
            qdot_pre = np.empty_like(rhs)
            np.subtract(m22 * r1, m12 * r2, out=qdot_pre[:, 0])
            np.subtract(m11 * r2, m12 * r1, out=qdot_pre[:, 1])
            qdot_pre /= det[:, None]
            qdot_pre *= dt
            qdot_pre += qdot
            qdot = np.maximum(qdot_pre, self._neg_qdot_max)
            np.minimum(qdot, self.qdot_max, out=qdot)
            q_pre = dt * qdot
            q_pre += q
            q = np.maximum(q_pre, self._q_lo)
            np.minimum(q, self._q_hi, out=q)
            np.copyto(qdot, 0.0, where=q_pre != q)

        head = forward_kinematics(q, cfg)
        inputs = RewardInputs(
            pos_head=head,
            pos_goal=self._goal,
            cyl_gap=cfg.cyl_gap,
            base_ok=_base_ok(head),
            sym_pairs=cfg.sym_pairs,
            g_proj_xy=self._g_proj_xy,
            tau=tau_raw,
            qdot=qdot_pre,
            prev_qdot=self.prev_qdot,
            dt=dt * cfg.decimation,
            action=actions,
            prev_action=self.prev_action,
            q=q_pre,
            q_min=self._q_lo,
            q_max=self._q_hi,
            qdot_max=self.qdot_max,
            tau_max=self.tau_max,
        )
        self.breakdown = reward_terms(inputs, self.reward_cfg)
        rewards = np.asarray(total_reward(self.breakdown, self.reward_cfg), dtype=np.float64)
        diverged = ~(np.isfinite(q).all(axis=1) & np.isfinite(qdot).all(axis=1))
        if diverged.any():
            rewards = np.where(diverged, 0.0, rewards)
            np.copyto(q, 0.0, where=diverged[:, None])
            np.copyto(qdot, 0.0, where=diverged[:, None])

        self.q = q
        self.qdot = qdot
        self.prev_action = actions.copy()
        self.prev_qdot = qdot_pre
        self.step_count += 1
        self.ep_return += rewards

        dones = diverged | (self.step_count >= cfg.episode_length)
        completed = []
        if dones.any():
            completed = [
                EpisodeRecord(
                    design_idx=int(self.env_to_design[k]),
                    episode_return=float(self.ep_return[k]),
                    failed=bool(diverged[k]),
                )
                for k in np.flatnonzero(dones)
            ]
            self.reset_mask(dones)
        return rewards, dones, completed


def rollout_trajectory(
    config: EnvConfig,
    design: DesignVector,
    reward_cfg: RewardConfig,
    action_fn,
    seed: int,
) -> tuple[list[dict], float, list[RewardBreakdown]]:
    """Run one episode; action_fn(proprio, design) -> 4-vector action.

    Steps a one-environment bank from a start drawn from the
    ("trajectory", seed) stream.  Returns per-step rows for the trajectory
    CSV (the torque column is the saturated torque at the start of the
    step), the episode return, and the per-step reward breakdowns.  A step
    that diverges ends the episode with a zero breakdown and NaN state.
    """
    # One step longer than the episode, so that the bank does not reset
    # the state of the last step before it is recorded.
    long_config = dataclasses.replace(config, episode_length=config.episode_length + 1)
    env = VecChinupEnv(
        long_config, reward_cfg, design.factors[None, :], np.zeros(1, dtype=np.int64),
        seed=seed, phase="trajectory",
    )
    env.q[0] = stream("trajectory", seed).uniform(
        -config.reset_noise, config.reset_noise, size=N_JOINTS
    )
    rows = []
    breakdowns = []
    episode_return = 0.0
    for step in range(config.episode_length):
        proprio = env.proprio()[0]
        action = np.asarray(action_fn(proprio, design), dtype=np.float64)[None, :]
        tau = env.pd_torque(action)[0]
        rewards, dones, _ = env.step(action)
        contrib = float(rewards[0])
        episode_return += contrib
        if dones[0]:
            q = qdot = head = np.full(N_JOINTS, np.nan)
            breakdowns.append(RewardBreakdown())
        else:
            q, qdot = env.q[0], env.qdot[0]
            head = forward_kinematics(q, config)
            breakdowns.append(RewardBreakdown(**{
                f.name: np.broadcast_to(getattr(env.breakdown, f.name), (1,))[0]
                for f in dataclasses.fields(RewardBreakdown)
            }))
        rows.append(
            {
                "step": step,
                "q1": q[0],
                "q2": q[1],
                "qd1": qdot[0],
                "qd2": qdot[1],
                "tau1": tau[0],
                "tau2": tau[1],
                "head_x": head[0],
                "head_y": head[1],
                "reward_total": contrib,
            }
        )
        if dones[0]:
            break
    return rows, episode_return, breakdowns


TRAJECTORY_COLUMNS = (
    "step", "q1", "q2", "qd1", "qd2", "tau1", "tau2", "head_x", "head_y", "reward_total",
)


def write_trajectory_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["step"]] + [repr(float(row[c])) for c in TRAJECTORY_COLUMNS[1:]]
            )


def read_trajectory_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != TRAJECTORY_COLUMNS:
        raise ValueError(f"{path}: not a trajectory CSV")
    out = []
    for row in rows[1:]:
        rec = {"step": int(row[0])}
        rec.update({c: float(v) for c, v in zip(TRAJECTORY_COLUMNS[1:], row[1:])})
        out.append(rec)
    return out
