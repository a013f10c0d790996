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

The model's constant coefficients form one table (`_coefficients`), which
the step and the tests' closed-form model read.  `VecChinupEnv.step` is the
one control-step implementation.  Each substep runs on one stacked
(n_envs, 5) state in column (Fortran) order (q1 + q2, q1, q2, qdot1, qdot2)
and per-bank work buffers, so each joint quantity is one contiguous column.
One `sin` covers q1 + q2, q1 and q2.  A substep is 44 NumPy calls however
many environments it steps, each on same-shape columns or a 0-d constant:
on a few dozen environments a broadcast row or column costs about as much
as two such calls.  The step's results have the bits of the per-joint
(..., 2) formulas, and every array it returns or leaves on the bank is new.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design_space import DesignVector, scale_actuator_limits
from .errors import ConfigError, ContractError
from .reward import RewardBreakdown, RewardConfig, RewardInputs, reward_terms
from .seeding import stream
from .tables import write_table

N_JOINTS = 2
ACTION_DIM = 4  # [q_target (2), qdot_target (2)]
PROPRIO_DIM = 10  # goal_delta (2) + q (2) + qdot (2) + prev_action (4)
RESET_DRAWS = 8  # resets whose noise a bank draws at a time per environment


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


@dataclass(frozen=True)
class _Coefficients:
    """The model's constant coefficients, the one table of the physics.

    M11 = a + b + 2 c cos q2, M12 = b + c cos q2, M22 = b; the Coriolis
    forces scale with c and the gravity torques with g1 and g2.
    """

    a: float
    b: float
    c: float
    g1: float
    g2: float


def _coefficients(config: EnvConfig) -> _Coefficients:
    g = config.gravity
    return _Coefficients(
        a=(config.m1 + config.m2) * config.l1**2,
        b=config.m2 * config.l2**2,
        c=config.m2 * config.l1 * config.l2,
        g1=(config.m1 + config.m2) * g * config.l1,
        g2=config.m2 * g * config.l2,
    )


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
    below = head <= 0.0
    return below[..., 0] | below[..., 1]


def observation_proprio(
    state_q, state_qdot, prev_action, config: EnvConfig, head: np.ndarray | None = None
) -> np.ndarray:
    """Proprioceptive observation block: goal delta, q, scaled qdot, prev action.

    `head` may give the head position of `state_q`, already computed.
    """
    if head is None:
        head = forward_kinematics(state_q, config)
    goal_delta = np.array(config.goal) - head
    return np.concatenate(
        [goal_delta, state_q, state_qdot * config.qdot_obs_scale, prev_action], axis=-1
    )


class EpisodeRow(NamedTuple):
    """One finished episode, as iterating an `EpisodeLog` gives it."""

    design_idx: int
    episode_return: float
    failed: bool


@dataclass(frozen=True, eq=False)
class EpisodeLog:
    """Finished episodes as columns, in the order they ended: 13 bytes each.

    `VecChinupEnv.step` returns the episodes its step finished as one.
    `len` counts the episodes, and iterating gives one `EpisodeRow` per
    episode, for a caller that reads them one at a time (the benchmark's
    tracer counts the diverged ones so).
    """

    design_idx: np.ndarray  # int32
    returns: np.ndarray  # float64
    diverged: np.ndarray  # bool

    def __len__(self) -> int:
        return len(self.returns)

    def __iter__(self):
        columns = (self.design_idx.tolist(), self.returns.tolist(), self.diverged.tolist())
        return itertools.starmap(EpisodeRow, zip(*columns))

    @classmethod
    def concat(cls, logs: list[EpisodeLog]) -> EpisodeLog:
        return cls(*(np.concatenate([getattr(log, f.name) for log in logs])
                     for f in dataclasses.fields(cls)))


_NO_EPISODES = EpisodeLog(np.empty(0, np.int32), np.empty(0), np.empty(0, bool))


class _StepWork:
    """The control step's constants, work buffers and the views it uses.

    Each buffer is (n_envs, k) in column order, so each view is one or
    more whole columns.  Every operation of the step then runs on
    same-shape contiguous operands or a 0-d constant, numpy's fastest
    path: on a few dozen environments, broadcasting a row or a column
    costs more than a second operation, and so does a slice, so the views
    are taken once here.  The buffers hold only intermediates.
    """

    def __init__(self, n: int, k: _Coefficients, config: EnvConfig):
        # 0-d constants: a Python float operand costs a conversion per call.
        const = lambda x: np.array(float(x))  # noqa: E731 - 0-d operands
        self.kp, self.kd, self.dt = const(config.kp), const(config.kd), const(config.dt_sim)
        self.two, self.zero = const(2.0), const(0.0)
        self.two_c, self.a_plus_b, self.b = const(2.0 * k.c), const(k.a + k.b), const(k.b)
        self.c, self.neg_c, self.g1, self.g2 = const(k.c), const(-k.c), const(k.g1), const(k.g2)
        self.l1, self.l2, self.neg_l1 = const(config.l1), const(config.l2), const(-config.l1)

        s = np.empty((n, 5), order="F")  # q1 + q2, q1, q2, qdot1, qdot2: the stacked state
        trig = np.empty((n, 3), order="F")  # sin(q1 + q2), sin q1, sin q2; later scratch
        pd = np.empty((n, 4), order="F")  # PD error terms, then joint-paired scratch
        # The 2x2 solve as products of three columns:
        # [b, m11, m11] * [r1, r2, b] - m12 * [r2, r1, m12]
        #   = [b r1 - m12 r2, m11 r2 - m12 r1, det].
        solve = np.empty((n, 7), order="F")  # b, m11, m11, m12, r1, r2, b
        solve[:, 0] = solve[:, 6] = k.b
        self.tau_raw = np.empty((n, 2), order="F")
        self.clamped = np.empty((n, 2), dtype=bool, order="F")
        # The column views, in the order `step` unpacks them.
        self.views = (
            *s.T, s[:, 1:3], s[:, 3:5], s[:, 1:5], s[:, :3], s[:, :2],
            trig, *trig.T, pd, pd[:, :2], pd[:, 2:], pd[:, :3], *pd.T,
            *solve.T[1:6], solve[:, :3], solve[:, 4:], solve[:, 4:6], solve[:, 1:3],
        )


class VecChinupEnv:
    """A bank of independent chin-up environments stepped in lockstep.

    Each environment evaluates one design from a population (several
    environments per design).  Episodes auto-reset on termination and
    completed episode returns are reported tagged by design index.
    Environment k's reset noise comes from its stream ("env", seed, phase,
    k), so trajectories depend only on those keys and the actions.  The
    bank holds no Generator: it draws `RESET_DRAWS` resets of noise at a
    time into one (n_envs, RESET_DRAWS, 2) table, and a refill recreates
    the stream and advances it past the doubles it already gave.

    `q`, `qdot` and `prev_qdot` are (n_envs, 2) arrays in column order;
    `step` replaces them with new arrays rather than writing into them.
    `proprio()` takes the head position from the last step, so write `q`
    only before the first `proprio()` call or `step` (as `rollout_trajectory`
    does).
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
        self.n_envs = n = design_mat.shape[0]
        limits = scale_actuator_limits(design_mat, config.tau_default, config.qdot_default)
        self.tau_max = np.asfortranarray(limits.tau_max)
        self.qdot_max = np.asfortranarray(limits.qdot_max)
        self._stream_keys = ("env", seed, phase)
        self._resets = np.zeros(n, dtype=np.int64)  # resets drawn per environment
        self._reset_noise = np.empty((n, RESET_DRAWS, N_JOINTS))
        # Per-bank constants of the control step.
        k = _coefficients(config)
        self._neg_tau_max = -self.tau_max
        self._neg_qdot_max = -self.qdot_max
        self._q_lo = np.asfortranarray(np.broadcast_to(config.q_min, (n, N_JOINTS)))
        self._q_hi = np.asfortranarray(np.broadcast_to(config.q_max, (n, N_JOINTS)))
        self._goal = np.array(config.goal)
        self._g_proj_xy = np.zeros((n, 2))
        self._work = _StepWork(n, k, config)
        # The reward breakdown of the last step, before a diverged
        # environment's reward is zeroed.
        self.breakdown: RewardBreakdown | None = None

        self.q = np.zeros((n, N_JOINTS), order="F")
        self.qdot = np.zeros((n, N_JOINTS), order="F")
        self.prev_action = np.zeros((n, ACTION_DIM))
        self.prev_qdot = np.zeros((n, N_JOINTS), order="F")
        self.step_count = np.zeros(n, dtype=np.int64)
        self.ep_return = np.zeros(n)
        # The head position of the last step, and the rows reset since.
        self._head = np.empty((n, N_JOINTS))
        self._head_stale = np.ones(n, dtype=bool)
        self.reset_mask(np.ones(n, dtype=bool))

    @property
    def episode_length(self) -> int:
        """The most steps an episode runs before it ends and resets."""
        return self.config.episode_length

    def reset_mask(self, mask: np.ndarray) -> None:
        rows = np.flatnonzero(mask)
        drawn = self._resets[rows]
        slot = drawn % RESET_DRAWS
        noise = self.config.reset_noise
        # Refill the rows whose drawn noise ran out.
        refill = slot == 0
        for k, done in zip(rows[refill].tolist(), drawn[refill].tolist()):
            rng = stream(*self._stream_keys, k)
            rng.bit_generator.advance(N_JOINTS * done)
            self._reset_noise[k] = rng.uniform(-noise, noise, size=(RESET_DRAWS, N_JOINTS))
        self.q[rows] = self._reset_noise[rows, slot]
        self._resets[rows] += 1
        self.qdot[mask] = 0.0
        self.prev_action[mask] = 0.0
        self.prev_qdot[mask] = 0.0
        self.step_count[mask] = 0
        self.ep_return[mask] = 0.0
        self._head_stale[mask] = True

    def proprio(self) -> np.ndarray:
        """The observation block of `observation_proprio`, one row per environment.

        The head position is the one the last step computed for its
        reward; only rows reset since then get it from the forward
        kinematics.
        """
        stale = self._head_stale
        if stale.any():
            self._head[stale] = forward_kinematics(self.q[stale], self.config)
            stale[:] = False
        return observation_proprio(self.q, self.qdot, self.prev_action, self.config, self._head)

    def _pd_torque(self, target, state, out):
        """PD torque toward target [q (2), qdot (2)] from state [q, qdot]: (unsaturated, saturated).

        `out` is (pd, pd[:, :2], pd[:, 2:], raw, tau): a (n_envs, 4) array
        for the error terms, its two halves, and the two results.
        """
        pd, e_q, e_qd, raw, tau = out
        np.subtract(target, state, out=pd)
        e_q *= self._work.kp
        e_qd *= self._work.kd
        np.add(e_q, e_qd, out=raw)
        np.maximum(raw, self._neg_tau_max, out=tau)
        return raw, np.minimum(tau, self.tau_max, out=tau)

    def _checked(self, actions) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (self.n_envs, ACTION_DIM):
            raise ContractError(f"actions must be ({self.n_envs}, {ACTION_DIM})")
        return actions

    def pd_torque(self, actions: np.ndarray) -> np.ndarray:
        """The saturated PD torque (n_envs, 2) that `actions` command now."""
        target = self._checked(actions)
        pd = np.empty((self.n_envs, ACTION_DIM))
        out = (pd, pd[:, :2], pd[:, 2:], np.empty_like(self.q), np.empty_like(self.q))
        return self._pd_torque(target, np.concatenate([self.q, self.qdot], axis=1), out)[1]

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, EpisodeLog]:
        """Advance every environment one control step.

        Runs `decimation` semi-implicit Euler substeps with the action held
        (PD torque recomputed each substep, velocity then position clamped,
        velocity zeroed at a position stop), then evaluates the reward.
        Returns (rewards, dones, the finished episodes); environments that
        finished are reset in place after their episode is logged.
        """
        actions = self._checked(actions)
        cfg = self.config
        target = np.asfortranarray(actions)
        w = self._work
        dt, two, zero = w.dt, w.two, w.zero
        (q12, q1, q2, qd1, qd2, q, qdot, state, angles, fk_angles,
         trig, s12, s1, s2, pd, pd_q, pd_qd, solved, p1, p2, p3, p4,
         m11, m11_copy, m12, r1, r2, solve_left, solve_right, rhs, cos) = w.views
        tau_raw, clamped = w.tau_raw, w.clamped
        pd_out = (pd, pd_q, pd_qd, tau_raw, rhs)  # rhs holds tau
        np.copyto(q, self.q)
        np.copyto(qdot, self.qdot)
        # Each product or sum below is one IEEE operation of the (..., 2)
        # form, with at most its operands swapped, so the bits are the same.
        for _ in range(cfg.decimation):
            self._pd_torque(target, state, pd_out)
            np.add(q1, q2, out=q12)
            np.sin(angles, out=trig)
            # M11 = (a + b) + 2c cos q2 (twice, for the solve), M12 = b + c cos q2.
            c2 = np.cos(q2, out=m11)
            np.multiply(c2, w.c, out=m12)
            m12 += w.b
            m11 *= w.two_c
            m11 += w.a_plus_b
            np.copyto(m11_copy, m11)
            # rhs = tau - C with C = [-c s2 (2 qd1 qd2 + qd2^2), c s2 qd1^2].
            np.multiply(s2, w.neg_c, out=p1)
            np.multiply(s2, w.c, out=p2)
            np.square(qdot, out=pd_qd)
            cross = np.multiply(qd1, two, out=s2)
            cross *= qd2
            p4 += cross
            p1 *= p4
            p2 *= p3
            rhs -= pd_q
            # rhs -= G with G = [g1 s1 + g2 s12, g2 s12].
            np.multiply(s1, w.g1, out=p3)
            np.multiply(s12, w.g2, out=p4)
            p3 += p4
            rhs -= pd_qd
            # Closed-form solve of M qdd = rhs for the 2x2 system:
            # qdd = [b r1 - m12 r2, m11 r2 - m12 r1] / det, where
            # det = m11 b - m12^2 = m2 l1^2 l2^2 (m1 + m2 sin^2 q2) > 0.
            np.multiply(solve_left, solve_right, out=solved)
            np.multiply(m12, r2, out=s12)
            np.multiply(m12, r1, out=s1)
            np.multiply(m12, m12, out=s2)
            solved -= trig
            p1 /= p3
            p2 /= p3
            qdot_pre = pd_q
            qdot_pre *= dt
            qdot_pre += qdot
            np.maximum(qdot_pre, self._neg_qdot_max, out=qdot)
            np.minimum(qdot, self.qdot_max, out=qdot)
            q_pre = np.multiply(qdot, dt, out=pd_qd)
            q_pre += q
            np.maximum(q_pre, self._q_lo, out=q)
            np.minimum(q, self._q_hi, out=q)
            np.copyto(qdot, zero, where=np.not_equal(q_pre, q, out=clamped))

        # Forward kinematics: head = [l1 s1 + l2 s12, -l1 c1 - l2 c12].
        np.add(q1, q2, out=q12)
        np.sin(fk_angles, out=trig[:, :2])
        np.cos(fk_angles, out=cos)  # the spent M11 columns
        c12, c1 = cos.T
        head = np.empty((self.n_envs, N_JOINTS), order="F")
        s1 *= w.l1
        s12 *= w.l2
        np.add(s1, s12, out=head[:, 0])
        c1 *= w.neg_l1
        c12 *= w.l2
        np.subtract(c1, c12, out=head[:, 1])
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
            dt=cfg.dt_sim * cfg.decimation,
            action=actions,
            prev_action=self.prev_action,
            q=q_pre,
            q_min=self._q_lo,
            q_max=self._q_hi,
            qdot_max=self.qdot_max,
            tau_max=self.tau_max,
        )
        self.breakdown = reward_terms(inputs, self.reward_cfg)
        rewards = self.breakdown.total
        diverged = ~np.isfinite(state).all(axis=1)
        if diverged.any():
            rewards = np.where(diverged, 0.0, rewards)
            np.copyto(state, 0.0, where=diverged[:, None])

        self.q = q.copy(order="F")
        self.qdot = qdot.copy(order="F")
        self.prev_action = actions.copy()
        self.prev_qdot = qdot_pre.copy(order="F")
        self.step_count += 1
        self.ep_return += rewards
        self._head = head
        self._head_stale = np.zeros(self.n_envs, dtype=bool)

        dones = diverged | (self.step_count >= cfg.episode_length)
        finished = _NO_EPISODES
        if dones.any():
            rows = np.flatnonzero(dones)
            finished = EpisodeLog(
                self.env_to_design[rows].astype(np.int32), self.ep_return[rows], diverged[rows]
            )
            self.reset_mask(dones)
        return rewards, dones, finished


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
            q, qdot, head = env.q[0], env.qdot[0], env._head[0]
            breakdowns.append(RewardBreakdown(**{
                f.name: getattr(env.breakdown, f.name)[0]
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
    columns = TRAJECTORY_COLUMNS
    write_table(path, columns, ([row[c] for c in columns] for row in rows))
