"""Small environments for sanity checks.

`HoldPositionEnv` is a minimal 1-DoF hold-position environment for PPO
learnability checks.  A bank of torque-controlled unit-inertia joints
must drive q to a target angle and hold it there.  Reward is
exp(-4 (q - q_ref)^2) per control step, so random actuation earns almost
nothing while parking on the target earns ~1 per step.  The class duck-types the vectorized-env
interface the PPO loop consumes (n_envs, design_mat, env_to_design,
episode_length, proprio(), step()), which lets train_on_env run unchanged on a system
whose learnability is obvious by inspection.

`free_swing` runs the chin-up bank with its controller and clamps switched
off, for the energy checks of the physics.
"""

from __future__ import annotations

import numpy as np

from gearevo.chinup_env import ACTION_DIM as CHINUP_ACTION_DIM
from gearevo.chinup_env import EnvConfig, EpisodeLog, VecChinupEnv
from gearevo.reward import RewardConfig
from gearevo.seeding import stream

PROPRIO_DIM = 2
ACTION_DIM = 1


class HoldPositionEnv:
    def __init__(
        self,
        n_envs: int,
        seed: int,
        q_ref: float = 1.5,
        episode_length: int = 60,
        dt: float = 0.05,
        gain: float = 3.0,
        damping: float = 1.0,
        phase: str | int = 0,
    ):
        self.n_envs = n_envs
        self.q_ref = q_ref
        self.episode_length = episode_length
        self.dt = dt
        self.gain = gain
        self.damping = damping
        self.design_mat = np.ones((n_envs, 1))
        self.env_to_design = np.zeros(n_envs, dtype=np.int64)
        self._rngs = [stream("hold-env", seed, phase, k) for k in range(n_envs)]
        self.q = np.zeros(n_envs)
        self.qdot = np.zeros(n_envs)
        self.step_count = np.zeros(n_envs, dtype=np.int64)
        self._returns = np.zeros(n_envs)
        self.reset_mask(np.ones(n_envs, dtype=bool))

    def reset_mask(self, mask: np.ndarray) -> None:
        for k in np.flatnonzero(mask):
            self.q[k] = self._rngs[k].uniform(-0.3, 0.3)
        self.qdot[mask] = 0.0
        self.step_count[mask] = 0
        self._returns[mask] = 0.0

    def proprio(self) -> np.ndarray:
        return np.stack([self.q - self.q_ref, self.qdot], axis=1)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, EpisodeLog]:
        a = np.clip(np.asarray(actions)[:, 0], -2.0, 2.0)
        qdd = self.gain * a - self.damping * self.qdot
        self.qdot = self.qdot + self.dt * qdd
        self.q = self.q + self.dt * self.qdot
        rewards = np.exp(-4.0 * (self.q - self.q_ref) ** 2)
        self.step_count += 1
        self._returns += rewards
        dones = self.step_count >= self.episode_length
        ended = np.flatnonzero(dones)
        completed = EpisodeLog(
            np.zeros(len(ended), np.int32), self._returns[ended], np.zeros(len(ended), bool)
        )
        if dones.any():
            self.reset_mask(dones)
        return rewards, dones, completed


def random_policy_baseline(n_envs: int, seed: int, n_episodes: int = 50, **env_kw) -> float:
    """Mean episode return under standard-normal actions."""
    env = HoldPositionEnv(n_envs, seed, phase="baseline", **env_kw)
    rng = stream("hold-baseline", seed)
    returns: list[float] = []
    while len(returns) < n_episodes:
        actions = rng.standard_normal((n_envs, ACTION_DIM))
        _, _, completed = env.step(actions)
        returns.extend(e.episode_return for e in completed)
    return float(np.mean(returns[:n_episodes]))


def free_swing(q0, dt_sim: float, substeps: int, per_step: int = 100):
    """(q, qdot) of a zero-torque, unclamped swing of the chin-up bank from rest at q0.

    One environment with zero PD gains, speed limits and joint limits far
    out of reach, stepped `substeps // per_step` control steps of
    `per_step` substeps each.
    """
    big = 1e12
    steps = substeps // per_step
    cfg = EnvConfig(
        dt_sim=dt_sim, decimation=per_step, episode_length=steps + 1, kp=0.0, kd=0.0,
        qdot_default=(big, big), q_min=(-big, -big), q_max=(big, big),
    )
    env = VecChinupEnv(cfg, RewardConfig(), np.ones((1, 2)), np.zeros(1), seed=0)
    env.q[0] = q0
    for _ in range(steps):
        env.step(np.zeros((1, CHINUP_ACTION_DIM)))
    return env.q[0].copy(), env.qdot[0].copy()
