"""Acceptance gate: twelve numbered criteria covering the full pipeline.

Each test_criterion_NN_* test checks one criterion end to end with pinned
tolerances and a wall-clock budget; conftest.py prints a one-line PASS/FAIL
verdict per criterion after the run.  The desk-scale co-design runs backing
criteria 9, 10, and 12 (n_pop=8, n_env=64, 6 evolution iterations, 60
adaptation iterations) are computed once per session and shared.

Two further tests at the bottom verify directional claims that are part of
the gate but not numbered: warm-started fine-tuning recovering the base
policy's return level faster than training from scratch, and stronger
actuators never adapting to a worse fitness.
"""

import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from gearevo import codesign
from gearevo.chinup_env import ACTION_DIM, PROPRIO_DIM, EnvConfig, VecChinupEnv
from gearevo.cli import parse_config
from gearevo.cma_es import CmaEsConfig, cma_ask, cma_init, cma_tell
from gearevo.codesign import POLICY_LATENT, run_ea_corl
from gearevo.design_space import DesignVector, expand_designs, scale_actuator_limits
from gearevo.policy import (
    adam_init,
    gaussian_constants,
    loss_and_grads,
    policy_init,
    sample_action,
)
from gearevo.ppo import PpoConfig, RolloutBatch, compute_gae, train_on_env
from gearevo.reward import RewardConfig, RewardInputs, reward_terms

import reference_cma
from reference_env import mass_matrix, total_energy
from sanity_env import ACTION_DIM as HOLD_ACTION_DIM
from sanity_env import PROPRIO_DIM as HOLD_PROPRIO_DIM
from sanity_env import HoldPositionEnv, free_swing, random_policy_baseline

# --- shared desk-scale runs ------------------------------------------------------

DESK_OVERRIDES = [
    "run.n_pop=8",
    "run.n_env=64",
    "cma.max_iterations=6",
    "run.adapt_train_iters=60",
    "run.base_train_iters=300",
    "run.adapt_learning_rate=3e-4",
    "cma.parent_count=4",
    "ppo.reward_scale=0.02",
]


def desk_config(seed: int, mode: str):
    return parse_config(None, DESK_OVERRIDES + [f"run.seed={seed}", f"run.mode={mode}"])


def desk_run(seed: int, mode: str, out_dir: str) -> codesign.CodesignResult:
    """The desk run of `seed` and `mode` into `out_dir`.

    A pool worker builds the config itself: a `CodesignConfig` does not
    pickle (its reward weights are a read-only mapping).
    """
    return codesign.run(desk_config(seed, mode), out_dir=out_dir)


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Paired EA-CoRL / PT-FT desk runs for seeds 0-2: (mode, seed) -> (result, dir).

    The six runs are independent, so they run on min(2, cpu count) worker
    processes.  The workers inherit this process's environment, and with it
    the one BLAS thread conftest.py pins, so each run directory has the
    bytes of the same run made in this process.
    """
    root = tmp_path_factory.mktemp("desk")
    futures = {}
    workers, context = min(2, os.cpu_count() or 1), multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
        for seed in (0, 1, 2):
            for mode in ("ea-corl", "pt-ft"):
                out = str(root / f"{mode}-s{seed}")
                futures[(mode, seed)] = pool.submit(desk_run, seed, mode, out), out
    runs = {key: (future.result(), out) for key, (future, out) in futures.items()}
    for res, _ in runs.values():
        assert res.completed
    return runs


@pytest.fixture(scope="module")
def hold_training():
    """300 PPO updates on the 1-DoF hold env for seeds 0-2, plus baselines."""
    out = {}
    for seed in (0, 1, 2):
        t0 = time.monotonic()
        baseline = random_policy_baseline(8, seed)
        env = HoldPositionEnv(8, seed)
        params = policy_init(HOLD_PROPRIO_DIM + 1, HOLD_ACTION_DIM, 1, seed, latent=1)
        opt = adam_init(params, 3e-4)
        params, history, _ = train_on_env(
            params, opt, env, 300, PpoConfig(horizon=60), seed
        )
        out[seed] = {
            "baseline": baseline,
            "final": history[-1]["mean_return"],
            "params": params,
            "wall": time.monotonic() - t0,
        }
    return out


# --- criterion 1 -------------------------------------------------------------------


def test_criterion_01_scaling_law_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(54321)
    for _ in range(1000):
        d = DesignVector(rng.uniform(0.5, 4.0, 2))
        tau_default = rng.uniform(1.0, 100.0, 2)
        qdot_default = rng.uniform(1.0, 50.0, 2)
        limits = scale_actuator_limits(d, tau_default, qdot_default)
        # closed forms reproduced exactly
        np.testing.assert_array_equal(limits.tau_max, tau_default * d.factors)
        np.testing.assert_array_equal(limits.qdot_max, qdot_default / d.factors)
        # constant-power invariant to machine precision
        np.testing.assert_allclose(
            limits.tau_max * limits.qdot_max, tau_default * qdot_default, rtol=1e-15
        )
    assert time.monotonic() - t0 < 1.0


# --- criterion 2 -------------------------------------------------------------------


def test_criterion_02_expansion_exactness():
    t0 = time.monotonic()
    assert expand_designs(50, 4000).n_exp == 80

    rng = np.random.default_rng(22)
    cases = {(50, 4000)}
    while len(cases) < 21:
        n_pop = int(rng.integers(1, 61))
        n_exp = int(rng.integers(1, 81))
        cases.add((n_pop, n_pop * n_exp))
    for n_pop, n_env in sorted(cases):
        plan = expand_designs(n_pop, n_env)
        n_exp = n_env // n_pop
        assert plan.n_exp == n_exp
        for k in range(1, n_env + 1):
            assert plan.design_index(k) == math.ceil(k / n_exp)
    assert time.monotonic() - t0 < 1.0


# --- criterion 3 -------------------------------------------------------------------


def _run_cma(objective, generations, seed):
    """Drive the production sampler on raw (unclamped) samples."""
    state = cma_init(
        CmaEsConfig(
            dim=2, initial_mean=0.2, initial_sigma=0.3,
            population_size=50, parent_count=10,
            max_iterations=generations, seed=seed,
        )
    )
    best = np.inf
    for _ in range(generations):
        samples = cma_ask(state)
        fitness = np.array([objective(x) for x in samples])
        best = min(best, fitness.min())
        state = cma_tell(state, samples, fitness)
    return state.mean, best


def _sphere(x):
    return float(np.dot(x, x))


def _rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def test_criterion_03_cma_oracle_equivalence():
    t0 = time.monotonic()

    mean, best = _run_cma(_sphere, 200, seed=7)
    assert best < 1e-9
    ref_mean, _, _ = reference_cma.minimize(
        _sphere, [0.2, 0.2], 0.3, lam=50, mu=10, seed=7, generations=200
    )
    assert np.linalg.norm(mean - ref_mean) < 1e-3

    mean, best = _run_cma(_rosenbrock, 500, seed=11)
    assert best < 1e-6
    ref_mean, _, _ = reference_cma.minimize(
        _rosenbrock, [0.2, 0.2], 0.3, lam=50, mu=10, seed=11, generations=500
    )
    assert np.linalg.norm(mean - ref_mean) < 1e-3

    assert time.monotonic() - t0 < 30.0


# --- criterion 4 -------------------------------------------------------------------


def _reward_inputs(rng=None, **overrides) -> RewardInputs:
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
    if rng is not None:
        base.update(
            pos_head=rng.normal(size=2),
            pos_goal=rng.normal(size=2),
            cyl_gap=float(rng.uniform(0.2, 1.2)),
            base_ok=bool(rng.random() < 0.5),
            g_proj_xy=0.3 * rng.normal(size=2),
            tau=15.0 * rng.normal(size=2),
            qdot=10.0 * rng.normal(size=2),
            prev_qdot=10.0 * rng.normal(size=2),
            action=rng.normal(size=4),
            prev_action=rng.normal(size=4),
            q=rng.uniform(-3.0, 3.0, 2),
        )
    base.update(overrides)
    return RewardInputs(**base)


def test_criterion_04_reward_unit_suite():
    t0 = time.monotonic()
    cfg = RewardConfig()

    # peak shaping term exactly 1 when the head reaches the goal
    at_goal = reward_terms(_reward_inputs(pos_head=np.array([0.0, 0.1])), cfg)
    assert at_goal.chinup == 1.0

    # hollow-cylinder window (0.5, 0.8): free inside, fixed penalty outside
    assert reward_terms(_reward_inputs(cyl_gap=0.65), cfg).hollow_cylinder == 0.0
    assert reward_terms(_reward_inputs(cyl_gap=0.9), cfg).hollow_cylinder == 10.0

    # limit terms saturate at 1 per joint no matter how large the excursion
    far = reward_terms(_reward_inputs(qdot=np.array([9.0, 40.0])), cfg)
    assert far.joint_velocity_limit == 2.0
    partial = reward_terms(_reward_inputs(tau=np.array([-15.0, 12.3])), cfg)
    assert np.isclose(partial.joint_torque_limit, 1.3, atol=1e-12)

    # torque effort is the plain sum of squares
    assert reward_terms(_reward_inputs(tau=np.array([3.0, 4.0])), cfg).torque == 25.0

    # the weighted total reproduces the sum over active terms to 1e-12
    rng = np.random.default_rng(4)
    for _ in range(50):
        inputs = _reward_inputs(rng)
        breakdown = reward_terms(inputs, cfg)
        total = breakdown.total
        manual = sum(cfg.weights[t] * np.asarray(getattr(breakdown, t)) for t in cfg.active)
        assert abs(total - manual) <= 1e-12

    assert time.monotonic() - t0 < 1.0


# --- criterion 5 -------------------------------------------------------------------


def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    params = policy_init(6, 2, 2, 1, hidden=8, latent=2)
    rng = np.random.default_rng(5)
    n = 10
    proprio = rng.standard_normal((n, 4))
    design = rng.uniform(0.5, 4.0, (n, 2))
    from gearevo.policy import policy_forward_batch

    means, values = policy_forward_batch(params, design, proprio)
    actions, log_probs = sample_action(means, gaussian_constants(params.log_std), rng)
    minibatch = {
        "proprio": proprio,
        "design": design,
        "action": actions,
        "old_log_prob": log_probs + rng.normal(0.0, 0.003, n),
        "advantage": rng.standard_normal(n),
        "ret": rng.standard_normal(n),
    }
    cfg = PpoConfig()
    _, flat_grads = loss_and_grads(params, minibatch, cfg)
    flat = params.flat

    def loss_at(vec):
        loss, _ = loss_and_grads(dataclasses.replace(params, flat=vec), minibatch, cfg)
        return loss["total"]

    eps = 1e-5
    for i in range(flat.size):  # every parameter of the reduced network
        up = flat.copy()
        up[i] += eps
        down = flat.copy()
        down[i] -= eps
        fd = (loss_at(up) - loss_at(down)) / (2 * eps)
        denom = max(1e-8, abs(fd) + abs(flat_grads[i]))
        assert abs(fd - flat_grads[i]) / denom < 1e-4, f"parameter {i}"
    assert time.monotonic() - t0 < 10.0


# --- criterion 6 -------------------------------------------------------------------


def _gae_batch(rewards, values, dones, bootstrap):
    rewards = np.asarray(rewards, dtype=float)
    n, horizon = rewards.shape
    return RolloutBatch(
        proprio=np.zeros((n, horizon, 2)),
        design=np.ones((n, 1)),
        actions=np.zeros((n, horizon, 1)),
        log_probs=np.zeros((n, horizon)),
        rewards=rewards,
        values=np.asarray(values, dtype=float),
        dones=np.asarray(dones, dtype=float),
        bootstrap_values=np.asarray(bootstrap, dtype=float),
    )


def test_criterion_06_gae_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    for _ in range(100):
        n, horizon = 3, 20
        r = rng.standard_normal((n, horizon))
        v = rng.standard_normal((n, horizon))
        boot = rng.standard_normal(n)
        dones = (rng.random((n, horizon)) < 0.15).astype(float)
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        out = compute_gae(_gae_batch(r, v, dones, boot), gamma, lam)

        brute = np.zeros((n, horizon))
        for e in range(n):
            for t in range(horizon):
                acc, scale = 0.0, 1.0
                for step in range(t, horizon):
                    nonterminal = 1.0 - dones[e, step]
                    v_next = boot[e] if step == horizon - 1 else v[e, step + 1]
                    delta = r[e, step] + gamma * v_next * nonterminal - v[e, step]
                    acc += scale * delta
                    if nonterminal == 0.0:
                        break
                    scale *= gamma * lam
                brute[e, t] = acc
        np.testing.assert_allclose(out.returns, brute + v, atol=1e-10)
    assert time.monotonic() - t0 < 5.0


# --- criterion 7 -------------------------------------------------------------------


def test_criterion_07_physics_sanity():
    t0 = time.monotonic()

    # 10 s zero-torque free swing at dt=1e-4: energy drift below 1%
    cfg = EnvConfig(dt_sim=1e-4)
    q0 = np.array([0.3, 0.0])
    e0 = total_energy(q0, np.zeros(2), cfg)
    q, qdot = free_swing(q0, cfg.dt_sim, 100_000)
    drift = abs(total_energy(q, qdot, cfg) - e0) / abs(e0)
    assert drift < 0.01

    # hanging rest is exactly stationary under zero torque
    env_cfg = EnvConfig(reset_noise=0.0)
    env = VecChinupEnv(
        env_cfg, RewardConfig(), np.ones((1, 2)), np.zeros(1), seed=0, phase="accept-eq"
    )
    rest = np.zeros((1, ACTION_DIM))
    np.testing.assert_array_equal(env.pd_torque(rest), np.zeros((1, 2)))
    env.step(rest)
    np.testing.assert_array_equal(env.q, np.zeros((1, 2)))
    np.testing.assert_array_equal(env.qdot, np.zeros((1, 2)))

    # mass matrix symmetric positive-definite across the joint box
    env_cfg = EnvConfig()
    for q1 in np.linspace(env_cfg.q_min[0], env_cfg.q_max[0], 50):
        for q2 in np.linspace(env_cfg.q_min[1], env_cfg.q_max[1], 50):
            m = mass_matrix(np.array([q1, q2]), env_cfg)
            assert np.array_equal(m, m.T)
            assert np.linalg.eigvalsh(m)[0] > 0.0

    assert time.monotonic() - t0 < 30.0


# --- criterion 8 -------------------------------------------------------------------


def test_criterion_08_ppo_learnability(hold_training, criterion_notes):
    ratios = []
    for seed in (0, 1, 2):
        run = hold_training[seed]
        assert run["final"] >= 5.0 * run["baseline"], (
            f"seed {seed}: final {run['final']:.2f} vs baseline {run['baseline']:.2f}"
        )
        ratios.append(run["final"] / run["baseline"])
    criterion_notes[8] = "final/baseline " + ", ".join(f"{r:.1f}x" for r in ratios)
    assert sum(hold_training[s]["wall"] for s in (0, 1, 2)) < 600.0


# --- criterion 9 -------------------------------------------------------------------


def _check_structure(history, mode):
    prev_best = np.inf
    prev_snapshot = None
    for rec in history:
        # the population best is the population's least fitness
        assert rec.population_best_j == np.min(rec.j_pop)
        # global best is non-increasing (running minimum)
        assert rec.global_best_j == min(prev_best, rec.population_best_j)
        improved = rec.population_best_j < prev_best
        if rec.iteration == 1:
            assert rec.snapshot_id == 1
        elif mode == "ea-corl":
            # promoted exactly on improving iterations
            assert rec.snapshot_id == (rec.iteration if improved else prev_snapshot)
        else:
            # PT-FT never replaces the pre-trained snapshot
            assert rec.snapshot_id == 1
            assert rec.source_snapshot_id == 1
        prev_best = rec.global_best_j
        prev_snapshot = rec.snapshot_id


def test_criterion_09_structural_invariants(desk_runs):
    for (mode, seed), (res, _) in desk_runs.items():
        assert len(res.history) == 6
        _check_structure(res.history, mode)
    wall = sum(desk_runs[(m, 0)][0].wall_time_s for m in ("ea-corl", "pt-ft"))
    assert wall < 3600.0


# --- criterion 10 ------------------------------------------------------------------


def test_criterion_10_ea_corl_beats_pretrain_finetune(desk_runs, criterion_notes):
    ea = np.array([desk_runs[("ea-corl", s)][0].best_fitness for s in (0, 1, 2)])
    pt = np.array([desk_runs[("pt-ft", s)][0].best_fitness for s in (0, 1, 2)])
    gap = pt.mean() - ea.mean()
    criterion_notes[10] = (
        f"mean final best fitness EA {ea.mean():.1f} vs PT {pt.mean():.1f}, gap {gap:.1f}"
    )
    assert ea.mean() <= pt.mean()
    total_wall = sum(res.wall_time_s for res, _ in desk_runs.values())
    assert total_wall < 10800.0


# --- criterion 11 ------------------------------------------------------------------


def test_criterion_11_synthetic_fitness_oracle():
    t0 = time.monotonic()
    cfg = parse_config(None, ["cma.max_iterations=30"])  # stock 50/10 sampler

    def objective(design):
        return float(np.sum((design.factors - 1.5) ** 2))

    res = run_ea_corl(cfg, fitness_fn=objective)
    assert len(res.history) <= 30
    np.testing.assert_allclose(res.best_design.factors, [1.5, 1.5], atol=0.05)
    assert time.monotonic() - t0 < 10.0


# --- criterion 12 ------------------------------------------------------------------


def _files_equal(dir_a, dir_b, names):
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa:
            with open(os.path.join(dir_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_criterion_12_reproducibility_and_resume(desk_runs, tmp_path_factory):
    _, first_dir = desk_runs[("ea-corl", 0)]
    root = tmp_path_factory.mktemp("repro")

    # same seed, fresh directory: identical evolution record
    rerun_dir = str(root / "rerun")
    rerun = codesign.run(desk_config(0, "ea-corl"), out_dir=rerun_dir)
    assert rerun.completed
    _files_equal(first_dir, rerun_dir, [codesign.EVOLUTION_FILE])

    # interrupt after 3 of 6 iterations, resume: byte-identical artifacts
    split_dir = str(root / "split")
    partial = codesign.run(desk_config(0, "ea-corl"), out_dir=split_dir, stop_after=3)
    assert not partial.completed
    resumed = codesign.run(desk_config(0, "ea-corl"), out_dir=split_dir, resume=True)
    assert resumed.completed
    _files_equal(
        rerun_dir,
        split_dir,
        [
            codesign.EVOLUTION_FILE,
            codesign.CMA_LOG_FILE,
            codesign.BEST_DESIGN_FILE,
            os.path.join(codesign.POLICY_DIR, "base.bin"),
            os.path.join(codesign.POLICY_DIR, "best.bin"),
        ],
    )
    assert resumed.best_fitness == rerun.best_fitness


# --- unnumbered directional checks ----------------------------------------------


def test_warm_start_recovers_base_level_faster_than_scratch(hold_training):
    """Fine-tuning from a pre-trained policy is back at the base return level
    immediately; a scratch policy takes many more updates to get there."""
    base = hold_training[0]
    threshold = 0.8 * base["final"]
    cfg = PpoConfig(horizon=60)

    warm_env = HoldPositionEnv(8, 0, phase=1)
    opt = adam_init(base["params"], 3e-4)
    _, warm_hist, _ = train_on_env(base["params"], opt, warm_env, 20, cfg, 0, phase="warm")
    warm_hits = [i for i, row in enumerate(warm_hist) if row["mean_return"] >= threshold]
    assert warm_hits, "fine-tuned policy never reached the base return level"

    scratch_env = HoldPositionEnv(8, 0, phase=2)
    scratch = policy_init(HOLD_PROPRIO_DIM + 1, HOLD_ACTION_DIM, 1, 123, latent=1)
    opt = adam_init(scratch, 3e-4)
    _, scratch_hist, _ = train_on_env(scratch, opt, scratch_env, 60, cfg, 0, phase="scratch")
    scratch_hits = [
        i for i, row in enumerate(scratch_hist) if row["mean_return"] >= threshold
    ]
    assert warm_hits[0] < (scratch_hits[0] if scratch_hits else len(scratch_hist) + 1)


def test_stronger_actuators_adapt_to_better_fitness():
    """Raising the torque budget cannot reduce achievable fitness: after
    adaptation, the 2.0-gear design beats the 0.5-gear design on every seed."""
    designs = [DesignVector(np.array([0.5, 0.5])), DesignVector(np.array([2.0, 2.0]))]
    for seed in (0, 1, 2):
        cfg = parse_config(
            None,
            [
                "run.n_pop=2", "run.n_env=16", "cma.parent_count=1",
                "ppo.reward_scale=0.02", f"run.seed={seed}",
            ],
        )
        params = policy_init(
            PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, seed, latent=POLICY_LATENT
        )
        plan = expand_designs(cfg.n_pop, cfg.n_env)
        env = VecChinupEnv(
            config=cfg.env, reward_cfg=cfg.reward,
            design_mat=np.stack([d.factors for d in designs])[plan.env_to_design],
            env_to_design=plan.env_to_design, seed=cfg.seed, phase=seed,
        )
        opt = adam_init(params, cfg.ppo.learning_rate)
        _, _, per_design = train_on_env(params, opt, env, 150, cfg.ppo, cfg.seed, phase=seed)
        j_pop = np.where(np.isnan(per_design), np.inf, -per_design)
        assert j_pop[1] < j_pop[0], (
            f"seed {seed}: J(2.0)={j_pop[1]:.2f} not below J(0.5)={j_pop[0]:.2f}"
        )
