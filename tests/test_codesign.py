"""Outer-loop orchestration: population evaluation, snapshot promotion,
checkpoint/resume, and run-directory artifacts.

RL-backed runs here are deliberately micro-scale (tiny population, a couple of
training iterations) — they exercise the control flow and bookkeeping, not
learning quality.  Learning-level behaviour lives in the acceptance suite.
"""

import dataclasses
import itertools
import json
import os
import pickle
import re

import numpy as np
import pytest

from gearevo.chinup_env import ACTION_DIM, PROPRIO_DIM, EnvConfig
from gearevo.cma_es import CmaEsConfig, CmaEsState, cma_ask, cma_init, cma_tell
from gearevo import codesign
from gearevo.codesign import (
    APPEND_FILES,
    BEST_DESIGN_FILE,
    CHECKPOINT_FILE,
    CMA_LOG_FILE,
    EVOLUTION_FILE,
    HISTORY_FILE,
    LEGACY_CHECKPOINT_FILE,
    POLICY_LATENT,
    CodesignConfig,
    FitnessRecord,
    Mode,
    evaluate_population,
    heatmap_sweep,
    rollout_returns,
    run,
    run_ea_corl,
    write_cma_log,
    write_evolution_csv,
    write_heatmap_csv,
)
from gearevo.design_space import DesignSpace, DesignVector, clamp_to_bounds
from gearevo.errors import CheckpointError, ConfigError
from gearevo.policy import policy_init
from gearevo.ppo import PpoConfig, collect_rollouts, train_on_env
from gearevo.reward import RewardConfig
from gearevo.seeding import stream
from gearevo.tables import read_table

from reference_rollout import NanDraws, reference_rollout_returns


def micro_config(mode=Mode.EA_CORL, *, n_pop=2, n_env=4, iterations=3, seed=0):
    """Smallest config that still runs real PPO inside the outer loop."""
    return CodesignConfig(
        mode=mode,
        cma=CmaEsConfig(
            dim=2, population_size=n_pop, parent_count=max(1, n_pop // 2),
            max_iterations=iterations, seed=seed,
        ),
        ppo=PpoConfig(horizon=8, epochs=1, minibatches=1),
        env=EnvConfig(episode_length=8),
        space=DesignSpace(dim=2),
        n_env=n_env,
        n_pop=n_pop,
        base_train_iters=2,
        adapt_train_iters=2,
        seed=seed,
    )


def synthetic_config(*, n_pop=16, iterations=30, seed=0):
    """Config for fitness_fn runs: the RL stack is bypassed entirely."""
    return CodesignConfig(
        cma=CmaEsConfig(
            dim=2, population_size=n_pop, parent_count=n_pop // 4,
            max_iterations=iterations, seed=seed,
        ),
        n_env=n_pop,
        n_pop=n_pop,
        seed=seed,
    )


def sphere_at_1p5(design):
    return float(np.sum((design.factors - 1.5) ** 2))


def walled(design):
    """sphere_at_1p5 behind a wall: +inf for a design with factor_0 > 1."""
    return np.inf if design.factors[0] > 1.0 else sphere_at_1p5(design)


# --- config validation --------------------------------------------------------


def test_config_divisibility_error_names_both_keys():
    with pytest.raises(ConfigError, match="n_env.*n_pop"):
        micro_config(n_pop=3, n_env=4)


@pytest.mark.parametrize("n_pop, n_env", [(0, 4000), (50, 0), (50, -4000)])
def test_config_refuses_nonpositive_population_or_bank(n_pop, n_env):
    with pytest.raises(ConfigError, match="n_pop and n_env must be positive"):
        dataclasses.replace(CodesignConfig(), n_pop=n_pop, n_env=n_env)


def test_config_refuses_design_dim_other_than_joint_count():
    for dim in (1, 3):
        cma = CmaEsConfig(dim=dim, population_size=4, parent_count=2)
        with pytest.raises(ConfigError, match=f"design.dim must be 2, got {dim}"):
            CodesignConfig(cma=cma, space=DesignSpace(dim=dim), n_pop=4, n_env=8)


def test_config_refuses_more_minibatches_than_rollout_rows():
    cfg = micro_config()
    rows = cfg.n_env * cfg.ppo.horizon
    dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, minibatches=rows))
    with pytest.raises(ConfigError, match=r"ppo.minibatches .* run.n_env x ppo.horizon"):
        dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, minibatches=rows + 1))


def test_config_population_size_mismatch():
    with pytest.raises(ConfigError, match="population_size"):
        CodesignConfig(
            cma=CmaEsConfig(population_size=8, parent_count=4), n_pop=4, n_env=8
        )


def test_config_dim_mismatch():
    with pytest.raises(ConfigError, match="dim"):
        CodesignConfig(
            cma=CmaEsConfig(dim=3, population_size=4, parent_count=2),
            space=DesignSpace(dim=2),
            n_pop=4,
            n_env=8,
        )


def test_config_negative_train_iters():
    # a phase without a PPO iteration would score no design
    for key, count in itertools.product(["base_train_iters", "adapt_train_iters"], [-1, 0]):
        with pytest.raises(ConfigError, match=f"run.{key} must be at least 1, got {count}"):
            dataclasses.replace(micro_config(), **{key: count})


def test_config_negative_adapt_learning_rate():
    with pytest.raises(ConfigError, match="run.adapt_learning_rate"):
        dataclasses.replace(micro_config(), adapt_learning_rate=-1e-5)


def test_mode_mismatch_entry_points():
    cfg = micro_config(mode=Mode.EA_CORL)
    with pytest.raises(ConfigError):
        run_ea_corl(
            dataclasses.replace(cfg, mode=Mode.PT_FT), fitness_fn=sphere_at_1p5
        )


# --- evaluate_population --------------------------------------------------------


def test_evaluate_population_sign_identity(monkeypatch):
    """Fitness is exactly the negative per-design mean return."""
    from gearevo import codesign

    mean_returns = []

    def recording_train(*args):
        out = train_on_env(*args)
        mean_returns.append(out[2])
        return out

    monkeypatch.setattr(codesign, "train_on_env", recording_train)
    cfg = micro_config()
    params = policy_init(
        PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, cfg.seed, latent=POLICY_LATENT
    )
    designs = np.array([[1.0, 1.0], [2.0, 0.5]])
    new_params, source_id, j_pop, history, failed = evaluate_population(cfg, 1, None, designs)
    assert not failed
    assert j_pop.shape == (2,) and mean_returns[0].shape == (2,)
    assert np.all(np.isfinite(j_pop))
    np.testing.assert_array_equal(j_pop, -mean_returns[0])
    assert len(history) == cfg.base_train_iters
    assert new_params.snapshot_id == 1 and source_id == params.snapshot_id
    assert new_params.flat.tobytes() != params.flat.tobytes()


def test_evaluate_population_failure_path(monkeypatch):
    """A numeric blow-up poisons the whole population but keeps the run alive."""
    from gearevo import codesign
    from gearevo.errors import NumericError

    def exploding_train(*args, **kwargs):
        raise NumericError("non-finite gradient")

    monkeypatch.setattr(codesign, "train_on_env", exploding_train)
    cfg = micro_config()
    params = policy_init(
        PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, cfg.seed, latent=POLICY_LATENT
    )
    designs = np.array([[1.0, 1.0], [2.0, 0.5]])
    out_params, _, j_pop, history, failed = evaluate_population(cfg, 1, None, designs)
    assert failed
    # The source snapshot is handed back unchanged, numbered as the iteration.
    assert out_params.flat.tobytes() == params.flat.tobytes()
    assert out_params.snapshot_id == 1
    assert np.all(np.isposinf(j_pop))
    assert history == []


def test_unscored_population_leaves_cma_es_in_place():
    """An iteration in which no design is scored (all +inf) leaves the search
    distribution where it was, and the next iteration asks new designs."""
    cfg = synthetic_config(iterations=3, seed=3)
    calls = []

    def fails_in_iteration_2(design):
        calls.append(design)
        iteration = (len(calls) - 1) // cfg.n_pop + 1
        return np.inf if iteration == 2 else sphere_at_1p5(design)

    r1, r2, r3 = run_ea_corl(cfg, fitness_fn=fails_in_iteration_2).history
    assert np.all(np.isposinf(r2.j_pop))
    assert np.array_equal(r2.dist_mean, r1.dist_mean)
    assert r2.sigma == r1.sigma
    assert not np.array_equal(r2.designs, r3.designs)
    assert np.all(np.isfinite(r3.j_pop))


def test_run_scores_clamped_designs_and_tells_raw_samples():
    """Replaying the run's ask/tell pairs: each iteration scores the asked
    samples clamped into the box, and updates CMA-ES from the raw samples."""
    cfg = synthetic_config(iterations=3)
    history = run_ea_corl(cfg, fitness_fn=sphere_at_1p5).history
    state = cma_init(dataclasses.replace(cfg.cma, seed=cfg.seed))
    clamped_rows = 0
    for rec in history:
        samples = cma_ask(state)
        clamped = clamp_to_bounds(samples, cfg.space)
        assert rec.designs.shape == clamped.shape
        assert rec.designs.tobytes() == clamped.tobytes()
        clamped_rows += int(np.any(clamped != samples, axis=1).sum())
        state = cma_tell(state, samples, rec.j_pop)
        assert rec.dist_mean.tobytes() == state.mean.tobytes()
        assert rec.sigma == state.sigma
    # the default initial mean (0.2) lies below the lower bound (0.5)
    assert clamped_rows > 0


# --- single-iteration reduction ---------------------------------------------


def test_single_iteration_both_modes_identical():
    """With one outer iteration, both modes reduce to base pre-training: the
    returned policy is the base snapshot and the two modes agree bitwise."""
    ea = run_ea_corl(micro_config(mode=Mode.EA_CORL, iterations=1))
    pt = run(micro_config(mode=Mode.PT_FT, iterations=1))

    assert ea.completed and pt.completed
    assert len(ea.history) == len(pt.history) == 1
    assert ea.best_policy.snapshot_id == 1  # the base policy itself
    assert ea.best_fitness == pt.best_fitness
    np.testing.assert_array_equal(ea.best_design.factors, pt.best_design.factors)
    np.testing.assert_array_equal(ea.history[0].j_pop, pt.history[0].j_pop)
    for name in ea.best_policy.views():
        np.testing.assert_array_equal(
            ea.best_policy.views()[name], pt.best_policy.views()[name]
        )


def test_result_agrees_with_history_minimum():
    res = run_ea_corl(micro_config(iterations=3))
    bests = [rec.population_best_j for rec in res.history]
    assert res.best_fitness == min(bests)
    assert res.history[-1].global_best_j == res.best_fitness
    winner = res.history[int(np.argmin(bests))]
    np.testing.assert_array_equal(
        res.best_design.factors, winner.designs[int(np.argmin(winner.j_pop))]
    )


# --- snapshot promotion bookkeeping ------------------------------------------


def assert_promotion_invariants(history, mode):
    """Shared ledger checks: J* monotone, population best, snapshot wiring."""
    prev_best = np.inf
    prev_snapshot = None
    for rec in history:
        assert rec.population_best_j == np.min(rec.j_pop)
        # global best is the running minimum
        assert rec.global_best_j == min(prev_best, rec.population_best_j)
        improved = rec.population_best_j < prev_best
        if rec.iteration == 1:
            assert rec.snapshot_id == 1
        elif mode is Mode.EA_CORL:
            # promoted exactly on improving iterations, to this iteration's snapshot
            assert rec.snapshot_id == (
                rec.iteration if improved else prev_snapshot
            )
            assert rec.source_snapshot_id == prev_snapshot
        else:
            # PT-FT never promotes and always restarts from the base snapshot
            assert rec.snapshot_id == 1
            assert rec.source_snapshot_id == 1
        prev_best = rec.global_best_j
        prev_snapshot = rec.snapshot_id


def test_ea_corl_promotion_invariants():
    res = run_ea_corl(micro_config(mode=Mode.EA_CORL, iterations=4))
    assert [rec.iteration for rec in res.history] == [1, 2, 3, 4]
    assert_promotion_invariants(res.history, Mode.EA_CORL)
    assert res.best_policy.snapshot_id == res.history[-1].snapshot_id


def test_pt_ft_promotion_invariants():
    res = run(micro_config(mode=Mode.PT_FT, iterations=4))
    assert_promotion_invariants(res.history, Mode.PT_FT)
    assert res.best_policy.snapshot_id == 1


def test_run_dispatches_on_mode():
    res = run(micro_config(mode=Mode.PT_FT, iterations=1))
    assert res.mode is Mode.PT_FT


# --- synthetic fitness (RL bypass) --------------------------------------------


def test_synthetic_fitness_converges_to_target():
    res = run_ea_corl(synthetic_config(iterations=30), fitness_fn=sphere_at_1p5)
    assert res.completed
    assert res.best_policy is None  # no RL ran
    np.testing.assert_allclose(res.best_design.factors, [1.5, 1.5], atol=0.05)
    assert all(rec.snapshot_id == 0 for rec in res.history)


def test_synthetic_same_seed_identical_artifacts(tmp_path):
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_ea_corl(synthetic_config(iterations=8), out_dir=dir_a, fitness_fn=sphere_at_1p5)
    run_ea_corl(synthetic_config(iterations=8), out_dir=dir_b, fitness_fn=sphere_at_1p5)
    for name in (EVOLUTION_FILE, CMA_LOG_FILE, BEST_DESIGN_FILE):
        with open(os.path.join(dir_a, name), "rb") as fa:
            with open(os.path.join(dir_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_synthetic_different_seeds_differ():
    res0 = run_ea_corl(synthetic_config(iterations=5, seed=0), fitness_fn=sphere_at_1p5)
    res1 = run_ea_corl(synthetic_config(iterations=5, seed=1), fitness_fn=sphere_at_1p5)
    assert not np.array_equal(res0.history[0].j_pop, res1.history[0].j_pop)


# --- checkpoint / resume --------------------------------------------------------


def test_stop_after_marks_incomplete(tmp_path):
    res = run_ea_corl(
        synthetic_config(iterations=10), out_dir=str(tmp_path),
        fitness_fn=sphere_at_1p5, stop_after=4,
    )
    assert not res.completed
    assert len(res.history) == 4


def test_resume_matches_straight_through(tmp_path):
    dir_full, dir_split = str(tmp_path / "full"), str(tmp_path / "split")
    full = run_ea_corl(
        synthetic_config(iterations=10), out_dir=dir_full, fitness_fn=sphere_at_1p5
    )
    run_ea_corl(
        synthetic_config(iterations=10), out_dir=dir_split,
        fitness_fn=sphere_at_1p5, stop_after=4,
    )
    resumed = run_ea_corl(
        synthetic_config(iterations=10), out_dir=dir_split,
        fitness_fn=sphere_at_1p5, resume=True,
    )
    assert resumed.completed
    assert resumed.best_fitness == full.best_fitness
    for name in (EVOLUTION_FILE, CMA_LOG_FILE, BEST_DESIGN_FILE):
        with open(os.path.join(dir_full, name), "rb") as fa:
            with open(os.path.join(dir_split, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_resume_requires_directory():
    with pytest.raises(CheckpointError, match="directory"):
        run_ea_corl(synthetic_config(), fitness_fn=sphere_at_1p5, resume=True)


def test_resume_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        run_ea_corl(
            synthetic_config(), out_dir=str(tmp_path),
            fitness_fn=sphere_at_1p5, resume=True,
        )


def test_resume_mode_mismatch(tmp_path):
    run_ea_corl(
        synthetic_config(iterations=3), out_dir=str(tmp_path),
        fitness_fn=sphere_at_1p5, stop_after=2,
    )
    pt_cfg = dataclasses.replace(synthetic_config(iterations=3), mode=Mode.PT_FT)
    with pytest.raises(CheckpointError, match="mode"):
        run(pt_cfg, out_dir=str(tmp_path), fitness_fn=sphere_at_1p5, resume=True)


def test_resume_rejects_unknown_version(tmp_path):
    run_ea_corl(
        synthetic_config(iterations=3), out_dir=str(tmp_path),
        fitness_fn=sphere_at_1p5, stop_after=2,
    )
    path = os.path.join(str(tmp_path), CHECKPOINT_FILE)
    with open(path) as fh:
        payload = json.load(fh)
    payload["version"] = 999
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointError, match="version"):
        run_ea_corl(
            synthetic_config(iterations=3), out_dir=str(tmp_path),
            fitness_fn=sphere_at_1p5, resume=True,
        )


def _assert_older_version_refused(out, version):
    run_ea_corl(synthetic_config(iterations=3), out_dir=out, fitness_fn=sphere_at_1p5, stop_after=2)
    path = os.path.join(out, CHECKPOINT_FILE)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["version"] == 4
    payload["version"] = version
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version};"):
        run_ea_corl(
            synthetic_config(iterations=3), out_dir=out, fitness_fn=sphere_at_1p5, resume=True,
        )


def test_resume_refuses_version_2_checkpoint(tmp_path):
    # version 2 directories were trained with float64 PPO network math
    _assert_older_version_refused(str(tmp_path), 2)


def test_resume_refuses_version_3_checkpoint(tmp_path):
    # version 3 history records hold a population as a list of designs, plus
    # mean_returns, population_best_idx and global_best_design
    _assert_older_version_refused(str(tmp_path), 3)


def test_rl_run_checkpoints_policies(tmp_path):
    """RL-backed runs persist base/best/per-iteration policy snapshots."""
    out = str(tmp_path)
    run_ea_corl(micro_config(iterations=2), out_dir=out)
    policies = os.path.join(out, "policies")
    for name in ("base.bin", "best.bin", "iter_0001.bin", "iter_0002.bin"):
        assert os.path.exists(os.path.join(policies, name)), name
    assert os.path.exists(os.path.join(out, "learning_curve_iter_0002.csv"))
    best = read_table(
        os.path.join(out, BEST_DESIGN_FILE), lambda h: h[0] == "design_id", "a design CSV"
    )
    assert len(best) == 1 and len(best[0]) == 3


def test_rl_resume_matches_straight_through(tmp_path):
    """Interrupt/resume of a real RL run reproduces the artifacts bitwise."""
    dir_full, dir_split = str(tmp_path / "full"), str(tmp_path / "split")
    full = run_ea_corl(micro_config(iterations=3), out_dir=dir_full)
    run_ea_corl(micro_config(iterations=3), out_dir=dir_split, stop_after=1)
    resumed = run_ea_corl(micro_config(iterations=3), out_dir=dir_split, resume=True)
    assert resumed.completed
    assert resumed.best_fitness == full.best_fitness
    for name in (
        EVOLUTION_FILE,
        CMA_LOG_FILE,
        BEST_DESIGN_FILE,
        os.path.join("policies", "best.bin"),
        os.path.join("policies", "base.bin"),
    ):
        with open(os.path.join(dir_full, name), "rb") as fa:
            with open(os.path.join(dir_split, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def _tree(root):
    """{relative path: bytes} of every file under `root`."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _without_wall_time(data: bytes) -> dict:
    payload = json.loads(data)
    del payload["wall_time_s"]
    return payload


def assert_same_tree(got, want):
    """Same files, byte for byte; the commit record's wall time may differ."""
    got_tree, want_tree = _tree(got), _tree(want)
    assert sorted(got_tree) == sorted(want_tree)
    for name, data in want_tree.items():
        if name == CHECKPOINT_FILE:
            assert _without_wall_time(got_tree[name]) == _without_wall_time(data)
        else:
            assert got_tree[name] == data, name


def assert_same_history(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(b):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape, f.name
                np.testing.assert_array_equal(x, y, err_msg=f.name)
            else:
                assert type(x) is type(y) and x == y, f.name


def test_run_directory_layout(tmp_path):
    """A JSON commit record plus append-only files; no pickled state."""
    out = str(tmp_path)
    run_ea_corl(micro_config(iterations=2), out_dir=out)
    names = set(os.listdir(out))
    assert {CHECKPOINT_FILE, HISTORY_FILE, *APPEND_FILES} <= names
    assert LEGACY_CHECKPOINT_FILE not in names and "cma_state" not in names
    assert not [n for n in names if n.endswith(".tmp")]
    with open(os.path.join(out, CHECKPOINT_FILE)) as fh:
        payload = json.load(fh)
    assert payload["iteration"] == 2
    for name in APPEND_FILES:
        assert payload["files"][name] == os.path.getsize(os.path.join(out, name))
    assert payload["policies"]["base"]["snapshot_id"] == 1


def test_evolution_csv_append_matches_whole_file(tmp_path):
    res = run_ea_corl(synthetic_config(iterations=4), fitness_fn=sphere_at_1p5)
    whole, appended = str(tmp_path / "whole.csv"), str(tmp_path / "appended.csv")
    write_evolution_csv(res.history, whole)
    for rec in res.history:
        write_evolution_csv([rec], appended)
    with open(whole, "rb") as fa, open(appended, "rb") as fb:
        assert fa.read() == fb.read()


def test_cma_log_append_matches_whole_file(tmp_path):
    res = run_ea_corl(synthetic_config(iterations=4), fitness_fn=walled)
    assert any(np.isinf(rec.j_pop).any() for rec in res.history)
    whole, appended = str(tmp_path / "whole.csv"), str(tmp_path / "appended.csv")
    write_cma_log(res.history, whole)
    for rec in res.history:
        write_cma_log([rec], appended)
    with open(whole, "rb") as fa, open(appended, "rb") as fb:
        assert fa.read() == fb.read()


def test_evolution_csv_round_trip(tmp_path):
    out = str(tmp_path)
    res = run_ea_corl(
        synthetic_config(iterations=4), out_dir=out, fitness_fn=sphere_at_1p5
    )
    n_pop = len(res.history[0].j_pop)
    rows = read_table(
        os.path.join(out, EVOLUTION_FILE),
        lambda h: h == ["iteration", "population_best", "global_best"]
        + [f"j_{k}" for k in range(n_pop)],
        "an evolution CSV",
    )
    assert len(rows) == 4
    for row, rec in zip(rows, res.history):
        assert int(row[0]) == rec.iteration
        assert float(row[1]) == rec.population_best_j
        assert float(row[2]) == rec.global_best_j
        np.testing.assert_array_equal([float(x) for x in row[3:]], rec.j_pop)


def test_csv_rows_are_projections_of_history_records(tmp_path):
    """Each evolution.csv and cma_log.csv row is the repr of its history.jsonl record's cells.

    The run hits +inf designs and is stopped and resumed, so rows of both
    halves and non-finite cells are covered.
    """
    cfg = synthetic_config(iterations=8)
    out = str(tmp_path)
    run_ea_corl(cfg, out_dir=out, fitness_fn=walled, stop_after=5)
    run_ea_corl(cfg, out_dir=out, fitness_fn=walled, resume=True)
    with open(os.path.join(out, HISTORY_FILE)) as fh:
        history = [codesign._from_json(FitnessRecord, json.loads(line)) for line in fh]
    assert any(np.isinf(rec.j_pop).any() for rec in history)
    n_pop, dim = cfg.n_pop, cfg.cma.dim
    evolution = read_table(
        os.path.join(out, EVOLUTION_FILE),
        lambda h: h == ["iteration", "population_best", "global_best"]
        + [f"j_{k}" for k in range(n_pop)],
        "an evolution CSV",
    )
    cma_log = read_table(
        os.path.join(out, CMA_LOG_FILE),
        lambda h: h == ["generation", "best_fitness", "mean_fitness", "sigma"]
        + [f"mean_{i}" for i in range(dim)],
        "a CMA-ES log",
    )
    assert len(evolution) == len(cma_log) == len(history) == 8
    for rec, evolution_row, cma_row in zip(history, evolution, cma_log):
        assert evolution_row == [repr(rec.iteration)] + [
            repr(x) for x in (rec.population_best_j, rec.global_best_j, *rec.j_pop.tolist())
        ]
        assert cma_row == [repr(rec.iteration)] + [
            repr(x) for x in (rec.population_best_j, float(np.mean(rec.j_pop)), rec.sigma,
                              *rec.dist_mean.tolist())
        ]


def test_resume_history_round_trips_inf_and_nan(tmp_path):
    """The resumed history equals the straight-through one field by field."""
    cfg = synthetic_config(iterations=8)
    full = run_ea_corl(cfg, out_dir=str(tmp_path / "full"), fitness_fn=walled)
    assert any(np.isinf(rec.j_pop).any() for rec in full.history)
    split = str(tmp_path / "split")
    run_ea_corl(cfg, out_dir=split, fitness_fn=walled, stop_after=5)
    resumed = run_ea_corl(cfg, out_dir=split, fitness_fn=walled, resume=True)
    assert_same_history(resumed.history, full.history)
    assert_same_tree(split, str(tmp_path / "full"))


def test_resume_rolls_back_uncommitted_rows(tmp_path):
    cfg = synthetic_config(iterations=6)
    full = str(tmp_path / "full")
    run_ea_corl(cfg, out_dir=full, fitness_fn=sphere_at_1p5)
    split = str(tmp_path / "split")
    run_ea_corl(cfg, out_dir=split, fitness_fn=sphere_at_1p5, stop_after=3)
    for name in APPEND_FILES:
        with open(os.path.join(split, name), "ab") as fh:
            fh.write(b"4,half a row")
    run_ea_corl(cfg, out_dir=split, fitness_fn=sphere_at_1p5, resume=True)
    assert_same_tree(split, full)


@pytest.mark.parametrize("name", APPEND_FILES)
def test_resume_rejects_short_append_file(tmp_path, name):
    out = str(tmp_path)
    cfg = synthetic_config(iterations=6)
    run_ea_corl(cfg, out_dir=out, fitness_fn=sphere_at_1p5, stop_after=3)
    path = os.path.join(out, name)
    size = os.path.getsize(path)
    os.truncate(path, size - 1)
    with pytest.raises(CheckpointError, match="shorter"):
        run_ea_corl(cfg, out_dir=out, fitness_fn=sphere_at_1p5, resume=True)
    assert os.path.getsize(path) == size - 1


def test_resume_rejects_v1_pickle_checkpoint(tmp_path):
    out = str(tmp_path)
    with open(os.path.join(out, LEGACY_CHECKPOINT_FILE), "wb") as fh:
        pickle.dump({"version": 1}, fh)
    with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
        run_ea_corl(synthetic_config(), out_dir=out, fitness_fn=sphere_at_1p5, resume=True)


def test_policies_of_a_run_that_saved_none_are_refused(tmp_path):
    out = str(tmp_path)
    run_ea_corl(synthetic_config(iterations=3), out_dir=out, fitness_fn=sphere_at_1p5, stop_after=2)
    with pytest.raises(CheckpointError, match="the run saved no policy snapshots"):
        codesign.read_run(synthetic_config(iterations=3), out)
    with pytest.raises(CheckpointError, match="the run saved no policy snapshots"):
        run_ea_corl(synthetic_config(iterations=3), out_dir=out, resume=True)


def test_resume_rejects_tampered_policy_snapshot(tmp_path):
    out = str(tmp_path)
    run_ea_corl(micro_config(iterations=4), out_dir=out, stop_after=3)
    with open(os.path.join(out, CHECKPOINT_FILE)) as fh:
        best_id = json.load(fh)["policies"]["best"]["snapshot_id"]
    path = os.path.join(out, "policies", f"iter_{best_id:04d}.bin")
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    with pytest.raises(CheckpointError, match="SHA-256"):
        run_ea_corl(micro_config(iterations=4), out_dir=out, resume=True)


def test_fresh_run_into_used_directory(tmp_path, monkeypatch):
    """A non-resume run replaces what an earlier run left, rows included.

    The earlier run has another seed, or more iterations (its later
    snapshots and learning curves must go), or it trained policies that a
    synthetic run, which writes none, must not keep, or it was killed at
    each write of its iteration 3 in turn, leaving a torn append row, a
    .tmp file or that iteration's snapshot.
    """
    cases = [
        (micro_config(iterations=3, seed=1), micro_config(iterations=3), None),
        (micro_config(iterations=4), micro_config(iterations=2), None),
        (micro_config(iterations=3), synthetic_config(iterations=3), sphere_at_1p5),
    ]
    for k, (earlier, cfg, fitness_fn) in enumerate(cases):
        used, clean = str(tmp_path / f"used{k}"), str(tmp_path / f"clean{k}")
        run_ea_corl(earlier, out_dir=used)
        run_ea_corl(cfg, out_dir=used, fitness_fn=fitness_fn)
        run_ea_corl(cfg, out_dir=clean, fitness_fn=fitness_fn)
        assert_same_tree(used, clean)

    earlier, cfg = micro_config(iterations=4), micro_config(iterations=2)
    clean = str(tmp_path / "clean")
    run_ea_corl(cfg, out_dir=clean)
    with monkeypatch.context() as m:
        calls = _patch_writers(m)
        run_ea_corl(earlier, out_dir=str(tmp_path / "probe"))
    starts = [k for k, (name, _) in enumerate(calls) if name == "write_evolution_csv"]
    left, torn = set(), False
    for k in range(starts[2], starts[3]):
        used = str(tmp_path / f"crash{k}")
        with monkeypatch.context() as m:
            _patch_writers(m, crash_at=k)
            with pytest.raises(InjectedCrash):
                run_ea_corl(earlier, out_dir=used)
        tree = _tree(used)
        left |= set(tree)
        torn |= any(not tree[name].endswith(b"\n") for name in APPEND_FILES)
        run_ea_corl(cfg, out_dir=used)
        assert_same_tree(used, clean)
    assert torn
    assert {"checkpoint.json.tmp", os.path.join("policies", "iter_0003.bin")} <= left


# --- JSON records: one codec for history.jsonl and checkpoint.json -------------


@pytest.mark.parametrize(
    "cls", [FitnessRecord, codesign._Commit, CmaEsState, codesign._Policies, codesign._Snapshot]
)
def test_every_record_field_has_a_json_codec(cls):
    """A field of another type would be written as it stands and read back as JSON gives it."""
    for f in dataclasses.fields(cls):
        assert f.type in ("int", "float", "bool", "str") or f.type in codesign._JSON_CODECS, (
            f"{cls.__name__}.{f.name}: {f.type}"
        )


def test_state_json_round_trip_continues_bitwise():
    """A CMA-ES state restored from JSON text asks and tells exactly like the original."""

    def ask_and_tell(state, f):
        samples = cma_ask(state)
        return cma_tell(state, samples, np.array([float(f(x)) for x in samples]))

    state = cma_init(CmaEsConfig(dim=3, population_size=10, parent_count=5))
    for _ in range(4):
        state = ask_and_tell(state, lambda x: float(np.sum(x**2)))
    back = codesign._from_json(CmaEsState, json.loads(json.dumps(codesign._to_json(state))))
    for f in dataclasses.fields(state):
        a, b = getattr(state, f.name), getattr(back, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)
        else:
            assert type(a) is type(b) and a == b, f.name
    objective = lambda x: float(np.sum((x - 1.0) ** 2))  # noqa: E731
    for _ in range(3):
        state = ask_and_tell(state, objective)
        back = ask_and_tell(back, objective)
    np.testing.assert_array_equal(state.mean, back.mean)
    np.testing.assert_array_equal(state.cov, back.cov)
    assert state.sigma == back.sigma


def test_state_from_json_rejects_missing_field():
    data = codesign._to_json(cma_init(CmaEsConfig(population_size=8, parent_count=4)))
    del data["path_c"]
    with pytest.raises(CheckpointError, match="path_c"):
        codesign._from_json(CmaEsState, data)


def test_from_json_checks_scalar_types():
    """An int field takes no bool, float or string; a float field takes an
    int and keeps it, so the record encodes to the same JSON."""
    snapshot = {"snapshot_id": 3, "sha256": "ab"}
    assert codesign._from_json(codesign._Snapshot, snapshot) == codesign._Snapshot(3, "ab")
    for field, value in (("snapshot_id", True), ("snapshot_id", 3.0), ("snapshot_id", "3"),
                         ("sha256", None)):
        with pytest.raises(CheckpointError, match=f"_Snapshot.{field}: expected"):
            codesign._from_json(codesign._Snapshot, {**snapshot, field: value})
    data = codesign._to_json(cma_init(CmaEsConfig(population_size=8, parent_count=4)))
    data["sigma"] = 1
    back = codesign._to_json(codesign._from_json(CmaEsState, data))
    assert json.dumps(back) == json.dumps(data)
    with pytest.raises(CheckpointError, match="CmaEsState.sigma: expected float, got False"):
        codesign._from_json(CmaEsState, {**data, "sigma": False})


@pytest.mark.parametrize("kind", ["rl", "all-inf synthetic"])
def test_checkpoint_json_round_trips_to_its_own_bytes(tmp_path, kind):
    """Decoding the commit and encoding it again gives checkpoint.json's bytes.

    The synthetic run scores every design +inf, so it commits no best
    design, an infinite J* and no policies.
    """
    out = str(tmp_path / "run")
    if kind == "rl":
        run_ea_corl(micro_config(iterations=3), out_dir=out)
    else:
        run_ea_corl(synthetic_config(iterations=2), out_dir=out, fitness_fn=lambda d: np.inf)
    again = str(tmp_path / "again.json")
    codesign._write_json(codesign._to_json(codesign._read_commit(out)), again)
    with open(os.path.join(out, CHECKPOINT_FILE), "rb") as fa, open(again, "rb") as fb:
        assert fa.read() == fb.read()


def _edit_first_history_record(out, edit):
    """Apply `edit` to the first of a run's two history.jsonl records.

    The commit covers the edited file's length, so only the record is wrong.
    """
    history = os.path.join(out, HISTORY_FILE)
    with open(history, "rb") as fh:
        lines = fh.read().splitlines()
    record = json.loads(lines[0])
    edit(record)
    with open(history, "wb") as fh:
        fh.write(json.dumps(record).encode() + b"\n" + lines[1] + b"\n")
    path = os.path.join(out, CHECKPOINT_FILE)
    with open(path) as fh:
        commit = json.load(fh)
    commit["files"][HISTORY_FILE] = os.path.getsize(history)
    with open(path, "w") as fh:
        json.dump(commit, fh)


def test_resume_refuses_history_record_with_extra_field(tmp_path):
    out = str(tmp_path)
    cfg = synthetic_config(iterations=4)
    run_ea_corl(cfg, out_dir=out, fitness_fn=sphere_at_1p5, stop_after=2)
    _edit_first_history_record(out, lambda record: record.update(episodes=3))
    with pytest.raises(CheckpointError, match=r"corrupt record: .*\['episodes'\] unexpected"):
        run_ea_corl(cfg, out_dir=out, fitness_fn=sphere_at_1p5, resume=True)


def _set_nan(values):
    values[-1] = float("nan")


def _keep_one(values):
    del values[1:]


@pytest.mark.parametrize(
    "field, edit, wrong",
    [
        ("designs", lambda designs: _set_nan(designs[1]), "not a finite (16, 2) array"),
        ("designs", list.pop, "not a finite (16, 2) array"),
        ("j_pop", _keep_one, "not a NaN-free (16,) array"),
        ("j_pop", _set_nan, "not a NaN-free (16,) array"),
        ("dist_mean", list.clear, "not a finite (2,) array"),
        ("dist_mean", _set_nan, "not a finite (2,) array"),
    ],
    ids=["nan", "short", "j_pop-one", "j_pop-nan", "dist_mean-empty", "dist_mean-nan"],
)
def test_resume_refuses_history_record_with_bad_designs(tmp_path, field, edit, wrong):
    """A record whose population is not a finite (n_pop, dim) array, whose
    j_pop is not a NaN-free (n_pop,) array or whose dist_mean is not a finite
    (dim,) array is refused, naming its line."""
    out = str(tmp_path)
    cfg = synthetic_config(iterations=4)
    run_ea_corl(cfg, out_dir=out, fitness_fn=sphere_at_1p5, stop_after=2)
    _edit_first_history_record(out, lambda record: edit(record[field]))
    with pytest.raises(CheckpointError, match=re.escape(f"{HISTORY_FILE} line 1: {field} {wrong}")):
        run_ea_corl(cfg, out_dir=out, fitness_fn=sphere_at_1p5, resume=True)


# Functions _checkpoint writes through; the path is each one's second argument.
CHECKPOINT_WRITERS = (
    "write_evolution_csv",
    "write_cma_log",
    "_write_history",
    "write_designs_csv",
    "save_policy",
    "write_learning_curve_csv",
    "_write_json",
)


class InjectedCrash(RuntimeError):
    pass


def _patch_writers(monkeypatch, crash_at=None):
    """Record each checkpoint write; the `crash_at`-th one is torn, then raises.

    A torn write keeps half of the bytes the call added to its file, as a
    process killed in the middle of the write would.
    """
    calls = []
    for name in CHECKPOINT_WRITERS:
        original = getattr(codesign, name)

        def wrapped(*args, _original=original, _name=name, **kwargs):
            path = args[1]
            before = os.path.getsize(path) if os.path.exists(path) else 0
            result = _original(*args, **kwargs)
            calls.append((_name, os.path.basename(path)))
            if len(calls) - 1 == crash_at:
                after = os.path.getsize(path)
                os.truncate(path, before + max(0, after - before) // 2)
                raise InjectedCrash(f"{_name} {path}")
            return result

        monkeypatch.setattr(codesign, name, wrapped)
    return calls


def test_crash_at_any_checkpoint_write_resumes_byte_identically(tmp_path, monkeypatch):
    """Kill each write of one iteration in turn; resume must match straight through.

    Iteration 3 of the micro run promotes a new best snapshot, so it writes
    every kind of file: CSV and history appends, best design, per-iteration,
    base and best policies, learning curve and the commit record.
    """
    cfg = micro_config(iterations=4)
    full = str(tmp_path / "full")
    with monkeypatch.context() as m:
        calls = _patch_writers(m)
        straight = run_ea_corl(cfg, out_dir=full)
    assert straight.history[2].snapshot_id == 3 != straight.history[1].snapshot_id
    # An iteration's writes run from its evolution row to the next one's.
    starts = [k for k, (name, _) in enumerate(calls) if name == "write_evolution_csv"]
    targets = range(starts[2], starts[3])
    written = {calls[k] for k in targets}
    assert {("write_cma_log", CMA_LOG_FILE), ("save_policy", "best.bin.tmp"),
            ("_write_json", "checkpoint.json.tmp"), ("_write_history", HISTORY_FILE)} <= written
    for k in targets:
        out = str(tmp_path / f"crash{k}")
        with monkeypatch.context() as m:
            _patch_writers(m, crash_at=k)
            with pytest.raises(InjectedCrash):
                run_ea_corl(cfg, out_dir=out)
        resumed = run_ea_corl(cfg, out_dir=out, resume=True)
        assert resumed.best_fitness == straight.best_fitness, calls[k]
        assert_same_history(resumed.history, straight.history)
        assert_same_tree(out, full)



def test_resume_that_runs_no_iteration_restores_the_commit(tmp_path, monkeypatch):
    """Tear the commit of iteration 3, then resume with stop_after=2.

    Iteration 3 promotes a new best, so before its commit it has replaced
    best_design.csv, base.bin and best.bin, written its own snapshot and
    learning curve, and it leaves a torn checkpoint.json.tmp.  The resumed
    directory must equal a straight run stopped at 2.
    """
    cfg = micro_config(iterations=4)
    want = str(tmp_path / "straight")
    run_ea_corl(cfg, out_dir=want, stop_after=2)
    with monkeypatch.context() as m:
        calls = _patch_writers(m)
        run_ea_corl(cfg, out_dir=str(tmp_path / "probe"))
    starts = [k for k, (name, _) in enumerate(calls) if name == "write_evolution_csv"]
    commit_3 = next(
        k for k in range(starts[2], starts[3])
        if calls[k] == ("_write_json", "checkpoint.json.tmp")
    )
    got = str(tmp_path / "crashed")
    with monkeypatch.context() as m:
        _patch_writers(m, crash_at=commit_3)
        with pytest.raises(InjectedCrash):
            run_ea_corl(cfg, out_dir=got)
    left, straight = _tree(got), _tree(want)
    assert {
        os.path.join("policies", "iter_0003.bin"), "learning_curve_iter_0003.csv",
        "checkpoint.json.tmp",
    } <= set(left)
    assert left[os.path.join("policies", "best.bin")] != straight[os.path.join("policies", "best.bin")]
    # Its best design rounds to the committed one in the CSV; write another.
    with open(os.path.join(got, BEST_DESIGN_FILE), "w") as fh:
        fh.write("design_id,factor_0,factor_1\n0,3.25,1.75\n")
    resumed = run_ea_corl(cfg, out_dir=got, resume=True, stop_after=2)
    assert [rec.iteration for rec in resumed.history] == [1, 2]
    assert_same_tree(got, want)


# --- rollout-only evaluation and heatmaps -------------------------------------


def test_rollout_returns_shape_and_determinism():
    cfg = micro_config()
    params = policy_init(
        PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, 0, latent=POLICY_LATENT
    )
    design = DesignVector(np.array([1.5, 1.5]))
    a = rollout_returns(cfg.env, cfg.reward, params, design, 5, seed=0)
    b = rollout_returns(cfg.env, cfg.reward, params, design, 5, seed=0)
    c = rollout_returns(cfg.env, cfg.reward, params, design, 5, seed=1)
    assert a.shape == (5,)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.isfinite(a))


@pytest.mark.parametrize("n_episodes", [1, 5, 8])
def test_rollout_returns_matches_reference_loop_bitwise(n_episodes, monkeypatch):
    # rollout_returns runs collect_rollouts; the reference is the episode loop
    # it replaced.  Two designs and two phases, then NaN action draws that
    # diverge one environment twice, so that it ends one episode more than
    # the bank has environments and only the first n_episodes count.
    env_cfg, reward_cfg = EnvConfig(episode_length=24), RewardConfig()
    params = policy_init(PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, 5, latent=POLICY_LATENT)
    flat = params.flat.copy()
    params.views(flat)["log_std"][:] = 0.5  # actions wide enough to reach the limits
    params = dataclasses.replace(params, flat=flat)
    designs = [DesignVector(np.array([0.7, 2.5])), DesignVector(np.array([1.8, 1.1]))]

    def assert_same(got, want):
        assert got.shape == want.shape == (n_episodes,)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    for design, phase in itertools.product(designs, ["eval", "heatmap-0-1-3"]):
        got = rollout_returns(env_cfg, reward_cfg, params, design, n_episodes, 4, phase)
        want = reference_rollout_returns(
            env_cfg, reward_cfg, params, design, n_episodes, 4, phase,
            stream("eval-actions", 4, phase),
        )
        assert_same(got, want)

    batches = []

    def recording_rollouts(*args):
        batches.append(collect_rollouts(*args))
        return batches[-1]

    def nan_draws(*key):
        row = n_episodes // 2
        return NanDraws(NanDraws(stream(*key), call=2, row=row), call=5, row=row)

    monkeypatch.setattr(codesign, "collect_rollouts", recording_rollouts)
    monkeypatch.setattr(codesign, "stream", nan_draws)
    got = rollout_returns(env_cfg, reward_cfg, params, designs[0], n_episodes, 4, "eval")
    want = reference_rollout_returns(
        env_cfg, reward_cfg, params, designs[0], n_episodes, 4, "eval",
        nan_draws("eval-actions", 4, "eval"),
    )
    episodes = batches[0].episodes
    assert len(episodes) == n_episodes + 1 and sum(e.failed for e in episodes) == 2
    assert_same(got, want)


def test_heatmap_matches_direct_rollouts():
    cfg = micro_config()
    params = policy_init(
        PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, 0, latent=POLICY_LATENT
    )
    grid = heatmap_sweep(cfg, params, 0, 1, resolution=2)
    assert len(grid) == 4
    n_exp = cfg.n_env // cfg.n_pop
    for cell, (design, fitness) in enumerate(grid):
        returns = rollout_returns(
            cfg.env, cfg.reward, params, design, n_exp, cfg.seed,
            phase=f"heatmap-0-1-{cell}",
        )
        assert fitness == float(-np.mean(returns))
        assert set(design.factors) <= {cfg.space.lower_bound, cfg.space.upper_bound}


def test_heatmap_csv_round_trip(tmp_path):
    cfg = micro_config()
    params = policy_init(
        PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, 2, 0, latent=POLICY_LATENT
    )
    grid = heatmap_sweep(cfg, params, 0, 1, resolution=2)
    path = str(tmp_path / "heatmap_0_1.csv")
    write_heatmap_csv(grid, 0, 1, path)
    rows = read_table(path, lambda h: h == ["factor_0", "factor_1", "fitness"], "a heatmap CSV")
    assert len(rows) == 4
    for row, (design, fitness) in zip(rows, grid):
        assert [float(x) for x in row] == [*design.factors, fitness]
