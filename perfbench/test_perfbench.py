"""Tests of the benchmark itself: tracer, call-count arithmetic, failure
accounting and the metric list.  Run with `python3 -m pytest perfbench`."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bootstrap
import gearevo.codesign
import gearevo.cma_es
import gearevo.policy
import gearevo.ppo
from run import check_units
from tracer import TARGETS, Tracer, layer_metrics, tail_percentile
from workloads import Desk, Evo, Stock

TINY_RL = [
    "run.n_pop=2",
    "run.n_env=4",
    "cma.max_iterations=3",
    "run.base_train_iters=3",
    "run.adapt_train_iters=2",
    "cma.parent_count=1",
    "ppo.horizon=8",
    "ppo.epochs=2",
    "ppo.minibatches=3",
    "env.episode_length=10",
]


def tiny(cls, overrides):
    wl = cls()
    wl.overrides = overrides
    return wl


def traced_unit(wl, seed, out_dir):
    cfg = wl.config(seed)
    wl.prepare(cfg, str(out_dir))
    tracer = Tracer()
    with tracer.installed(TARGETS):
        unit = wl.run_unit(cfg, str(out_dir / "unit"), tracer)
    return cfg, unit, layer_metrics(tracer, 1)


def test_tracer_wraps_call_site_bindings():
    original_loss = gearevo.policy.loss_and_grads
    original_ask = gearevo.cma_es.cma_ask
    with Tracer().installed(TARGETS):
        assert gearevo.ppo.loss_and_grads is gearevo.policy.loss_and_grads
        assert gearevo.ppo.loss_and_grads is not original_loss
        assert gearevo.codesign.cma_ask is gearevo.cma_es.cma_ask
        assert gearevo.codesign.cma_ask is not original_ask
    assert gearevo.ppo.loss_and_grads is original_loss
    assert gearevo.policy.loss_and_grads is original_loss
    assert gearevo.codesign.cma_ask is original_ask


def test_traced_counts_match_rl_workload_arithmetic(tmp_path):
    wl = tiny(Desk, TINY_RL)
    cfg, unit, metrics = traced_unit(wl, 0, tmp_path)
    assert unit.problems == []
    expected = wl.expected_calls(cfg)
    # 3 + 2 * 2 PPO iterations of horizon 8, 2 epochs x 3 minibatches.
    assert expected["chinup_env.step.calls"] == 7 * 8
    assert expected["policy.loss_and_grads.calls"] == 7 * 2 * 3
    assert expected["cma_es.cma_ask.calls"] == 3
    for key, want in expected.items():
        assert metrics[key] == want, key
    assert metrics["policy.loss_and_grads.rows"] == 7 * 2 * 4 * 8
    assert metrics["chinup_env.episodes"] > 0
    assert metrics["ppo.iter_s.n"] == 7
    assert metrics["codesign.outer_iter_s.n"] == 3


def test_traced_counts_match_evo_arithmetic(tmp_path):
    wl = tiny(Evo, ["cma.max_iterations=6", "run.n_pop=8", "cma.parent_count=4"])
    cfg, unit, metrics = traced_unit(wl, 3, tmp_path)
    assert unit.problems == []
    for key, want in wl.expected_calls(cfg).items():
        assert metrics[key] == want, key
    assert metrics["cma_es.cma_ask.calls"] == 6
    assert metrics["chinup_env.step.calls"] == 0
    assert metrics["codesign.resume_load_s"] > 0


def test_resumed_run_is_compared_with_straight_through(tmp_path):
    wl = tiny(Evo, ["cma.max_iterations=4", "run.n_pop=8", "cma.parent_count=4"])
    wl.prepare(wl.config(0), str(tmp_path))
    unit = wl.run_unit(wl.config(1), str(tmp_path / "unit"))
    assert any("differs from a straight-through run" in p for p in unit.problems)


def test_same_seed_artifacts_must_match(tmp_path):
    wl = tiny(Desk, TINY_RL)
    units = [
        wl.run_unit(wl.config(seed), str(tmp_path / f"u{k}"))
        for k, seed in enumerate((0, 0, 1))
    ]
    assert check_units(units[:2]) == []
    assert check_units(units) == ["artifacts differ between runs of the same seed"]


def test_failed_counts_unscored_designs_not_marked_failed(tmp_path):
    # One PPO iteration of 8 steps finishes no 250-step episode: every design
    # scores +inf although FitnessRecord.failed stays False.
    wl = tiny(Stock, ["run.n_pop=2", "run.n_env=4", "cma.max_iterations=1",
                      "run.base_train_iters=1", "cma.parent_count=1", "ppo.horizon=8"])
    cfg = wl.config(0)
    unit = wl.run_unit(cfg, str(tmp_path / "unit"))
    assert (unit.designs, unit.failed) == (2, 2)
    assert any("completed no episode" in p for p in unit.problems)


@pytest.mark.parametrize(
    "n, want_pct", [(0, 0.0), (5, 100.0), (19, 100.0), (20, 50.0), (100, 90.0), (1000, 99.0)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, want_pct):
    pct, _ = tail_percentile(list(range(n)))
    assert pct == want_pct


def test_benchmark_json_lists_every_reported_layer_metric():
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reported = set(layer_metrics(Tracer(), 1)) | {"codesign.run_dir_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
