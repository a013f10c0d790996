"""The benchmark's workloads: configuration, one timed unit, and checks.

Each workload drives gearevo only through its public API
(`gearevo.cli.parse_config`, `gearevo.codesign.run` / `run_ea_corl`).  A
unit is one call (or, for `evo`, one stop-and-resume pair) into the
co-design loop; the benchmark repeats units with the same seed for as long
as its run lasts.  Import this module only after `bootstrap.prepare()`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from gearevo import codesign
from gearevo.cli import parse_config
from gearevo.cma_es import cma_init
from gearevo.design_space import expand_designs
from gearevo.errors import NumericError, OptimizerDegenerateError
from gearevo.ppo import read_learning_curve_csv

from tracer import RESUME_SPAN, RUN_SPAN

# Acceptance-test desk hyperparameters (tests/test_acceptance.py
# DESK_OVERRIDES) with the iteration counts cut so that several units fit
# in one run; both the pre-train and the adapt phase stay.
DESK_OVERRIDES = [
    "run.n_pop=8",
    "run.n_env=64",
    "cma.max_iterations=3",
    "run.base_train_iters=30",
    "run.adapt_train_iters=15",
    "run.adapt_learning_rate=3e-4",
    "cma.parent_count=4",
    "ppo.reward_scale=0.02",
]
# The paper's configuration (n_pop 50, n_env 4000) with one outer iteration
# of four PPO iterations: 4 x horizon 64 >= episode_length 250, so every
# environment finishes one episode.  With fewer, no design is scored.
STOCK_OVERRIDES = ["cma.max_iterations=1", "run.base_train_iters=4"]
# Stock population for a few hundred outer iterations; a synthetic fitness
# replaces the env and the policy, leaving CMA-ES and the checkpoint.
EVO_OVERRIDES = ["cma.max_iterations=200"]

DETERMINISM_FILES = ("evolution.csv", "cma_log.csv", "policies/best.bin")
RESUME_FILES = ("evolution.csv", "cma_log.csv", "best_design.csv")


@dataclass
class Unit:
    """Outcome of one timed unit."""

    run_s: float
    designs: int
    failed: int
    best_fitness: float
    env_steps: int
    run_dir_bytes: int
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # Calibration-kernel seconds measured around the unit (see run.py).
    cal_s: float = float("nan")


def count_nonfinite(history) -> int:
    """Designs whose fitness is +inf or NaN, whether or not marked failed."""
    return sum(int(np.count_nonzero(~np.isfinite(rec.j_pop))) for rec in history)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(path)
        for name in names
    )


def synthetic_fitness(seed: int):
    """Shifted 2-D Rastrigin-style landscape: many local minima, always finite."""
    centre = np.random.default_rng(seed).uniform(1.0, 3.0, 2)

    def f(design) -> float:
        x = design.factors - centre
        return float(np.sum(x * x) + 2.0 * np.sum(1.0 - np.cos(2.0 * np.pi * x)))

    return f


class Workload:
    name = ""
    overrides: list[str] = []
    # Units one invocation needs at least, whatever its time budget.
    min_units = 1
    # Artifacts whose SHA-256 must agree across units of one seed.
    digest_files: tuple[str, ...] = ()

    def config(self, seed: int):
        return parse_config(None, self.overrides + [f"run.seed={seed}"])

    def setup(self, seed: int):
        """Everything before the call into the co-design loop."""
        cfg = self.config(seed)
        cma_init(dataclasses.replace(cfg.cma, seed=cfg.seed))
        expand_designs(cfg.n_pop, cfg.n_env)
        return cfg

    def ppo_iterations(self, cfg) -> int:
        return cfg.base_train_iters + cfg.adapt_train_iters * (cfg.cma.max_iterations - 1)

    def expected_calls(self, cfg) -> dict[str, int]:
        """Traced call counts per unit implied by the configuration."""
        iters = self.ppo_iterations(cfg)
        ppo = cfg.ppo
        return {
            "chinup_env.init.calls": cfg.cma.max_iterations,
            "chinup_env.step.calls": iters * ppo.horizon,
            "ppo.collect_rollouts.calls": iters,
            "policy.policy_forward_batch.calls": iters * (ppo.horizon + 1),
            "policy.loss_and_grads.calls": iters * ppo.epochs * ppo.minibatches,
            "policy.adam_step.calls": iters * ppo.epochs * ppo.minibatches,
            "cma_es.cma_ask.calls": cfg.cma.max_iterations,
            "cma_es.cma_tell.calls": cfg.cma.max_iterations,
        }

    def prepare(self, cfg, work_dir) -> None:
        """Untimed work done once per invocation, before the first unit."""

    def run_unit(self, cfg, out_dir, tracer=None) -> Unit:
        span = tracer.span(RUN_SPAN) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = codesign.run(cfg, out_dir=out_dir)
        except (NumericError, OptimizerDegenerateError) as exc:
            return self._raised(cfg, time.perf_counter() - t0, exc)
        run_s = time.perf_counter() - t0
        return self._finish(cfg, out_dir, run_s, result.history, result.best_fitness)

    def check(self, cfg, unit: Unit, out_dir) -> list[str]:
        return []

    def _designs(self, cfg) -> int:
        return cfg.n_pop * cfg.cma.max_iterations

    def _raised(self, cfg, run_s, exc) -> Unit:
        return Unit(
            run_s=run_s, designs=self._designs(cfg), failed=1, best_fitness=float("nan"),
            env_steps=0, run_dir_bytes=0,
            problems=[f"{self.name}: run raised {type(exc).__name__}: {exc}"],
        )

    def _finish(self, cfg, out_dir, run_s, history, best_fitness) -> Unit:
        unit = Unit(
            run_s=run_s,
            designs=self._designs(cfg),
            failed=count_nonfinite(history),
            best_fitness=best_fitness,
            env_steps=cfg.n_env * cfg.ppo.horizon * self.ppo_iterations(cfg),
            run_dir_bytes=dir_bytes(out_dir),
            digests={f: sha256(os.path.join(out_dir, f)) for f in self.digest_files},
        )
        if len(history) != cfg.cma.max_iterations:
            unit.problems.append(
                f"{self.name}: {len(history)} outer iterations, expected "
                f"{cfg.cma.max_iterations}"
            )
        unit.problems += self.check(cfg, unit, out_dir)
        return unit


class Desk(Workload):
    """Per-call-overhead regime: env step and small-batch loss_and_grads."""

    name = "desk"
    overrides = DESK_OVERRIDES
    # Determinism is checked by comparing the artifacts of two units.
    min_units = 2
    digest_files = DETERMINISM_FILES

    def check(self, cfg, unit, out_dir):
        if unit.failed:
            return [f"desk: {unit.failed} designs with non-finite fitness"]
        return []


class Stock(Workload):
    """Matmul regime: the paper's population and bank at a cut PPO budget."""

    name = "stock"
    overrides = STOCK_OVERRIDES

    def check(self, cfg, unit, out_dir):
        problems = []
        if unit.failed:
            problems.append(
                f"stock: {unit.failed} designs completed no episode or have "
                "non-finite fitness"
            )
        rows = read_learning_curve_csv(os.path.join(out_dir, "learning_curve_iter_0001.csv"))
        if len(rows) != self.ppo_iterations(cfg):
            problems.append(f"stock: learning curve has {len(rows)} rows")
        for row in rows:
            losses = (row["policy_loss"], row["value_loss"], row["entropy"])
            if not np.all(np.isfinite(losses)):
                problems.append(f"stock: non-finite PPO loss at iteration {row['iteration']}")
        return problems


class Evo(Workload):
    """Outer-loop regime: CMA-ES, bookkeeping and checkpoints, stop then resume."""

    name = "evo"
    overrides = EVO_OVERRIDES

    def ppo_iterations(self, cfg) -> int:
        return 0

    def expected_calls(self, cfg):
        calls = dict.fromkeys(super().expected_calls(cfg), 0)
        calls["cma_es.cma_ask.calls"] = cfg.cma.max_iterations
        calls["cma_es.cma_tell.calls"] = cfg.cma.max_iterations
        return calls

    def prepare(self, cfg, work_dir):
        """Straight-through reference run of the same seed, untimed."""
        self.reference = os.path.join(work_dir, "reference")
        codesign.run_ea_corl(cfg, out_dir=self.reference, fitness_fn=synthetic_fitness(cfg.seed))

    def run_unit(self, cfg, out_dir, tracer=None):
        fitness = synthetic_fitness(cfg.seed)
        stop = cfg.cma.max_iterations // 2
        first = tracer.span(RUN_SPAN) if tracer else nullcontext()
        second = tracer.span(RESUME_SPAN) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with first:
                codesign.run_ea_corl(cfg, out_dir=out_dir, fitness_fn=fitness, stop_after=stop)
            with second:
                result = codesign.run_ea_corl(
                    cfg, out_dir=out_dir, fitness_fn=fitness, resume=True
                )
        except (NumericError, OptimizerDegenerateError) as exc:
            return self._raised(cfg, time.perf_counter() - t0, exc)
        run_s = time.perf_counter() - t0
        return self._finish(cfg, out_dir, run_s, result.history, result.best_fitness)

    def check(self, cfg, unit, out_dir):
        problems = []
        for name in RESUME_FILES:
            with open(os.path.join(out_dir, name), "rb") as got, open(
                os.path.join(self.reference, name), "rb"
            ) as want:
                if got.read() != want.read():
                    problems.append(f"evo: resumed {name} differs from a straight-through run")
        if unit.failed:
            problems.append(f"evo: {unit.failed} designs with non-finite fitness")
        return problems


WORKLOADS = {w.name: w for w in (Desk, Stock, Evo)}
