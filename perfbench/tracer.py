"""Call-site tracer for gearevo's layers.

`Tracer.installed(TARGETS)` swaps each listed function for a timing
wrapper at every module binding that refers to it.  Swapping only the
defining module would miss most calls: `from .policy import loss_and_grads`
copies the function into `gearevo.ppo`, and `ppo_update` looks it up
there.  Methods are swapped on their class.  Nothing under `src/` is edited;
`uninstall` puts every original back.

Spans (name, start, end, parent, time covered by child spans) are kept in
memory; `layer_metrics` turns them into the per-layer metrics the benchmark
reports, and `dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, hook=None):
        """`fn` recording a span per call; `hook(tracer, args, result)` after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        for module_name, attr, name, hook in targets:
            owner = importlib.import_module(module_name)
            cls_name, _, leaf = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                bindings = [(owner, leaf)]
                original = vars(owner)[leaf]
            else:
                original = getattr(owner, leaf)
                bindings = _module_bindings(original)
            traced = self.wrap(original, name, hook)
            for binding_owner, binding_name in bindings:
                self._patches.append((binding_owner, binding_name, original))
                setattr(binding_owner, binding_name, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counters": self.counters}, fh
            )


def _module_bindings(obj) -> list[tuple[object, str]]:
    """Every (module, name) in the gearevo package bound to `obj`."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "gearevo" or mod_name.startswith("gearevo.")):
            continue
        for name, value in vars(module).items():
            if value is obj:
                out.append((module, name))
    return out


# --- gearevo's traced layers --------------------------------------------------


def _count_episodes(tracer, args, result) -> None:
    completed = result[2]
    tracer.count("chinup_env.episodes", len(completed))
    tracer.count("chinup_env.diverged_episodes", sum(e.failed for e in completed))


def _count_rows(tracer, args, result) -> None:
    tracer.count("policy.loss_and_grads.rows", len(args[1]["proprio"]))


def _count_bytes(tracer, args, result) -> None:
    tracer.count("policy.save_policy.bytes", os.path.getsize(args[1]))


# (module, attribute, span name, hook).  The benchmark itself opens the
# `codesign.run` span around each call into the co-design loop.
TARGETS = [
    ("gearevo.chinup_env", "VecChinupEnv.__init__", "chinup_env.init", None),
    ("gearevo.chinup_env", "VecChinupEnv.step", "chinup_env.step", _count_episodes),
    ("gearevo.reward", "reward_terms", "reward.reward_terms", None),
    ("gearevo.policy", "loss_and_grads", "policy.loss_and_grads", _count_rows),
    ("gearevo.policy", "policy_forward_batch", "policy.policy_forward_batch", None),
    ("gearevo.policy", "sample_action", "policy.sample_action", None),
    ("gearevo.policy", "adam_step", "policy.adam_step", None),
    ("gearevo.policy", "save_policy", "policy.save_policy", _count_bytes),
    ("gearevo.ppo", "collect_rollouts", "ppo.collect_rollouts", None),
    ("gearevo.ppo", "compute_gae", "ppo.compute_gae", None),
    ("gearevo.ppo", "ppo_update", "ppo.ppo_update", None),
    ("gearevo.cma_es", "cma_ask", "cma_es.cma_ask", None),
    ("gearevo.cma_es", "cma_tell", "cma_es.cma_tell", None),
    ("gearevo.codesign", "evaluate_population", "codesign.evaluate_population", None),
    ("gearevo.codesign", "write_evolution_csv", "codesign.write_evolution_csv", None),
]

RUN_SPAN = "codesign.run"
RESUME_SPAN = "codesign.run.resume"

# Busy-time stats reported per span name: "calls", "s" and "self_s".
SPAN_STATS = {
    "chinup_env.step": ("calls", "s", "self_s"),
    "chinup_env.init": ("calls", "s"),
    "reward.reward_terms": ("calls", "s"),
    "policy.loss_and_grads": ("calls", "s"),
    "policy.policy_forward_batch": ("calls", "s"),
    "policy.sample_action": ("s",),
    "policy.adam_step": ("calls", "s"),
    "policy.save_policy": ("calls", "s"),
    "ppo.collect_rollouts": ("calls", "s", "self_s"),
    "ppo.compute_gae": ("s",),
    "ppo.ppo_update": ("calls", "s", "self_s"),
    "cma_es.cma_ask": ("calls", "s"),
    "cma_es.cma_tell": ("calls", "s"),
    "codesign.write_evolution_csv": ("s",),
    "codesign.evaluate_population": ("s",),
}
COUNTERS = (
    "chinup_env.episodes",
    "chinup_env.diverged_episodes",
    "policy.loss_and_grads.rows",
    "policy.save_policy.bytes",
)
# (percentile, d): n / d samples lie beyond the percentile of n samples.
TAIL_LADDER = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000))


def tail_percentile(samples) -> tuple[float, float]:
    """(p, value) for the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies; the maximum is
    reported as p = 100.
    """
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    eligible = [p for p, d in TAIL_LADDER if n >= 10 * d]
    if not eligible:
        return 100.0, float(np.max(samples))
    p = eligible[-1]
    return p, float(np.percentile(samples, p))


def _iteration_samples(spans: list[Span]) -> dict[str, list[float]]:
    """Per-PPO-iteration and per-outer-iteration wall times from the spans.

    A PPO iteration runs from a `collect_rollouts` start to the end of the
    `ppo_update` that follows it.  An outer iteration runs from one
    `cma_ask` start to the next, or to the end of its `codesign.run` span.
    """
    ppo_iters: list[float] = []
    outer_iters: list[float] = []
    rollout_start = None
    asks: list[float] = []
    for span in spans:
        if span.name == "ppo.collect_rollouts":
            rollout_start = span.start
        elif span.name == "ppo.ppo_update" and rollout_start is not None:
            ppo_iters.append(span.end - rollout_start)
            rollout_start = None
        elif span.name == "cma_es.cma_ask":
            asks.append(span.start)
    for run in (s for s in spans if s.name in (RUN_SPAN, RESUME_SPAN)):
        inside = [t for t in asks if run.start <= t <= run.end]
        bounds = inside + [run.end]
        outer_iters.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return {"ppo.iter_s": ppo_iters, "codesign.outer_iter_s": outer_iters}


def layer_metrics(tracer: Tracer, n_units: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced workload unit.

    Timing distributions pool every unit's samples; `.n` is the pooled count.
    """
    spans = tracer.spans
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += span.duration
        t["self_s"] += span.self_s

    def total(name: str, stat: str) -> float:
        return totals.get(name, {}).get(stat, 0.0)

    out: dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = total(name, stat) / n_units
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0) / n_units

    run_s = total(RUN_SPAN, "s") + total(RESUME_SPAN, "s")
    out["codesign.self_s"] = (
        run_s
        - total("codesign.evaluate_population", "s")
        - total("cma_es.cma_ask", "s")
        - total("cma_es.cma_tell", "s")
    ) / n_units

    resume_load = 0.0
    asks = [s.start for s in spans if s.name == "cma_es.cma_ask"]
    for run in (s for s in spans if s.name == RESUME_SPAN):
        first = next((t for t in asks if t >= run.start), run.end)
        resume_load += min(first, run.end) - run.start
    out["codesign.resume_load_s"] = resume_load / n_units

    for key, samples in _iteration_samples(spans).items():
        p, tail = tail_percentile(samples)
        out[f"{key}.p50"] = float(np.median(samples)) if samples else 0.0
        out[f"{key}.tail"] = tail
        out[f"{key}.tail_pct"] = p
        out[f"{key}.n"] = len(samples)
    return out
