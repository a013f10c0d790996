"""Command-line interface: run / resume / sweep / evaluate.

Configuration is an INI file with sections [run], [design], [cma], [ppo],
[env], [reward].  The keys, their value kinds and their defaults are the
fields of the config dataclasses (CodesignConfig and its sub-configs; see
_keys below and the README); _KINDS gives each kind's parse and format,
and a float must be finite.  Resolution order: dataclass defaults, then
file values (as `section.key=value` items, read by the --set resolver),
then --set overrides, then explicit flags.  The fully resolved config is
echoed to <out>/config.snapshot and hashed; the hash is recorded in
manifest.json, the run's identity, and must match on resume, evaluate and
sweep.  manifest.json is written once, before iteration 1; how far a run
got is checkpoint.json's alone.

The environment variable CODESIGN_THREADS sets the BLAS/OpenMP thread count,
1 if unset; it is applied before numpy is imported, which is why the heavy
modules are imported lazily inside the command functions.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import sys
import time

from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    NumericError,
    OptimizerDegenerateError,
)
from .tables import atomic_write

# Exit codes: 0 the run is complete, 1 error, 3 the run stopped early and
# is resumable (--stop-after, Ctrl-C).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 3

MANIFEST_FILE = "manifest.json"
CONFIG_SNAPSHOT_FILE = "config.snapshot"


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _pair(raw: str) -> tuple[float, float]:
    parts = tuple(_finite(x) for x in raw.split(","))
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parts


def _index_pair(chunk: str) -> tuple[int, int]:
    i, j = chunk.split(":")
    return int(i), int(j)


# Config dataclass field annotation -> (parse, format) of its INI value.
_KINDS = {
    "int": (int, str),
    "float": (_finite, repr),
    "Mode": (str, lambda mode: mode.value),
    "tuple[float, float]": (_pair, lambda pair: ",".join(map(repr, pair))),
    "tuple[str, ...]": (
        lambda raw: tuple(x.strip() for x in raw.split(",") if x.strip()), ",".join
    ),
    "tuple[tuple[int, int], ...]": (
        lambda raw: tuple(_index_pair(x) for x in raw.split(",") if x.strip()),
        lambda pairs: ",".join(f"{i}:{j}" for i, j in pairs),
    ),
}

# Config section -> the CodesignConfig field it sets ([run] sets the outer
# config's own scalar fields).  This order is the config.snapshot layout and
# the order in which the sub-configs are built.
_SECTIONS = {
    "run": None,
    "design": "space",
    "cma": "cma",
    "ppo": "ppo",
    "env": "env",
    "reward": "reward",
}

# CmaEsConfig fields that are not keys: _build_config sets them from
# design.dim, run.n_pop and run.seed.
_CMA_DERIVED = ("dim", "population_size", "seed")


def _keys(cfg):
    """((section, key), annotation, value) per config key of `cfg`.

    The keys are the config dataclasses' fields, in config.snapshot order;
    the reward weights are one float key `w_<term>` per term.
    """
    from .reward import TERM_NAMES

    for section, attr in _SECTIONS.items():
        obj = getattr(cfg, attr) if attr else cfg
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value) or (section == "cma" and f.name in _CMA_DERIVED):
                continue
            if section == "reward" and f.name == "weights":
                for term in TERM_NAMES:
                    yield (section, f"w_{term}"), "float", value[term]
            else:
                yield (section, f.name), f.type, value


@functools.cache
def _schema() -> dict[tuple[str, str], tuple]:
    """(section, key) -> its value kind's (parse, format), in config.snapshot order.

    Built on first use, not at import, because the config dataclasses'
    modules import numpy (see the module docstring).
    """
    from .codesign import CodesignConfig

    return {key: _KINDS[annotation] for key, annotation, _ in _keys(CodesignConfig())}


def _parse_value(skey: tuple[str, str], raw: str):
    parse = _schema()[skey][0]
    try:
        return parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"key {'.'.join(skey)!r}: cannot parse value {raw!r} ({exc})") from None


def _file_items(path: str) -> list[str]:
    """An INI file's keys as `section.key=value` items."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # A parse error's message spans lines (reason, line number, the line).
        raise ConfigError(f"cannot read config file {path}: {' '.join(str(exc).split())}") from None
    # configparser would copy [DEFAULT]'s keys into every other section.
    if parser.defaults():
        raise ConfigError(f"config file {path}: section [{parser.default_section}] is not "
                          f"supported; put each key in its own section")
    return [f"{section}.{key}={raw}" for section in parser.sections()
            for key, raw in parser.items(section)]


def _apply_overrides(values: dict, overrides: list[str]) -> None:
    """Resolve each `key=value` item into `values`; a later item wins."""
    schema = _schema()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        key = ".".join(part.strip() for part in key.split("."))
        # A key is `section.key`, or a bare key that names one section's key.
        matches = [sk for sk in schema if key in (f"{sk[0]}.{sk[1]}", sk[1])]
        if not matches:
            raise ConfigError(f"unknown config key {key!r}")
        if len(matches) > 1:
            names = ", ".join(f"{s}.{k}" for s, k in matches)
            raise ConfigError(f"ambiguous config key {key!r}; use one of: {names}")
        values[matches[0]] = _parse_value(matches[0], raw)


def _build_config(values: dict):
    """Resolve a CodesignConfig: the dataclass defaults overlaid with `values`."""
    from .codesign import CodesignConfig, Mode

    keys = {section: {} for section in _SECTIONS}
    for (section, key), value in values.items():
        keys[section][key] = value
    defaults = CodesignConfig()
    run = keys.pop("run")
    parts = {}
    for section, kwargs in keys.items():
        default = getattr(defaults, _SECTIONS[section])
        if section == "cma":
            kwargs.update(
                dim=parts["space"].dim,
                population_size=run.get("n_pop", defaults.n_pop),
                seed=run.get("seed", defaults.seed),
            )
        elif section == "reward":
            kwargs["weights"] = {
                term: kwargs.pop(f"w_{term}", weight)
                for term, weight in default.weights.items()
            }
        parts[_SECTIONS[section]] = dataclasses.replace(default, **kwargs)
    if "mode" in run:
        run["mode"] = Mode.parse(run["mode"])
    return dataclasses.replace(defaults, **parts, **run)


def render_config(cfg) -> str:
    """Canonical text form of a resolved config (the config.snapshot body)."""
    sections: dict[str, list[str]] = {}
    for (section, key), annotation, value in _keys(cfg):
        line = f"{key} = {_KINDS[annotation][1](value)}"
        sections.setdefault(section, [f"[{section}]"]).append(line)
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def config_hash(cfg) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()


def parse_config(path: str | None, overrides: list[str] | None = None):
    """Resolve a CodesignConfig from defaults, an optional file, and overrides."""
    values: dict[tuple[str, str], object] = {}
    _apply_overrides(values, (_file_items(path) if path is not None else []) + (overrides or []))
    return _build_config(values)


# --- manifest ----------------------------------------------------------------


def _write_text(out_dir: str, name: str, text: str) -> None:
    atomic_write(os.path.join(out_dir, name), lambda p: pathlib.Path(p).write_text(text))


def _read_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        raise CheckpointError(f"missing manifest: {path}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise CheckpointError(f"corrupt manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt manifest {path}: not a JSON object")
    for key in ("config_hash", "run_id"):
        if not isinstance(manifest.get(key), str):
            raise CheckpointError(
                f"corrupt manifest {path}: {key} must be a string, got {manifest.get(key)!r:.40}"
            )
    return manifest


# --- commands ----------------------------------------------------------------


def _run_and_report(cfg, out_dir: str, label: str, **run_kwargs) -> int:
    """Run (or resume) the co-design loop, print how far it got, return the exit code.

    A Ctrl-C leaves the run resumable from its last commit.
    """
    from . import codesign

    try:
        result = codesign.run(cfg, out_dir=out_dir, **run_kwargs)
    except KeyboardInterrupt:
        print(f"interrupted; resume with: gearevo resume {out_dir}", file=sys.stderr)
        return EXIT_PARTIAL
    print(
        f"{label}: {len(result.history)} iterations, "
        f"best fitness {result.best_fitness:.6g}"
    )
    return EXIT_OK if result.completed else EXIT_PARTIAL


def cmd_run(args) -> int:
    # Explicit flags resolve last, after the file and the --set overrides.
    overrides = list(args.set or [])
    if args.mode is not None:
        overrides.append(f"run.mode={args.mode}")
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.iterations is not None:
        overrides.append(f"cma.max_iterations={args.iterations}")
    if args.stop_after is not None and args.stop_after < 1:
        raise ConfigError(f"--stop-after must be at least 1, got {args.stop_after}")
    cfg = parse_config(args.config, overrides)

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    text = render_config(cfg)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    _write_text(out_dir, CONFIG_SNAPSHOT_FILE, text)
    manifest = {
        "run_id": f"{digest[:12]}-s{cfg.seed}",
        "config_hash": digest,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    _write_text(out_dir, MANIFEST_FILE, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return _run_and_report(cfg, out_dir, cfg.mode.value, stop_after=args.stop_after)


def _open_run(run_dir: str):
    """Config of a run directory whose config.snapshot matches its manifest's hash."""
    manifest = _read_manifest(run_dir)
    cfg = parse_config(os.path.join(run_dir, CONFIG_SNAPSHOT_FILE))
    digest = config_hash(cfg)
    if digest != manifest["config_hash"]:
        raise CheckpointError(
            f"config hash mismatch in {run_dir}: manifest has "
            f"{manifest['config_hash'][:12]}, config.snapshot resolves to "
            f"{digest[:12]}; refusing to open the run"
        )
    return cfg


def cmd_resume(args) -> int:
    cfg = _open_run(args.run_dir)
    return _run_and_report(cfg, args.run_dir, f"resumed {cfg.mode.value}", resume=True)


def _load_run(run_dir: str):
    """Config, best policy and best design of the run's last committed iteration."""
    from .codesign import read_run

    cfg = _open_run(run_dir)
    commit, _, _, params_best = read_run(cfg, run_dir)
    return cfg, params_best, commit.d_star


def cmd_sweep(args) -> int:
    import itertools

    from . import codesign

    cfg, params, fixed = _load_run(args.run_dir)
    dim = cfg.space.dim
    if args.axes == "all":
        pairs = list(itertools.combinations(range(dim), 2))
    else:
        try:
            a_raw, b_raw = args.axes.split(",")
            a, b = int(a_raw), int(b_raw)
        except ValueError:
            raise ConfigError(
                f"--axes expects 'all' or an 'a,b' integer pair, got {args.axes!r}"
            )
        pairs = [(a, b)]
    for a, b in pairs:
        grid = codesign.heatmap_sweep(cfg, params, a, b, args.resolution, fixed=fixed)
        path = os.path.join(args.run_dir, f"heatmap_{a}_{b}.csv")
        atomic_write(path, lambda p: codesign.write_heatmap_csv(grid, a, b, p))
        print(f"wrote {path} ({len(grid)} cells)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import codesign
    from .chinup_env import rollout_trajectory, write_trajectory_csv
    from .design_space import DesignVector, clamp_to_bounds, expand_designs
    from .policy import policy_forward_batch, rollout_work
    from .reward import write_breakdown_csv

    if args.episodes is not None and args.episodes < 1:
        raise ConfigError(f"--episodes must be at least 1, got {args.episodes}")
    cfg, params, design = _load_run(args.run_dir)
    if args.design is not None:
        try:
            factors = np.array([float(x) for x in args.design.split(",")])
        except ValueError:
            raise ConfigError(
                f"--design expects comma-separated numbers, got {args.design!r}"
            )
        design = DesignVector(factors)
    elif design is None:
        raise CheckpointError(f"{args.run_dir}: no committed best design; pass --design")
    design = DesignVector(clamp_to_bounds(design.factors, cfg.space))
    episodes = args.episodes or expand_designs(cfg.n_pop, cfg.n_env).n_exp
    returns = codesign.rollout_returns(
        cfg.env, cfg.reward, params, design, episodes, args.seed
    )
    fitness = float(-np.mean(returns))
    factors = ", ".join(f"{x:.6g}" for x in design.factors)
    print(
        f"design [{factors}]: fitness {fitness:.6g}, "
        f"mean return {np.mean(returns):.6g} +- {np.std(returns):.6g} "
        f"({episodes} episodes)"
    )
    if args.dump_trajectory or args.dump_rewards:
        work = rollout_work(params, design.factors[None, :])

        def mean_action(proprio, dsn):
            means, _ = policy_forward_batch(params, dsn.factors[None, :], proprio[None, :], work)
            return means[0]

        rows, _, breakdowns = rollout_trajectory(
            cfg.env, design, cfg.reward, mean_action, args.seed
        )
        if args.dump_trajectory:
            atomic_write(args.dump_trajectory, lambda p: write_trajectory_csv(rows, p))
            print(f"wrote {args.dump_trajectory}")
        if args.dump_rewards:
            atomic_write(args.dump_rewards, lambda p: write_breakdown_csv(breakdowns, p))
            print(f"wrote {args.dump_rewards}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gearevo",
        description="Evolutionary actuator/policy co-design on a planar chin-up task",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="start a co-design run")
    p_run.add_argument("--config", default=None, help="INI config file")
    p_run.add_argument("--mode", choices=["ea-corl", "pt-ft"], default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True, help="run directory")
    p_run.add_argument("--iterations", type=int, default=None,
                       help="override evolution iteration count")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override (repeatable)")
    p_run.add_argument("--stop-after", type=int, default=None,
                       help="stop after this outer iteration (resumable)")
    p_run.set_defaults(func=cmd_run)

    p_resume = sub.add_parser("resume", help="continue an interrupted run")
    p_resume.add_argument("run_dir")
    p_resume.set_defaults(func=cmd_resume)

    p_sweep = sub.add_parser("sweep", help="fitness heatmap over design axes")
    p_sweep.add_argument("run_dir")
    p_sweep.add_argument("--axes", default="all", help="'all' or 'a,b' axis pair")
    p_sweep.add_argument("--resolution", type=int, default=5)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("evaluate", help="rollout-only evaluation of a design")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("--design", default=None, help="comma-separated factors")
    p_eval.add_argument("--episodes", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--dump-trajectory", default=None, metavar="CSV")
    p_eval.add_argument("--dump-rewards", default=None, metavar="CSV")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def _apply_thread_cap() -> None:
    cap = os.environ.get("CODESIGN_THREADS") or "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        CheckpointError,
        ContractError,
        DimensionError,
        NumericError,
        OptimizerDegenerateError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
