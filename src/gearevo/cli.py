"""Command-line interface: run / resume / sweep / evaluate.

Configuration is an INI file with sections [run], [design], [cma], [ppo],
[env], [reward]; every hyperparameter maps to a documented key (see
SCHEMA below and the README).  Resolution order: built-in defaults, then
file values, then --set overrides, then explicit flags.  The fully
resolved config is echoed to <out>/config.snapshot and hashed; the hash is
recorded in the run manifest and must match on resume.

The environment variable CODESIGN_THREADS caps numeric worker threads; it
is applied before numpy is imported, which is why the heavy modules are
imported lazily inside the command functions.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time

# Exit codes: 0 success (manifest complete / no-op), 1 error,
# 3 deliberate partial run (resumable, manifest interrupted).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 3

MANIFEST_FILE = "manifest.json"
CONFIG_SNAPSHOT_FILE = "config.snapshot"

_FLOAT = "float"
_INT = "int"
_STR = "str"
_PAIR = "pair"  # two comma-separated floats
_NAMES = "names"  # comma-separated identifiers
_PAIRS = "pairs"  # comma-separated i:j index pairs

# (section, key) -> value kind; insertion order defines the canonical
# config.snapshot layout.
SCHEMA: dict[tuple[str, str], str] = {
    ("run", "mode"): _STR,
    ("run", "seed"): _INT,
    ("run", "n_env"): _INT,
    ("run", "n_pop"): _INT,
    ("run", "base_train_iters"): _INT,
    ("run", "adapt_train_iters"): _INT,
    ("run", "adapt_learning_rate"): _FLOAT,
    ("design", "dim"): _INT,
    ("design", "lower_bound"): _FLOAT,
    ("design", "upper_bound"): _FLOAT,
    ("cma", "initial_mean"): _FLOAT,
    ("cma", "initial_sigma"): _FLOAT,
    ("cma", "parent_count"): _INT,
    ("cma", "max_iterations"): _INT,
    ("ppo", "gamma"): _FLOAT,
    ("ppo", "gae_lambda"): _FLOAT,
    ("ppo", "clip_epsilon"): _FLOAT,
    ("ppo", "epochs"): _INT,
    ("ppo", "minibatches"): _INT,
    ("ppo", "value_coef"): _FLOAT,
    ("ppo", "entropy_coef"): _FLOAT,
    ("ppo", "learning_rate"): _FLOAT,
    ("ppo", "horizon"): _INT,
    ("ppo", "reward_scale"): _FLOAT,
    ("env", "m1"): _FLOAT,
    ("env", "m2"): _FLOAT,
    ("env", "l1"): _FLOAT,
    ("env", "l2"): _FLOAT,
    ("env", "gravity"): _FLOAT,
    ("env", "dt_sim"): _FLOAT,
    ("env", "decimation"): _INT,
    ("env", "episode_length"): _INT,
    ("env", "tau_default"): _PAIR,
    ("env", "qdot_default"): _PAIR,
    ("env", "kp"): _FLOAT,
    ("env", "kd"): _FLOAT,
    ("env", "goal"): _PAIR,
    ("env", "q_min"): _PAIR,
    ("env", "q_max"): _PAIR,
    ("env", "reset_noise"): _FLOAT,
    ("env", "cyl_gap"): _FLOAT,
    ("env", "qdot_obs_scale"): _FLOAT,
    ("env", "sym_pairs"): _PAIRS,
    ("reward", "w_chinup"): _FLOAT,
    ("reward", "w_hollow_cylinder"): _FLOAT,
    ("reward", "w_base_position"): _FLOAT,
    ("reward", "w_joint_regularization"): _FLOAT,
    ("reward", "w_orientation"): _FLOAT,
    ("reward", "w_torque"): _FLOAT,
    ("reward", "w_joint_acceleration"): _FLOAT,
    ("reward", "w_action_rate"): _FLOAT,
    ("reward", "w_joint_position_limit"): _FLOAT,
    ("reward", "w_joint_velocity_limit"): _FLOAT,
    ("reward", "w_joint_torque_limit"): _FLOAT,
    ("reward", "active"): _NAMES,
    ("reward", "cyl_window"): _PAIR,
    ("reward", "cyl_out_value"): _FLOAT,
    ("reward", "base_out_value"): _FLOAT,
}


def _config_error(message: str):
    from .errors import ConfigError

    raise ConfigError(message)


def _parse_value(kind: str, raw: str, key: str):
    from .errors import ConfigError

    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _STR:
            return raw.strip()
        if kind == _PAIR:
            parts = [float(x) for x in raw.split(",")]
            if len(parts) != 2:
                _config_error(f"key {key!r} expects two comma-separated numbers")
            return tuple(parts)
        if kind == _NAMES:
            return tuple(x.strip() for x in raw.split(",") if x.strip())
        if kind == _PAIRS:
            pairs = []
            for chunk in raw.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                i, j = chunk.split(":")
                pairs.append((int(i), int(j)))
            return tuple(pairs)
    except ConfigError:
        raise
    except ValueError:
        _config_error(f"key {key!r}: cannot parse value {raw!r} as {kind}")
    raise AssertionError(f"unhandled kind {kind}")


def _read_config_file(path: str) -> dict[tuple[str, str], object]:
    if not os.path.exists(path):
        _config_error(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    values: dict[tuple[str, str], object] = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            skey = (section, key)
            if skey not in SCHEMA:
                _config_error(f"unknown config key [{section}] {key!r}")
            values[skey] = _parse_value(SCHEMA[skey], raw, f"{section}.{key}")
    return values


def _apply_overrides(values: dict, overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item:
            _config_error(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if "." in key:
            section, name = key.split(".", 1)
            skey = (section.strip(), name.strip())
            if skey not in SCHEMA:
                _config_error(f"unknown config key {key!r}")
        else:
            matches = [sk for sk in SCHEMA if sk[1] == key]
            if not matches:
                _config_error(f"unknown config key {key!r}")
            if len(matches) > 1:
                names = ", ".join(f"{s}.{k}" for s, k in matches)
                _config_error(f"ambiguous config key {key!r}; use one of: {names}")
            skey = matches[0]
        values[skey] = _parse_value(SCHEMA[skey], raw.strip(), key)


def _build_config(values: dict):
    """Construct the resolved CodesignConfig from a (section,key)->value map."""
    from .chinup_env import EnvConfig
    from .cma_es import CmaEsConfig
    from .codesign import CodesignConfig, Mode
    from .design_space import DesignSpace
    from .ppo import PpoConfig
    from .reward import DEFAULT_ACTIVE, DEFAULT_WEIGHTS, RewardConfig

    def get(section, key, default):
        return values.get((section, key), default)

    seed = get("run", "seed", 0)
    n_pop = get("run", "n_pop", 50)
    dim = get("design", "dim", 2)
    space = DesignSpace(
        dim=dim,
        lower_bound=get("design", "lower_bound", 0.5),
        upper_bound=get("design", "upper_bound", 4.0),
    )
    cma = CmaEsConfig(
        dim=dim,
        initial_mean=get("cma", "initial_mean", 0.2),
        initial_sigma=get("cma", "initial_sigma", 0.3),
        population_size=n_pop,
        parent_count=get("cma", "parent_count", 10),
        max_iterations=get("cma", "max_iterations", 50),
        seed=seed,
    )
    ppo = PpoConfig(
        gamma=get("ppo", "gamma", 0.99),
        gae_lambda=get("ppo", "gae_lambda", 0.95),
        clip_epsilon=get("ppo", "clip_epsilon", 0.2),
        epochs=get("ppo", "epochs", 4),
        minibatches=get("ppo", "minibatches", 4),
        value_coef=get("ppo", "value_coef", 0.5),
        entropy_coef=get("ppo", "entropy_coef", 0.005),
        learning_rate=get("ppo", "learning_rate", 3e-4),
        horizon=get("ppo", "horizon", 64),
        reward_scale=get("ppo", "reward_scale", 1.0),
    )
    env_defaults = EnvConfig()
    env = EnvConfig(
        m1=get("env", "m1", env_defaults.m1),
        m2=get("env", "m2", env_defaults.m2),
        l1=get("env", "l1", env_defaults.l1),
        l2=get("env", "l2", env_defaults.l2),
        gravity=get("env", "gravity", env_defaults.gravity),
        dt_sim=get("env", "dt_sim", env_defaults.dt_sim),
        decimation=get("env", "decimation", env_defaults.decimation),
        episode_length=get("env", "episode_length", env_defaults.episode_length),
        tau_default=get("env", "tau_default", env_defaults.tau_default),
        qdot_default=get("env", "qdot_default", env_defaults.qdot_default),
        kp=get("env", "kp", env_defaults.kp),
        kd=get("env", "kd", env_defaults.kd),
        goal=get("env", "goal", env_defaults.goal),
        q_min=get("env", "q_min", env_defaults.q_min),
        q_max=get("env", "q_max", env_defaults.q_max),
        reset_noise=get("env", "reset_noise", env_defaults.reset_noise),
        cyl_gap=get("env", "cyl_gap", env_defaults.cyl_gap),
        qdot_obs_scale=get("env", "qdot_obs_scale", env_defaults.qdot_obs_scale),
        sym_pairs=get("env", "sym_pairs", env_defaults.sym_pairs),
    )
    weights = dict(DEFAULT_WEIGHTS)
    for term in weights:
        weights[term] = get("reward", f"w_{term}", weights[term])
    reward = RewardConfig(
        weights=weights,
        active=get("reward", "active", DEFAULT_ACTIVE),
        cyl_window=get("reward", "cyl_window", (0.5, 0.8)),
        cyl_out_value=get("reward", "cyl_out_value", 10.0),
        base_out_value=get("reward", "base_out_value", 20.0),
    )
    return CodesignConfig(
        mode=Mode.parse(get("run", "mode", "ea-corl")),
        cma=cma,
        ppo=ppo,
        env=env,
        reward=reward,
        space=space,
        n_env=get("run", "n_env", 4000),
        n_pop=n_pop,
        base_train_iters=get("run", "base_train_iters", 5000),
        adapt_train_iters=get("run", "adapt_train_iters", 2500),
        adapt_learning_rate=get("run", "adapt_learning_rate", 1e-5),
        seed=seed,
    )


def _format_value(kind: str, value) -> str:
    if kind == _INT:
        return str(int(value))
    if kind == _FLOAT:
        return repr(float(value))
    if kind == _STR:
        return str(value)
    if kind == _PAIR:
        return ",".join(repr(float(x)) for x in value)
    if kind == _NAMES:
        return ",".join(value)
    if kind == _PAIRS:
        return ",".join(f"{i}:{j}" for i, j in value)
    raise AssertionError(f"unhandled kind {kind}")


def _config_values(cfg) -> dict[tuple[str, str], object]:
    """Read every schema key back out of a resolved CodesignConfig."""
    values = {
        ("run", "mode"): cfg.mode.value,
        ("run", "seed"): cfg.seed,
        ("run", "n_env"): cfg.n_env,
        ("run", "n_pop"): cfg.n_pop,
        ("run", "base_train_iters"): cfg.base_train_iters,
        ("run", "adapt_train_iters"): cfg.adapt_train_iters,
        ("run", "adapt_learning_rate"): cfg.adapt_learning_rate,
        ("design", "dim"): cfg.space.dim,
        ("design", "lower_bound"): cfg.space.lower_bound,
        ("design", "upper_bound"): cfg.space.upper_bound,
        ("cma", "initial_mean"): cfg.cma.initial_mean,
        ("cma", "initial_sigma"): cfg.cma.initial_sigma,
        ("cma", "parent_count"): cfg.cma.parent_count,
        ("cma", "max_iterations"): cfg.cma.max_iterations,
        ("ppo", "gamma"): cfg.ppo.gamma,
        ("ppo", "gae_lambda"): cfg.ppo.gae_lambda,
        ("ppo", "clip_epsilon"): cfg.ppo.clip_epsilon,
        ("ppo", "epochs"): cfg.ppo.epochs,
        ("ppo", "minibatches"): cfg.ppo.minibatches,
        ("ppo", "value_coef"): cfg.ppo.value_coef,
        ("ppo", "entropy_coef"): cfg.ppo.entropy_coef,
        ("ppo", "learning_rate"): cfg.ppo.learning_rate,
        ("ppo", "horizon"): cfg.ppo.horizon,
        ("ppo", "reward_scale"): cfg.ppo.reward_scale,
        ("env", "m1"): cfg.env.m1,
        ("env", "m2"): cfg.env.m2,
        ("env", "l1"): cfg.env.l1,
        ("env", "l2"): cfg.env.l2,
        ("env", "gravity"): cfg.env.gravity,
        ("env", "dt_sim"): cfg.env.dt_sim,
        ("env", "decimation"): cfg.env.decimation,
        ("env", "episode_length"): cfg.env.episode_length,
        ("env", "tau_default"): cfg.env.tau_default,
        ("env", "qdot_default"): cfg.env.qdot_default,
        ("env", "kp"): cfg.env.kp,
        ("env", "kd"): cfg.env.kd,
        ("env", "goal"): cfg.env.goal,
        ("env", "q_min"): cfg.env.q_min,
        ("env", "q_max"): cfg.env.q_max,
        ("env", "reset_noise"): cfg.env.reset_noise,
        ("env", "cyl_gap"): cfg.env.cyl_gap,
        ("env", "qdot_obs_scale"): cfg.env.qdot_obs_scale,
        ("env", "sym_pairs"): cfg.env.sym_pairs,
        ("reward", "active"): cfg.reward.active,
        ("reward", "cyl_window"): cfg.reward.cyl_window,
        ("reward", "cyl_out_value"): cfg.reward.cyl_out_value,
        ("reward", "base_out_value"): cfg.reward.base_out_value,
    }
    for term, weight in cfg.reward.weights.items():
        values[("reward", f"w_{term}")] = weight
    return values


def render_config(cfg) -> str:
    """Canonical text form of a resolved config (the config.snapshot body)."""
    values = _config_values(cfg)
    lines = []
    current_section = None
    for (section, key), kind in SCHEMA.items():
        if section != current_section:
            if current_section is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current_section = section
        lines.append(f"{key} = {_format_value(kind, values[(section, key)])}")
    return "\n".join(lines) + "\n"


def config_hash(cfg) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()


def parse_config(path: str | None, overrides: list[str] | None = None):
    """Resolve a CodesignConfig from defaults, an optional file, and overrides."""
    values: dict[tuple[str, str], object] = {}
    if path is not None:
        values.update(_read_config_file(path))
    _apply_overrides(values, overrides or [])
    return _build_config(values)


# --- manifest ----------------------------------------------------------------


def _write_manifest(out_dir: str, manifest: dict) -> None:
    path = os.path.join(out_dir, MANIFEST_FILE)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _read_manifest(out_dir: str) -> dict:
    path = os.path.join(out_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        from .errors import CheckpointError

        raise CheckpointError(f"missing manifest: {path}")
    with open(path) as fh:
        return json.load(fh)


# --- commands ----------------------------------------------------------------


def _interrupted(out_dir: str, manifest: dict) -> int:
    """Record a Ctrl-C in the manifest; the run stays resumable."""
    manifest["status"] = "interrupted"
    manifest["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write_manifest(out_dir, manifest)
    print(f"interrupted; resume with: gearevo resume {out_dir}", file=sys.stderr)
    return EXIT_PARTIAL


def cmd_run(args) -> int:
    from . import codesign

    overrides = list(args.set or [])
    cfg = parse_config(args.config, overrides)
    replacements = {}
    if args.mode is not None:
        replacements[("run", "mode")] = args.mode
    if args.seed is not None:
        replacements[("run", "seed")] = str(args.seed)
    if args.iterations is not None:
        replacements[("cma", "max_iterations")] = str(args.iterations)
    if replacements:
        extra = [f"{s}.{k}={v}" for (s, k), v in replacements.items()]
        cfg = parse_config(args.config, overrides + extra)

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    text = render_config(cfg)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    with open(os.path.join(out_dir, CONFIG_SNAPSHOT_FILE), "w") as fh:
        fh.write(text)
    manifest = {
        "run_id": f"{digest[:12]}-s{cfg.seed}",
        "config_hash": digest,
        "seed": cfg.seed,
        "mode": cfg.mode.value,
        "max_iterations": cfg.cma.max_iterations,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "status": "running",
        "iterations_done": 0,
    }
    _write_manifest(out_dir, manifest)
    try:
        result = codesign.run(cfg, out_dir=out_dir, stop_after=args.stop_after)
    except KeyboardInterrupt:
        return _interrupted(out_dir, manifest)
    manifest["iterations_done"] = len(result.history)
    manifest["status"] = "complete" if result.completed else "interrupted"
    manifest["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest["best_fitness"] = result.best_fitness
    manifest["wall_time_s"] = result.wall_time_s
    _write_manifest(out_dir, manifest)
    print(
        f"{cfg.mode.value}: {len(result.history)} iterations, "
        f"best fitness {result.best_fitness:.6g}"
    )
    return EXIT_OK if result.completed else EXIT_PARTIAL


def cmd_resume(args) -> int:
    from . import codesign
    from .errors import CheckpointError

    out_dir = args.run_dir
    manifest = _read_manifest(out_dir)
    snapshot = os.path.join(out_dir, CONFIG_SNAPSHOT_FILE)
    cfg = parse_config(snapshot)
    digest = config_hash(cfg)
    if digest != manifest["config_hash"]:
        raise CheckpointError(
            f"config hash mismatch in {out_dir}: manifest has "
            f"{manifest['config_hash'][:12]}, config.snapshot resolves to "
            f"{digest[:12]}; refusing to resume"
        )
    if manifest.get("status") == "complete":
        print(f"run {manifest['run_id']} already complete; nothing to do")
        return EXIT_OK
    try:
        result = codesign.run(cfg, out_dir=out_dir, resume=True)
    except KeyboardInterrupt:
        return _interrupted(out_dir, manifest)
    manifest["iterations_done"] = len(result.history)
    manifest["status"] = "complete" if result.completed else "interrupted"
    manifest["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest["best_fitness"] = result.best_fitness
    manifest["wall_time_s"] = result.wall_time_s
    _write_manifest(out_dir, manifest)
    print(
        f"resumed {cfg.mode.value}: {len(result.history)} iterations, "
        f"best fitness {result.best_fitness:.6g}"
    )
    return EXIT_OK if result.completed else EXIT_PARTIAL


def _load_run(out_dir: str):
    """Config, best policy and best design of the run's last committed iteration."""
    from .codesign import load_committed_best

    cfg = parse_config(os.path.join(out_dir, CONFIG_SNAPSHOT_FILE))
    params, d_star = load_committed_best(out_dir)
    return cfg, params, d_star


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
            _config_error(
                f"--axes expects 'all' or an 'a,b' integer pair, got {args.axes!r}"
            )
        pairs = [(a, b)]
    for a, b in pairs:
        grid = codesign.heatmap_sweep(cfg, params, a, b, args.resolution, fixed=fixed)
        path = os.path.join(args.run_dir, f"heatmap_{a}_{b}.csv")
        codesign.write_heatmap_csv(grid, a, b, path)
        print(f"wrote {path} ({len(grid)} cells)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import codesign
    from .chinup_env import rollout_trajectory, write_trajectory_csv
    from .design_space import DesignVector, clamp_to_bounds
    from .errors import CheckpointError
    from .policy import policy_forward
    from .reward import write_breakdown_csv

    cfg, params, design = _load_run(args.run_dir)
    if args.design is not None:
        try:
            factors = np.array([float(x) for x in args.design.split(",")])
        except ValueError:
            _config_error(
                f"--design expects comma-separated numbers, got {args.design!r}"
            )
        design = DesignVector(factors)
    elif design is None:
        raise CheckpointError(f"{args.run_dir}: no committed best design; pass --design")
    design = clamp_to_bounds(design, cfg.space)
    episodes = args.episodes or cfg.n_env // cfg.n_pop
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
        def mean_action(proprio, dsn):
            dist, _, _ = policy_forward(params, dsn, proprio)
            return dist.mean

        rows, _, breakdowns = rollout_trajectory(
            cfg.env, design, cfg.reward, mean_action, args.seed
        )
        if args.dump_trajectory:
            write_trajectory_csv(rows, args.dump_trajectory)
            print(f"wrote {args.dump_trajectory}")
        if args.dump_rewards:
            write_breakdown_csv(breakdowns, args.dump_rewards)
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
    cap = os.environ.get("CODESIGN_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = cap


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import (
        CheckpointError,
        ConfigError,
        ContractError,
        DimensionError,
        NumericError,
        OptimizerDegenerateError,
    )

    try:
        return args.func(args)
    except (
        ConfigError,
        CheckpointError,
        ContractError,
        DimensionError,
        NumericError,
        OptimizerDegenerateError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
