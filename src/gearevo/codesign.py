"""Evolutionary actuator/policy co-design loop and its frozen-policy baseline.

Outer loop: CMA-ES proposes a population of gear-ratio designs per
iteration.  Inner loop: a shared policy is trained by PPO on environments
expanded from that population, and each design's fitness is the negative
of its mean episode return over a terminal window (lower is better).

Iteration 1 pre-trains the base policy, and every later iteration
fine-tunes from the best snapshot.  The two modes differ only in promotion:

* EA_CORL: the snapshot of an iteration that improves the best population
  fitness so far becomes the best snapshot, so policy improvements
  compound with the evolution.
* PT_FT: no snapshot is promoted, so every iteration fine-tunes from the
  fixed pre-trained base, and the published best policy is the base.

Runs checkpoint every outer iteration into a run directory and can resume
to a byte-identical continuation, as every random stream is derived from
(seed, structural position).  Each iteration appends one history.jsonl
line and commits a small checkpoint.json last, at a cost that does not grow
with the run; both go through one strict codec of their dataclass fields.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .chinup_env import ACTION_DIM, N_JOINTS, PROPRIO_DIM, EnvConfig, VecChinupEnv
from .cma_es import CmaEsConfig, CmaEsState, cma_ask, cma_init, cma_tell
from .design_space import (
    DesignSpace,
    DesignVector,
    clamp_to_bounds,
    expand_designs,
    grid_slice,
    write_designs_csv,
)
from .errors import CheckpointError, ConfigError, DimensionError, NumericError
from .policy import (
    PolicyParams,
    adam_init,
    load_policy,
    policy_init,
    save_policy,
)
from .ppo import PpoConfig, collect_rollouts, train_on_env, write_learning_curve_csv
from .reward import RewardConfig
from .seeding import stream
from .tables import atomic_write, write_table

logger = logging.getLogger("gearevo.codesign")

# 3: PPO updates run the network math in float32, so a version-2 run
# directory (float64 training) would continue under different numerics.
# 4: a history.jsonl record holds its population as one array and no longer
# holds mean_returns, population_best_idx or global_best_design.
CHECKPOINT_VERSION = 4
POLICY_LATENT = 4


class Mode(enum.Enum):
    EA_CORL = "ea-corl"
    PT_FT = "pt-ft"

    @classmethod
    def parse(cls, text: str) -> "Mode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ConfigError(f"unknown mode {text!r}; expected one of "
                          f"{[m.value for m in cls]}")


@dataclass
class CodesignConfig:
    # The scalar fields are the [run] config keys, in config.snapshot order.
    mode: Mode = Mode.EA_CORL
    seed: int = 0
    cma: CmaEsConfig = field(default_factory=CmaEsConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    space: DesignSpace = field(default_factory=DesignSpace)
    n_env: int = 4000
    n_pop: int = 50
    base_train_iters: int = 5000
    adapt_train_iters: int = 2500
    adapt_learning_rate: float = 1e-5

    def __post_init__(self):
        expand_designs(self.n_pop, self.n_env)
        if self.cma.population_size != self.n_pop:
            raise ConfigError(
                f"cma.population_size ({self.cma.population_size}) must equal "
                f"n_pop ({self.n_pop})"
            )
        if self.space.dim != self.cma.dim:
            raise ConfigError(
                f"design space dim ({self.space.dim}) must equal cma dim ({self.cma.dim})"
            )
        # One gear-ratio factor per joint of the chin-up model.
        if self.space.dim != N_JOINTS:
            raise ConfigError(f"design.dim must be {N_JOINTS}, got {self.space.dim}")
        # An empty minibatch gives a non-finite loss, which fails every design.
        if self.ppo.minibatches > self.n_env * self.ppo.horizon:
            raise ConfigError(
                f"ppo.minibatches ({self.ppo.minibatches}) must be at most "
                f"run.n_env x ppo.horizon ({self.n_env} x {self.ppo.horizon})"
            )
        # A phase without a PPO iteration scores no design.
        for key in ("base_train_iters", "adapt_train_iters"):
            if getattr(self, key) < 1:
                raise ConfigError(f"run.{key} must be at least 1, got {getattr(self, key)}")
        if self.adapt_learning_rate < 0.0:
            raise ConfigError(
                f"run.adapt_learning_rate must be >= 0, got {self.adapt_learning_rate}"
            )


@dataclass
class FitnessRecord:
    iteration: int
    designs: np.ndarray
    j_pop: np.ndarray
    population_best_j: float
    global_best_j: float
    snapshot_id: int
    source_snapshot_id: int
    sigma: float
    dist_mean: np.ndarray
    failed: bool = False


@dataclass
class CodesignResult:
    mode: Mode
    best_design: DesignVector
    best_fitness: float
    best_policy: PolicyParams | None
    history: list[FitnessRecord]
    wall_time_s: float
    completed: bool


def evaluate_population(
    cfg: CodesignConfig,
    i: int,
    params_best: PolicyParams | None,
    designs: np.ndarray,
) -> tuple[PolicyParams, int, np.ndarray, list[dict], bool]:
    """Outer iteration `i`'s training phase, and the fitness of each design.

    Iteration 1 pre-trains a fresh policy for base_train_iters at the PPO
    learning rate; later ones adapt `params_best` for adapt_train_iters at
    adapt_learning_rate.  Either phase trains on the chin-up bank expanded
    from `designs`, with phase key `i`.  Returns (the trained snapshot,
    numbered `i`; the source's snapshot id; j_pop; the learning curve;
    failed).  Fitness is the exact negative of each design's terminal-window
    mean return, +inf for a design with no episode.  A numeric training
    failure marks the whole population failed (+inf fitness) and hands back
    the source snapshot, numbered `i`, so the run can continue.
    """
    if i == 1:
        source = policy_init(
            PROPRIO_DIM + POLICY_LATENT, ACTION_DIM, cfg.space.dim, cfg.seed, latent=POLICY_LATENT
        )
        learning_rate, n_iterations = cfg.ppo.learning_rate, cfg.base_train_iters
    else:
        source = params_best
        learning_rate, n_iterations = cfg.adapt_learning_rate, cfg.adapt_train_iters
    if designs.shape != (cfg.n_pop, cfg.space.dim):
        raise DimensionError(f"designs of shape {designs.shape} != ({cfg.n_pop}, {cfg.space.dim})")
    plan = expand_designs(cfg.n_pop, cfg.n_env)
    vec_env = VecChinupEnv(
        config=cfg.env,
        reward_cfg=cfg.reward,
        design_mat=designs[plan.env_to_design],
        env_to_design=plan.env_to_design,
        seed=cfg.seed,
        phase=i,
    )
    try:
        params, curve, per_design = train_on_env(
            source, adam_init(source, learning_rate), vec_env, n_iterations, cfg.ppo, cfg.seed, i
        )
        failed = False
    except NumericError as exc:
        logger.error("population evaluation failed at phase %s: %s", i, exc)
        params, curve, per_design, failed = source, [], np.full(cfg.n_pop, np.nan), True
    j_pop = np.where(np.isnan(per_design), np.inf, -per_design)
    return dataclasses.replace(params, snapshot_id=i), source.snapshot_id, j_pop, curve, failed


def run_ea_corl(
    cfg: CodesignConfig,
    out_dir=None,
    fitness_fn=None,
    stop_after: int | None = None,
    resume: bool = False,
) -> CodesignResult:
    """Co-design with continuous policy adaptation (best-snapshot warm starts).

    `run` for a config in mode ea-corl; a config in any other mode is refused.
    """
    if cfg.mode is not Mode.EA_CORL:
        raise ConfigError("run_ea_corl requires mode ea-corl")
    return run(cfg, out_dir, fitness_fn, stop_after, resume)


def run(
    cfg: CodesignConfig,
    out_dir=None,
    fitness_fn=None,
    stop_after: int | None = None,
    resume: bool = False,
) -> CodesignResult:
    """The co-design loop in cfg.mode, from iteration 1 or from the last commit.

    `out_dir` is the run directory (None: nothing is written); `fitness_fn`,
    if given, scores each design in place of policy training; `stop_after`
    ends the run after that outer iteration; `resume` continues the run
    committed in `out_dir`.  A run stopped before its first commit has
    nothing to continue: its resume starts at iteration 1, through the same
    roll-back to iteration 0 as a fresh run (a legacy checkpoint.pkl is
    still refused).
    """
    t_start = time.monotonic()
    wall_accum = 0.0
    history: list[FitnessRecord] = []
    params_base: PolicyParams | None = None
    params_best: PolicyParams | None = None
    j_star = np.inf
    d_star: DesignVector | None = None

    if resume:
        if out_dir is None:
            raise CheckpointError("resume requires a run directory")
        resume = any(os.path.exists(os.path.join(out_dir, name))
                     for name in (CHECKPOINT_FILE, LEGACY_CHECKPOINT_FILE))
    if resume:
        commit, history, params_base, params_best = read_run(
            cfg, out_dir, load_policies=fitness_fn is None
        )
        state, j_star, d_star = commit.cma_state, commit.j_star, commit.d_star
        wall_accum, start_iter, lengths = commit.wall_time_s, commit.iteration + 1, commit.files
    else:
        state = cma_init(dataclasses.replace(cfg.cma, seed=cfg.seed))
        start_iter, lengths = 1, dict.fromkeys(APPEND_FILES, 0)
        if out_dir is not None:
            # A stale commit record would describe files this run truncates.
            _remove_if_exists(os.path.join(out_dir, CHECKPOINT_FILE))
    if out_dir is not None:
        _roll_back(out_dir, lengths, start_iter - 1, d_star, params_base, params_best)

    last_iter = cfg.cma.max_iterations
    if stop_after is not None:
        last_iter = min(last_iter, stop_after)

    for i in range(start_iter, last_iter + 1):
        samples = cma_ask(state)
        designs = clamp_to_bounds(samples, cfg.space)
        if fitness_fn is None:
            params_i, source_id, j_pop, train_history, failed = evaluate_population(
                cfg, i, params_best, designs
            )
        else:
            params_i, source_id, train_history, failed = None, 0, [], False
            j_pop = np.array([float(fitness_fn(DesignVector(row))) for row in designs])
        if i == 1:
            params_base = params_best = params_i

        best_idx = int(np.argmin(j_pop))
        pop_best = float(j_pop[best_idx])
        if pop_best < j_star:
            j_star = pop_best
            d_star = DesignVector(designs[best_idx])
            if cfg.mode is Mode.EA_CORL:
                params_best = params_i

        state = cma_tell(state, samples, j_pop)

        record = FitnessRecord(
            iteration=i,
            designs=designs,
            j_pop=j_pop,
            population_best_j=pop_best,
            global_best_j=float(j_star),
            snapshot_id=0 if params_best is None else params_best.snapshot_id,
            source_snapshot_id=source_id,
            sigma=state.sigma,
            dist_mean=state.mean.copy(),
            failed=failed,
        )
        history.append(record)

        if out_dir is not None:
            _checkpoint(
                cfg, out_dir, state, record, d_star, wall_accum + (time.monotonic() - t_start),
                params_base, params_best, params_i, train_history,
            )

    completed = last_iter >= cfg.cma.max_iterations
    wall = wall_accum + (time.monotonic() - t_start)
    return CodesignResult(
        mode=cfg.mode,
        best_design=d_star,
        best_fitness=float(j_star),
        best_policy=params_best,
        history=history,
        wall_time_s=wall,
        completed=completed,
    )


# --- run directory layout ---------------------------------------------------

EVOLUTION_FILE = "evolution.csv"
CMA_LOG_FILE = "cma_log.csv"
HISTORY_FILE = "history.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
LEGACY_CHECKPOINT_FILE = "checkpoint.pkl"
POLICY_DIR = "policies"
BEST_DESIGN_FILE = "best_design.csv"
# Files that grow by one record per iteration.  checkpoint.json holds the
# byte length of each at the last commit; resume cuts them back to it.
APPEND_FILES = (EVOLUTION_FILE, CMA_LOG_FILE, HISTORY_FILE)


def _write_json(payload, path) -> None:
    text = json.dumps(payload)  # one string: json's C encoder, not its chunked one
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _remove_if_exists(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


# evolution.csv and cma_log.csv are projections of the history.jsonl records,
# appended one row per record; every cell is a field of it but mean_fitness.


def write_evolution_csv(history: list[FitnessRecord], path) -> None:
    """Fitness trajectory: iteration,population_best,global_best,j_0,..."""
    n_pop = len(history[0].j_pop) if history else 0
    write_table(
        path,
        ["iteration", "population_best", "global_best"] + [f"j_{k}" for k in range(n_pop)],
        ([r.iteration, r.population_best_j, r.global_best_j, *r.j_pop.tolist()] for r in history),
        append=True,
    )


def write_cma_log(history: list[FitnessRecord], path) -> None:
    """CMA-ES trajectory: generation,best_fitness,mean_fitness,sigma,mean_0,..."""
    dim = len(history[0].dist_mean) if history else 0
    write_table(
        path,
        ["generation", "best_fitness", "mean_fitness", "sigma"] + [f"mean_{i}" for i in range(dim)],
        (
            [r.iteration, r.population_best_j, float(np.mean(r.j_pop)), r.sigma,
             *r.dist_mean.tolist()]
            for r in history
        ),
        append=True,
    )


# --- JSON records: history.jsonl lines and checkpoint.json ------------------


@dataclass
class _Snapshot:
    snapshot_id: int
    sha256: str


@dataclass
class _Policies:
    base: _Snapshot
    best: _Snapshot


@dataclass
class _Commit:
    """checkpoint.json; `files` holds the byte length of each of APPEND_FILES."""

    version: int
    mode: str
    iteration: int
    cma_state: CmaEsState
    j_star: float
    d_star: DesignVector | None
    wall_time_s: float
    files: dict[str, int]
    policies: _Policies | None


def _optional(codec):
    """The codec of a field that may also hold None (JSON null)."""
    encode, decode = codec
    return (
        lambda v: None if v is None else encode(v),
        lambda v: None if v is None else decode(v),
    )


@functools.cache
def _codecs(cls) -> dict:
    """Field name -> codec (None for a JSON scalar) of record class `cls`, in field order."""
    return {f.name: _JSON_CODECS.get(f.type) for f in dataclasses.fields(cls)}


@functools.cache
def _scalar_fields(cls) -> dict:
    """Field name -> annotation of each int, float, bool or str field of `cls`."""
    return {f.name: f.type for f in dataclasses.fields(cls) if f.type in _SCALAR_TYPES}


def _to_json(obj) -> dict:
    """A record as JSON-ready values, keyed by its fields in their order."""
    return {
        name: getattr(obj, name) if codec is None else codec[0](getattr(obj, name))
        for name, codec in _codecs(type(obj)).items()
    }


def _from_json(cls, data):
    """Inverse of `_to_json`; a record with missing or extra fields, or a
    scalar field of another JSON type, is refused."""
    codecs = _codecs(cls)
    if not isinstance(data, dict):
        raise CheckpointError(f"{cls.__name__}: expected a JSON object, got {data!r:.40}")
    if data.keys() != codecs.keys():
        missing = [name for name in codecs if name not in data]
        extra = [name for name in data if name not in codecs]
        raise CheckpointError(f"{cls.__name__}: fields {missing} missing, {extra} unexpected")
    for name, kind in _scalar_fields(cls).items():
        value = data[name]
        is_bool = isinstance(value, bool)
        if is_bool != (kind == "bool") or not isinstance(value, _SCALAR_TYPES[kind]):
            raise CheckpointError(f"{cls.__name__}.{name}: expected {kind}, got {value!r:.40}")
    return cls(**{
        name: data[name] if codec is None else codec[1](data[name])
        for name, codec in codecs.items()
    })


# The JSON values a field of each scalar annotation accepts: such a field is
# a JSON scalar as it stands.  JSON has one number type, so a float field
# also takes an integer; a bool is not an int.
_SCALAR_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}

# How a record field of any other annotated type goes to JSON and back.
# json writes floats with repr, inf and NaN included, so they read back
# exactly.
_JSON_CODECS = {
    "np.ndarray": (np.ndarray.tolist, lambda v: np.array(v, dtype=np.float64)),
    "DesignVector | None": _optional((lambda d: d.factors.tolist(), DesignVector)),
    "dict[str, int]": (dict, dict),
    "CmaEsState": (_to_json, functools.partial(_from_json, CmaEsState)),
    "_Snapshot": (_to_json, functools.partial(_from_json, _Snapshot)),
    "_Policies | None": _optional((_to_json, functools.partial(_from_json, _Policies))),
}


def _write_history(history: list[FitnessRecord], path) -> None:
    """Append one history.jsonl line per record."""
    with open(path, "ab") as fh:
        fh.writelines(json.dumps(_to_json(rec)).encode("ascii") + b"\n" for rec in history)


def _write_best_files(out_dir, d_star, params_base, params_best) -> _Policies | None:
    """Write best_design.csv, policies/base.bin and best.bin atomically, or remove each if None."""
    best_design = os.path.join(out_dir, BEST_DESIGN_FILE)
    if d_star is None:
        _remove_if_exists(best_design)
    else:
        atomic_write(best_design, lambda p: write_designs_csv([d_star], p))
    snapshots = {}
    for name, params in (("base", params_base), ("best", params_best)):
        path = os.path.join(out_dir, POLICY_DIR, f"{name}.bin")
        if params is None:
            _remove_if_exists(path)
        else:
            digest = atomic_write(path, lambda p: save_policy(params, p))
            snapshots[name] = _Snapshot(params.snapshot_id, digest)
    return _Policies(**snapshots) if snapshots else None


def _checkpoint(
    cfg, out_dir, state, record, d_star, wall_time, params_base, params_best, params_current,
    train_history,
) -> None:
    """Persist one finished iteration, committing checkpoint.json last.

    Order: one row onto each of APPEND_FILES, which `_roll_back` left at
    the last commit's length; then, each written atomically, the iteration's
    snapshot, the best files, the learning curve and last checkpoint.json,
    with the byte length of each append-only file and the SHA-256 of the
    base and best policies.  A crash before the commit leaves the previous
    one valid: resume cuts the appends back to its lengths and redoes the
    iteration, which rewrites every other file with the same bytes.
    """
    iteration = record.iteration
    policies = os.path.join(out_dir, POLICY_DIR)
    os.makedirs(policies, exist_ok=True)

    write_evolution_csv([record], os.path.join(out_dir, EVOLUTION_FILE))
    write_cma_log([record], os.path.join(out_dir, CMA_LOG_FILE))
    _write_history([record], os.path.join(out_dir, HISTORY_FILE))

    if params_current is not None:
        atomic_write(
            os.path.join(policies, f"iter_{iteration:04d}.bin"),
            lambda p: save_policy(params_current, p),
        )
    snapshots = _write_best_files(out_dir, d_star, params_base, params_best)
    if train_history:
        atomic_write(
            os.path.join(out_dir, f"learning_curve_iter_{iteration:04d}.csv"),
            lambda p: write_learning_curve_csv(train_history, p),
        )

    commit = _Commit(
        version=CHECKPOINT_VERSION,
        mode=cfg.mode.value,
        iteration=iteration,
        cma_state=state,
        j_star=record.global_best_j,
        d_star=d_star,
        wall_time_s=float(wall_time),
        files={name: os.path.getsize(os.path.join(out_dir, name)) for name in APPEND_FILES},
        policies=snapshots,
    )
    atomic_write(os.path.join(out_dir, CHECKPOINT_FILE), lambda p: _write_json(_to_json(commit), p))


def _load_snapshot(out_dir, commit: _Commit, name: str) -> PolicyParams:
    """The committed base or best policy, from its per-iteration file, digest-checked."""
    if commit.policies is None:
        raise CheckpointError(
            f"{os.path.join(out_dir, CHECKPOINT_FILE)}: the run saved no policy snapshots"
        )
    entry = getattr(commit.policies, name)
    path = os.path.join(out_dir, POLICY_DIR, f"iter_{entry.snapshot_id:04d}.bin")
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise CheckpointError(f"cannot read policy snapshot {path}: {exc}") from exc
    if digest != entry.sha256:
        raise CheckpointError(
            f"{path}: SHA-256 {digest[:12]} does not match the committed "
            f"{entry.sha256[:12]}; refusing to open the run"
        )
    return load_policy(path)


def _read_commit(out_dir) -> _Commit:
    """The checkpoint.json record of a run directory, version-checked and decoded."""
    path = os.path.join(out_dir, CHECKPOINT_FILE)
    legacy = os.path.join(out_dir, LEGACY_CHECKPOINT_FILE)
    if not os.path.exists(path) and os.path.exists(legacy):
        raise CheckpointError(
            f"{legacy}: unsupported checkpoint format (a version 1 pickle); this "
            f"version resumes only from {CHECKPOINT_FILE}, version {CHECKPOINT_VERSION}"
        )
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r}; this version "
            f"resumes only version {CHECKPOINT_VERSION}"
        )
    try:
        return _from_json(_Commit, payload)
    except (CheckpointError, ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt commit record: {exc}") from exc


def _check_cma_state(cfg, commit: _Commit, path) -> None:
    """Refuse a committed CMA-ES state whose sizes or counters do not fit `cfg`."""
    state, dim = commit.cma_state, cfg.space.dim
    expected = {
        "mean": (dim,), "path_sigma": (dim,), "path_c": (dim,), "cov": (dim, dim),
        "weights": (cfg.cma.parent_count,), "lam": cfg.n_pop, "mu": cfg.cma.parent_count,
        "seed": cfg.seed, "generation": commit.iteration,
    }
    for name, want in expected.items():
        value = getattr(state, name)
        found, kind = (value.shape, "shape ") if isinstance(value, np.ndarray) else (value, "")
        if found != want:
            raise CheckpointError(
                f"{path}: cma_state.{name}: expected {kind}{want}, found {kind}{found}"
            )


def read_run(cfg, out_dir, load_policies: bool = True):
    """The last commit of a run directory and its history, checked; modifies nothing.

    Refuses a commit whose mode or CMA-ES state does not fit `cfg`, an
    append-only file shorter than its committed length, and a corrupt
    history, or a record whose population is not a finite (n_pop, dim)
    array, whose j_pop is not a NaN-free (n_pop,) array (+inf marks an
    unscored design), or whose dist_mean is not a finite (dim,) array.
    Returns the commit, its history records and the digest-checked base and
    best policies (None, None without `load_policies`).
    """
    path = os.path.join(out_dir, CHECKPOINT_FILE)
    commit = _read_commit(out_dir)
    if commit.mode != cfg.mode.value:
        raise CheckpointError(
            f"{path}: checkpoint mode {commit.mode} does not match config "
            f"mode {cfg.mode.value}"
        )
    _check_cma_state(cfg, commit, path)
    iteration, lengths = commit.iteration, commit.files
    if lengths.keys() != set(APPEND_FILES):
        raise CheckpointError(f"{path}: files {sorted(lengths)}, expected {sorted(APPEND_FILES)}")
    for name in APPEND_FILES:
        file = os.path.join(out_dir, name)
        size = os.path.getsize(file) if os.path.exists(file) else 0
        if size < lengths[name]:
            raise CheckpointError(
                f"{file}: {size} bytes, shorter than the {lengths[name]} committed "
                f"at iteration {iteration}; refusing to open the run"
            )
    with open(os.path.join(out_dir, HISTORY_FILE), "rb") as fh:
        lines = fh.read(lengths[HISTORY_FILE]).splitlines()
    if len(lines) != iteration:
        raise CheckpointError(
            f"{HISTORY_FILE}: {len(lines)} committed records, expected {iteration}"
        )
    try:
        history = [_from_json(FitnessRecord, json.loads(line)) for line in lines]
    except (CheckpointError, ValueError, TypeError) as exc:
        raise CheckpointError(f"{HISTORY_FILE}: corrupt record: {exc}") from exc
    # Record array -> (shape, test of each value, what the test asks).
    arrays = {
        "designs": ((cfg.n_pop, cfg.space.dim), np.isfinite, "finite"),
        "j_pop": ((cfg.n_pop,), lambda a: ~np.isnan(a), "NaN-free"),
        "dist_mean": ((cfg.space.dim,), np.isfinite, "finite"),
    }
    for line, record in enumerate(history, 1):
        for name, (shape, test, kind) in arrays.items():
            values = getattr(record, name)
            if values.shape != shape or not np.all(test(values)):
                raise CheckpointError(
                    f"{HISTORY_FILE} line {line}: {name} not a {kind} {shape} array"
                )
    params_base = params_best = None
    if load_policies:
        params_base = _load_snapshot(out_dir, commit, "base")
        params_best = _load_snapshot(out_dir, commit, "best")
    return commit, history, params_base, params_best


# An iteration's own files: its policy snapshot and its learning curve.
_ITERATION_FILE = re.compile(r"(?:iter|learning_curve_iter)_(\d+)\.(?:bin|csv)")


def _roll_back(out_dir, lengths, iteration, d_star, params_base, params_best) -> None:
    """Make a run directory match the commit of `iteration`; 0 is a fresh run.

    An iteration that crashed before its commit, or an earlier run in the
    directory of a fresh one, may have appended to the append-only files,
    replaced the best design, base.bin and best.bin, written later
    snapshots and learning curves, and left the .tmp file of a write it did
    not finish.  So each append-only file is cut to its length in
    `lengths`, the best design and the two policies are rewritten from the
    commit, or removed if it has none, and the rest are deleted.
    """
    for name in APPEND_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            os.truncate(path, lengths[name])
    _write_best_files(out_dir, d_star, params_base, params_best)
    for folder in (out_dir, os.path.join(out_dir, POLICY_DIR)):
        if not os.path.isdir(folder):
            continue
        for name in os.listdir(folder):
            match = _ITERATION_FILE.fullmatch(name)
            if name.endswith(".tmp") or (match and int(match.group(1)) > iteration):
                os.remove(os.path.join(folder, name))


# --- rollout-only evaluation -------------------------------------------------


def rollout_returns(
    env_cfg: EnvConfig,
    reward_cfg: RewardConfig,
    params: PolicyParams,
    design: DesignVector,
    n_episodes: int,
    seed: int,
    phase: str | int = "eval",
) -> np.ndarray:
    """Episode returns of the sampled policy on one design, no training.

    One rollout of training's loop (`ppo.collect_rollouts`), episode_length
    steps over `n_episodes` environments of the design: every environment
    ends at least one episode, and the first `n_episodes` to end count.
    """
    design_mat = np.tile(design.factors, (n_episodes, 1))
    vec_env = VecChinupEnv(
        config=env_cfg,
        reward_cfg=reward_cfg,
        design_mat=design_mat,
        env_to_design=np.zeros(n_episodes, dtype=np.int64),
        seed=seed,
        phase=phase,
    )
    rng = stream("eval-actions", seed, phase)
    batch = collect_rollouts(vec_env, params, env_cfg.episode_length, rng)
    return batch.episodes.returns[:n_episodes].copy()


def heatmap_sweep(
    cfg: CodesignConfig,
    params: PolicyParams,
    axis_a: int,
    axis_b: int,
    resolution: int,
    fixed: DesignVector | None = None,
) -> list[tuple[DesignVector, float]]:
    """Fitness over a 2-D design grid by rollout-only evaluation.

    Each cell runs n_exp (= n_env / n_pop) episodes under the given policy
    snapshot; fitness is the negative mean return, exactly as in training.
    Axes not swept are held at `fixed` (default: all-ones design).
    """
    if fixed is None:
        fixed = DesignVector(np.ones(cfg.space.dim))
    grid = grid_slice(cfg.space, axis_a, axis_b, resolution, fixed)
    n_exp = expand_designs(cfg.n_pop, cfg.n_env).n_exp
    out = []
    for cell, design in enumerate(grid):
        returns = rollout_returns(
            cfg.env, cfg.reward, params, design, n_exp, cfg.seed,
            phase=f"heatmap-{axis_a}-{axis_b}-{cell}",
        )
        out.append((design, float(-np.mean(returns))))
    return out


def write_heatmap_csv(grid: list[tuple[DesignVector, float]], axis_a: int, axis_b: int, path) -> None:
    write_table(
        path,
        [f"factor_{axis_a}", f"factor_{axis_b}", "fitness"],
        ([d.factors[axis_a], d.factors[axis_b], fitness] for d, fitness in grid),
    )
