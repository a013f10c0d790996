"""gearevo benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {desk,stock,evo} --seed N --seconds S --trace {0,1}

Repeats units of the workload (all with the same seed) until the next one
would end after S seconds, then checks the outputs and prints every metric
by name with its unit.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are BENCHMARK.json's `end_to_end` ones, measured untraced; with
`--trace 1` they are its `per_layer` ones, from units run with the
call-site tracer installed, alternated with untraced units so that the
tracing overhead is measured too.  `attempted`/`failed` count designs, and
`failed` includes designs whose fitness is +inf or NaN even when gearevo
did not mark them failed, plus each workload run that raised.

Exits 1 when a correctness check fails and 2 when the checkout has no
gearevo source.  Runs in one process (one caller, one run at a time, as
users run this batch tool) with BLAS pinned to one thread; set-up time is
measured in fresh child processes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CALIBRATION_REPEATS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "stock", "evo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
        "commit": git_commit(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh process to the end of its set-up."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            cwd=bootstrap.ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter, small-array NumPy and BLAS work.

    It runs no gearevo code, so a change to gearevo cannot change it; only
    the speed of the machine at that moment can.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        key = i % 61
        counts[key] = counts.get(key, 0) + (i ^ key)
    small = np.zeros(4)
    for _ in range(4000):
        small = np.minimum(small + 1.0, 3.0)
    x = np.linspace(-1.0, 1.0, 512 * 64).reshape(512, 64)
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    for _ in range(100):
        x = np.tanh(x @ w + 0.01)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Mean kernel time over about half a second of repeats."""
    return statistics.fmean(calibration_kernel() for _ in range(CALIBRATION_REPEATS))


def measure(wl, cfg, seconds: float, work_dir, tracer):
    """Run units until the next step would end past `seconds`.

    A step is one untraced unit, followed by one traced unit when tracing.
    The calibration kernel runs before the first unit and after each one;
    a unit's `cal_s` is the mean of the readings on either side of it.
    Returns (untraced units, traced units).
    """
    from tracer import TARGETS

    calibration_kernel()  # first call pays NumPy's lazy set-up
    last_cal = calibrate()

    def one(k, traced):
        nonlocal last_cal
        out_dir = os.path.join(work_dir, f"unit{k}")
        try:
            if not traced:
                unit = wl.run_unit(cfg, out_dir)
            else:
                with tracer.installed(TARGETS):
                    unit = wl.run_unit(cfg, out_dir, tracer)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        after = calibrate()
        unit.cal_s = (last_cal + after) / 2.0
        last_cal = after
        return unit

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        untraced.append(one(len(untraced) + len(traced), False))
        if tracer is not None:
            traced.append(one(len(untraced) + len(traced), True))
        step = time.perf_counter() - t
        done = len(untraced) + len(traced) >= wl.min_units
        if done and time.perf_counter() - start + step > seconds:
            return untraced, traced


def check_units(units) -> list[str]:
    problems = [p for u in units for p in u.problems]
    digests = {tuple(sorted(u.digests.items())) for u in units if u.digests}
    if len(digests) > 1:
        problems.append("artifacts differ between runs of the same seed")
    return problems


def metric_values(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    import gearevo
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if not os.path.abspath(gearevo.__file__).startswith(str(bootstrap.SRC)):
        print(f"perfbench: gearevo imported from {gearevo.__file__}", file=sys.stderr)
        return 2

    print("machine:", json.dumps(machine_info()))
    wl = WORKLOADS[args.workload]()
    cfg = wl.config(args.seed)
    work_dir = bootstrap.WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tracer = Tracer() if args.trace else None
    try:
        wl.prepare(cfg, str(work_dir))
        untraced, traced = measure(wl, cfg, args.seconds, str(work_dir), tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = untraced + traced
    problems = check_units(units)
    attempted = sum(u.designs for u in units)
    failed = sum(u.failed for u in units)
    run_s = statistics.median(u.run_s for u in untraced)
    print(f"workload {wl.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced units; unit run_s {[round(u.run_s, 3) for u in untraced]}")

    if tracer is None:
        setup = measure_setup(wl.name, args.seed)
        values = {
            "run_cal": statistics.median(u.run_s / u.cal_s for u in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = metric_values(spec["end_to_end"], values)
        for name, m in metrics.items():
            print(f"{name:<20} {m['value']:.6g} {m['unit']}")
        print(f"{'run_s':<20} {run_s:.6g} s (median wall time of a unit)")
        print(f"{'calibration':<20} {[round(u.cal_s, 5) for u in untraced]} s around each unit")
        print(f"{'setup samples':<20} {[round(s, 4) for s in setup]}")
        if untraced[0].env_steps:
            print(f"{'env_steps_per_s':<20} {untraced[0].env_steps / run_s:.6g} 1/s")
        print(f"{'failed_frac':<20} {failed}/{attempted} designs")
        print(f"{'best_fitness':<20} {untraced[0].best_fitness!r} (lower is better)")
    else:
        values = layer_metrics(tracer, len(traced))
        traced_run_s = statistics.median(u.run_s for u in traced)
        values["codesign.run_dir_bytes"] = statistics.mean(u.run_dir_bytes for u in traced)
        values["trace.overhead_s"] = traced_run_s - run_s
        for key, want in wl.expected_calls(cfg).items():
            if values[key] != want:
                problems.append(f"traced {key} = {values[key]}, workload implies {want}")
        metrics = metric_values(spec["per_layer"], values)
        for name, m in metrics.items():
            print(f"{name:<36} {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead: traced run_s {traced_run_s:.6g} s - untraced "
              f"{run_s:.6g} s = {traced_run_s - run_s:.6g} s")
        tracer.dump(bootstrap.WORK_DIR / f"trace-{wl.name}-{args.seed}.json")

    for problem in problems:
        print("CHECK FAILED:", problem)
    correct = not problems
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
