"""The bit-for-bit gate: run every gated run, record the SHA-256 of its files.

    python gates/run.py --out DIR          # run the gates, write DIR/gates.json
    python gates/run.py --compare A B      # print each moved digest; exit 1 if any moved

A change that keeps numerics must keep every digest these runs give, at
one BLAS thread on one host.  The runs (see ROADMAP "Gates that carry
over"), each command a fresh process of this checkout's `src/`:

- desk `ea-corl` seeds 0 and 1 and desk `pt-ft` seed 0 (`gearevo run`
  with perfbench's desk overrides); on the seed-0 directory, `sweep --axes
  0,1 --resolution 4` and `evaluate --seed 3` with both dumps;
- stock seed 2 (`gearevo run` with perfbench's stock overrides);
- `evo` seed 5 (perfbench's synthetic fitness, 200 iterations): straight
  through, and stopped at 100 then resumed; then a 50-iteration run
  written fresh into the resumed directory.

Every command runs at one BLAS thread (`CODESIGN_THREADS=1` and the three
thread variables), the runs on a pool of `min(2, os.cpu_count())`
workers.  `OPENBLAS_CORETYPE` and `NPY_DISABLE_CPU_FEATURES`, which
change which kernels NumPy and OpenBLAS pick, pass through from the
caller, and `gates.json` records them with the NumPy version: digests from
other numerics are not comparable.

`gates.json` holds, per run, the SHA-256 of every file in its directory
(`checkpoint.json` with its wall time left out; `manifest.json`, which
holds a run id and a clock time, not at all), the final best fitness, and
for `evaluate` its printed line.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMERICS_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
THREAD_VARS = ("CODESIGN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Files whose bytes carry a clock time or a random run id.
UNGATED_FILES = ("manifest.json",)
GATES_FILE = "gates.json"
# The two gates that record a command's output, not a run directory.
SWEEP, EVALUATE = "sweep-resolution-4", "evaluate-seed-3"


def _workloads():
    """perfbench's workloads module: the one definition of the desk and stock runs.

    `bootstrap.prepare()` pins BLAS to one thread and puts this checkout's
    `src/` first on the path before NumPy loads.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import bootstrap

    bootstrap.prepare()
    import workloads

    return workloads


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "gearevo.cli", *args]


def _sets(overrides: list[str]) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def _evo(out: Path, iterations: int, stop_after: int | None = None,
         resume: bool = False) -> list[str]:
    argv = [sys.executable, str(Path(__file__).with_name("evo.py")), str(out),
            "--iterations", str(iterations)]
    if stop_after is not None:
        argv += ["--stop-after", str(stop_after)]
    return argv + (["--resume"] if resume else [])


def jobs(out: Path) -> list[list[tuple[str, Path, list[str]]]]:
    """The jobs, each a list of steps run in order: (gate name, folder, command).

    A step with a gate name is recorded from its folder once it ends; a
    step without one only prepares a later step.
    """
    workloads = _workloads()
    desk, stock = _sets(workloads.DESK_OVERRIDES), _sets(workloads.STOCK_OVERRIDES)
    d0, d1, pt, st = (out / name for name in ("desk-ea-corl-0", "desk-ea-corl-1",
                                              "desk-pt-ft-0", "stock-2"))
    ev, straight, resumed = out / EVALUATE, out / "evo-straight", out / "evo-resumed"
    return [
        [
            ("desk-ea-corl-0", d0, _cli("run", "--out", str(d0), "--seed", "0", *desk)),
            (SWEEP, d0, _cli("sweep", str(d0), "--axes", "0,1", "--resolution", "4")),
            (EVALUATE, ev, _cli(
                "evaluate", str(d0), "--seed", "3", "--dump-trajectory",
                str(ev / "trajectory.csv"), "--dump-rewards", str(ev / "rewards.csv"),
            )),
        ],
        [("desk-ea-corl-1", d1, _cli("run", "--out", str(d1), "--seed", "1", *desk))],
        [("desk-pt-ft-0", pt,
          _cli("run", "--out", str(pt), "--seed", "0", "--mode", "pt-ft", *desk))],
        [("stock-2", st, _cli("run", "--out", str(st), "--seed", "2", *stock))],
        [("evo-straight", straight, _evo(straight, 200))],
        [
            ("", resumed, _evo(resumed, 200, stop_after=100)),
            ("evo-resumed", resumed, _evo(resumed, 200, resume=True)),
            ("evo-fresh-50", resumed, _evo(resumed, 50)),
        ],
    ]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def file_digests(folder: Path) -> dict[str, str]:
    """SHA-256 of every file under `folder` by relative path; see the module docstring."""
    digests = {}
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        name = path.relative_to(folder).as_posix()
        if name in UNGATED_FILES:
            continue
        if name == "checkpoint.json":
            commit = json.loads(path.read_text())
            commit.pop("wall_time_s")
            name = "checkpoint.json without wall_time_s"
            digests[name] = hashlib.sha256(json.dumps(commit, sort_keys=True).encode()).hexdigest()
        else:
            digests[name] = sha256(path)
    return digests


def _record(name: str, folder: Path, stdout: str) -> dict:
    """The gate record of the step `name` that just ended in `folder`."""
    if name == SWEEP:
        return {"files": {"heatmap_0_1.csv": sha256(folder / "heatmap_0_1.csv")}}
    if name == EVALUATE:
        return {"printed": stdout.splitlines()[0], "files": file_digests(folder)}
    commit = json.loads((folder / "checkpoint.json").read_text())
    return {"best_fitness": commit["j_star"], "files": file_digests(folder)}


def run_job(steps, env) -> dict[str, dict]:
    records = {}
    for name, folder, argv in steps:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
        if name:
            records[name] = _record(name, folder, proc.stdout)
    return records


def run_gates(out: Path) -> dict:
    out.mkdir(parents=True)  # a new directory: a left-over run would be resumed or refused
    (out / EVALUATE).mkdir()
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    all_jobs = jobs(out)  # loads perfbench's workloads, and with them numpy
    import numpy  # here only for its version

    runs: dict[str, dict] = {}
    workers = min(2, os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run_job, job, env) for job in all_jobs]
        for future in futures:
            runs.update(future.result())
    numerics = {"numpy": numpy.__version__, **{var: os.environ.get(var) for var in NUMERICS_VARS}}
    result = {"numerics": numerics, "runs": dict(sorted(runs.items()))}
    (out / GATES_FILE).write_text(json.dumps(result, indent=1) + "\n")
    return result


def moved(a: dict, b: dict) -> list[str]:
    """One line per gated value that differs between two gates.json records."""
    lines = []
    if a["numerics"] != b["numerics"]:
        lines.append(f"numerics: {a['numerics']} -> {b['numerics']} (digests not comparable)")
    for run in sorted(a["runs"].keys() | b["runs"].keys()):
        ra, rb = a["runs"].get(run), b["runs"].get(run)
        if ra is None or rb is None:
            lines.append(f"{run}: only in {'B' if ra is None else 'A'}")
            continue
        for key in ("best_fitness", "printed"):
            if ra.get(key) != rb.get(key):
                lines.append(f"{run}: {key} {ra.get(key)!r} -> {rb.get(key)!r}")
        fa, fb = ra["files"], rb["files"]
        for name in sorted(fa.keys() | fb.keys()):
            if fa.get(name) != fb.get(name):
                old, new = (str(x)[:12] if x else "missing" for x in (fa.get(name), fb.get(name)))
                lines.append(f"{run}: {name} {old} -> {new}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="directory for the runs and gates.json")
    group.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                       help="two gates.json files (or directories holding one)")
    args = parser.parse_args(argv)
    if args.out is not None:
        result = run_gates(args.out)
        print(f"wrote {args.out / GATES_FILE} ({len(result['runs'])} runs)")
        return 0
    a, b = (json.loads((p / GATES_FILE if p.is_dir() else p).read_text()) for p in args.compare)
    lines = moved(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} moved" if lines else "no digest moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
