"""The run directory's CSV formats: one writer, one reader, pinned bytes.

Every format goes through gearevo.tables; the golden digests below are the
bytes each writer produced before the formats shared that module, on inputs
that include inf, NaN, -0.0 and 1e-300.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from gearevo.chinup_env import TRAJECTORY_COLUMNS, read_trajectory_csv, write_trajectory_csv
from gearevo.cma_es import GenerationLogRow, read_generation_log, write_generation_log
from gearevo.codesign import (
    FitnessRecord,
    read_evolution_csv,
    read_heatmap_csv,
    write_evolution_csv,
    write_heatmap_csv,
)
from gearevo.design_space import DesignVector, read_designs_csv, write_designs_csv
from gearevo.ppo import LEARNING_CURVE_COLUMNS, read_learning_curve_csv, write_learning_curve_csv
from gearevo.reward import TERM_NAMES, RewardBreakdown, read_breakdown_csv, write_breakdown_csv
from gearevo.tables import atomic_write, read_table, write_table

ODD = (math.inf, math.nan, -0.0, 1e-300, -math.inf, 0.1, 123456.789)


def cells(n, shift):
    return [ODD[(i + shift) % len(ODD)] for i in range(n)]


def record(it):
    j = np.array(cells(4, it))
    return FitnessRecord(
        iteration=it, designs=[], j_pop=j, mean_returns=-j,
        population_best_j=cells(1, it + 2)[0], population_best_idx=0,
        global_best_j=cells(1, it + 3)[0], global_best_design=None,
        snapshot_id=it, source_snapshot_id=0, sigma=0.3, dist_mean=np.zeros(2),
    )


def log_row(g):
    return GenerationLogRow(g, *cells(3, g), np.array(cells(2, g + 3)))


def write_designs(path):
    write_designs_csv([DesignVector([0.589728123, 4.0]), DesignVector([1e-300, -0.0])], path)


def write_evolution(path):
    # Two appending calls, the first onto a missing file, as a run makes them.
    write_evolution_csv([record(1)], path, append=True)
    write_evolution_csv([record(2), record(3)], path, append=True)


def write_heatmap(path):
    cases = [(0.5, 1e-300, math.inf), (4.0, -0.0, math.nan), (1.25, 2.0, -0.0), (3.0, 0.1, 1e-300)]
    write_heatmap_csv([(DesignVector([a, b]), f) for a, b, f in cases], 1, 0, path)


def write_log(path):
    write_generation_log([log_row(1)], path, append=True)
    write_generation_log([log_row(2), log_row(3)], path, append=True)


def write_curve(path):
    rows = [{"iteration": i, **dict(zip(LEARNING_CURVE_COLUMNS[1:], cells(7, i)))} for i in (1, 2)]
    write_learning_curve_csv(rows, path)


def write_trajectory(path):
    rows = [{"step": s, **dict(zip(TRAJECTORY_COLUMNS[1:], cells(9, s)))} for s in (0, 1)]
    write_trajectory_csv(rows, path)


def write_breakdown(path):
    # The evaluate dump holds NumPy scalars; a float32 total is widened exactly.
    totals = (1e-300, np.float32(0.1))
    write_breakdown_csv(
        [RewardBreakdown(**dict(zip(TERM_NAMES, cells(11, s))), total=totals[s]) for s in (0, 1)],
        path,
    )


FORMATS = {
    "designs": (write_designs, read_designs_csv, "a design CSV (bad header)",
                "853c91b2fd5b1c04c3f1b64a53c2637a8a379d1a22f3da06e614e94320db07d3"),
    "evolution": (write_evolution, read_evolution_csv, "an evolution CSV",
                  "990c5a88bdaf462878359d4f207fc6c7333b84288b5b9b5a0fb6c1b8ae0ef843"),
    "heatmap": (write_heatmap, read_heatmap_csv, "a heatmap CSV",
                "eb8315b115ae77ed494ecbfa19ad29f788c0634a47c4e9fb3edb1c34d6df991e"),
    "generation_log": (write_log, read_generation_log, "a generation log CSV",
                       "583a01fb59bfdc279a253ce2593498b5e38ab840acb2c0c452ccafee2a3cfe00"),
    "learning_curve": (write_curve, read_learning_curve_csv, "a learning curve CSV",
                       "f9170efd4c143fc944761eb6b126e7f68d9e444637d465adfefb1bed2b7e5000"),
    "trajectory": (write_trajectory, read_trajectory_csv, "a trajectory CSV",
                   "857eb6ba37ad1f7ca6ea7802b66005d340434441b3d5f780736a5148a9e7b817"),
    "breakdown": (write_breakdown, read_breakdown_csv, "a reward breakdown CSV",
                  "313e7154240a4335b31f0589ea9b3003c2671ef66b14e704dbe57b24113742be"),
}


@pytest.mark.parametrize("name", FORMATS)
def test_writer_bytes_golden(tmp_path, name):
    write, read, _, digest = FORMATS[name]
    path = str(tmp_path / f"{name}.csv")
    write(path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    read(path)  # and the reader takes what the writer wrote


@pytest.mark.parametrize("name", FORMATS)
def test_reader_refuses_other_header_naming_the_file(tmp_path, name):
    _, read, kind, _ = FORMATS[name]
    for i, text in enumerate(["", "x,y,z\r\n1,2,3\r\n"]):
        path = str(tmp_path / f"other_{i}.csv")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not {kind}")):
            read(path)


def test_append_writes_one_header_and_reads_back(tmp_path):
    path = str(tmp_path / "evolution.csv")
    write_evolution(path)
    with open(path) as fh:
        assert sum(line.startswith("iteration,") for line in fh) == 1
    rows = read_evolution_csv(path)
    assert [r["iteration"] for r in rows] == [1, 2, 3]
    for row, rec in zip(rows, (record(1), record(2), record(3))):
        assert repr(row["global_best"]) == repr(rec.global_best_j)
        assert [repr(x) for x in row["j_pop"].tolist()] == [repr(x) for x in rec.j_pop.tolist()]
    path = str(tmp_path / "cma_log.csv")
    write_log(path)
    with open(path) as fh:
        assert sum(line.startswith("generation,") for line in fh) == 1
    rows = read_generation_log(path)
    assert [r.generation for r in rows] == [1, 2, 3]
    assert [repr(x) for x in rows[2].mean.tolist()] == [repr(x) for x in log_row(3).mean.tolist()]


def test_write_table_without_append_replaces_the_file(tmp_path):
    path = str(tmp_path / "t.csv")
    for row in ([3, "1.5e+06", np.float64(-0.0)], [4, "x", 0.25]):
        write_table(path, ["a", "b", "c"], [row])
    with open(path, newline="") as fh:
        assert fh.read() == "a,b,c\r\n4,x,0.25\r\n"
    assert read_table(path, lambda h: h[0] == "a", "a table") == [["4", "x", "0.25"]]


def test_atomic_write_replaces_and_returns_the_writers_result(tmp_path):
    path = str(tmp_path / "f.txt")
    with open(path, "w") as fh:
        fh.write("old")

    def write(p):
        assert p == path + ".tmp"
        with open(p, "w") as fh:
            fh.write("new")
        return "digest"

    assert atomic_write(path, write) == "digest"
    with open(path) as fh:
        assert fh.read() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt"]
