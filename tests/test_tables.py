"""The run directory's CSV formats: one writer each, pinned bytes.

Every format goes through gearevo.tables; the golden digests below are the
bytes each writer produced before the formats shared that module, on inputs
that include inf, NaN, -0.0 and 1e-300.  cma_log.csv's digest is of its
writer over history records (see `write_log`).  Tests parse a file with
`read_table`; only the learning curve, which the benchmark reads, keeps a
reader of its own.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from gearevo.chinup_env import TRAJECTORY_COLUMNS, write_trajectory_csv
from gearevo.codesign import FitnessRecord, write_cma_log, write_evolution_csv, write_heatmap_csv
from gearevo.design_space import DesignVector, write_designs_csv
from gearevo.ppo import LEARNING_CURVE_COLUMNS, read_learning_curve_csv, write_learning_curve_csv
from gearevo.reward import TERM_NAMES, RewardBreakdown, write_breakdown_csv
from gearevo.tables import atomic_write, read_table, write_table

ODD = (math.inf, math.nan, -0.0, 1e-300, -math.inf, 0.1, 123456.789)


def cells(n, shift):
    return [ODD[(i + shift) % len(ODD)] for i in range(n)]


def record(it):
    j = np.array(cells(4, it))
    return FitnessRecord(
        iteration=it, designs=np.ones((4, 2)), j_pop=j, population_best_j=cells(1, it + 2)[0],
        global_best_j=cells(1, it + 3)[0], snapshot_id=it, source_snapshot_id=0, sigma=0.3,
        dist_mean=np.array(cells(2, it - 1)),
    )


def write_designs(path):
    write_designs_csv([DesignVector([0.589728123, 4.0]), DesignVector([1e-300, -0.0])], path)


def write_evolution(path):
    # Two appending calls, the first onto a missing file, as a run makes them.
    write_evolution_csv([record(1)], path)
    write_evolution_csv([record(2), record(3)], path)


def write_heatmap(path):
    cases = [(0.5, 1e-300, math.inf), (4.0, -0.0, math.nan), (1.25, 2.0, -0.0), (3.0, 0.1, 1e-300)]
    write_heatmap_csv([(DesignVector([a, b]), f) for a, b, f in cases], 1, 0, path)


def write_log(path):
    # mean_fitness is np.mean(j_pop), so unlike the other cells it is never -0.0.
    write_cma_log([record(1)], path)
    write_cma_log([record(2), record(3)], path)


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
    "designs": (write_designs,
                "853c91b2fd5b1c04c3f1b64a53c2637a8a379d1a22f3da06e614e94320db07d3"),
    "evolution": (write_evolution,
                  "990c5a88bdaf462878359d4f207fc6c7333b84288b5b9b5a0fb6c1b8ae0ef843"),
    "heatmap": (write_heatmap,
                "eb8315b115ae77ed494ecbfa19ad29f788c0634a47c4e9fb3edb1c34d6df991e"),
    "generation_log": (write_log,
                       "b59704c9caa9ad4772e24b23f6d7f1b079db953d2b0e05b90e4b22b9e41c9589"),
    "learning_curve": (write_curve,
                       "f9170efd4c143fc944761eb6b126e7f68d9e444637d465adfefb1bed2b7e5000"),
    "trajectory": (write_trajectory,
                   "857eb6ba37ad1f7ca6ea7802b66005d340434441b3d5f780736a5148a9e7b817"),
    "breakdown": (write_breakdown,
                  "313e7154240a4335b31f0589ea9b3003c2671ef66b14e704dbe57b24113742be"),
}
READERS = {"learning_curve": (read_learning_curve_csv, "a learning curve CSV")}


@pytest.mark.parametrize("name", FORMATS)
def test_writer_bytes_golden(tmp_path, name):
    write, digest = FORMATS[name]
    path = str(tmp_path / f"{name}.csv")
    write(path)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    if name in READERS:
        READERS[name][0](path)  # and the reader takes what the writer wrote


@pytest.mark.parametrize("name", READERS)
def test_reader_refuses_other_header_naming_the_file(tmp_path, name):
    read, kind = READERS[name]
    for i, text in enumerate(["", "x,y,z\r\n1,2,3\r\n"]):
        path = str(tmp_path / f"other_{i}.csv")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not {kind}")):
            read(path)


def test_append_writes_one_header_and_reads_back(tmp_path):
    """Each row reads back, through read_table, as the repr of its record's cells."""
    for write, first, cells_of in (
        (write_evolution, "iteration", lambda r: [r.global_best_j, *r.j_pop.tolist()]),
        (write_log, "generation", lambda r: [r.sigma, *r.dist_mean.tolist()]),
    ):
        path = str(tmp_path / f"{first}.csv")
        write(path)
        with open(path) as fh:
            assert sum(line.startswith(first + ",") for line in fh) == 1
        rows = read_table(path, lambda h: h[0] == first, "a table")
        assert [row[0] for row in rows] == ["1", "2", "3"]
        for it, row in enumerate(rows, 1):
            want = cells_of(record(it))
            assert row[-len(want):] == [repr(x) for x in want]


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
