"""The bit-for-bit gate's `--compare` (gates/run.py), on hand-made gates.json files."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

GATES_RUN = Path(__file__).resolve().parent.parent / "gates" / "run.py"


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("gates_run", GATES_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATES = {
    "numerics": {"numpy": "2.4.6", "OPENBLAS_CORETYPE": None, "NPY_DISABLE_CPU_FEATURES": None},
    "runs": {
        "desk-ea-corl-0": {
            "best_fitness": -469.05686197111856,
            "files": {"evolution.csv": "5793cfef" + "0" * 56, "policies/best.bin": "e753bd7c" + "1" * 56},
        },
        "evaluate-seed-3": {
            "printed": "design [0.589728, 0.5]: fitness -654.257",
            "files": {"rewards.csv": "25b86778" + "2" * 56},
        },
    },
}


def compare(gates, tmp_path, capsys, a, b):
    paths = []
    for name, record in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(record))
    code = gates.main(["--compare", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()


def test_compare_of_equal_gates_reports_nothing_moved(gates, tmp_path, capsys):
    assert compare(gates, tmp_path, capsys, GATES, copy.deepcopy(GATES)) == (0, ["no digest moved"])


def test_compare_reports_each_moved_value_and_exits_1(gates, tmp_path, capsys):
    moved = copy.deepcopy(GATES)
    desk = moved["runs"]["desk-ea-corl-0"]
    desk["files"]["policies/best.bin"] = "f" * 64
    desk["best_fitness"] = -470.0
    moved["runs"]["evaluate-seed-3"]["printed"] = "design [0.6, 0.5]: fitness -600"
    del moved["runs"]["evaluate-seed-3"]["files"]["rewards.csv"]
    code, lines = compare(gates, tmp_path, capsys, GATES, moved)
    assert code == 1
    assert lines == [
        "desk-ea-corl-0: best_fitness -469.05686197111856 -> -470.0",
        "desk-ea-corl-0: policies/best.bin e753bd7c1111 -> ffffffffffff",
        "evaluate-seed-3: printed 'design [0.589728, 0.5]: fitness -654.257' -> "
        "'design [0.6, 0.5]: fitness -600'",
        "evaluate-seed-3: rewards.csv 25b867782222 -> missing",
        "4 moved",
    ]


def test_compare_names_a_missing_run_and_other_numerics(gates, tmp_path, capsys):
    other = copy.deepcopy(GATES)
    other["numerics"]["OPENBLAS_CORETYPE"] = "Haswell"
    del other["runs"]["evaluate-seed-3"]
    code, lines = compare(gates, tmp_path, capsys, GATES, other)
    assert code == 1
    assert lines[0].startswith("numerics: ") and "digests not comparable" in lines[0]
    assert lines[1:] == ["evaluate-seed-3: only in A", "2 moved"]


def test_compare_reads_a_gates_directory(gates, tmp_path, capsys):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "gates.json").write_text(json.dumps(GATES))
    assert gates.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "no digest moved\n"
