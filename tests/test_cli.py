"""Command-line interface: config resolution, run/resume/sweep/evaluate
commands, the run manifest (written once, before iteration 1), and exit codes.

Commands are exercised in-process via main(argv); runs use a micro config so
each invocation finishes in well under a second.
"""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gearevo
from gearevo import cli, codesign
from gearevo.cli import (
    CONFIG_SNAPSHOT_FILE,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    MANIFEST_FILE,
    config_hash,
    main,
    parse_config,
    render_config,
)
from gearevo.codesign import EVOLUTION_FILE, Mode
from gearevo.errors import CheckpointError, ConfigError
from gearevo.policy import load_policy
from gearevo.tables import read_table

MICRO_INI = """\
[run]
n_pop = 2
n_env = 4
base_train_iters = 2
adapt_train_iters = 2

[cma]
parent_count = 1
max_iterations = 2

[ppo]
horizon = 8
epochs = 1
minibatches = 1

[env]
episode_length = 8
"""


@pytest.fixture(scope="module")
def micro_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.ini"
    path.write_text(MICRO_INI)
    return str(path)


@pytest.fixture(scope="module")
def completed_run(micro_ini, tmp_path_factory):
    """One finished micro run shared by the read-only command tests."""
    out = str(tmp_path_factory.mktemp("runs") / "base")
    assert main(["run", "--config", micro_ini, "--out", out, "--seed", "0"]) == EXIT_OK
    return out


def read_manifest(out_dir):
    with open(os.path.join(out_dir, MANIFEST_FILE)) as fh:
        return json.load(fh)


def read_commit(out_dir):
    """checkpoint.json, the one record of how far a run got."""
    with open(os.path.join(out_dir, codesign.CHECKPOINT_FILE)) as fh:
        return json.load(fh)


def read_bytes(out_dir, name):
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def tree_bytes(out_dir):
    """Relative path -> bytes of every file under a run directory."""
    files = {}
    for folder, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(folder, name)
            files[os.path.relpath(path, out_dir)] = read_bytes(folder, name)
    return files


# --- config resolution ---------------------------------------------------------


def test_defaults_without_any_input():
    cfg = parse_config(None)
    assert cfg.mode is Mode.EA_CORL
    assert cfg.n_pop == 50 and cfg.n_env == 4000
    assert cfg.cma.initial_mean == 0.2 and cfg.cma.initial_sigma == 0.3
    assert cfg.cma.parent_count == 10 and cfg.cma.max_iterations == 50
    assert cfg.space.lower_bound == 0.5 and cfg.space.upper_bound == 4.0
    assert cfg.base_train_iters == 5000 and cfg.adapt_train_iters == 2500
    assert cfg.adapt_learning_rate == 1e-5
    assert cfg.ppo.learning_rate == 3e-4 and cfg.ppo.horizon == 64
    assert cfg.seed == 0


def test_file_values_and_overrides_layer(micro_ini):
    cfg = parse_config(micro_ini, ["run.seed=3", "cma.max_iterations=6"])
    assert cfg.n_pop == 2 and cfg.n_env == 4  # from file
    assert cfg.seed == 3 and cfg.cma.max_iterations == 6  # from overrides
    assert cfg.cma.seed == 3  # seed propagates into the sampler


def test_desk_scale_overrides():
    cfg = parse_config(None, ["run.n_pop=8", "run.n_env=64", "cma.parent_count=4"])
    assert cfg.n_pop == 8 and cfg.n_env == 64
    assert cfg.cma.population_size == 8 and cfg.cma.parent_count == 4


def test_divisibility_error_names_both_keys():
    with pytest.raises(ConfigError, match="n_env.*n_pop"):
        parse_config(
            None, ["run.n_pop=7", "run.n_env=64", "cma.parent_count=3"]
        )
    # without the parent_count fix the sampler config is the first to object
    with pytest.raises(ConfigError, match="parent_count"):
        parse_config(None, ["run.n_pop=7", "run.n_env=64"])


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(str(path))


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "nope.ini"))


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(None, ["run.bogus=1"])
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(None, ["definitely_not_a_key=1"])


def test_bare_key_override_resolves_section():
    cfg = parse_config(None, ["gamma=0.9", "episode_length=32"])
    assert cfg.ppo.gamma == 0.9
    assert cfg.env.episode_length == 32


def test_ambiguous_bare_key_lists_candidates(monkeypatch):
    # No two schema sections currently share a key name, so manufacture a
    # clash to exercise the diagnostic.
    monkeypatch.setitem(cli._schema(), ("env", "gamma"), cli._KINDS["float"])
    with pytest.raises(ConfigError, match="ambiguous.*ppo.gamma.*env.gamma"):
        parse_config(None, ["gamma=0.9"])


def test_override_requires_equals():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(None, ["gamma"])


def test_unparseable_values_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(None, ["run.seed=abc"])
    with pytest.raises(ConfigError, match="two comma-separated"):
        parse_config(None, ["env.goal=1.0"])


FLOAT_KINDS = {"float": "{}", "tuple[float, float]": "{},0"}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_floats_rejected(bad):
    keys = {
        skey: text
        for annotation, text in FLOAT_KINDS.items()
        for skey, kind in cli._schema().items()
        if kind is cli._KINDS[annotation]
    }
    assert len(keys) == 42  # 36 floats, the 11 weights among them, and 6 pairs
    for (section, key), text in keys.items():
        name = f"{section}.{key}"
        with pytest.raises(ConfigError, match=re.escape(f"'{name}'")):
            parse_config(None, [f"{name}={text.format(bad)}"])


def test_run_refuses_non_finite_float_before_writing(micro_ini, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--config", micro_ini, "--out", str(out),
                 "--set", "ppo.clip_epsilon=nan"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ppo.clip_epsilon" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, named",
    [
        (b"[run]\nseed = 5%\n", "run.seed"),  # no interpolation: a literal value
        (b"seed = 5\n", None),
        (b"[run]\nseed\n", None),
        (b"[run]\nseed = 5\nseed = 6\n", None),
        (b"[run]\nseed = \xff\n", None),
        (None, None),  # a directory, not a file
    ],
    ids=["percent", "no_section", "no_value", "duplicate_key", "not_utf8", "directory"],
)
def test_malformed_config_file_is_an_error_line(tmp_path, capsys, text, named):
    path = tmp_path / "bad.ini"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text)
    named = named or str(path)
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(str(path))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nn_pop = 8\n", "[DEFAULT]\nseed = 3\n[run]\nn_pop = 2\n[ppo]\nhorizon = 8\n"],
    ids=["alone", "beside_sections"],
)
def test_default_section_is_refused(tmp_path, capsys, text):
    """configparser copies [DEFAULT]'s keys into every other section, so a
    key there would be dropped or charged to sections that never wrote it."""
    path = tmp_path / "default.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: section [DEFAULT]")):
        parse_config(str(path))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "[DEFAULT]" in err[0], err
    assert not out.exists()


NON_DEFAULT_OVERRIDES = [
    "run.n_pop=8", "run.n_env=64", "cma.parent_count=4", "run.seed=7",
    "run.mode=pt-ft", "env.goal=0.1,0.2", "reward.active=chinup,torque",
    "w_torque=-0.5", "env.sym_pairs=0:1,1:0", "cyl_window=0.4,0.9",
]


@pytest.mark.parametrize(
    "overrides, digest",
    [
        ([], "7b526ed0d770d156f233b7259843aa08ebca498a21b5a654f738981c29fab989"),
        (
            NON_DEFAULT_OVERRIDES,
            "5077c449bfbc297f0c242b48341577af3c73d7faee7d23456cf32ab0c204d329",
        ),
    ],
    ids=["default", "non_default"],
)
def test_render_config_golden_digest(overrides, digest):
    # Existing run directories resume only while their snapshot text, and so
    # its hash, stays byte-identical.
    assert config_hash(parse_config(None, overrides)) == digest


def test_render_parse_round_trip(tmp_path):
    # The non-default overrides read pairs, names, index pairs, the mode and
    # the `w_` keys back through the file path.
    desk = ["run.n_pop=4", "run.n_env=8", "cma.parent_count=2"]
    for overrides in (desk, NON_DEFAULT_OVERRIDES):
        cfg = parse_config(None, overrides)
        text = render_config(cfg)
        path = tmp_path / "snapshot.ini"
        path.write_text(text)
        cfg2 = parse_config(str(path))
        assert cfg2 == cfg
        assert render_config(cfg2) == text
        assert config_hash(cfg2) == config_hash(cfg)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_config_table_matches_schema():
    """The README's `| `section` | keys (defaults) |` rows name every key in
    order, `w_<term>` standing for the reward weights, and each numeric
    default in parentheses is the default config's value."""
    with open(README) as fh:
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", fh.read(), flags=re.M))
    assert list(rows) == list(cli._SECTIONS)
    defaults = parse_config(None)
    for section, cell in rows.items():
        names = [name for item in re.findall(r"`([^`]+)`", cell) for name in item.split()]
        keys = dict.fromkeys(
            "w_<term>" if section == "reward" and key.startswith("w_") else key
            for sec, key in cli._schema() if sec == section
        )
        assert names == list(keys), section
        obj = getattr(defaults, cli._SECTIONS[section]) if cli._SECTIONS[section] else defaults
        for name, default in re.findall(r"`(\w+)` \(([^)]*)\)", cell):
            try:
                want = tuple(float(x) for x in default.split(","))
            except ValueError:
                continue  # a description, such as "term list", or the mode name
            got = tuple(np.atleast_1d(np.asarray(getattr(obj, name), dtype=float)))
            assert got == want, f"{section}.{name}: README says ({default})"


def test_readme_checkpoint_row_names_the_commit_fields():
    """The README's run-directory row for checkpoint.json lists `_Commit`'s fields in order."""
    with open(README) as fh:
        row = re.search(r"^checkpoint\.json .*?(?=^\S)", fh.read(), flags=re.M | re.S).group(0)
    fields = [f.name for f in dataclasses.fields(codesign._Commit)]
    assert re.findall(r"`(\w+)`", row) == fields


def test_importing_cli_leaves_numpy_unloaded():
    # CODESIGN_THREADS is applied in main(); numpy must not load before it.
    src = os.path.dirname(os.path.dirname(gearevo.__file__))
    code = "import sys, gearevo.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("cap, threads", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_thread_cap_pins_blas_threads(monkeypatch, cap, threads):
    """BLAS runs CODESIGN_THREADS threads, or one where it is unset, whatever was set before."""
    if cap is None:
        monkeypatch.delenv("CODESIGN_THREADS", raising=False)
    else:
        monkeypatch.setenv("CODESIGN_THREADS", cap)
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "8")
    cli._apply_thread_cap()
    assert [os.environ[var] for var in THREAD_VARS] == [threads] * len(THREAD_VARS)


# --- run -----------------------------------------------------------------------


def test_run_writes_manifest_and_artifacts(completed_run, capsys):
    out = completed_run
    manifest = read_manifest(out)
    assert sorted(manifest) == ["config_hash", "created_at", "run_id"]
    cfg = parse_config(os.path.join(out, CONFIG_SNAPSHOT_FILE))
    assert cfg.mode is Mode.EA_CORL and cfg.seed == 0
    assert read_commit(out)["iteration"] == cfg.cma.max_iterations == 2
    snapshot_text = open(os.path.join(out, CONFIG_SNAPSHOT_FILE)).read()
    assert manifest["config_hash"] == hashlib.sha256(
        snapshot_text.encode("utf-8")
    ).hexdigest()
    assert manifest["run_id"].startswith(manifest["config_hash"][:12])
    assert os.path.exists(os.path.join(out, EVOLUTION_FILE))
    assert os.path.exists(os.path.join(out, "policies", "best.bin"))
    evolution = read_table(
        os.path.join(out, EVOLUTION_FILE), lambda h: h[0] == "iteration", "an evolution CSV"
    )
    assert len(evolution) == 2


def test_run_same_seed_reproducible(micro_ini, completed_run, tmp_path, capsys):
    out2 = str(tmp_path / "again")
    assert main(["run", "--config", micro_ini, "--out", out2, "--seed", "0"]) == EXIT_OK
    assert read_bytes(completed_run, EVOLUTION_FILE) == read_bytes(out2, EVOLUTION_FILE)


def test_run_mode_flag(micro_ini, tmp_path, capsys):
    out = str(tmp_path / "pt")
    code = main(
        ["run", "--config", micro_ini, "--out", out, "--seed", "0", "--mode", "pt-ft"]
    )
    assert code == EXIT_OK
    assert read_commit(out)["mode"] == "pt-ft"


def test_run_single_iteration_modes_agree(micro_ini, tmp_path, capsys):
    outs = {}
    for mode in ("ea-corl", "pt-ft"):
        out = str(tmp_path / mode)
        code = main(
            [
                "run", "--config", micro_ini, "--out", out,
                "--seed", "0", "--mode", mode, "--iterations", "1",
            ]
        )
        assert code == EXIT_OK
        outs[mode] = read_commit(out)["j_star"]
    assert outs["ea-corl"] == outs["pt-ft"]


def test_iterations_flag_resolves_after_file_values(tmp_path, capsys):
    path = tmp_path / "zero.ini"
    path.write_text(MICRO_INI.replace("max_iterations = 2", "max_iterations = 0"))
    out = str(tmp_path / "out")
    args = ["run", "--config", str(path), "--out", out, "--iterations", "5"]
    assert main(args) == EXIT_OK
    assert read_commit(out)["iteration"] == 5


@pytest.mark.parametrize("stop_after", ["0", "-1"])
def test_run_refuses_stop_after_below_one(micro_ini, tmp_path, capsys, stop_after):
    out = tmp_path / "o"
    code = main(["run", "--config", micro_ini, "--out", str(out), "--stop-after", stop_after])
    assert code == EXIT_ERROR
    assert "--stop-after" in capsys.readouterr().err
    assert not out.exists()  # refused before the run directory is made


def test_run_error_exit_code(tmp_path, capsys):
    code = main(
        ["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["0:5", "2:1", "-1:0"])
def test_run_refuses_out_of_range_sym_pairs(micro_ini, tmp_path, capsys, pairs):
    out = tmp_path / "o"
    code = main(
        ["run", "--config", micro_ini, "--out", str(out), "--set", f"env.sym_pairs={pairs}"]
    )
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "sym_pairs" in err and "Traceback" not in err
    assert not out.exists()  # refused before the run directory is made


def test_run_refuses_duplicate_active_reward_term(micro_ini, tmp_path, capsys):
    with pytest.raises(ConfigError, match="chinup"):
        parse_config(None, ["reward.active=chinup,torque,chinup"])
    out = tmp_path / "o"
    code = main(
        ["run", "--config", micro_ini, "--out", str(out),
         "--set", "reward.active=chinup,torque,chinup"]
    )
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "'chinup'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["base_train_iters", "adapt_train_iters"])
def test_run_refuses_zero_train_iters(micro_ini, tmp_path, capsys, key):
    out = tmp_path / "o"
    code = main(["run", "--config", micro_ini, "--out", str(out), "--set", f"run.{key}=0"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: run.{key} must be at least 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["run.n_env=0"], "n_pop and n_env must be positive"),
        (["run.n_env=-64"], "n_pop and n_env must be positive"),
        (["design.dim=3"], "design.dim must be 2, got 3"),
        (["design.dim=1"], "design.dim must be 2, got 1"),
        (
            ["run.n_pop=8", "run.n_env=8", "ppo.horizon=1", "ppo.minibatches=16"],
            "ppo.minibatches (16) must be at most run.n_env x ppo.horizon (8 x 1)",
        ),
    ],
)
def test_run_refuses_config_that_cannot_run(micro_ini, tmp_path, capsys, overrides, message):
    # Without the up-front check each would fail, or score every design +inf,
    # only after the run directory and its "running" manifest exist.
    out = tmp_path / "o"
    args = ["run", "--config", micro_ini, "--out", str(out)]
    code = main(args + [arg for o in overrides for arg in ("--set", o)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


# --- resume ----------------------------------------------------------------------


def test_stop_after_then_resume_matches_straight_through(
    micro_ini, completed_run, tmp_path, capsys
):
    out = str(tmp_path / "partial")
    code = main(
        [
            "run", "--config", micro_ini, "--out", out,
            "--seed", "0", "--stop-after", "1",
        ]
    )
    assert code == EXIT_PARTIAL
    assert read_commit(out)["iteration"] == 1

    assert main(["resume", out]) == EXIT_OK
    assert read_commit(out)["iteration"] == 2
    assert read_bytes(out, EVOLUTION_FILE) == read_bytes(completed_run, EVOLUTION_FILE)


def _raise_keyboard_interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def test_run_ctrl_c_exits_partial_and_prints_resume_hint(
    micro_ini, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(codesign, "run", _raise_keyboard_interrupt)
    out = str(tmp_path / "ctrl-c")
    code = main(["run", "--config", micro_ini, "--out", out, "--seed", "0"])
    assert code == EXIT_PARTIAL
    assert not os.path.exists(os.path.join(out, codesign.CHECKPOINT_FILE))
    assert f"gearevo resume {out}" in capsys.readouterr().err


def test_resume_ctrl_c_exits_partial_and_prints_resume_hint(
    micro_ini, tmp_path, monkeypatch, capsys
):
    out = str(tmp_path / "killed")
    main(
        [
            "run", "--config", micro_ini, "--out", out,
            "--seed", "0", "--stop-after", "1",
        ]
    )
    before = tree_bytes(out)
    capsys.readouterr()

    monkeypatch.setattr(codesign, "run", _raise_keyboard_interrupt)
    assert main(["resume", out]) == EXIT_PARTIAL
    assert tree_bytes(out) == before
    assert f"gearevo resume {out}" in capsys.readouterr().err


def test_resume_completed_run_is_noop(completed_run, capsys):
    """A resume of a finished run checks its commit and changes no byte."""
    before = tree_bytes(completed_run)
    best = read_commit(completed_run)["j_star"]
    capsys.readouterr()
    assert main(["resume", completed_run]) == EXIT_OK
    assert capsys.readouterr().out == f"resumed ea-corl: 2 iterations, best fitness {best:.6g}\n"
    assert tree_bytes(completed_run) == before


def test_manifest_is_written_once(micro_ini, tmp_path, monkeypatch, capsys):
    """`run` writes manifest.json before iteration 1, and neither a stop, a
    resume nor a Ctrl-C rewrites it."""
    out = str(tmp_path / "once")
    written = []
    run = codesign.run

    def recording_run(*args, **kwargs):
        written.append(read_bytes(out, MANIFEST_FILE))
        return run(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(codesign, "run", recording_run)
        args = ["run", "--config", micro_ini, "--out", out, "--stop-after", "1"]
        assert main(args) == EXIT_PARTIAL
    assert sorted(json.loads(written[0])) == ["config_hash", "created_at", "run_id"]
    assert read_bytes(out, MANIFEST_FILE) == written[0]
    assert main(["resume", out]) == EXIT_OK
    assert read_bytes(out, MANIFEST_FILE) == written[0]
    monkeypatch.setattr(codesign, "run", _raise_keyboard_interrupt)
    assert main(["resume", out]) == EXIT_PARTIAL
    assert read_bytes(out, MANIFEST_FILE) == written[0]


def test_resume_refuses_on_config_hash_mismatch(
    micro_ini, tmp_path, capsys
):
    out = str(tmp_path / "tampered")
    main(
        [
            "run", "--config", micro_ini, "--out", out,
            "--seed", "0", "--stop-after", "1",
        ]
    )
    snapshot = os.path.join(out, CONFIG_SNAPSHOT_FILE)
    text = open(snapshot).read()
    with open(snapshot, "w") as fh:
        fh.write(text.replace("seed = 0", "seed = 1"))
    assert main(["resume", out]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "config hash mismatch" in err and "refusing" in err


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_commands_refuse_an_edited_config_snapshot(completed_run, tmp_path, capsys, command):
    """Evaluate and sweep check config.snapshot against the manifest's hash, as resume does."""
    run_dir = str(tmp_path / "copy")
    shutil.copytree(completed_run, run_dir)
    snapshot = os.path.join(run_dir, CONFIG_SNAPSHOT_FILE)
    text = open(snapshot).read()
    assert "kp = 60.0\n" in text
    with open(snapshot, "w") as fh:
        fh.write(text.replace("kp = 60.0\n", "kp = 5.0\n"))
    before = tree_bytes(run_dir)
    capsys.readouterr()
    assert main([command, run_dir]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config hash mismatch")
    assert tree_bytes(run_dir) == before


def test_resume_missing_manifest(tmp_path, capsys):
    assert main(["resume", str(tmp_path)]) == EXIT_ERROR
    assert "missing manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage",
    ["torn", "without config_hash", "config_hash not a string", "complete without run_id"],
)
def test_resume_refuses_corrupt_manifest(completed_run, tmp_path, capsys, damage):
    run_dir = str(tmp_path / "copy")
    shutil.copytree(completed_run, run_dir)
    path = os.path.join(run_dir, MANIFEST_FILE)
    if damage == "torn":
        text = read_bytes(run_dir, MANIFEST_FILE)
        with open(path, "wb") as fh:
            fh.write(text[: len(text) // 2])
    else:
        manifest = read_manifest(run_dir)
        if damage == "without config_hash":
            del manifest["config_hash"]
        elif damage == "config_hash not a string":
            manifest["config_hash"] = 5
        else:
            assert read_commit(run_dir)["iteration"] == 2  # the run is complete
            del manifest["run_id"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
    capsys.readouterr()
    assert main(["resume", run_dir]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: corrupt manifest {path}: ")


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(codesign._Commit)])
def test_commit_without_a_field_is_refused(completed_run, tmp_path, capsys, field):
    """Resume and evaluate refuse a checkpoint.json that lacks a field, naming it."""
    run_dir = str(tmp_path / "copy")
    shutil.copytree(completed_run, run_dir)
    path = os.path.join(run_dir, codesign.CHECKPOINT_FILE)
    with open(path) as fh:
        commit = json.load(fh)
    del commit[field]
    with open(path, "w") as fh:
        json.dump(commit, fh)
    named = "checkpoint version None" if field == "version" else f"fields ['{field}'] missing"
    cfg = parse_config(os.path.join(run_dir, CONFIG_SNAPSHOT_FILE))
    with pytest.raises(CheckpointError) as refused:
        codesign.run(cfg, out_dir=run_dir, resume=True)
    assert named in str(refused.value)
    capsys.readouterr()
    assert main(["evaluate", run_dir, "--episodes", "1"]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.mark.parametrize(
    "keys, value, named",
    [
        (("policies", "best", "snapshot_id"), "1", "_Snapshot.snapshot_id: expected int, got '1'"),
        (("iteration",), True, "_Commit.iteration: expected int, got True"),
        (("cma_state", "generation"), 2.0, "CmaEsState.generation: expected int, got 2.0"),
        (("j_star",), "-1.5", "_Commit.j_star: expected float, got '-1.5'"),
        (("mode",), 0, "_Commit.mode: expected str, got 0"),
    ],
    ids=["snapshot_id-str", "iteration-bool", "generation-float", "j_star-str", "mode-int"],
)
def test_commit_with_a_scalar_of_another_type_is_refused(
    completed_run, tmp_path, capsys, keys, value, named
):
    """Evaluate refuses a checkpoint.json scalar of another JSON type, naming the field."""
    run_dir = str(tmp_path / "copy")
    shutil.copytree(completed_run, run_dir)
    path = os.path.join(run_dir, codesign.CHECKPOINT_FILE)
    with open(path) as fh:
        commit = json.load(fh)
    record = commit
    for key in keys[:-1]:
        record = record[key]
    record[keys[-1]] = value
    with open(path, "w") as fh:
        json.dump(commit, fh)
    assert main(["evaluate", run_dir, "--episodes", "1"]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def _grow(values):
    """A list one entry longer; a square list of lists one row and column larger."""
    if values and isinstance(values[0], list):
        return [row + [0.0] for row in values] + [[0.0] * (len(values) + 1)]
    return values + [0.0]


CMA_STATE_EDITS = [
    ("mean", _grow, "expected shape (2,), found shape (3,)"),
    ("path_sigma", _grow, "expected shape (2,), found shape (3,)"),
    ("path_c", _grow, "expected shape (2,), found shape (3,)"),
    ("cov", _grow, "expected shape (2, 2), found shape (3, 3)"),
    ("weights", _grow, "expected shape (1,), found shape (2,)"),
    ("lam", lambda v: v + 1, "expected 2, found 3"),
    ("mu", lambda v: v + 1, "expected 1, found 2"),
    ("seed", lambda v: v + 1, "expected 0, found 1"),
    ("generation", lambda v: v + 1, "expected {}, found {}"),  # the commit's iteration, + 1
]


@pytest.fixture(scope="module")
def stopped_run(micro_ini, tmp_path_factory):
    """A micro run stopped after iteration 1 of 2."""
    out = str(tmp_path_factory.mktemp("runs") / "stopped")
    args = ["run", "--config", micro_ini, "--out", out, "--seed", "0", "--stop-after", "1"]
    assert main(args) == EXIT_PARTIAL
    return out


# A case's id is its field, with "-complete" after it for the finished run.
CMA_STATE_CASES = [
    pytest.param(complete, *edit, id=f"{edit[0]}-complete" if complete else edit[0])
    for complete in (False, True)
    for edit in CMA_STATE_EDITS
]


@pytest.mark.parametrize("complete, field, edit, named", CMA_STATE_CASES)
def test_cma_state_that_does_not_fit_the_config_is_refused(
    request, tmp_path, capsys, complete, field, edit, named
):
    """Resume and evaluate refuse a committed CMA-ES state of other sizes or
    counters than the config gives, naming the field, before touching a file;
    resume does so both where it would train on (a run stopped after
    iteration 1) and where it has nothing left to run (a finished run)."""
    run_dir = str(tmp_path / "copy")
    shutil.copytree(request.getfixturevalue("completed_run" if complete else "stopped_run"), run_dir)
    path = os.path.join(run_dir, codesign.CHECKPOINT_FILE)
    with open(path) as fh:
        commit = json.load(fh)
    commit["cma_state"][field] = edit(commit["cma_state"][field])
    named = named.format(commit["iteration"], commit["iteration"] + 1)
    with open(path, "w") as fh:
        json.dump(commit, fh)
    before = tree_bytes(run_dir)
    capsys.readouterr()
    for command in ("resume", "evaluate"):
        assert main([command, run_dir]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"cma_state.{field}: {named}" in err[0]
        assert tree_bytes(run_dir) == before


# --- sweep ----------------------------------------------------------------------


def test_sweep_writes_heatmap_csv(completed_run, capsys):
    code = main(["sweep", completed_run, "--resolution", "2"])
    assert code == EXIT_OK
    path = os.path.join(completed_run, "heatmap_0_1.csv")
    assert os.path.exists(path)
    lines = open(path).read().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + resolution**2 cells
    assert "wrote" in capsys.readouterr().out


def test_sweep_explicit_axes_match_all(completed_run, capsys):
    before = read_bytes(completed_run, "heatmap_0_1.csv")
    assert main(["sweep", completed_run, "--axes", "0,1", "--resolution", "2"]) == EXIT_OK
    assert read_bytes(completed_run, "heatmap_0_1.csv") == before


class Killed(RuntimeError):
    pass


def test_sweep_killed_mid_write_keeps_the_earlier_heatmap(completed_run, tmp_path, monkeypatch):
    """A sweep killed halfway through writing a heatmap leaves the earlier one whole."""
    run_dir = str(tmp_path / "run")
    shutil.copytree(completed_run, run_dir)
    assert main(["sweep", run_dir, "--axes", "0,1", "--resolution", "2"]) == EXIT_OK
    before = read_bytes(run_dir, "heatmap_0_1.csv")
    original = codesign.write_heatmap_csv

    def torn(grid, axis_a, axis_b, path):
        original(grid, axis_a, axis_b, path)
        os.truncate(path, os.path.getsize(path) // 2)
        raise Killed(path)

    monkeypatch.setattr(codesign, "write_heatmap_csv", torn)
    with pytest.raises(Killed):
        main(["sweep", run_dir, "--axes", "0,1", "--resolution", "3"])
    assert read_bytes(run_dir, "heatmap_0_1.csv") == before


def test_sweep_malformed_axes(completed_run, capsys):
    assert main(["sweep", completed_run, "--axes", "0:1"]) == EXIT_ERROR
    assert "--axes" in capsys.readouterr().err


def test_sweep_axis_out_of_range(completed_run, capsys):
    assert main(["sweep", completed_run, "--axes", "0,5"]) == EXIT_ERROR
    assert "dim" in capsys.readouterr().err


# --- evaluate ---------------------------------------------------------------------


def test_evaluate_explicit_design_with_dumps(completed_run, tmp_path, capsys):
    traj = str(tmp_path / "trajectory.csv")
    rewards = str(tmp_path / "rewards.csv")
    code = main(
        [
            "evaluate", completed_run, "--design", "1.5,1.5",
            "--episodes", "3", "--dump-trajectory", traj, "--dump-rewards", rewards,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "design [1.5, 1.5]" in out
    assert "fitness" in out and "(3 episodes)" in out
    assert len(open(traj).read().splitlines()) > 1
    assert len(open(rewards).read().splitlines()) > 1


def test_evaluate_defaults_to_best_design(completed_run, capsys):
    assert main(["evaluate", completed_run]) == EXIT_OK
    assert "fitness" in capsys.readouterr().out


def test_evaluate_out_of_bounds_design_is_clamped(completed_run, capsys):
    assert main(["evaluate", completed_run, "--design", "9.0,0.1"]) == EXIT_OK
    # bounds are [0.5, 4.0]; the reported design is the projected one
    assert "design [4, 0.5]" in capsys.readouterr().out


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_evaluate_refuses_episodes_below_one(completed_run, capsys, episodes):
    assert main(["evaluate", completed_run, "--episodes", episodes]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: --episodes must be at least 1, got {episodes}" in err


def test_evaluate_malformed_design(completed_run, capsys):
    assert main(["evaluate", completed_run, "--design", "a,b"]) == EXIT_ERROR
    assert "--design" in capsys.readouterr().err


def test_evaluate_wrong_design_dim(completed_run, capsys):
    assert main(["evaluate", completed_run, "--design", "1.0,1.0,1.0"]) == EXIT_ERROR
    assert "dim" in capsys.readouterr().err


def run_with_failed_commit(micro_ini, out, monkeypatch):
    """A 4-iteration micro run whose iteration 3 fails at its commit: the
    append-only files hold its rows and best.bin its snapshot 3, and
    checkpoint.json the commit of iteration 2, whose best is snapshot 1."""
    write_json = codesign._write_json

    def failing_commit(payload, path):
        if payload["iteration"] == 3:
            raise CheckpointError("injected failure of the iteration 3 commit")
        write_json(payload, path)

    with monkeypatch.context() as m:
        m.setattr(codesign, "_write_json", failing_commit)
        args = ["run", "--config", micro_ini, "--out", out, "--iterations", "4"]
        assert main(args) == EXIT_ERROR
    with open(os.path.join(out, codesign.CHECKPOINT_FILE)) as fh:
        commit = json.load(fh)
    assert commit["iteration"] == 2 and commit["policies"]["best"]["snapshot_id"] == 1
    assert load_policy(os.path.join(out, "policies", "best.bin")).snapshot_id == 3
    return commit


def test_evaluate_and_sweep_use_the_committed_best(micro_ini, tmp_path, monkeypatch, capsys):
    """A crash before the commit of iteration 3 leaves best.bin holding its
    snapshot 3; evaluate and sweep still use snapshot 1, which the commit of
    iteration 2 names, and the committed best design."""
    out = str(tmp_path / "run")
    commit = run_with_failed_commit(micro_ini, out, monkeypatch)

    seen = []
    rollout_returns, heatmap_sweep = codesign.rollout_returns, codesign.heatmap_sweep

    def recording_returns(env_cfg, reward_cfg, params, design, *args, **kwargs):
        seen.append((params.snapshot_id, design.factors.tolist()))
        return rollout_returns(env_cfg, reward_cfg, params, design, *args, **kwargs)

    def recording_sweep(cfg, params, a, b, resolution, fixed=None):
        seen.append((params.snapshot_id, fixed.factors.tolist()))
        return heatmap_sweep(cfg, params, a, b, resolution, fixed=fixed)

    monkeypatch.setattr(codesign, "rollout_returns", recording_returns)
    assert main(["evaluate", out, "--episodes", "1"]) == EXIT_OK
    monkeypatch.setattr(codesign, "rollout_returns", rollout_returns)
    monkeypatch.setattr(codesign, "heatmap_sweep", recording_sweep)
    assert main(["sweep", out, "--resolution", "2"]) == EXIT_OK
    assert seen == [(1, commit["d_star"])] * 2


def test_read_run_modifies_nothing(micro_ini, tmp_path, monkeypatch, capsys):
    """read_run returns the committed records of a run whose last iteration
    crashed before its commit and leaves every file as it was; a resume
    then still rolls back and finishes as a straight-through run."""
    out = str(tmp_path / "run")
    run_with_failed_commit(micro_ini, out, monkeypatch)
    before = tree_bytes(out)
    cfg = cli._open_run(out)
    commit, history, base, best = codesign.read_run(cfg, out)
    assert tree_bytes(out) == before
    assert commit.iteration == 2 and [rec.iteration for rec in history] == [1, 2]
    assert (base.snapshot_id, best.snapshot_id) == (1, 1)
    assert main(["resume", out]) == EXIT_OK
    straight = str(tmp_path / "straight")
    assert main(["run", "--config", micro_ini, "--out", straight, "--iterations", "4"]) == EXIT_OK
    assert read_bytes(out, EVOLUTION_FILE) == read_bytes(straight, EVOLUTION_FILE)


def test_evaluate_refuses_tampered_best_snapshot(completed_run, tmp_path, capsys):
    with open(os.path.join(completed_run, codesign.CHECKPOINT_FILE)) as fh:
        best_id = json.load(fh)["policies"]["best"]["snapshot_id"]
    run_dir = str(tmp_path / "copy")
    shutil.copytree(completed_run, run_dir)
    path = os.path.join(run_dir, "policies", f"iter_{best_id:04d}.bin")
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    assert main(["evaluate", run_dir]) == EXIT_ERROR
    assert "SHA-256" in capsys.readouterr().err


def test_evaluate_without_run_directory(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path)]) == EXIT_ERROR
