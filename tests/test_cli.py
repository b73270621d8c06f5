import functools
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import timsr.sim
from timsr import cli
from timsr.cli import main
from timsr.config import SimConfig
from timsr.sim import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "timsr"

SMALL = "k_slots = 4\nl_slots = 2\ncodebook_strategy = table1\nsnr_db_grid = 0, 10\n"


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL)
    return path


def test_power_budget_prints_values(capsys):
    assert main(["power-budget", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "3.456 mW" in out
    assert "23.680 mW" in out
    assert "8.36 dB" in out


def test_ber_sweep_writes_csv(tmp_path, cfg_file):
    out = tmp_path / "ber.csv"
    code = main(["ber-sweep", "--config", str(cfg_file), "--trials", "40",
                 "--seed", "3", "--out", str(out), "--detector", "llr"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and lines[0].endswith("seed=3")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # meta + header + 2 grid points


def test_scheme_flag_overrides(tmp_path):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("snr_db_grid = 0\n")
    out = tmp_path / "ber.csv"
    assert main(["ber-sweep", "--config", str(cfg), "--trials", "20",
                 "--scheme", "8,4", "--out", str(out)]) == 0
    body = out.read_text().splitlines()[2]
    assert body.split(",")[1:3] == ["8", "4"]


def test_incompatible_override_fails_cleanly(tmp_path, cfg_file, capsys):
    # table1 strategy from the file cannot serve a (8,2) layout
    out = tmp_path / "ber.csv"
    assert main(["ber-sweep", "--config", str(cfg_file), "--trials", "5",
                 "--scheme", "8,2", "--out", str(out)]) == 2
    assert "table1" in capsys.readouterr().err


def test_harvest_sweep_grid(tmp_path, cfg_file):
    out = tmp_path / "harvest.csv"
    code = main(["harvest-sweep", "--config", str(cfg_file), "--trials", "30",
                 "--n2-grid", "0,35", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    n2_col = CSV_COLUMNS.index("n2")
    assert [ln.split(",")[n2_col] for ln in lines[2:]] == ["0", "35"]


def test_harvest_sweep_range_grid(tmp_path, cfg_file):
    out = tmp_path / "harvest.csv"
    assert main(["harvest-sweep", "--config", str(cfg_file), "--trials", "20",
                 "--n2-grid", "0:65:32", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_benchmark_command(tmp_path, cfg_file):
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--config", str(cfg_file), "--trials", "20",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2].startswith("benchmark,")


def test_paper_compat_flag(tmp_path, cfg_file):
    out = tmp_path / "ber.csv"
    assert main(["ber-sweep", "--config", str(cfg_file), "--trials", "20",
                 "--paper-compat", "--out", str(out)]) == 0


def test_bad_config_key_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 1\n")
    assert main(["ber-sweep", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ber-sweep", "--workers", "0"],
    ["harvest-sweep", "--workers", "-1"],
    ["harvest-sweep", "--n2-grid", "64:0:16"],
    ["harvest-sweep", "--n2-grid", "0:0:16"],
    ["harvest-sweep", "--n2-grid", ""],
])
def test_bad_sweep_input_fails_cleanly(tmp_path, cfg_file, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", str(cfg_file), "--trials", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("command", ["ber-sweep", "harvest-sweep", "benchmark"])
def test_unwritable_out_fails_before_the_sweep(tmp_path, cfg_file, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "ber_sweep", _no_sweep)
    monkeypatch.setattr(cli, "harvest_sweep", _no_sweep)
    out = tmp_path / "missing" / "x.csv"
    assert main([command, "--config", str(cfg_file), "--trials", "3000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def test_existing_out_survives_a_failed_sweep(tmp_path, cfg_file, monkeypatch):
    def failing_sweep(*args, **kwargs):
        raise ValueError("the sweep failed")

    monkeypatch.setattr(cli, "ber_sweep", failing_sweep)
    out = tmp_path / "ber.csv"
    out.write_text("an earlier run\n")
    assert main(["ber-sweep", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert out.read_text() == "an earlier run\n"


# power-budget writes no CSV and runs no detector; harvest-sweep runs none either
@pytest.mark.parametrize("command, flag", [
    ("power-budget", ["--out", "pb.csv"]),
    ("power-budget", ["--detector", "ml"]),
    ("power-budget", ["--paper-compat"]),
    ("harvest-sweep", ["--detector", "ml"]),
    ("harvest-sweep", ["--paper-compat"]),
], ids=["flag0", "flag1", "flag2", "harvest-detector", "harvest-paper-compat"])
def test_power_budget_rejects_sweep_flags(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.setattr(cli, "power_budget_report", _no_sweep)
    monkeypatch.setattr(cli, "harvest_sweep", _no_sweep)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--trials", "5", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_scheme_flag(tmp_path, cfg_file, capsys):
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(cfg_file), "--scheme", "eight-two",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --scheme expects 'K,L'")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:64", "0:64:0", "0:x:16", "1,two"])
def test_malformed_grid_fails_cleanly(tmp_path, cfg_file, capsys, grid):
    out = tmp_path / "out.csv"
    assert main(["harvest-sweep", "--config", str(cfg_file), "--trials", "5",
                 "--n2-grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:10:0", "a,b"])
def test_malformed_grid_names_the_flag(tmp_path, cfg_file, capsys, grid):
    out = tmp_path / "out.csv"
    assert main(["harvest-sweep", "--config", str(cfg_file), "--trials", "5",
                 "--n2-grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n2-grid expects ") and repr(grid) in err
    assert not out.exists()


@pytest.mark.parametrize("line, kind", [
    ("seed = abc", "an integer"),
    ("kappa = five", "a number"),
    ("snr_db_grid = 0, x", "a list of numbers"),
    ("paper_compat = maybe", "a boolean"),
])
def test_unparsable_config_value_names_line_and_key(tmp_path, capsys, line, kind):
    path = tmp_path / "bad.cfg"
    path.write_text(f"trials = 5\n{line}\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 2
    key, value = (part.strip() for part in line.split("="))
    assert capsys.readouterr().err == (f"error: config line 2: key {key}: cannot parse "
                                       f"{value!r} as {kind}\n")
    assert not out.exists()


def test_repeated_config_key_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("seed = 1\ntrials = 5\nseed = 2\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: config line 3: key 'seed' already set on line 1\n"
    assert not out.exists()


@pytest.mark.parametrize("zeroed, ratio", [
    ("p_switch_uw = 0\n", "inf"),
    ("p_drive_uw = 0\n", "-inf"),
    ("p_switch_uw = 0\np_drive_uw = 0\n", "nan"),
], ids=["free_rf", "free_varactor", "both_free"])
def test_power_budget_with_free_technology(tmp_path, capsys, zeroed, ratio):
    # zero consumption validates; the ratio to a free technology is infinite
    path = tmp_path / "free.cfg"
    path.write_text("p_cb_uw = 0\n" + zeroed)
    assert main(["power-budget", "--config", str(path), "--trials", "3"]) == 0
    captured = capsys.readouterr()
    assert f"varactor/rf ratio     : {ratio} dB\n" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_power_budget_rejects_workers_below_one(capsys, workers):
    assert main(["power-budget", "--trials", "5", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --workers must be >= 1")
    assert captured.out == ""


def test_oversized_ml_config_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text("m_rx = 100000\ndetector = ml\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: one trial would hold 89600000 slot-cost differences")
    assert not out.exists()


def test_overflowing_absorber_count_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out.csv"
    grid = "1" + "0" * 400
    assert main(["harvest-sweep", "--trials", "1", "--n2-grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: absorber count {grid} is not a whole")
    assert not out.exists()


def test_oversized_absorber_grid_fails_cleanly(tmp_path, capsys, monkeypatch):
    # 4,097 counts of K = 4096 slots: the harvester would stack 2 * 4097 * 4096 samples
    monkeypatch.setattr(timsr.sim, "_map_points", _no_sweep)
    path = tmp_path / "long.cfg"
    path.write_text("k_slots = 4096\nl_slots = 1\nm_rx = 1\nm_order = 2\nsnr_db_grid = 10\n")
    out = tmp_path / "out.csv"
    grid = ",".join(["0"] * 4097)
    assert main(["harvest-sweep", "--config", str(path), "--trials", "1", "--n2-grid", grid,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: one trial would hold 33562624 harvester samples (2 * C * K = 2 * 4097 * 4096), "
        "more than 33554432; use a smaller layout or fewer absorber counts\n")
    assert not out.exists()


def test_zero_receive_antennas_fail_cleanly(tmp_path, capsys):
    path = tmp_path / "mrx.cfg"
    path.write_text("m_rx = 0\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: m_rx must be >= 1")
    assert not out.exists()


def test_unusable_power_level_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "dbm.cfg"
    path.write_text("p_low_dbm = 4000\np_high_dbm = 4000\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: p_low_dbm value 4000.0 dBm")
    assert not out.exists()


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_commands_match_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    parsed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    listed = re.findall(r"^timsr (\S+)", _readme_section("Command line"), re.MULTILINE)
    assert listed == parsed


def test_readme_config_keys_match_fields():
    rows = [ln for ln in _readme_section("Configuration").splitlines() if ln.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(SimConfig))


def _resolves(name, namespace) -> bool:
    """Whether the dotted ``name`` is a chain of attributes of ``namespace``."""
    try:
        functools.reduce(getattr, name.split("."), namespace)
    except AttributeError:
        return False
    return True


def test_docstring_cross_references_resolve():
    # a bare :func:, :class: or :meth: target lives in its own module, a
    # timsr.-prefixed one is looked up from the package
    seen, stale = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"timsr.{path.stem}".removesuffix(".__init__"))
        targets = re.findall(r":(?:func|class|meth):`([\w.]+)`", path.read_text(encoding="utf-8"))
        seen += len(targets)
        stale += [f"{path.name}: {name}" for name in targets
                  if not _resolves(name.removeprefix("timsr."),
                                   timsr if name.startswith("timsr.") else module)]
    assert seen and stale == []


# class members the README names without their module, and that module
README_MEMBERS = {"ChannelModel.realize": "channel", "Observation.with_noise": "rx"}


def test_readme_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"`(channel|cli|config|ris|rx|sim|txphy)\.([\w.]*\w)", text)
    assert names and all(member in text for member in README_MEMBERS)
    names += [(module, member) for member, module in README_MEMBERS.items()]
    stale = [f"{module}.{name}" for module, name in names
             if not _resolves(name, importlib.import_module(f"timsr.{module}"))]
    assert stale == []


def test_unusable_snr_point_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "snr.cfg"
    path.write_text("snr_db_grid = 4000\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: snr_db_grid value 4000.0 dB")
    assert not out.exists()


def _run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("script, n_csv", [("run_ber_sweep.py", 6), ("run_harvest_sweep.py", 3)])
def test_campaign_script_writes_every_csv(tmp_path, script, n_csv):
    run = _run_script(script, "--trials", "2", "--outdir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    written = sorted(tmp_path.glob("*.csv"))
    assert len(written) == n_csv
    for path in written:
        assert path.read_text().splitlines()[1] == ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("script, flag, message", [
    ("run_ber_sweep.py", "--workers", "workers must be an integer >= 1"),
    ("run_harvest_sweep.py", "--step", "--step must be >= 1"),
])
def test_campaign_script_fails_cleanly(tmp_path, script, flag, message):
    run = _run_script(script, "--trials", "2", flag, "0", "--outdir", str(tmp_path))
    assert run.returncode == 2
    assert run.stderr.startswith(f"error: {message}") and "Traceback" not in run.stderr
    assert list(tmp_path.glob("*.csv")) == []
