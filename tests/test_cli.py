import pytest

from timsr.cli import main
from timsr.sim import CSV_COLUMNS

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


def test_validate_subcommand(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") >= 10


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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_power_budget_rejects_workers_below_one(capsys, workers):
    assert main(["power-budget", "--trials", "5", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --workers must be >= 1")
    assert captured.out == ""


def test_oversized_ml_config_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text("l_slots = 4\nm_order = 64\ndetector = ml\n")
    assert main(["ber-sweep", "--config", str(path), "--trials", "1"]) == 2
    assert "hypotheses" in capsys.readouterr().err


def test_zero_receive_antennas_fail_cleanly(tmp_path, capsys):
    path = tmp_path / "mrx.cfg"
    path.write_text("m_rx = 0\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: m_rx must be >= 1")
    assert not out.exists()


def test_unusable_snr_point_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "snr.cfg"
    path.write_text("snr_db_grid = 4000\n")
    out = tmp_path / "out.csv"
    assert main(["ber-sweep", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: snr_db_grid value 4000.0 dB")
    assert not out.exists()
