"""The paired A/B script: its bootstrap interval, an A/A run of this
checkout against itself, its count of the pool workers' page faults and of
each tree's source lines, a pair whose CSVs differ, and a pair of equal
copies whose CSVs both miss the stored digest."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

import timsr.sim
from timsr import make_config
from timsr.sim import harvest_sweep

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(tree_a, tree_b, monkeypatch, seed=1):
    # two rounds of one-sweep runs keep the smoke runs short
    monkeypatch.setattr(ab, "ROUNDS", 2)
    monkeypatch.setattr(ab, "SWEEPS", 1)
    return ab.main([str(tree_a), str(tree_b), "--workload", "ber_ml_8_4", "--pairs", "2",
                    "--seed", str(seed)])


def _coarser_copy(dest):
    """A copy of this checkout whose CSVs print one significant digit fewer."""
    shutil.copytree(ROOT / "src" / "timsr", dest / "src" / "timsr",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    sim = dest / "src" / "timsr" / "sim.py"
    sim.write_text(sim.read_text().replace('".12g"', '".11g"'))
    return dest


def test_median_interval_is_fixed_and_brackets_the_median():
    ratios = [0.9, 1.0, 1.05, 1.1, 1.2, 1.3]
    low, high = ab.median_interval([ratios])
    assert (low, high) == ab.median_interval([ratios])
    assert min(ratios) <= low <= 1.075 <= high <= max(ratios)
    assert ab.median_interval([[1.25] * 5]) == (1.25, 1.25)


def test_median_interval_counts_the_spread_between_rounds():
    # rounds that each agree within themselves but not with each other
    rounds = [[0.95] * 10, [1.05] * 10, [0.97] * 10, [1.03] * 10]
    assert ab.median_interval(rounds) == (0.95, 1.05)
    assert ab.median_interval([[r for pairs in rounds for r in pairs]]) != (0.95, 1.05)


def test_a_against_a(monkeypatch, capsys):
    assert _run(ROOT, ROOT, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "ber_ml_8_4 back to back", "ber_ml_8_4 after 100 ms idle"]
    for line in lines:
        assert re.search(r"median A/B time ratio [0-9.]+, 95% interval \[[0-9.]+, [0-9.]+\], "
                         r"B faster in [0-4]/4 pairs over 2 rounds; "
                         r"median seconds A [0-9.]+, B [0-9.]+; "
                         r"median minor page faults per sweep A [0-9]+, B [0-9]+, "
                         r"in pool workers A [0-9]+, B [0-9]+; "
                         r"src/timsr lines A [0-9]+, B [0-9]+$", line)
        n = ab.src_lines(ROOT)
        assert line.endswith(f"src/timsr lines A {n}, B {n}")


def test_src_lines_counts_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "timsr"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not a module\n")
    assert ab.src_lines(tmp_path) == 3


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc")
def test_worker_faults_read_each_pool_worker():
    try:
        harvest_sweep(make_config(trials=8), n2_grid=(0, 16), workers=2)
        faults = ab.worker_faults()
        assert sorted(faults) == sorted(timsr.sim._shared[1]._processes)
        assert all(isinstance(n, int) and n > 0 for n in faults.values())
    finally:
        timsr.sim._drop_pool()
    assert ab.worker_faults() == {}


def test_differing_csvs_fail(tmp_path, monkeypatch, capsys):
    # seed 3 has no stored digest, so only the comparison of the two trees fails
    assert _run(ROOT, _coarser_copy(tmp_path), monkeypatch, seed=3) == 1
    assert "the CSVs differ" in capsys.readouterr().err


def test_equal_csvs_that_miss_the_stored_digest_fail(tmp_path, monkeypatch, capsys):
    a, b = _coarser_copy(tmp_path / "a"), _coarser_copy(tmp_path / "b")
    assert _run(a, b, monkeypatch) == 1
    assert "not the one perfbench/digests.json stores" in capsys.readouterr().err
