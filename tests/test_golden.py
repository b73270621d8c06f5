"""Golden bytes: the SHA-256 of short sweeps' CSVs, of the power-budget
text and of the slot costs two wide-array sweeps score, pinned in
``golden_digests.json``. Any change to how trials are drawn, batched,
detected or aggregated that moves a single output byte fails here, and so
does one that moves a last bit of the slot costs at M_R >= 8, which the
CSVs of those sweeps are too short to show.

Record the digests again (only for a deliberate, declared output change) with

    PYTHONPATH=src python tests/test_golden.py

which names on stderr each key it adds, changes or drops.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import timsr.rx
import timsr.sim
from timsr import make_config
from timsr.cli import main as cli_main
from timsr.sim import ber_sweep, harvest_sweep

DIGESTS = Path(__file__).with_name("golden_digests.json")
TRIALS = 45

# name -> (sweep kind, make_config overrides, workers); a harvest kind names
# its absorber-count grid in HARVEST_GRIDS
CASES = {
    "llr_8_2": ("ber", dict(detector="llr"), 1),
    "ml_8_2": ("ber", dict(detector="ml"), 1),
    "ml_8_4": ("ber", dict(l_slots=4, detector="ml"), 1),
    "llr_8_2_paper_compat": ("ber", dict(detector="llr", paper_compat=True), 1),
    "ml_8_2_paper_compat": ("ber", dict(detector="ml", paper_compat=True), 1),
    "llr_benchmark": ("ber", dict(scheme="benchmark", detector="llr"), 1),
    "ml_benchmark": ("ber", dict(scheme="benchmark", detector="ml"), 1),
    "llr_4_2_table1": ("ber", dict(k_slots=4, l_slots=2, codebook_strategy="table1",
                                   detector="llr"), 1),
    "ml_4_2_table1": ("ber", dict(k_slots=4, l_slots=2, codebook_strategy="table1",
                                  detector="ml"), 1),
    "llr_4_1_bpsk": ("ber", dict(k_slots=4, l_slots=1, m_order=2, detector="llr"), 1),
    "ml_4_1_bpsk": ("ber", dict(k_slots=4, l_slots=1, m_order=2, detector="ml"), 1),
    "llr_per_entry_repeated_400db": ("ber", dict(los_phase_policy="per-entry", detector="llr",
                                                 snr_db_grid=(0.0, 10.0, 0.0, 400.0)), 1),
    "ml_per_entry_repeated_400db": ("ber", dict(los_phase_policy="per-entry", detector="ml",
                                                snr_db_grid=(0.0, 10.0, 0.0, 400.0)), 1),
    "llr_zero_los": ("ber", dict(los_phase_policy="zero", detector="llr"), 1),
    "ml_zero_los": ("ber", dict(los_phase_policy="zero", detector="ml"), 1),
    "llr_8_2_w2": ("ber", dict(detector="llr"), 2),
    "harvest_w1": ("harvest", {}, 1),
    "harvest_w2": ("harvest", {}, 2),
    "harvest_unsorted_repeated_w1": ("harvest_unsorted", {}, 1),
    "harvest_unsorted_repeated_w2": ("harvest_unsorted", {}, 2),
    "llr_8_2_n1_0": ("ber", dict(detector="llr", n1=0), 1),
    "ml_8_2_n2_0": ("ber", dict(detector="ml", n2=0), 1),
    "harvest_n1_0": ("harvest_n1_0", dict(n1=0), 1),
    "llr_8_2_m_rx_9": ("ber", dict(detector="llr", m_rx=9), 1),
    "ml_8_2_m_rx_9": ("ber", dict(detector="ml", m_rx=9), 1),
    "llr_8_2_m_rx_136": ("ber", dict(detector="llr", m_rx=136), 1),
    "ml_8_2_m_rx_136": ("ber", dict(detector="ml", m_rx=136), 1),
    "harvest_per_entry": ("harvest", dict(los_phase_policy="per-entry"), 1),
    "harvest_zero_los": ("harvest", dict(los_phase_policy="zero"), 1),
    "harvest_m_rx_1": ("harvest", dict(m_rx=1), 1),
    "harvest_m_rx_9_per_entry": ("harvest", dict(m_rx=9, los_phase_policy="per-entry"), 1),
    "llr_8_2_16qam": ("ber", dict(detector="llr", m_order=16), 1),
    "ml_8_2_16qam": ("ber", dict(detector="ml", m_order=16), 1),
    "llr_8_2_8psk": ("ber", dict(detector="llr", constellation="psk", m_order=8), 1),
    "ml_8_2_8psk": ("ber", dict(detector="ml", constellation="psk", m_order=8), 1),
    "llr_8_2_omega_1": ("ber", dict(detector="llr", omega_phase_rad=1.0), 1),
    "ml_8_2_omega_1": ("ber", dict(detector="ml", omega_phase_rad=1.0), 1),
    # the benchmark's LLR sweep at a seed whose 5 dB index-bit SE shows a
    # reduction of the F-ordered error rows in another order than a 1-D one
    "llr_8_2_bench_seed_1126": ("ber", dict(detector="llr", trials=120, seed=1126), 1),
    # both ends of the Rician mix: no line of sight, and all but none diffuse
    "llr_8_2_rayleigh": ("ber", dict(detector="llr", kappa=0.0), 1),
    "ml_8_2_kappa_1e9": ("ber", dict(detector="ml", kappa=1e9), 1),
    "harvest_rayleigh": ("harvest", dict(kappa=0.0), 1),
}

# absorber counts from none to every cell outside the assist group, in order
# and out of order with a count repeated, and with no assist group at all
HARVEST_GRIDS = {"harvest": (0, 16, 35, 100, 196), "harvest_unsorted": (35, 0, 196, 35),
                 "harvest_n1_0": (0, 16, 35, 100, 256)}


def case_bytes(name, tmp_path, workers=None) -> bytes:
    """The CSV bytes of case ``name``, on its own worker count unless
    ``workers`` is given, at TRIALS trials unless the case sets its own."""
    kind, overrides, case_workers = CASES[name]
    workers = workers or case_workers
    cfg = make_config(**{"trials": TRIALS, **overrides})
    path = tmp_path / f"{name}.csv"
    if kind == "ber":
        ber_sweep(cfg, workers=workers).to_csv(path)
    else:
        grid = HARVEST_GRIDS[kind]
        assert max(grid) == cfg.n_cells - cfg.n1
        harvest_sweep(cfg, n2_grid=grid, workers=workers).table.to_csv(path)
    return path.read_bytes()


# name -> the config file of a power-budget case (none for the defaults): every
# absorber cell outside the assist group, where each block saturates the
# rectenna; the seed-3 counts on either side of the rf-switch budget; and the
# varactor cell as the configured technology
BUDGETS = {"power_budget": None, "power_budget_per_entry": "los_phase_policy = per-entry\n",
           "power_budget_n2_196": "n2 = 196\n",
           "power_budget_seed_3_n2_17": "seed = 3\nn2 = 17\n",
           "power_budget_seed_3_n2_46": "seed = 3\nn2 = 46\n",
           "power_budget_varactor": "technology = varactor\n"}


def power_budget_text(name, tmp_path) -> bytes:
    """The ``power-budget`` output of case ``name``."""
    argv = ["power-budget", "--trials", str(TRIALS)]
    if BUDGETS[name] is not None:
        path = tmp_path / f"{name}.cfg"
        path.write_text(BUDGETS[name], encoding="utf-8")
        argv += ["--config", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue().encode("utf-8")


# name -> the one-worker BER case whose slot costs it hashes
SLOT_COSTS = {"slot_costs_llr_8_2_m_rx_9": "llr_8_2_m_rx_9",
              "slot_costs_ml_8_2_m_rx_136": "ml_8_2_m_rx_136"}


def slot_cost_bytes(name, tmp_path) -> bytes:
    """The bytes of every ``info_cost`` that ``rx.slot_costs`` returns, in
    call order, then of every ``pow_cost``, during the sweep of case
    ``SLOT_COSTS[name]``, which runs in this process. Each call scores one
    batch, trials first, so the bytes are those of the whole sweep's two
    arrays whatever the batch size."""
    case = SLOT_COSTS[name]
    assert CASES[case][0] == "ber" and CASES[case][2] == 1
    real, chunks = timsr.rx.slot_costs, ([], [])

    def spy(*args):
        costs = real(*args)
        for chunk, cost in zip(chunks, costs):
            chunk.append(cost.tobytes())
        return costs

    with mock.patch.object(timsr.rx, "slot_costs", spy):
        case_bytes(case, tmp_path)
    return b"".join(chunks[0] + chunks[1])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_bytes(name, digests, tmp_path):
    assert sha256(case_bytes(name, tmp_path)) == digests[name]


@pytest.mark.parametrize("name", ["llr_8_2", "ml_8_2", "harvest_w1"])
def test_sweep_bytes_on_three_workers(name, digests, tmp_path):
    assert sha256(case_bytes(name, tmp_path, 3)) == digests[name]


@pytest.mark.parametrize("name", ["llr_8_2", "ml_8_2", "harvest_unsorted_repeated_w1"])
def test_sweep_bytes_on_uneven_shards_and_batches(name, digests, tmp_path, monkeypatch):
    # 4 workers split the trials into shards of 12, 12, 12 and 9, and 7-trial
    # batches divide none of them. The caller computes the forced batch size
    # and sends it with every shard, so the workers run it too, though they
    # may have been forked before the patch.
    monkeypatch.setattr(timsr.sim, "_batch_size", lambda *args: 7)
    assert [len(range(a, min(a + 12, TRIALS))) % 7 for a in range(0, TRIALS, 12)] == [5, 5, 5, 2]
    assert sha256(case_bytes(name, tmp_path, 4)) == digests[name]


def test_power_budget_text(digests, tmp_path):
    assert sha256(power_budget_text("power_budget", tmp_path)) == digests["power_budget"]


def test_power_budget_text_per_entry(digests, tmp_path):
    name = "power_budget_per_entry"
    assert sha256(power_budget_text(name, tmp_path)) == digests[name]


@pytest.mark.parametrize("name", ["power_budget_n2_196", "power_budget_seed_3_n2_17",
                                  "power_budget_seed_3_n2_46", "power_budget_varactor"])
def test_power_budget_text_cases(name, digests, tmp_path):
    assert sha256(power_budget_text(name, tmp_path)) == digests[name]


@pytest.mark.parametrize("name", sorted(SLOT_COSTS))
def test_slot_cost_bytes(name, digests, tmp_path):
    assert sha256(slot_cost_bytes(name, tmp_path)) == digests[name]


def test_every_digest_is_checked(digests):
    assert set(digests) == set(CASES) | set(BUDGETS) | set(SLOT_COSTS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: sha256(case_bytes(name, Path(tmp))) for name in sorted(CASES)}
        recorded.update((name, sha256(power_budget_text(name, Path(tmp)))) for name in BUDGETS)
        recorded.update((name, sha256(slot_cost_bytes(name, Path(tmp)))) for name in SLOT_COSTS)
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name in sorted(set(old) | set(recorded)):
        change = ("added" if name not in old else "dropped" if name not in recorded
                  else "changed" if old[name] != recorded[name] else None)
        if change:
            print(f"{change}: {name}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} digests to {DIGESTS}", file=sys.stderr)
