"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench -q
"""

import importlib
import json
import subprocess
import sys
from dataclasses import replace

import pytest

import benchenv
import spans
import sweeps

BENCHMARK_JSON = benchenv.ROOT / "BENCHMARK.json"
RUN_PY = benchenv.ROOT / "perfbench" / "run.py"


def resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_wrappers_restore_every_patched_attribute():
    targets = spans.TARGETS + spans.POOL_TARGETS
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in
                 (resolve(module, path) for _, module, path in targets)]
    tracer = spans.Tracer(targets)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tracer.missing == []
            for owner, attr, original in originals:
                assert vars(owner)[attr] is not original
            raise RuntimeError("restore must not depend on a clean exit")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


# workload -> (align_group1 calls per block, hypotheses per block)
EXACT = {
    "ber_llr_8_2": (3, 72),
    "ber_ml_8_4": (2, 64 * 2 * 4**4),
    "harvest_n2_w2": (1, 0),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_counts_per_block(name):
    wl = sweeps.WORKLOADS[name]
    cfg = replace(wl.config(1), trials=2)
    blocks = wl.blocks(cfg)
    tracer = spans.Tracer()
    with tracer.installed():
        wl.sweep(cfg, 1)
    align, hypotheses = EXACT[name]
    assert tracer.calls["sim.block"] == blocks
    assert tracer.calls["channel.realize"] == blocks
    assert tracer.calls["ris.align"] == align * blocks
    assert tracer.hypotheses == hypotheses * blocks


def test_harvest_sweep_builds_one_pool_per_point():
    wl = sweeps.WORKLOADS["harvest_n2_w2"]
    cfg = replace(wl.config(1), trials=2)
    counter = spans.Tracer(spans.POOL_TARGETS)
    with counter.installed():
        wl.sweep(cfg, 2)
    assert wl.points(cfg) == 13
    assert counter.calls["sim.pool"] == 13


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, section):
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "ber_llr_8_2", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True, cwd=benchenv.ROOT,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in out)
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["channel.realize_per_block"] == 1
        assert values["ris.align_per_block"] == EXACT["ber_llr_8_2"][0]
        assert values["rx.hypotheses_per_block"] == EXACT["ber_llr_8_2"][1]
        assert values["sim.pools_per_sweep"] == 7
