"""The trajectory recorder's parser and file append, on a canned benchmark
output; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

PROVENANCE = {"git_commit": "f1956c35014850952e0ec90f93b38f7a65649cb2", "src_lines": 1735,
              "workload": "ber_llr_8_2", "seed": 1}
RESULT = {"correct": True, "attempted": 8, "failed": 0,
          "metrics": {"blocks_per_s": {"value": 42579.83061912002, "unit": "1/s"},
                      "setup_s": {"value": 0.15573342677951485, "unit": "s"},
                      "peak_rss_mb": {"value": 42.89453125, "unit": "MB"}}}
OUTPUT = f"""provenance: {json.dumps(PROVENANCE, sort_keys=True)}
sweeps timed: 5; blocks per host second: median 26144.6, quartiles [25182.7, 26144.6, 27697.1]
blocks per reference second: quartiles [42458.9, 42579.8, 46957.3]
speed kernel seconds: quartiles [0.1623, 0.1649, 0.1729]
setup reference seconds per probe: 0.1495 0.1650 0.1816 0.1557 0.1495 0.1768 0.1443
blocks_per_s = 42579.8 1/s
setup_s = 0.155733 s
peak_rss_mb = 42.8945 MB
failed_frac = 0/8 sweeps
{json.dumps(RESULT)}
"""


def test_parse_output():
    assert bench_record.parse_output(OUTPUT) == {
        "provenance": PROVENANCE, "result": RESULT, "host_blocks_per_s": 26144.6}


@pytest.mark.parametrize("drop", ["provenance: ", "sweeps timed: ", '{"correct"'])
def test_parse_output_needs_every_part(drop):
    text = "\n".join(line for line in OUTPUT.splitlines() if not line.startswith(drop))
    with pytest.raises(ValueError):
        bench_record.parse_output(text)


def test_append_keeps_earlier_records(tmp_path):
    path = tmp_path / "BENCH_w.json"
    first = bench_record.parse_output(OUTPUT)
    bench_record.append(path, first)
    bench_record.append(path, dict(first, host_blocks_per_s=1.0))
    assert [r["host_blocks_per_s"] for r in json.loads(path.read_text())] == [26144.6, 1.0]
