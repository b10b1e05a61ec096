"""Every committed ``BENCH_<n>.json`` keeps the layout the next comparison reads.

A record names its parent and change, how it was measured, the medians of
every ``BENCHMARK.json`` workload and end-to-end metric for both sides, its
runs and the ``src/`` line count.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
FIELDS = ("parent", "change", "command", "machine", "python", "method", "medians", "runs", "src.lines")
RECORDS = sorted(
    (path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", path.name)),
    key=lambda path: int(path.stem.split("_")[1]),
)


def test_the_root_holds_benchmark_records():
    assert len(RECORDS) >= 13


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_layout(path):
    record = json.loads(path.read_text())
    assert [field for field in FIELDS if field not in record] == []
    medians = record["medians"]
    assert set(medians) == WORKLOADS
    for workload, row in medians.items():
        for metric in END_TO_END:
            for side in ("parent", "change"):
                value = row[metric][side]
                assert type(value) in (int, float), f"{workload} {metric} {side}: {value!r}"
