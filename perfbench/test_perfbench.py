"""Tests of the benchmark itself, at quick-mode sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from cactuskit import (  # noqa: E402
    Chamber,
    Permutation,
    Word,
    build_window,
    canonicalize,
    chamber_adjacent,
    enumerate_chambers,
    project,
)
from run import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench("--workload", "long-words", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["long-words", "verdicts", "structures"])
def test_same_seed_same_inputs(workload):
    def answers(seed):
        reqs = workloads.WORKLOADS[workload](random.Random(seed), True, None)
        return [(r.kind, r.run(Tracer())) for r in reqs]

    first = answers(5)
    assert first == answers(5)
    assert first != answers(6)


def test_references_agree_with_the_package():
    rng = random.Random(0)
    for n in (3, 4, 6):
        for _ in range(50):
            pairs = rng.choices(ref.generators(n), k=rng.randrange(0, 40))
            assert project(Word.from_pairs(n, pairs)).images == ref.project(pairs, n)
            if n == 3:
                c = canonicalize(Word.from_pairs(3, pairs))
                assert (c.m, c.eps) == ref.canonical(pairs)
    for n in (4, 5, 6):
        assert [c.order for c in enumerate_chambers(n)] == ref.chamber_orders(n)
    orders = ref.chamber_orders(6)
    for a in orders[:10]:
        for b in orders:
            assert chamber_adjacent(Chamber(a), Chamber(b)) == ref.chambers_adjacent(a, b)
    for group in ("J3", "J3_2"):
        for r in (1, 2, 7):
            g = build_window(group, r)
            assert (len(g.vertices), len(g.edges)) == ref.window_counts(group, r)


def test_checks_catch_a_wrong_answer():
    tracer = Tracer()
    req = next(r for r in workloads.long_words(random.Random(2), True) if r.kind == "long-word.d3")
    out = req.run(tracer)
    assert req.check(out) is None
    images = out["perm"].images
    out["perm"] = Permutation(images[1:2] + images[:1] + images[2:])
    assert "project" in req.check(out)

    sweeps = {r.kind: r for r in workloads._sweeps(random.Random(2), True)}
    honest = sweeps["sweep.equivariance"].run(tracer)
    assert sweeps["sweep.perturbed"].check(honest) is not None

    distinct = [r for r in workloads._queries(random.Random(2), True) if r.kind.startswith("query.distinct")]
    assert distinct and all(r.check("equal") for r in distinct)
