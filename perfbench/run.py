"""cactuskit benchmark: one seeded workload, every metric by name.

    python3 perfbench/run.py --workload long-words --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package under test is always the
checkout's own ``src/cactuskit``; the run refuses (exit 2) when that is
missing or when ``import cactuskit`` resolves anywhere else.

A run first times fresh interpreters (``setup_s``), then repeats cycles of
the workload's requests until ``--seconds`` have passed.  Each cycle draws
new inputs from the seed, runs its requests back to back in this process
(one client, closed loop; ``cli`` runs one child process at a time), and
then checks every answer against the benchmark's own reference.

Times are reported at a reference machine speed.  Between requests the
run times a probe -- a fixed piece of work that runs no cactuskit code:
a pure-Python loop, or for ``cli`` a bare interpreter start -- and scales
each request's time by (reference probe time / mean of the probes just
before and just after it).  On a shared machine the raw times of
identical runs drift by a third or more within minutes; the scaled times
follow what the program does, not how busy its neighbours are.  The raw
times are printed too.

Stdout lists every metric by name and unit, the tail percentile with its
sample count, the error rate and the ``src/`` line count; its last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A traced run alternates traced
and untraced cycles, reports the difference as ``trace.overhead_pct`` and
writes its spans to ``perfbench/out/``.  ``--quick`` runs one tiny cycle
(two when traced); the benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_ROUNDS = 7
IMPORT_PROBE = "import cactuskit, sys; sys.stdout.write(cactuskit.__file__)"
SUITES = ("equivariance", "perturbed", "action", "shift_law", "isomorphism", "oracle")
# Probe times at the reference speed: about what the two probes take on a
# quiet 2.0 GHz Xeon vCPU with Python 3.11.
LOOP_REF_S = 0.0045
START_REF_S = 0.05


class Tracer:
    """Spans around each call the benchmark makes into the package.

    A span is (name, start, end, request id, cycle); the request's own span
    is named ``request.<kind>`` and is the parent of every other span with
    the same request id.  Spans are recorded only while ``on``.  Work
    counts are kept per cycle whether or not tracing is on.
    """

    def __init__(self) -> None:
        self.on = False
        self.cycle = 0
        self.request = 0
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.work: dict[tuple[int, str], int] = defaultdict(int)

    def call(self, name, fn, *args, work=0, **kwargs):
        if self.on:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.spans.append((name, t0, perf_counter(), self.request, self.cycle))
        else:
            out = fn(*args, **kwargs)
        if work:
            self.add(name, work)
        return out

    def add(self, name: str, n: int) -> None:
        self.work[self.cycle, name] += n

    def total(self, name: str, cycles: list[int]) -> int:
        return sum(self.work.get((c, name), 0) for c in cycles)


class Raised:
    """Stands in for the output of a request that raised."""

    def __init__(self, message: str) -> None:
        self.message = message


def refuse(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def pin_package() -> None:
    """Import cactuskit from this checkout's src/ and nowhere else."""
    if not (SRC / "cactuskit" / "__init__.py").is_file():
        refuse(f"no package at {SRC / 'cactuskit'}; run from a cactuskit checkout")
    sys.path.insert(0, str(SRC))
    import cactuskit

    if not under_src(cactuskit.__file__):
        refuse(f"cactuskit imported from {cactuskit.__file__}, not from {SRC}")


def cache_clearers() -> list:
    """cache_clear of every memoised function in the package, so that every
    timed call pays its full cost, as each ``cactus`` process does."""
    return [
        fn.cache_clear
        for name, module in sorted(sys.modules.items())
        if name == "cactuskit" or name.startswith("cactuskit.")
        for fn in vars(module).values()
        if callable(getattr(fn, "cache_clear", None))
    ]


def fresh_interpreter(code: str, env: dict) -> tuple[float, str]:
    """Wall time and stdout of a child interpreter running ``code``."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        refuse(f"fresh interpreter failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def time_setup(env: dict, rounds: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh bare interpreters and of fresh ``import cactuskit``,
    interleaved so that both see the same machine."""
    bare, imports = [], []
    for _ in range(rounds):
        bare.append(fresh_interpreter("pass", env)[0])
        elapsed, where = fresh_interpreter(IMPORT_PROBE, env)
        if not under_src(where):
            refuse(f"a fresh interpreter imported cactuskit from {where}")
        imports.append(elapsed)
    return bare, imports


def loop_probe() -> float:
    """Time a fixed piece of pure-Python work that runs no cactuskit code."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value: the 11th-largest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "cactuskit").glob("*.py"))


def decided_ratio(tracer: Tracer, cycles: list[int]) -> float | None:
    """Known-equal queries answered 'equal', over known-equal queries asked."""
    asked = tracer.total("words.equal_by_search.known_equal", cycles)
    return tracer.total("words.equal_by_search.decided", cycles) / asked if asked else None


def per_layer(tracer: Tracer, traced: list[int], speed: dict[int, float], cycle_s: dict[bool, list[float]]) -> dict:
    """Per-layer numbers from the traced cycles, at reference speed: seconds
    are medians of the per-cycle sums, rates are work over span time, cli
    timings are medians of single calls."""
    busy: dict[tuple[int, str], float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for name, t0, t1, rid, cycle in tracer.spans:
        busy[cycle, name] += (t1 - t0) * speed[rid]
        durations[name].append((t1 - t0) * speed[rid])

    def rate(name):
        seconds = sum(durations[name])
        return tracer.total(name, traced) / seconds if seconds else 0.0

    out = {}
    for name in durations:
        if name.startswith("cli."):
            out[f"{name}.p50_ms"] = 1000 * statistics.median(durations[name])
        else:
            out[f"{name}.s"] = statistics.median(busy.get((c, name), 0.0) for c in traced)
    out["words.parse_word.tokens_per_s"] = rate("words.parse_word")
    out["perm.project.letters_per_s"] = rate("perm.project")
    for suite in SUITES:
        out[f"equiv.{suite}.cases_per_s"] = rate(f"equiv.{suite}")
    for key in ("calls", "equal"):
        name = f"words.equal_by_search.{key}"
        out[name] = statistics.median(tracer.work.get((c, name), 0) for c in traced)
    out["words.equal_by_search.decided_ratio"] = decided_ratio(tracer, traced) or 0.0
    out["trace.overhead_pct"] = 100 * (statistics.median(cycle_s[True]) / statistics.median(cycle_s[False]) - 1)
    return out


class Run:
    """Everything one run measures, cycle by cycle."""

    def __init__(self, probe, probe_ref: float) -> None:
        self.probe, self.probe_ref = probe, probe_ref
        self.clearers = cache_clearers()
        self.tracer = Tracer()
        self.cycles: dict[bool, list[int]] = {False: [], True: []}  # traced? -> cycle numbers
        self.cycle_s: dict[bool, list[float]] = {False: [], True: []}  # at reference speed
        self.latencies: list[float] = []  # untraced requests, at reference speed
        self.raw_latencies: list[float] = []
        self.raw_cycle_s: list[float] = []
        self.speed: dict[int, float] = {}  # request id -> reference probe time / measured
        self.attempted = 0
        self.failures: list[str] = []

    def cycle(self, number: int, requests: list, traced: bool) -> None:
        """Run one cycle's requests back to back, then check their answers."""
        tracer = self.tracer
        self.cycles[traced].append(number)
        tracer.cycle, tracer.on = number, traced
        outcomes, raw, probes, rids = [], [], [], []
        for req in requests:
            for clear in self.clearers:
                clear()
            probes.append(self.probe())
            tracer.request += 1
            rids.append(tracer.request)
            t0 = perf_counter()
            try:
                out = req.run(tracer)
            except Exception:  # a request that raises has failed; the run goes on
                out = Raised(traceback.format_exc(limit=-1).strip())
            latency = perf_counter() - t0
            outcomes.append(out)
            raw.append(latency)
            if traced:
                tracer.spans.append((f"request.{req.kind}", t0, t0 + latency, tracer.request, number))
        tracer.on = False
        probes.append(self.probe())
        for i, rid in enumerate(rids):
            self.speed[rid] = 2 * self.probe_ref / (probes[i] + probes[i + 1])
        scaled = [x * self.speed[rid] for x, rid in zip(raw, rids)]
        self.cycle_s[traced].append(sum(scaled))
        if not traced:
            self.latencies += scaled
            self.raw_latencies += raw
            self.raw_cycle_s.append(sum(raw))
        for req, out in zip(requests, outcomes):
            self.attempted += 1
            try:
                problem = out.message if isinstance(out, Raised) else req.check(out)
            except Exception:  # an answer too malformed to check is a wrong answer
                problem = traceback.format_exc(limit=-1).strip()
            if problem:
                self.failures.append(f"cycle {number} {req.kind}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one tiny cycle, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        refuse(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    pin_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make_cycle = workloads.WORKLOADS[args.workload]
    env = workloads.cli_env(ROOT)
    OUT.mkdir(parents=True, exist_ok=True)

    bare, imports = time_setup(env, 1 if args.quick else SETUP_ROUNDS)
    start_speed = START_REF_S / statistics.median(bare)
    if args.workload == "cli":
        run = Run(lambda: fresh_interpreter("pass", env)[0], START_REF_S)
    else:
        run = Run(loop_probe, LOOP_REF_S)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ctx = workloads.CliContext(ROOT, env, Path(tmp))
        deadline = perf_counter() + args.seconds
        cycle, last = 0, 0.0
        # A new cycle starts only if at least half of it fits before the
        # deadline, so a run overshoots --seconds by half a cycle at most.
        while cycle <= args.trace or (not args.quick and perf_counter() + last / 2 < deadline):
            t0 = perf_counter()
            requests = make_cycle(random.Random(args.seed * 1_000_003 + cycle), args.quick, ctx)
            run.cycle(cycle, requests, traced=bool(args.trace) and cycle % 2 == 0)
            cycle, last = cycle + 1, perf_counter() - t0

    tracer = run.tracer
    if args.trace:
        measured = per_layer(tracer, run.cycles[True], run.speed, run.cycle_s)
        measured["cli.interpreter_ms"] = 1000 * statistics.median(bare)
        measured["cli.import_ms"] = 1000 * (statistics.median(imports) - statistics.median(bare)) * start_speed
        measured["src.lines"] = src_lines()
        wanted = spec["per_layer"]
        spans = [
            {"name": name, "start": t0, "end": t1, "request": rid, "cycle": c,
             "parent": None if name.startswith("request.") else f"request.{rid}"}
            for name, t0, t1, rid, c in tracer.spans
        ]
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        percentile, tail_s = tail(run.latencies)
        measured = {
            "run_s": statistics.median(run.cycle_s[False]),
            "latency_p50_ms": 1000 * statistics.median(run.latencies),
            "latency_tail_ms": 1000 * tail_s,
            "setup_s": statistics.median(imports) * start_speed,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    failed = len(run.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {cycle} cycles, {run.attempted} requests")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  latency_tail_ms is p{percentile:.1f} of {len(run.latencies)} request latencies")
        print(
            f"  unscaled: run_s {statistics.median(run.raw_cycle_s):.4g} s,"
            f" p50 {1000 * statistics.median(run.raw_latencies):.4g} ms,"
            f" tail {1000 * tail(run.raw_latencies)[1]:.4g} ms, setup {statistics.median(imports):.4g} s"
        )
    ratio = decided_ratio(tracer, run.cycles[bool(args.trace)])
    if ratio is not None:
        print(f"  decided_ratio {ratio:.4f} (known-equal pairs answered 'equal')")
    print(f"  error_rate {failed / run.attempted:.4f} ({failed} of {run.attempted} requests failed or answered wrong)")
    print(f"  src_lines {src_lines()}")
    for line in run.failures[:20]:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
