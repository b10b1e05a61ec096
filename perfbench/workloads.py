"""The four benchmark workloads.

Each workload turns a seeded ``random.Random`` into one cycle of requests.
A request is a closure that calls into ``cactuskit`` through the tracer
(``tr.call``) and returns what the package answered, plus a check that
compares that answer with a value the benchmark worked out on its own
(see ``reference``).  Inputs are drawn in strata -- every cycle holds the
same mix of request types and sizes, only the concrete words, windows and
offsets move with the seed -- so that two seeds cost about the same.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Any, Callable

import reference as ref
from cactuskit import (
    IDENTITY,
    Chamber,
    Word,
    build_dual_complex,
    build_window,
    canonicalize,
    chamber_adjacent,
    check_equivariance,
    check_isomorphism,
    check_oracle,
    check_shift_law,
    cover_to_group,
    cover_window,
    enumerate_chambers,
    equal_by_search,
    evaluate_word,
    export_dot,
    export_json,
    free_reduce,
    group_to_cover,
    inv,
    is_pure,
    mul,
    parse_word,
    project,
    to_word,
    verify_action_axioms,
)
from cactuskit.equiv import cover_to_group_perturbed

Check = Callable[[Any], "str | None"]


@dataclass
class Request:
    """One request: ``run`` calls the package, ``check`` returns None for a
    right answer and a message for a wrong one."""

    kind: str
    run: Callable[[Any], Any]
    check: Check


def _text(pairs: ref.Pairs) -> str:
    return " ".join(f"s{p},{q}" for p, q in pairs)


def _random_pairs(rng, n: int, length: int) -> ref.Pairs:
    return rng.choices(ref.generators(n), k=length)


def _pairs_of(w: Word) -> ref.Pairs:
    return [(g.p, g.q) for g in w.letters]


def _window(rng, size: int, centre: int, jitter: int) -> range:
    lo = centre - size // 2 + rng.randint(-jitter, jitter)
    return range(lo, lo + size)


# --- long-words -------------------------------------------------------------


def _long_word(pairs: ref.Pairs, n: int) -> Request:
    text = _text(pairs)
    length = len(pairs)
    perm = ref.project(pairs, n)
    reduced = ref.free_reduce(pairs)
    if n == 3:
        canon = ref.canonical(pairs)
        affine = ref.affine(pairs)
        inverse = ref.canonical(pairs[::-1])

    def run(tr):
        w = tr.call("words.parse_word", parse_word, text, n, work=length)
        out = {
            "word": w,
            "reduced": tr.call("words.free_reduce", free_reduce, w),
            "perm": tr.call("perm.project", project, w, work=length),
            "pure": tr.call("perm.is_pure", is_pure, w),
        }
        if n == 3:
            half = length // 2
            left, right = Word(3, w.letters[:half]), Word(3, w.letters[half:])
            c = tr.call("degree3.canonicalize", canonicalize, w)
            cl = tr.call("degree3.canonicalize", canonicalize, left)
            cr = tr.call("degree3.canonicalize", canonicalize, right)
            out["canonical"] = c
            out["affine"] = tr.call("degree3.evaluate_word", evaluate_word, w)
            out["product"] = tr.call("degree3.mul", mul, cl, cr)
            out["inverse"] = tr.call("degree3.inv", inv, c)
            out["canonical_word"] = tr.call("degree3.to_word", to_word, c)
        return out

    def check(out):
        w = out["word"]
        if w.degree != n or _pairs_of(w) != pairs:
            return "parse_word letters differ from the text"
        if _pairs_of(out["reduced"]) != reduced:
            return "free_reduce differs from the reference"
        if out["perm"].images != perm:
            return "project differs from the position-array reversal"
        if out["pure"] != (perm == tuple(range(1, n + 1))):
            return "is_pure differs from the position-array reversal"
        if n != 3:
            return None
        c = out["canonical"]
        if (c.m, c.eps) != canon:
            return "canonicalize differs from the affine reference"
        a = out["affine"]
        if (a.sign, a.shift) != affine:
            return "evaluate_word differs from the affine reference"
        cw = out["canonical_word"]
        if len(cw) != c.word_length() or evaluate_word(cw) != a:
            return "to_word(c) does not evaluate like the word"
        if out["product"] != c:
            return "mul of the halves' forms differs from the word's form"
        if (out["inverse"].m, out["inverse"].eps) != inverse or mul(c, out["inverse"]) != IDENTITY:
            return "inv differs from the reversed word's form"
        return None

    return Request(f"long-word.d{n}", run, check)


def long_words(rng, quick: bool, ctx=None) -> list[Request]:
    """One word per point of a log-uniform grid of lengths, plus two more at
    the middle point and five more of the longest length.  Five grid points
    below the middle carry a word of degree 4, 5 or 6, the rest are degree 3.

    Lengths and degrees are the same for every seed, so each cycle costs the
    same: the median falls on the three middle words and the tail (the
    11th-slowest request of a run) on the six longest, which a run holds at
    least 18 of.  The middle point sits where as many words are shorter as
    are longer.  A higher-degree word skips the degree-3 calls and costs
    about as much as a degree-3 word two grid points lower, so all of them
    sit well below the middle.  The seed picks the letters."""
    count, lo, hi = (5, 20, 300) if quick else (14, 1_000, 30_000)
    grid = [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]
    middle = (count - 1 + 5) // 2
    lengths = grid + [grid[middle]] * 2 + [hi] * 5
    higher = {0: 4} if quick else {0: 4, 2: 5, 4: 6, 6: 4, 8: 5}
    requests = []
    for i, length in enumerate(lengths):
        n = higher.get(i, 3)
        requests.append(_long_word(_random_pairs(rng, n, length), n))
    rng.shuffle(requests)
    return requests


# --- verdicts ---------------------------------------------------------------


def _sweep(name: str, run_sweep: Callable, total: int, failures: int = 0) -> Request:
    def run(tr):
        report = tr.call(f"equiv.{name}", run_sweep)
        tr.add(f"equiv.{name}", report.total)
        return report

    def check(report):
        if report.total != total:
            return f"{report.total} cases, expected {total}"
        if len(report.failures) != failures:
            return f"{len(report.failures)} failures, expected {failures}"
        return None

    return Request(f"sweep.{name}", run, check)


def _sweeps(rng, quick: bool) -> list[Request]:
    # Window sizes are the CLI defaults (smaller in quick mode); the seed
    # only slides each window, so every cycle checks the same number of cases.
    # The two heaviest suites run twice per cycle, so a run holds at least
    # eleven of them and its tail always falls among them.
    js, ks = _window(rng, 11 if quick else 41, 0, 5), _window(rng, 11 if quick else 101, 0, 10)
    pjs, pks = _window(rng, 11 if quick else 41, 0, 5), _window(rng, 11 if quick else 101, 0, 10)
    ik = _window(rng, 7 if quick else 31, 0, 5)
    sk, sm = _window(rng, 5 if quick else 21, 0, 3), _window(rng, 11 if quick else 121, 0, 10)
    out = [
        _sweep("equivariance", lambda: check_equivariance(js, ks), 3 * len(js) * len(ks)),
        _sweep(
            "perturbed",
            lambda: check_equivariance(pjs, pks, phi=cover_to_group_perturbed),
            3 * len(pjs) * len(pks),
            ref.equivariance_failures(pjs, pks),
        ),
        _sweep("isomorphism", lambda: check_isomorphism(ik), 2 * len(ik) + len(ik) ** 2),
        _sweep(
            "shift_law",
            lambda: check_shift_law(sk, sm),
            len(sk) * len(sm) + sum(k >= 0 for k in sk) * sum(m >= 0 for m in sm),
        ),
    ]
    for _ in range(2):
        ak, am = _window(rng, 5 if quick else 21, 0, 3), _window(rng, 11 if quick else 121, 0, 10)
        out.append(_sweep("action", lambda ak=ak, am=am: verify_action_axioms(ak, am), len(am) * (1 + len(ak) ** 2)))
    for radius in (3, 4, 4) if quick else (8, 9, 9):
        out.append(_sweep("oracle", lambda r=radius: check_oracle(r), ref.oracle_cases(radius)))
    return out


def _relation_moves(rng, pairs: ref.Pairs, n: int, k: int) -> ref.Pairs:
    """Apply k random relation moves (insert or cancel a square, commute,
    nest in either direction) to a copy of the word."""
    w = list(pairs)
    done = 0
    while done < k:
        move = rng.randrange(5)
        i = rng.randrange(len(w) + 1)
        if move == 0:
            g = rng.choice(ref.generators(n))
            w[i:i] = [g, g]
        elif i + 1 >= len(w):
            continue
        else:
            (a, b), (c, d) = w[i], w[i + 1]
            if move == 1 and (b < c or d < a):
                w[i], w[i + 1] = w[i + 1], w[i]
            elif move == 2 and a <= c and d <= b and (a, b) != (c, d):
                w[i], w[i + 1] = (a + b - d, a + b - c), (a, b)
            elif move == 3 and c <= a and b <= d and (a, b) != (c, d):
                w[i], w[i + 1] = (c, d), (c + d - b, c + d - a)
            elif move == 4 and w[i] == w[i + 1]:
                del w[i : i + 2]
            else:
                continue
        done += 1
    return w


def _invariants(pairs: ref.Pairs, n: int):
    """What the benchmark can compute to tell two words apart."""
    return ref.project(pairs, n), ref.canonical(pairs) if n == 3 else None


NODE_BUDGET = 300


def _query(w1: ref.Pairs, w2: ref.Pairs, n: int, known_equal: bool, budget: int) -> Request:
    same = _invariants(w1, n) == _invariants(w2, n)
    if same != known_equal:
        raise RuntimeError("query generator produced a pair of the wrong kind")
    a, b = Word.from_pairs(n, w1), Word.from_pairs(n, w2)

    def run(tr):
        answer = tr.call("words.equal_by_search", equal_by_search, a, b, None, budget)
        tr.add("words.equal_by_search.calls", 1)
        tr.add("words.equal_by_search.equal", answer == "equal")
        if known_equal:
            tr.add("words.equal_by_search.known_equal", 1)
            tr.add("words.equal_by_search.decided", answer == "equal")
        return answer

    def check(answer):
        if answer not in ("equal", "unknown"):
            return f"answer {answer!r} is neither 'equal' nor 'unknown'"
        if answer == "equal" and not known_equal:
            return "a known-distinct pair came back 'equal'"
        return None

    kind = "equal" if known_equal else "distinct"
    return Request(f"query.{kind}.d{n}", run, check)


_PURE_D3 = [(1, 2), (1, 3)] * 3


def _queries(rng, quick: bool) -> list[Request]:
    budget = 50 if quick else NODE_BUDGET
    out = []
    # Known-equal pairs, one to eight relation moves apart; the budget leaves
    # about one in five undecided, mostly degree-4 pairs six or eight moves
    # apart.  Both words stay within 7 letters, so every search runs under
    # the same length cap and costs at most a few times a distinct pair.
    for n, k in ((3, 1), (3, 2), (3, 4), (3, 6), (3, 6), (4, 1), (4, 2), (4, 4), (4, 6), (4, 6), (4, 8), (4, 8)):
        while True:
            w = _random_pairs(rng, n, rng.randint(4, 6) if n == 3 else 6)
            moved = _relation_moves(rng, w, n, k)
            if len(moved) <= 7:
                break
        out.append(_query(w, moved, n, True, budget))
    # Known-distinct pairs exhaust the budget.  An extra letter flips the
    # permutation's sign; at degree 3 an inserted pure word keeps the
    # permutation but moves m.  The degree-3 extra-letter pairs all have the
    # same shape, so they cost about the same; there are enough of them to
    # hold the median of the run's latencies.
    for _ in range(3 if quick else 28):
        w = _random_pairs(rng, 3, 6)
        out.append(_query(w, w + [rng.choice(ref.generators(3))], 3, False, budget))
    w = _random_pairs(rng, 3, 4)
    out.append(_query(w, w[:2] + _PURE_D3 + w[2:], 3, False, budget))
    w = _random_pairs(rng, 4, 6)
    out.append(_query(w, w + [rng.choice(ref.generators(4))], 4, False, budget))
    return out


def verdicts(rng, quick: bool, ctx=None) -> list[Request]:
    """Nine verification sweeps and 42 equality queries, shuffled."""
    requests = _sweeps(rng, quick) + _queries(rng, quick)
    rng.shuffle(requests)
    return requests


# --- structures -------------------------------------------------------------


def _cayley(group: str, radius: int) -> Request:
    """Build a window and export it both ways."""
    vertices, edges = ref.window_counts(group, radius)

    def run(tr):
        g = tr.call("cayley.build_window", build_window, group, radius)
        return g, tr.call("cayley.export_json", export_json, g), tr.call("cayley.export_dot", export_dot, g)

    def check(out):
        g, js, dot = out
        if (len(g.vertices), len(g.edges)) != (vertices, edges):
            return f"{group} r={radius}: {len(g.vertices)}/{len(g.edges)} vertices/edges"
        data = json.loads(js)
        if [(v["m"], v["eps"]) for v in data["nodes"]] != [(v.m, v.eps) for v in g.vertices]:
            return "export_json nodes differ from the window"
        back = [(g.vertices[e["src"]], g.vertices[e["dst"]], e["gen"]) for e in data["edges"]]
        if back != [(src, dst, str(gen)) for src, dst, gen in g.edges]:
            return "export_json edges differ from the window"
        lines = dot.splitlines()
        if lines[0] != f'graph "{group}" {{' or len(lines) != 2 + vertices + edges:
            return "export_dot has the wrong header or line count"
        if sum(" -- " in line for line in lines) != edges:
            return "export_dot has the wrong edge count"
        return None

    return Request(f"cayley.{group}", run, check)


def _degrees(radius: int) -> Request:
    g = build_window("J3", radius)
    expected = {v: 0 for v in g.vertices}
    for src, dst, _ in g.edges:
        expected[src] += 1
        expected[dst] += 1

    def run(tr):
        return tr.call("cayley.degree_of", lambda: [g.degree_of(v) for v in g.vertices])

    def check(degrees):
        if degrees != list(expected.values()):
            return "degree_of differs from the benchmark's edge count"
        return None

    return Request("cayley.degree_of", run, check)


def _chambers(n: int) -> Request:
    expected = ref.chamber_orders(n)

    def check(chambers):
        if len(chambers) != factorial(n - 1) // 2:
            return f"{len(chambers)} chambers for n={n}, expected (n-1)!/2"
        if [c.order for c in chambers] != expected:
            return f"chambers for n={n} differ from the lex-min representatives"
        return None

    return Request(f"chambers.n{n}", lambda tr: tr.call("confspace.enumerate_chambers", enumerate_chambers, n), check)


def _adjacency(rng, n: int, count: int) -> Request:
    orders = ref.chamber_orders(n)
    pairs = [tuple(rng.sample(orders, 2)) for _ in range(count)]
    chambers = [(Chamber(a), Chamber(b)) for a, b in pairs]
    expected = [ref.chambers_adjacent(a, b) for a, b in pairs]

    def run(tr):
        return tr.call("confspace.chamber_adjacent", lambda: [chamber_adjacent(a, b) for a, b in chambers])

    def check(answers):
        return None if answers == expected else "chamber_adjacent differs from the reference"

    return Request(f"chambers.adjacent.n{n}", run, check)


def _dual_complex() -> Request:
    def check(dc):
        degrees = [sum(c in e for e in dc.edges) for c in dc.vertices]
        if len(dc.vertices) != 3 or len(dc.edges) != 3 or degrees != [2, 2, 2]:
            return "the 4-label dual complex is not a 3-cycle"
        return None

    return Request("chambers.dual", lambda tr: tr.call("confspace.build_dual_complex", build_dual_complex), check)


def _cover(K: int) -> Request:
    def run(tr):
        vs = tr.call("confspace.cover_window", cover_window, K)
        images = tr.call("equiv.cover_roundtrip", lambda: [cover_to_group(v) for v in vs])
        back = tr.call("equiv.cover_roundtrip", lambda: [group_to_cover(c) for c in images])
        return vs, images, back

    def check(out):
        vs, images, back = out
        if len(vs) != 3 * (2 * K + 1):
            return f"cover_window({K}) has {len(vs)} vertices"
        if back != vs:
            return "group_to_cover does not invert cover_to_group"
        if sorted(c.m for c in images) != list(range(-3 * K - 1, 3 * K + 2)):
            return "cover_to_group is not a bijection onto a run of indices"
        if any(c.eps for c in images):
            return "cover_to_group left the dihedral subgroup"
        return None

    return Request("cover", run, check)


def structures(rng, quick: bool, ctx=None) -> list[Request]:
    """Fifteen requests whose costs climb by about 1.6x from one to the next,
    so that the median (the J3_2 window of radius 250) sits well away from
    its neighbours.  The two heaviest, degree_of over the radius-160 window
    and enumerate_chambers(8), cost about the same and hold the tail.
    Sizes move by at most two with the seed."""
    jitter = rng.randint(0, 2)
    if quick:
        windows = [("J3_2", 3), ("J3", 3), ("J3_2", 8), ("J3", 8)]
        big = [_degrees(8 + jitter), *(_chambers(n) for n in (4, 5, 6)), _adjacency(rng, 5, 30), _cover(20 + jitter)]
    else:
        windows = [("J3_2", 6), ("J3", 8), ("J3_2", 37), ("J3", 37), ("J3_2", 250), ("J3", 440), ("J3", 720)]
        big = [_degrees(160 + jitter), *(_chambers(n) for n in (5, 6, 7, 8)), _adjacency(rng, 6, 450), _cover(3000 + jitter)]
    requests = [_cayley(group, r + jitter) for group, r in windows] + big + [_dual_complex()]
    rng.shuffle(requests)
    return requests


# --- cli --------------------------------------------------------------------


@dataclass
class CliContext:
    root: Path
    env: dict
    tmp: Path


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli(ctx: CliContext, sub: str, args: list[str], code: int, expect: Check, stdin: str | None = None) -> Request:
    argv = [sys.executable, "-m", "cactuskit", sub, *args]

    def run(tr):
        return tr.call(
            f"cli.{sub}",
            subprocess.run,
            argv,
            cwd=ctx.root,
            env=ctx.env,
            input=stdin,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(proc):
        if "Traceback" in proc.stderr:
            return f"{sub}: traceback on stderr"
        if proc.returncode != code:
            return f"{sub} {args[:3]}: exit {proc.returncode}, expected {code}"
        return expect(proc)

    return Request(f"cli.{sub}", run, check)


def _stdout_is(text: str) -> Check:
    return lambda proc: None if proc.stdout == text else f"stdout {proc.stdout[:80]!r}, expected {text[:80]!r}"


def _fmt_canonical(pairs: ref.Pairs) -> str:
    m, eps = ref.canonical(pairs)
    return f"(m={m}, eps={eps})\n"


def _file_check(path: Path, group: str, radius: int) -> Check:
    """The --out file holds a window with the formula's vertex and edge counts."""
    vertices, edges = ref.window_counts(group, radius)

    def check(proc):
        if proc.stdout:
            return "cayley --out wrote to stdout"
        text = path.read_text()
        path.unlink()
        if path.suffix == ".json":
            data = json.loads(text)
            counts = len(data["nodes"]), len(data["edges"])
        else:
            lines = text.splitlines()
            counts = len(lines) - 2 - sum(" -- " in x for x in lines), sum(" -- " in x for x in lines)
        return None if counts == (vertices, edges) else f"cayley --out {group} r={radius}: counts {counts}"

    return check


def cli(rng, quick: bool, ctx: CliContext) -> list[Request]:
    """Twenty-one light requests (start-up and import plus a little work) and
    four heavy ones of about equal cost -- a 20,000-letter word on stdin,
    ``chambers --n 7`` and both equivariance sweeps -- so that the median
    falls among the light requests and the tail among the heavy ones."""
    reqs = []
    for i in range(2):
        w = _random_pairs(rng, 3, rng.randint(5, 20))
        reqs.append(_cli(ctx, "normalize", [_text(w)], 0, _stdout_is(_fmt_canonical(w))))
        w = _random_pairs(rng, 4, rng.randint(5, 20))
        reduced = f"freely-reduced: {_text(ref.free_reduce(w))}\n"
        reqs.append(_cli(ctx, "normalize", [_text(w), "--n", "4"], 0, _stdout_is(reduced)))
        half = _random_pairs(rng, 3, rng.randint(3, 10))
        reqs.append(_cli(ctx, "pure", [_text(half + half[::-1])], 0, _stdout_is("yes\n")))
        w = _random_pairs(rng, 3, rng.randint(5, 20))
        while ref.is_pure(w, 3):
            w.append(rng.choice(ref.generators(3)))
        reqs.append(_cli(ctx, "pure", [_text(w)], 1, _stdout_is("no\n")))
        K = rng.randint(1, 20)
        listing = "".join(f"[{label}]_{k}\n" for k in range(-K, K + 1) for label in ("213", "123", "132"))
        reqs.append(_cli(ctx, "cover", ["--radius", str(K)], 0, _stdout_is(listing)))
        ks = _window(rng, 7 if quick else 31, 0, 5)
        iso_ok = f"OK {2 * len(ks) + len(ks) ** 2} cases\n"
        span = ["--kmin", str(ks.start), "--kmax", str(ks.stop - 1)]
        # --perturb-map changes only the cover map, which the iso suite never uses.
        perturb = ["--perturb-map"] if i else []
        reqs.append(_cli(ctx, "verify", ["iso", *span, *perturb], 0, _stdout_is(iso_ok)))
    for n in (4, 5, 6):
        w = _random_pairs(rng, n, rng.randint(5, 20))
        perm = "[" + ",".join(map(str, ref.project(w, n))) + "]\n"
        reqs.append(_cli(ctx, "project", [_text(w), "--n", str(n)], 0, _stdout_is(perm)))
    for group, fmt in (("J3", "json"), ("J3_2", "dot")):
        radius = rng.randint(3, 6) if quick else rng.randint(40, 60)
        path = ctx.tmp / f"{group}.{fmt}"
        args = ["--group", group, "--radius", str(radius), "--format", fmt, "--out", str(path)]
        reqs.append(_cli(ctx, "cayley", args, 0, _file_check(path, group, radius)))
    for n in (4, 5, 6, 7):
        listing = "".join(f"[{ref.chamber_name(o)}]\n" for o in ref.chamber_orders(n))
        reqs.append(_cli(ctx, "chambers", ["--n", str(n)], 0, _stdout_is(listing)))
    w = _random_pairs(rng, 3, 200 if quick else 20_000)
    reqs.append(_cli(ctx, "normalize", ["--stdin"], 0, _stdout_is(_fmt_canonical(w)), stdin=_text(w)))
    js = _window(rng, 7 if quick else 41, 0, 5)
    ks = _window(rng, 7 if quick else 51, 0, 10)
    span = ["--jmin", str(js.start), "--jmax", str(js.stop - 1), "--kmin", str(ks.start), "--kmax", str(ks.stop - 1)]
    total = 3 * len(js) * len(ks)
    reqs.append(_cli(ctx, "verify", ["equivariance", *span], 0, _stdout_is(f"OK {total} cases\n")))
    fails = ref.equivariance_failures(js, ks)

    def perturbed(proc):
        lines = proc.stdout.splitlines()
        if lines[-1] != f"FAIL {fails}/{total}" or len(lines) != fails + 1:
            return f"perturbed map: {lines[-1]!r}, expected FAIL {fails}/{total}"
        return None

    reqs.append(_cli(ctx, "verify", ["equivariance", *span, "--perturb-map"], 1, perturbed))
    bad = _text(_random_pairs(rng, 3, 3)) + " s9,3"

    def malformed(proc):
        if proc.stdout or not proc.stderr.startswith("error: "):
            return "malformed word was not refused with an error line"
        return None

    reqs.append(_cli(ctx, "normalize", [bad], 2, malformed))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "long-words": long_words,
    "verdicts": verdicts,
    "structures": structures,
    "cli": cli,
}
