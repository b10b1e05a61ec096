"""Command-line front end.

Exit codes: 0 success (and all checks passing), 1 verification failure or a
negative `pure` answer, 2 usage, parse or I/O errors.

Each subcommand's handler imports the modules it uses, so a request loads
only those: `normalize` loads `words` and `degree3`; `project` and `pure`
load `words` and `perm`; `chambers` and `cover` load `words` and
`confspace`; `cayley` loads `words`, `degree3` and `cayley`; `verify` loads
`words`, `degree3`, `confspace` and `equiv`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .words import Word, WordParseError, free_reduce, parse_word


# Caps on inputs whose cost explodes: `chambers` walks (n-1)! permutations,
# the oracle suite walks all 3^L words of each length L up to --radius that
# reaches a failing pair, the other verify suites' case counts are products
# of their range spans, and the shift law writes out a word of m + 3k letters
# for each k, m >= 0.
_MAX_CHAMBER_LABELS = 10
_MAX_ORACLE_RADIUS = 12
_MAX_VERIFY_CASES = 1_000_000
_MAX_VERIFY_LETTERS = 1_000_000
# Caps on inputs whose cost is linear but unbounded: a word's --n sizes an
# O(n) array, and the Cayley and cover windows are built before printing.
_MAX_WORD_DEGREE = 1_000
_MAX_CAYLEY_RADIUS = 5_000
_MAX_COVER_RADIUS = 100_000


def _at_most(flag: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{flag} {value} is above the limit of {limit}")


def _span(lo: int | None, hi: int | None, default_lo: int, default_hi: int, name: str) -> range:
    lo = default_lo if lo is None else lo
    hi = default_hi if hi is None else hi
    if lo > hi:
        raise ValueError(f"empty {name} range [{lo}, {hi}]")
    return range(lo, hi + 1)


def _size(r: range) -> int:
    # len() raises OverflowError on a range longer than sys.maxsize.
    return max(0, r.stop - r.start)


def _sum(r: range) -> int:
    return (r.start + r.stop - 1) * _size(r) // 2


def _read_word(args: argparse.Namespace) -> Word:
    _at_most("--n", args.n, _MAX_WORD_DEGREE)
    if args.stdin:
        text = sys.stdin.read()
    elif args.word is not None:
        text = args.word
    else:
        raise WordParseError("no word given; pass one as an argument or use --stdin")
    return parse_word(text, args.n)


def _cmd_normalize(args: argparse.Namespace) -> int:
    from .degree3 import canonicalize

    w = _read_word(args)
    if args.n == 3:
        print(canonicalize(w))
    else:
        print(f"freely-reduced: {free_reduce(w)}")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .perm import project

    print(project(_read_word(args)))
    return 0


def _cmd_pure(args: argparse.Namespace) -> int:
    from .perm import is_pure

    if is_pure(_read_word(args)):
        print("yes")
        return 0
    print("no")
    return 1


def _cmd_cayley(args: argparse.Namespace) -> int:
    from .cayley import build_window, export_dot, export_json

    _at_most("--radius", args.radius, _MAX_CAYLEY_RADIUS)
    graph = build_window(args.group, args.radius)
    text = export_dot(graph) if args.format == "dot" else export_json(graph)
    if args.out is None:
        print(text, end="")
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_chambers(args: argparse.Namespace) -> int:
    from .confspace import enumerate_chambers

    _at_most("--n", args.n, _MAX_CHAMBER_LABELS)
    for chamber in enumerate_chambers(args.n):
        print(chamber)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    from .confspace import cover_window

    _at_most("--radius", args.radius, _MAX_COVER_RADIUS)
    for v in cover_window(args.radius):
        print(v)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import equiv

    if args.suite == "equivariance":
        jr = _span(args.jmin, args.jmax, -20, 20, "j")
        kr = _span(args.kmin, args.kmax, -50, 50, "k")
        _at_most("equivariance case count", 3 * _size(jr) * _size(kr), _MAX_VERIFY_CASES)
        phi = equiv.cover_to_group_perturbed if args.perturb_map else equiv.cover_to_group
        report = equiv.check_equivariance(jr, kr, phi=phi)
    elif args.suite == "action":
        kr = _span(args.kmin, args.kmax, -10, 10, "k")
        mr = _span(args.mmin, args.mmax, -60, 60, "m")
        kp, mp = range(max(kr.start, 0), kr.stop), range(max(mr.start, 0), mr.stop)
        # Identity and compatibility cases, then one index case per (k, m) and
        # one length case per (k, m) with both nonnegative.
        total = _size(mr) * (1 + _size(kr) ** 2) + _size(kr) * _size(mr) + _size(kp) * _size(mp)
        _at_most("action case count", total, _MAX_VERIFY_CASES)
        # Each length case writes out the m + 3k letters of its word.
        letters = _size(kp) * _sum(mp) + 3 * _size(mp) * _sum(kp)
        _at_most("action letter count", letters, _MAX_VERIFY_LETTERS)
        report = equiv.verify_action_axioms(kr, mr).merged(equiv.check_shift_law(kr, mr))
    elif args.suite == "iso":
        kr = _span(args.kmin, args.kmax, -15, 15, "k")
        _at_most("iso case count", 2 * _size(kr) + _size(kr) ** 2, _MAX_VERIFY_CASES)
        report = equiv.check_isomorphism(kr)
    else:
        if not 0 <= args.radius <= _MAX_ORACLE_RADIUS:
            raise ValueError(f"--radius {args.radius} is outside 0..{_MAX_ORACLE_RADIUS}")
        report = equiv.check_oracle(args.radius)
    print(report.render())
    return 0 if report.ok() else 1


def _add_word_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("word", nargs="?", default=None, help="word text, e.g. 's1,2 s1,3'")
    sub.add_argument("--stdin", action="store_true", help="read the word from stdin")
    sub.add_argument("--n", type=int, default=3, help="degree (default 3)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactus", description="Word algebra for interval-reversing groups."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", help="canonical form (degree 3) or free reduction")
    _add_word_arguments(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("project", help="permutation image of a word")
    _add_word_arguments(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("pure", help="does the word project to the identity?")
    _add_word_arguments(p)
    p.set_defaults(func=_cmd_pure)

    p = sub.add_parser("cayley", help="export a Cayley-graph window")
    p.add_argument("--group", choices=["J3", "J3_2"], default="J3_2")
    p.add_argument("--radius", type=int, default=3, help="max word length in the window")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("chambers", help="list chambers of n labeled points on a circle")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("cover", help="list cover-line vertices for k in [-K, K]")
    p.add_argument("--radius", type=int, default=1, metavar="K")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=["equivariance", "action", "iso", "oracle"])
    p.add_argument("--jmin", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--mmin", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--radius", type=int, default=8, help="word-length cap (oracle suite)")
    p.add_argument(
        "--perturb-map",
        action="store_true",
        help="use a deliberately wrong cover map (negative control)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left; send the rest of the buffer to devnull so that the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
