"""Command-line front end. `_COMMANDS` lists each subcommand's help line,
handler and arguments; `_parse` reads argv against it as argparse would, less
prefix abbreviations (`--rad`) and the `--` separator, and -h prints help from
it, so no request imports an argument-parsing library. Exit codes: 0 success
(and all checks passing, or -h), 1 verification failure or a negative `pure`
answer, 2 usage (a usage line and `cactus <sub>: error: ...`), parse or I/O errors.

Each subcommand's handler imports the modules it uses, so a request loads
only those: `normalize` loads `words` and `degree3`; `project` and `pure`
load `words` and `perm`; `chambers` and `cover` load `words` and
`confspace`; `cayley` loads `words`, `degree3` and `cayley`; `verify` loads
`words`, `degree3`, `confspace` and `equiv`.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import Callable

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


def _read_word(args: SimpleNamespace) -> Word:
    _at_most("--n", args.n, _MAX_WORD_DEGREE)
    if args.stdin and args.word is not None:
        raise WordParseError("word given both as an argument and with --stdin; pass one of them")
    if not args.stdin and args.word is None:
        raise WordParseError("no word given; pass one as an argument or use --stdin")
    return parse_word(sys.stdin.read() if args.stdin else args.word, args.n)


def _cmd_normalize(args: SimpleNamespace) -> int:
    from .degree3 import canonicalize

    w = _read_word(args)
    print(canonicalize(w) if args.n == 3 else f"freely-reduced: {free_reduce(w)}")
    return 0


def _cmd_project(args: SimpleNamespace) -> int:
    from .perm import project

    print(project(_read_word(args)))
    return 0


def _cmd_pure(args: SimpleNamespace) -> int:
    from .perm import is_pure

    pure = is_pure(_read_word(args))
    print("yes" if pure else "no")
    return 0 if pure else 1


def _cmd_cayley(args: SimpleNamespace) -> int:
    from .cayley import build_window, export_dot, export_json

    _at_most("--radius", args.radius, _MAX_CAYLEY_RADIUS)
    graph = build_window(args.group, args.radius)
    text = export_dot(graph) if args.format == "dot" else export_json(graph)
    if args.out is None:
        print(text, end="")
    else:
        with open(args.out, "w") as out:
            out.write(text)
    return 0


def _cmd_chambers(args: SimpleNamespace) -> int:
    from .confspace import enumerate_chambers

    _at_most("--n", args.n, _MAX_CHAMBER_LABELS)
    for chamber in enumerate_chambers(args.n):
        print(chamber)
    return 0


def _cmd_cover(args: SimpleNamespace) -> int:
    from .confspace import cover_window

    _at_most("--radius", args.radius, _MAX_COVER_RADIUS)
    for v in cover_window(args.radius):
        print(v)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    from . import equiv

    for name in ("jmin", "jmax", "kmin", "kmax", "mmin", "mmax", "radius"):
        if name[0] not in _SUITE_READS[args.suite] and getattr(args, name) is not None:
            raise ValueError(f"verify {args.suite} does not read --{name}")
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
        radius = 8 if args.radius is None else args.radius
        if not 0 <= radius <= _MAX_ORACLE_RADIUS:
            raise ValueError(f"--radius {radius} is outside 0..{_MAX_ORACLE_RADIUS}")
        report = equiv.check_oracle(radius)
    print(report.render())
    return 0 if report.ok() else 1


# Each subcommand's help line, handler and arguments: the one place they are
# listed. An argument maps its name to (kind, default, help), where kind is int,
# str, bool (a switch, which takes no value) or a tuple of choices. The name
# without dashes is the positional; it must be given when its default is _REQUIRED.
_REQUIRED = object()
# The range flags and --radius that each verify suite reads, by their first letter.
_SUITE_READS = {"equivariance": "jk", "action": "km", "iso": "k", "oracle": "r"}
_WORD = {"word": (str, None, "word text, e.g. 's1,2 s1,3'"), "--n": (int, 3, "degree"),
         "--stdin": (bool, False, "read the word from stdin")}
_COMMANDS = {
    "normalize": ("canonical form (degree 3) or free reduction", _cmd_normalize, _WORD),
    "project": ("permutation image of a word", _cmd_project, _WORD),
    "pure": ("does the word project to the identity?", _cmd_pure, _WORD),
    "cayley": ("export a Cayley-graph window", _cmd_cayley, {
        "--group": (("J3", "J3_2"), "J3_2", "group"), "--format": (("dot", "json"), "dot", "output format"),
        "--radius": (int, 3, "max word length"), "--out": (str, None, "output path (default stdout)")}),
    "chambers": ("list chambers of n labeled points on a circle", _cmd_chambers, {
        "--n": (int, 4, "labeled points")}),
    "cover": ("list cover-line vertices for k in [-K, K]", _cmd_cover, {"--radius": (int, 1, "K")}),
    "verify": ("run a verification sweep", _cmd_verify, {
        "suite": (tuple(_SUITE_READS), _REQUIRED, "the sweep to run"),
        **{f"--{x}{end}": (int, None, "bound of the window, read by " + ", ".join(
            suite for suite, reads in _SUITE_READS.items() if x in reads)) for x in "jkm" for end in ("min", "max")},
        "--radius": (int, None, "word-length cap of the oracle suite (default 8)"),
        "--perturb-map": (bool, False, "use a deliberately wrong cover map (negative control; equivariance only)")}),
}
_HELP = ("-h", "--help")


class _UsageError(Exception):
    """An argv refused before any handler runs: the subcommand (None before one) and why."""


def _usage(sub: str | None, full: bool = False) -> str:
    """The usage line of ``cactus`` or of ``cactus sub``; in full, the -h help."""
    if sub is None:
        usage = ["usage: cactus [-h] {" + ",".join(_COMMANDS) + "} ..."]
        head, rows = "Word algebra for interval-reversing groups.", [(n, c[0]) for n, c in _COMMANDS.items()]
    else:
        usage, rows = [f"usage: cactus {sub} [-h]"], [("-h, --help", "show this help and exit")]
        head, _, arguments = _COMMANDS[sub]
        for name, (kind, default, text) in arguments.items():
            value = "{" + ",".join(kind) + "}" if type(kind) is tuple else name.lstrip("-").upper()
            label = name if kind is bool else value if name[0] != "-" else f"{name} {value}"
            usage.append(label if default is _REQUIRED else f"[{label}]")
            shown = kind is not bool and default not in (None, _REQUIRED)
            rows.append((label, f"{text} (default {default})" if shown else text))
    if not full:
        return " ".join(usage)
    width = max(len(label) for label, _ in rows)
    return "\n".join([" ".join(usage), "", head, "", *(f"  {x:<{width}}  {text}" for x, text in rows)])


def _print_help(args: SimpleNamespace) -> int:
    print(_usage(args.subcommand, full=True))
    return 0


def _is_flag(arg: str, arguments: dict) -> bool:
    """Whether argparse reads ``arg`` as a flag, not as '-', a negative number or spaced text."""
    name = arg.partition("=")[0]
    return arg[:1] == "-" and arg != "-" and (
        name in arguments or name in _HELP or not (" " in arg or re.match(r"^-\d+$|^-\d*\.\d+$", arg)))


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler ``argv`` names (for -h, the help printer) and its arguments."""
    if argv[:1] and argv[0] in _HELP:
        return _print_help, SimpleNamespace(subcommand=None)
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise _UsageError(None, f"{given}; choose from {', '.join(_COMMANDS)}")
    sub, rest = argv[0], iter(argv[1:])
    _, handler, arguments = _COMMANDS[sub]
    values = {name: default for name, (_, default, _) in arguments.items()}
    positionals = [name for name in arguments if name[0] != "-"]
    for arg in rest:
        if arg in _HELP:
            return _print_help, SimpleNamespace(subcommand=sub)
        if _is_flag(arg, arguments):
            name, inline, text = arg.partition("=")
        else:  # a positional carries its own value
            name, inline, text = positionals.pop() if positionals else None, True, arg
        if name not in arguments:
            raise _UsageError(sub, f"unrecognized argument {arg!r}")
        kind = arguments[name][0]
        if kind is bool and inline:
            raise _UsageError(sub, f"argument {name}: takes no value")
        if kind is not bool and not inline:
            text = next(rest, None)
            if text is None or _is_flag(text, arguments):
                raise _UsageError(sub, f"argument {name}: expected one value")
        if type(kind) is tuple and text not in kind:
            raise _UsageError(sub, f"argument {name}: invalid choice {text!r} (choose from {', '.join(kind)})")
        try:
            values[name] = True if kind is bool else int(text) if kind is int else text
        except ValueError:
            raise _UsageError(sub, f"argument {name}: invalid int value {text!r}") from None
    if positionals and values[positionals[0]] is _REQUIRED:
        raise _UsageError(sub, f"the following arguments are required: {positionals[0]}")
    return handler, SimpleNamespace(**{name.lstrip("-").replace("-", "_"): v for name, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        sub, message = exc.args
        print(f"{_usage(sub)}\ncactus{'' if sub is None else ' ' + sub}: error: {message}", file=sys.stderr)
        return 2
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
