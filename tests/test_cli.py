import argparse
import contextlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cactuskit.equiv as equiv
from cactuskit import cli
from cactuskit.cli import main
from cactuskit.equiv import Report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_golden(capsys):
    assert run_cli(capsys, "normalize", "s1,2 s1,2")[:2] == (0, "(m=0, eps=0)\n")
    assert run_cli(capsys, "normalize", "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3")[:2] == (
        0,
        "(m=3, eps=1)\n",
    )
    assert run_cli(capsys, "normalize", "s2,3")[:2] == (0, "(m=-1, eps=0)\n")
    assert run_cli(capsys, "normalize", "")[:2] == (0, "(m=0, eps=0)\n")


def test_normalize_higher_degree_reduces_freely(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--n", "4", "s1,2 s3,4 s3,4 s1,2 s2,4")
    assert code == 0
    assert out == "freely-reduced: s2,4\n"


def test_normalize_parse_error(capsys):
    for word in ("s1,2 bogus", "s1,2 s\u0661,\u0662"):
        code, out, err = run_cli(capsys, "normalize", word)
        assert code == 2
        assert out == ""
        assert "token 1" in err


def test_word_required_unless_stdin(capsys):
    code, _, err = run_cli(capsys, "normalize")
    assert code == 2
    assert "no word given" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("s1,2 s2,3"))
    code, out, _ = run_cli(capsys, "normalize", "--stdin")
    assert code == 0
    assert out == "(m=2, eps=0)\n"


def test_word_from_an_argument_and_stdin_is_refused(capsys, monkeypatch):
    for argv in (["normalize", "--stdin", "s1,2"], ["project", "s1,2", "--stdin"],
                 ["pure", "--stdin", ""], ["normalize", "--n", "4", "--stdin", "s1,2"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO("s1,2"))
        assert run_cli(capsys, *argv) == (
            2, "", "error: word given both as an argument and with --stdin; pass one of them\n")


def test_project(capsys):
    assert run_cli(capsys, "project", "s1,2 s1,3")[:2] == (0, "[2,3,1]\n")
    assert run_cli(capsys, "project", "")[:2] == (0, "[1,2,3]\n")
    assert run_cli(capsys, "project", "--n", "5", "s2,4")[:2] == (0, "[1,4,3,2,5]\n")


def test_pure_exit_codes(capsys):
    assert run_cli(capsys, "pure", "s1,2 s1,3 s1,2 s1,3 s1,2 s1,3")[:2] == (0, "yes\n")
    assert run_cli(capsys, "pure", "s1,2 s1,3")[:2] == (1, "no\n")
    assert run_cli(capsys, "pure", "")[:2] == (0, "yes\n")


def test_cayley_dot_output(capsys):
    code, out, _ = run_cli(capsys, "cayley", "--group", "J3_2", "--radius", "1")
    assert code == 0
    assert out.startswith('graph "J3_2" {\n')
    assert '"(m=-1, eps=0)" -- "(m=0, eps=0)" [label="s2,3"];' in out


def test_cayley_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "cayley", "--group", "J3", "--radius", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "J3"
    assert len(payload["nodes"]) == 8
    assert all(set(e) == {"src", "dst", "gen"} for e in payload["edges"])


def test_cayley_out_file(capsys, tmp_path):
    target = tmp_path / "window.json"
    code, out, _ = run_cli(
        capsys,
        "cayley",
        "--radius",
        "2",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["radius"] == 2


def test_cayley_out_io_errors(capsys, tmp_path):
    for target in (tmp_path / "missing" / "window.dot", tmp_path):
        code, out, err = run_cli(capsys, "cayley", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err


def test_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cactuskit", "cover", "--radius", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"[213]_-100000\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_chambers_listing(capsys):
    code, out, _ = run_cli(capsys, "chambers", "--n", "4")
    assert code == 0
    assert out == "[123]\n[213]\n[132]\n"
    code, out, _ = run_cli(capsys, "chambers", "--n", "5")
    assert code == 0
    assert len(out.splitlines()) == 12


def test_chambers_refuses_too_many_labels(capsys):
    for n in ("11", "100"):
        code, out, err = run_cli(capsys, "chambers", "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limit of 10" in err


def test_linear_inputs_are_capped(capsys, monkeypatch):
    refused = [
        (("normalize", "--n", "1001", "s1,2"), "--n 1001 is above the limit of 1000"),
        (("project", "--n", "1001", "s1,2"), "--n 1001 is above the limit of 1000"),
        (("pure", "--n", "2000000", "s1,2"), "--n 2000000 is above the limit of 1000"),
        (("pure", "--n", "1001", "--stdin"), "--n 1001 is above the limit of 1000"),
        (("cayley", "--radius", "5001"), "--radius 5001 is above the limit of 5000"),
        (("cayley", "--radius", "1000000", "--format", "json"),
         "--radius 1000000 is above the limit of 5000"),
        (("cover", "--radius", "100001"), "--radius 100001 is above the limit of 100000"),
    ]
    for argv, message in refused:
        monkeypatch.setattr(sys, "stdin", io.StringIO("s1,2"))
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "project", "--n", "1000", "s1,2")
    assert (code, out) == (0, "[2,1," + ",".join(map(str, range(3, 1001))) + "]\n")


def test_cover_listing(capsys):
    code, out, _ = run_cli(capsys, "cover", "--radius", "0")
    assert code == 0
    assert out == "[213]_0\n[123]_0\n[132]_0\n"


def test_verify_suites_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "equivariance", "--jmin", "-3", "--jmax", "3", "--kmin", "-3", "--kmax", "3"
    )
    assert code == 0
    assert out == "OK 147 cases\n"

    code, out, _ = run_cli(
        capsys, "verify", "action", "--kmin", "-2", "--kmax", "2", "--mmin", "-5", "--mmax", "5"
    )
    assert code == 0
    assert out.endswith("cases\n") and out.startswith("OK ")

    code, out, _ = run_cli(capsys, "verify", "iso", "--kmin", "-4", "--kmax", "4")
    assert code == 0
    assert out == "OK 99 cases\n"

    code, out, _ = run_cli(capsys, "verify", "oracle", "--radius", "4")
    assert code == 0
    assert out == "OK 126 cases\n"


def test_verify_perturbed_map_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "equivariance",
        "--jmin", "-2", "--jmax", "2",
        "--kmin", "-2", "--kmax", "2",
        "--perturb-map",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[-1].startswith("FAIL ")
    assert any(line.startswith("FAIL j=") for line in lines[:-1])


def test_verify_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "equivariance", "--jmin", "3", "--jmax", "-3")
    assert code == 2
    assert "empty j range" in err


def test_verify_oracle_radius_limits(capsys):
    for radius in ("-3", "-1", "13"):
        code, out, err = run_cli(capsys, "verify", "oracle", "--radius", radius)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "outside 0..12" in err
    code, out, _ = run_cli(capsys, "verify", "oracle", "--radius", "0")
    assert code == 0
    assert out.startswith("OK ")
    code, out, _ = run_cli(capsys, "verify", "oracle", "--radius", "12")
    assert code == 0
    assert out == "OK 797166 cases\n"


def test_verify_refuses_flags_its_suite_never_reads(capsys):
    refused = [
        (["iso", "--kmin", "0", "--kmax", "1", "--jmin", "3", "--radius", "2"], "--jmin"),
        (["iso", "--kmin", "0", "--kmax", "1", "--mmax", "9"], "--mmax"),
        (["equivariance", "--jmin", "0", "--jmax", "0", "--mmin", "0"], "--mmin"),
        (["equivariance", "--jmin", "0", "--jmax", "0", "--kmin", "0", "--kmax", "0", "--radius", "8"], "--radius"),
        (["action", "--kmin", "0", "--kmax", "0", "--mmin", "0", "--mmax", "0", "--jmax", "1"], "--jmax"),
        (["action", "--kmin", "0", "--kmax", "0", "--mmin", "0", "--mmax", "0", "--radius", "2"], "--radius"),
        (["oracle", "--radius", "2", "--kmin", "0"], "--kmin"),
        (["oracle", "--radius", "2", "--mmax", "0", "--perturb-map"], "--mmax"),
    ]
    for argv, flag in refused:
        assert run_cli(capsys, "verify", *argv) == (2, "", f"error: verify {argv[0]} does not read {flag}\n")
    # --perturb-map is accepted by every suite, though only equivariance reads it.
    assert run_cli(capsys, "verify", "iso", "--kmin", "0", "--kmax", "1", "--perturb-map") == (0, "OK 8 cases\n", "")
    assert run_cli(capsys, "verify", "oracle", "--radius", "0", "--perturb-map") == (0, "OK 6 cases\n", "")


def test_verify_ranges_are_capped(capsys, monkeypatch):
    big = "9" * 30
    refused = [
        (("equivariance", "--jmin", "-1000", "--jmax", "1000", "--kmin", "-1000", "--kmax", "1000"),
         "equivariance case count 12012003 is above the limit of 1000000"),
        (("equivariance", "--jmin", "0", "--jmax", "0", "--kmin", "1", "--kmax", "333334"),
         "equivariance case count 1000002 is above the limit of 1000000"),
        (("action", "--kmin", "0", "--kmax", "0", "--mmin", "0", "--mmax", "250000"),
         "action case count 1000004 is above the limit of 1000000"),
        (("action", "--kmin", "-1000", "--kmax", "1000", "--mmin", "0", "--mmax", "0"),
         "action case count 4007004 is above the limit of 1000000"),
        # Under the case cap, the shift law's length cases would write out
        # 0 + 1 + ... + 249999 letters.
        (("action", "--kmin", "0", "--kmax", "0", "--mmin", "0", "--mmax", "249999"),
         "action letter count 31249875000 is above the limit of 1000000"),
        (("action", "--kmin", "0", "--kmax", "0", "--mmin", "0", "--mmax", "1414"),
         "action letter count 1000405 is above the limit of 1000000"),
        (("action", "--kmin", "0", "--kmax", "333", "--mmin", "0", "--mmax", "5"),
         "action letter count 1006008 is above the limit of 1000000"),
        (("iso", "--kmin", "-2000", "--kmax", "2000"),
         "iso case count 16016003 is above the limit of 1000000"),
        (("iso", "--kmin", "1", "--kmax", "1000"),
         "iso case count 1002000 is above the limit of 1000000"),
        (("iso", "--kmin", f"-{big}", "--kmax", big),
         f"iso case count {2 * (2 * int(big) + 1) + (2 * int(big) + 1) ** 2} "
         "is above the limit of 1000000"),
    ]
    for argv, message in refused:
        assert run_cli(capsys, "verify", *argv) == (2, "", f"error: {message}\n")
    # At the cap the suites run; stand-ins report the count they were given.
    monkeypatch.setattr(equiv, "check_equivariance", lambda jr, kr, phi: Report(3 * len(jr) * len(kr)))
    monkeypatch.setattr(equiv, "verify_action_axioms", lambda kr, mr: Report(len(mr) * (1 + len(kr) ** 2)))
    monkeypatch.setattr(
        equiv,
        "check_shift_law",
        lambda kr, mr: Report(len(kr) * len(mr) + sum(k >= 0 for k in kr) * sum(m >= 0 for m in mr)),
    )
    monkeypatch.setattr(equiv, "check_isomorphism", lambda kr: Report(2 * len(kr) + len(kr) ** 2))
    allowed = [
        ("equivariance", "--jmin", "0", "--jmax", "0", "--kmin", "1", "--kmax", "333333"),
        # At the case cap with 499,500 letters, and at the letter cap with 999,391.
        ("action", "--kmin", "0", "--kmax", "0", "--mmin", "-332000", "--mmax", "999"),
        ("action", "--kmin", "0", "--kmax", "0", "--mmin", "0", "--mmax", "1413"),
        ("iso", "--kmin", "1", "--kmax", "999"),
    ]
    for argv, total in zip(allowed, (999_999, 1_000_000, 5_656, 999_999)):
        assert run_cli(capsys, "verify", *argv) == (0, f"OK {total} cases\n", "")


def test_unknown_subcommand(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cactuskit", "normalize", "s2,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(m=-1, eps=0)\n"


def _flag(name, values):
    return st.tuples(st.just(name), values)


def _any_of(*flags):
    return st.lists(st.one_of(*flags), max_size=3)


_small = st.integers(min_value=-2, max_value=5).map(str)


def _range(name, *wide):
    """A small span, the span -10^7..10^7 that puts every suite reading it past
    the case cap, or one of the ``wide`` spans."""
    small = st.tuples(_flag(f"--{name}min", _small), _flag(f"--{name}max", _small))
    wide = (("-10000000", "10000000"), *wide)
    return st.one_of(small, *(st.just((f"--{name}min", lo, f"--{name}max", hi)) for lo, hi in wide))


_radius = _flag("--radius", st.sampled_from(["-1", "0", "2", "4", "13"]))


def _verify(suite, reads, *unread):
    """``verify suite`` with the flags it reads, with or without --perturb-map,
    and one time in four with one of the ``unread`` flags, which it refuses."""
    stray = st.sampled_from([()] * 3 * len(unread) + [(name, "0") for name in unread] or [()])
    perturb = st.lists(st.just("--perturb-map"), max_size=1)
    return st.tuples(st.just("verify"), st.just(suite), reads, perturb, stray)


# Range flags are always given: each default window takes up to a second.
_VERIFY = {
    "equivariance": _verify("equivariance", st.tuples(_range("j"), _range("k")), "--mmin", "--mmax", "--radius"),
    # m from 0 to 1414 passes the action case cap; with any k >= 0 it is past
    # the letter cap, and with only k < 0 it runs at most 9,905 cases.
    "action": _verify("action", st.tuples(_range("k"), _range("m", ("0", "1414"))), "--jmin", "--jmax", "--radius"),
    "iso": _verify("iso", _range("k"), "--jmin", "--mmax", "--radius"),
    "oracle": _verify("oracle", _radius, "--jmin", "--kmax", "--mmin"),
    # Not a suite: the parser refuses it.
    "shift": _verify("shift", st.tuples(_range("j"), _range("k"), _range("m"), _radius)),
}

_word = st.lists(
    st.sampled_from(["s1,2", "s1,3", "s2,3", "s2,4", "s3,4", "s0,1", "s2,1", "s1,", "x", ""]),
    max_size=4,
).map(" ".join)
_argv = st.one_of(
    st.tuples(
        st.sampled_from(["normalize", "project", "pure"]),
        _any_of(_word, st.just("--stdin"), _flag("--n", st.one_of(_small, st.just("1001")))),
    ),
    st.tuples(
        st.just("cayley"),
        _any_of(
            _flag("--group", st.sampled_from(["J3", "J3_2", "J4"])),
            _flag("--radius", st.one_of(st.integers(-1, 4).map(str), st.just("5001"))),
            _flag("--format", st.sampled_from(["dot", "json", "svg"])),
        ),
    ),
    st.tuples(
        st.just("chambers"),
        _any_of(_flag("--n", st.sampled_from(["-1", "0", "2", "3", "4", "6", "11", "12", "x"]))),
    ),
    st.tuples(st.just("cover"), _any_of(_flag("--radius", st.one_of(_small, st.just("100001"))))),
    st.sampled_from(list(_VERIFY)).flatmap(_VERIFY.get),
    st.lists(
        st.sampled_from(
            ["normalize", "cover", "chambers", "frobnicate", "--n", "--radius", "--stdin",
             "--format", "-h", "3", "-1", "s1,2", "s1,2 s2,3", ""]
        ),
        max_size=5,
    ),
)


def _flatten(parts):
    if isinstance(parts, (tuple, list)):
        return [token for part in parts for token in _flatten(part)]
    return [parts]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argv.map(_flatten), _word)
def test_main_fuzz_never_raises(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _add_word_arguments(sub):
    sub.add_argument("word", nargs="?", default=None, help="word text, e.g. 's1,2 s1,3'")
    sub.add_argument("--stdin", action="store_true", help="read the word from stdin")
    sub.add_argument("--n", type=int, default=3, help="degree (default 3)")


def _build_parser():
    """The argparse parser that the command table replaced, kept as the
    reference for what `cactus` accepts and the values it reads."""
    parser = argparse.ArgumentParser(
        prog="cactus", description="Word algebra for interval-reversing groups."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", help="canonical form (degree 3) or free reduction")
    _add_word_arguments(p)
    p.set_defaults(func=cli._cmd_normalize)

    p = sub.add_parser("project", help="permutation image of a word")
    _add_word_arguments(p)
    p.set_defaults(func=cli._cmd_project)

    p = sub.add_parser("pure", help="does the word project to the identity?")
    _add_word_arguments(p)
    p.set_defaults(func=cli._cmd_pure)

    p = sub.add_parser("cayley", help="export a Cayley-graph window")
    p.add_argument("--group", choices=["J3", "J3_2"], default="J3_2")
    p.add_argument("--radius", type=int, default=3, help="max word length in the window")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cli._cmd_cayley)

    p = sub.add_parser("chambers", help="list chambers of n labeled points on a circle")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=cli._cmd_chambers)

    p = sub.add_parser("cover", help="list cover-line vertices for k in [-K, K]")
    p.add_argument("--radius", type=int, default=1, metavar="K")
    p.set_defaults(func=cli._cmd_cover)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=["equivariance", "action", "iso", "oracle"])
    p.add_argument("--jmin", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--mmin", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--radius", type=int, default=None, help="word-length cap (oracle suite)")
    p.add_argument(
        "--perturb-map",
        action="store_true",
        help="use a deliberately wrong cover map (negative control)",
    )
    p.set_defaults(func=cli._cmd_verify)

    return parser


REFERENCE = _build_parser()


def _reference_reading(argv):
    """The handler and arguments the argparse reference reads from argv, or
    None where it refuses argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = vars(REFERENCE.parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None
    del args["subcommand"]
    return args.pop("func"), args


def _table_reading(argv):
    try:
        handler, args = cli._parse(argv)
    except cli._UsageError:
        return None
    return handler, vars(args)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_argv.map(_flatten).filter(lambda argv: not {"-h", "--help"} & set(argv)))
def test_table_reads_argv_as_argparse_does(argv):
    assert _table_reading(argv) == _reference_reading(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--n=4", "s1,2"],
        ["verify", "--kmin", "-5", "--kmax=-3", "iso", "--jmin", "-0"],
        ["pure", "", "--stdin"],
        ["project", "--n", "4", "s1,2 s3,4", "--n", "5"],
        ["cayley", "--radius", "2", "--out", "-", "--format=json", "--group=J3"],
        ["verify", "--perturb-map", "equivariance", "--perturb-map"],
        ["cover", "--radius", " 7 "],
        ["verify", "oracle", "--radius"],
        ["cayley", "--out", "--format", "dot"],
        ["normalize", "--stdin=yes"],
        ["chambers", "4"],
        ["verify", "iso", "oracle"],
        ["verify", "--kmin", "x", "iso"],
        ["normalize", "--n", "--stdin"],
    ],
)
def test_table_reads_edge_cases_as_argparse_does(argv):
    assert _table_reading(argv) == _reference_reading(argv)


def test_abbreviations_and_the_separator_are_refused(capsys):
    # argparse read a prefix of a flag and "--" before positionals; nothing used either.
    for argv in (["cayley", "--rad", "5"], ["normalize", "--", "s1,2"]):
        assert _reference_reading(argv) is not None
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: unrecognized argument {argv[1]!r}" in err


def _reference_subcommands():
    action = next(a for a in REFERENCE._actions if isinstance(a, argparse._SubParsersAction))
    return {choice.dest: choice.help for choice in action._choices_actions}, action.choices


def test_help_names_every_subcommand_flag_and_choice(capsys):
    lines, parsers = _reference_subcommands()
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "")
    assert out.startswith("usage: cactus ")
    for sub, line in lines.items():
        assert any(row.split() == [sub, *line.split()] for row in out.splitlines()), sub
    assert run_cli(capsys, "--help") == (0, out, "")
    for sub, parser in parsers.items():
        code, out, err = run_cli(capsys, sub, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: cactus {sub} ")
        assert lines[sub] in out
        for action in parser._actions:
            for name in action.option_strings:
                assert name in out, (sub, name)
            for choice in action.choices or ():
                assert choice in out, (sub, choice)
        assert run_cli(capsys, sub, "--help") == (0, out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no subcommand"),
        (["frobnicate"], "unknown subcommand 'frobnicate'"),
        (["normalize", "--n", "x", "s1,2"], "argument --n: invalid int value 'x'"),
        (["cayley", "--format", "svg"], "argument --format: invalid choice 'svg'"),
        (["verify", "shift"], "argument suite: invalid choice 'shift'"),
        (["cover", "--radius"], "argument --radius: expected one value"),
        (["cayley", "--out", "--format", "dot"], "argument --out: expected one value"),
        (["cayley", "--radius", "-x"], "argument --radius: expected one value"),
        (["chambers", "--radius", "3"], "unrecognized argument '--radius'"),
        (["verify", "--kmin", "0", "--kmax", "1"], "the following arguments are required: suite"),
        (["project", "s1,2", "s2,3"], "unrecognized argument 's2,3'"),
        (["normalize", "--stdin=1"], "argument --stdin: takes no value"),
    ],
)
def test_usage_errors_print_usage_and_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    prog = " ".join(["cactus", *argv[:1]]) if argv[:1] and argv[0] in cli._COMMANDS else "cactus"
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: {message}")
