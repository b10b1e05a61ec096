import io
import json
import subprocess
import sys

from cactuskit.cli import main


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
    code, out, err = run_cli(capsys, "normalize", "s1,2 bogus")
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
