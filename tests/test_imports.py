import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cactuskit"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "cactuskit" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert not outside, "\n".join(outside)


def test_cli_starts_without_the_slow_standard_modules():
    # dataclasses (which pulls in inspect) and json cost more than the whole
    # package's own import, and argparse (with getopt, gettext and locale) and
    # pathlib cost a third of a request's own time; re and typing took about
    # as long to import as the request's own modules.  -S keeps site's .pth
    # hooks from importing them first.  Every subcommand and -h runs in one
    # process, and one more request goes through runpy, as `python -m
    # cactuskit` does; the oracle suite stays out, as moves imports typing.
    slow = ("dataclasses", "inspect", "json", "argparse", "getopt", "gettext", "locale", "pathlib", "re", "typing")
    runs = [argv for argv, _ in SUBCOMMAND_MODULES] + [["-h"], ["verify", "-h"]]
    code = (
        f"import runpy, sys\nfrom cactuskit.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
        "sys.argv = ['cactus', 'verify', 'iso', '--kmin', '0', '--kmax', '3', '--perturb-map']\n"
        "try:\n    runpy.run_module('cactuskit', run_name='__main__')\nexcept SystemExit as exit:\n    assert exit.code == 0\n"
        f"sys.stderr.write(' '.join(m for m in {slow + ('cactuskit.moves',)!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(m=1, eps=0)\n")
    assert proc.stdout.endswith("OK 24 cases\n")
    assert proc.stderr.split() == []


def test_cayley_json_export_does_not_load_json():
    code = (
        "import sys; from cactuskit.cayley import build_window, export_json; "
        "export_json(build_window('J3', 2)); print('json' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# The names the package exported when its root imported every submodule eagerly,
# less concat and from_index, which only spelled a Word and a CanonicalForm, and
# in_dihedral_subgroup, which only read a CanonicalForm's eps == 0.
PUBLIC = {
    "cayley": ("CayleyGraph", "build_window", "export_dot", "export_json"),
    "confspace": (
        "Chamber", "CoverVertex", "DeckElement", "DualComplex", "build_dual_complex",
        "canonical_chamber", "chamber_adjacent", "cover_window", "covering_map", "deck_act",
        "enumerate_chambers",
    ),
    "degree3": (
        "IDENTITY", "AffineMap", "CanonicalForm", "affine_model", "canonicalize", "evaluate_word",
        "inv", "mul", "pure_element", "to_word",
    ),
    "equiv": (
        "OutsideSubgroupError", "PureElement", "Report", "check_equivariance", "check_isomorphism",
        "check_oracle", "check_shift_law", "cover_to_group", "deck_from_pure", "group_to_cover",
        "pure_action", "pure_from_deck", "verify_action_axioms",
    ),
    "moves": ("apply_commute", "apply_nesting", "equal_by_search", "neighbors"),
    "perm": ("Permutation", "interval_reversal", "is_pure", "project"),
    "words": (
        "DegreeMismatchError", "Generator", "InvalidGeneratorError", "MoveNotApplicableError",
        "Word", "WordParseError", "free_reduce", "parse_word",
    ),
}


def _submodules_loaded_by(statement):
    """The cactuskit submodules a fresh -S interpreter holds after ``statement``."""
    code = (
        f"import sys\n{statement}\n"
        f"sys.stderr.write(' '.join(m for m in {tuple(PUBLIC)!r} if 'cactuskit.' + m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_package_import_loads_no_submodule():
    assert _submodules_loaded_by("import cactuskit") == set()


# What each subcommand loads beyond cactuskit.cli; verify loads the most.
# None loads moves: only the oracle suite reads it, and normalize loads
# degree3 only for a degree-3 word.
SUBCOMMAND_MODULES = [
    (["normalize", "s1,2"], {"words", "degree3"}),
    (["normalize", "--n", "4", "s1,2"], {"words"}),
    (["project", "s1,2"], {"words", "perm"}),
    (["pure", "s1,2 s1,2"], {"words", "perm"}),
    (["chambers", "--n", "4"], {"words", "confspace"}),
    (["cover", "--radius", "1"], {"words", "confspace"}),
    (["cayley", "--radius", "1"], {"words", "degree3", "cayley"}),
    (["verify", "iso", "--kmin", "0", "--kmax", "1"], {"words", "degree3", "confspace", "equiv"}),
]
ORACLE_MODULES = (["verify", "oracle", "--radius", "2"], {"words", "degree3", "confspace", "equiv", "moves"})


@pytest.mark.parametrize(
    "argv, modules",
    [*SUBCOMMAND_MODULES, ORACLE_MODULES],
    ids=[f"{argv[0]}-n{argv[2]}" if argv[1] == "--n" and argv[0] == "normalize" else argv[0]
         for argv, _ in SUBCOMMAND_MODULES] + ["verify-oracle"],
)
def test_each_subcommand_loads_only_its_modules(argv, modules):
    statement = f"from cactuskit.cli import main\nassert main({argv!r}) == 0"
    assert _submodules_loaded_by(statement) == modules


def test_public_names_are_unchanged(monkeypatch):
    import cactuskit

    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == 54
    assert sorted(cactuskit.__all__) == sorted(names)
    # Drop the attributes earlier imports cached, so dir() and the lookups
    # below go through the package's own __dir__ and __getattr__.
    for name in names:
        monkeypatch.delattr(cactuskit, name)
    assert set(names) <= set(dir(cactuskit))
    for module, group in PUBLIC.items():
        source = importlib.import_module(f"cactuskit.{module}")
        for name in group:
            assert getattr(cactuskit, name) is getattr(source, name), name
    with pytest.raises(AttributeError, match=r"^module 'cactuskit' has no attribute 'nope'$"):
        cactuskit.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from cactuskit import nope  # noqa: F401
    namespace = {}
    exec("from cactuskit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    assert cactuskit.__version__ == "0.1.0"


def test_annotations_resolve_without_typing_at_import():
    # The modules keep annotations as strings, so a name that only they use
    # need not be imported for the module to load; it must still resolve.
    import typing

    from cactuskit import cli

    unresolved = []
    for module, group in PUBLIC.items():
        source = importlib.import_module(f"cactuskit.{module}")
        for name in group:
            obj = getattr(source, name)
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                member = getattr(member, "__func__", member)
                if callable(member) and not isinstance(member, type):
                    try:
                        typing.get_type_hints(member)
                    except NameError as error:
                        unresolved.append(f"{module}.{name}: {error}")
    typing.get_type_hints(cli._parse)
    assert not unresolved, "\n".join(unresolved)
