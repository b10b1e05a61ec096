"""Word algebra for interval-reversing groups: exact degree-3 canonical
forms, Cayley-graph windows, circular configuration chambers with their
cover line, and verification sweeps tying the two sides together.

``import cactuskit`` loads none of the submodules.  Each public name below is
imported from its module on first use (PEP 562) and then kept as a package
attribute, so ``cactuskit.Word is cactuskit.words.Word``; a module loads the
modules it imports with it (``equiv`` loads ``words``, ``degree3`` and
``confspace``).
"""

_EXPORTS = {
    "cayley": ("CayleyGraph", "build_window", "export_dot", "export_json"),
    "confspace": (
        "Chamber",
        "CoverVertex",
        "DeckElement",
        "DualComplex",
        "build_dual_complex",
        "canonical_chamber",
        "chamber_adjacent",
        "cover_window",
        "covering_map",
        "deck_act",
        "enumerate_chambers",
    ),
    "degree3": (
        "IDENTITY",
        "AffineMap",
        "CanonicalForm",
        "affine_model",
        "canonicalize",
        "evaluate_word",
        "inv",
        "mul",
        "pure_element",
        "to_word",
    ),
    "equiv": (
        "OutsideSubgroupError",
        "PureElement",
        "Report",
        "check_equivariance",
        "check_isomorphism",
        "check_oracle",
        "check_shift_law",
        "cover_to_group",
        "deck_from_pure",
        "group_to_cover",
        "pure_action",
        "pure_from_deck",
        "verify_action_axioms",
    ),
    "perm": ("Permutation", "interval_reversal", "is_pure", "project"),
    "words": (
        "DegreeMismatchError",
        "Generator",
        "InvalidGeneratorError",
        "MoveNotApplicableError",
        "Word",
        "WordParseError",
        "apply_commute",
        "apply_nesting",
        "equal_by_search",
        "free_reduce",
        "neighbors",
        "parse_word",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
