"""Word algebra for interval-reversing groups: exact degree-3 canonical
forms, Cayley-graph windows, circular configuration chambers with their
cover line, and verification sweeps tying the two sides together."""

from .cayley import CayleyGraph, build_window, export_dot, export_json
from .confspace import (
    Chamber,
    CoverVertex,
    DeckElement,
    DualComplex,
    build_dual_complex,
    canonical_chamber,
    chamber_adjacent,
    cover_window,
    covering_map,
    deck_act,
    enumerate_chambers,
)
from .degree3 import (
    IDENTITY,
    AffineMap,
    CanonicalForm,
    affine_model,
    canonicalize,
    evaluate_word,
    from_index,
    in_dihedral_subgroup,
    inv,
    mul,
    pure_element,
    to_word,
)
from .equiv import (
    OutsideSubgroupError,
    PureElement,
    Report,
    check_equivariance,
    check_isomorphism,
    check_oracle,
    check_shift_law,
    cover_to_group,
    deck_from_pure,
    group_to_cover,
    pure_action,
    pure_from_deck,
    verify_action_axioms,
)
from .perm import Permutation, interval_reversal, is_pure, project
from .words import (
    DegreeMismatchError,
    Generator,
    InvalidGeneratorError,
    MoveNotApplicableError,
    PresentationSpec,
    Word,
    WordParseError,
    apply_commute,
    apply_nesting,
    concat,
    equal_by_search,
    free_reduce,
    neighbors,
    parse_word,
)

__version__ = "0.1.0"
