from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from cactuskit.confspace import (
    COVER_LABELS,
    Chamber,
    CoverVertex,
    DeckElement,
    build_dual_complex,
    canonical_chamber,
    chamber_adjacent,
    cover_window,
    covering_map,
    deck_act,
    enumerate_chambers,
)
from cactuskit.words import DegreeMismatchError


def test_canonical_chamber_examples():
    assert canonical_chamber((1, 2, 3, 4)).name == "123"
    assert canonical_chamber((2, 1, 3, 4)) == canonical_chamber((4, 3, 1, 2))
    assert canonical_chamber((1, 3, 2, 4)) != canonical_chamber((1, 2, 3, 4))


def test_canonical_chamber_validation():
    with pytest.raises(ValueError):
        canonical_chamber((1, 2, 2, 4))
    with pytest.raises(ValueError):
        canonical_chamber((1, 2))
    with pytest.raises(ValueError):
        enumerate_chambers(2)
    for n in (True, 4.0, 4.5, "4"):
        with pytest.raises(ValueError) as info:
            enumerate_chambers(n)
        assert str(info.value) == f"number of labels must be an int, got {n!r}"
    for seq in ((True, 2, 3), (1, 2, 3.0), (1.0, 2, 3), ("1", 2, 3)):
        with pytest.raises(ValueError, match="is not an arrangement of 1..3"):
            canonical_chamber(seq)
        with pytest.raises(ValueError, match="is not an arrangement of 1..3"):
            Chamber(seq)


def test_chamber_accepts_only_canonical_representatives():
    assert Chamber((1, 2, 3, 4)) == canonical_chamber((2, 1, 4, 3))
    for order in ((2, 1, 3, 4), (1, 4, 3, 2), (1, 3, 2, 3), (1, 2), (1, 2, 4), ()):
        with pytest.raises(ValueError):
            Chamber(order)


def _lex_min_dihedral_image(seq):
    images = (s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq)))
    return min(images)


@given(st.integers(min_value=3, max_value=9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_canonical_chamber_is_the_lex_min_dihedral_image(labels):
    labels = tuple(labels)
    assert canonical_chamber(labels).order == _lex_min_dihedral_image(labels)


def test_enumeration_matches_canonicalising_every_permutation():
    for n in range(3, 8):
        expected = sorted({canonical_chamber(p) for p in permutations(range(1, n + 1))})
        assert list(enumerate_chambers(n)) == expected


def test_canonical_representative_is_stable():
    c = canonical_chamber((3, 1, 4, 2))
    assert canonical_chamber(c.order) == c


def test_chamber_counts():
    assert [len(enumerate_chambers(n)) for n in (3, 4, 5, 6)] == [1, 3, 12, 60]


def test_four_point_chamber_names():
    assert [str(c) for c in enumerate_chambers(4)] == ["[123]", "[213]", "[132]"]


def test_adjacency_is_a_triangle_for_four_points():
    chambers = enumerate_chambers(4)
    for a in chambers:
        assert not chamber_adjacent(a, a)
        for b in chambers:
            if a != b:
                assert chamber_adjacent(a, b)


def test_adjacency_is_symmetric_for_five_points():
    chambers = enumerate_chambers(5)
    for a in chambers:
        for b in chambers:
            assert chamber_adjacent(a, b) == chamber_adjacent(b, a)


def test_adjacency_equals_some_neighbour_swap():
    for n in (5, 6):
        chambers = enumerate_chambers(n)
        for a in chambers:
            swaps = set()
            for i in range(n):
                seq = list(a.order)
                seq[i], seq[i - 1] = seq[i - 1], seq[i]
                swaps.add(_lex_min_dihedral_image(tuple(seq)))
            for b in chambers:
                assert chamber_adjacent(a, b) == (a != b and b.order in swaps)


def test_adjacency_rejects_mixed_degrees():
    with pytest.raises(DegreeMismatchError):
        chamber_adjacent(enumerate_chambers(4)[0], enumerate_chambers(5)[0])


def test_dual_complex_is_a_3_cycle():
    dc = build_dual_complex()
    assert len(dc.vertices) == 3
    assert len(dc.edges) == 3
    for c in dc.vertices:
        assert dc.degree_of(c) == 2


def test_cover_window_order():
    assert [str(v) for v in cover_window(0)] == ["[213]_0", "[123]_0", "[132]_0"]
    assert [str(v) for v in cover_window(1)] == [
        "[213]_-1",
        "[123]_-1",
        "[132]_-1",
        "[213]_0",
        "[123]_0",
        "[132]_0",
        "[213]_1",
        "[123]_1",
        "[132]_1",
    ]
    for K in (0, 2, 5):
        assert len(cover_window(K)) == 3 * (2 * K + 1)
    with pytest.raises(ValueError):
        cover_window(-1)
    for K in (True, 1.0, 1.5, "1"):
        with pytest.raises(ValueError) as info:
            cover_window(K)
        assert str(info.value) == f"window size must be an int, got {K!r}"


def test_cover_vertex_validation():
    for label, k in (("124", 0), ("123", "1"), ("123", 1.0), ("123", True)):
        with pytest.raises(ValueError):
            CoverVertex(label, k)


def test_deck_action_examples():
    v = CoverVertex("123", 0)
    assert deck_act(DeckElement(0), v) == v
    assert deck_act(DeckElement(2), v) == CoverVertex("123", 2)
    assert deck_act(DeckElement(1), deck_act(DeckElement(-1), v)) == v


def test_deck_element_validation():
    for j in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match=f"deck power must be an int, got {j!r}"):
            DeckElement(j)


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from(COVER_LABELS),
    st.integers(min_value=-50, max_value=50),
)
def test_deck_action_is_an_action(j1, j2, label, k):
    v = CoverVertex(label, k)
    composed = deck_act(DeckElement(j1 + j2), v)
    assert composed == deck_act(DeckElement(j1), deck_act(DeckElement(j2), v))
    assert covering_map(composed) == covering_map(v)


def test_deck_action_is_free():
    v = CoverVertex("132", 4)
    assert all(deck_act(DeckElement(j), v) != v for j in range(-10, 11) if j != 0)


def test_covering_map_fibers():
    window = cover_window(3)
    for label in COVER_LABELS:
        fiber = [v for v in window if covering_map(v).name == label]
        assert len(fiber) == 7
        for a in fiber:
            for b in fiber:
                # the deck group moves any lift to any other lift of the
                # same chamber
                assert deck_act(DeckElement(b.k - a.k), a) == b


def test_covering_map_matches_a_name_scan():
    by_name = {c.name: c for c in enumerate_chambers(4)}
    for v in cover_window(1):
        assert covering_map(v) == by_name[v.label]


def test_cover_adjacency_projects_to_wall_adjacency():
    window = cover_window(2)
    for a, b in zip(window, window[1:]):
        assert chamber_adjacent(covering_map(a), covering_map(b))


def test_chamber_is_hashable_and_ordered():
    chambers = enumerate_chambers(4)
    assert len(set(chambers)) == 3
    assert list(chambers) == sorted(chambers)
    assert isinstance(chambers[0], Chamber)
