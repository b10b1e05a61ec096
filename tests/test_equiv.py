import re
import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import cactuskit.equiv as equiv
from cactuskit.confspace import COVER_LABELS, CoverVertex, DeckElement, deck_act
from cactuskit.degree3 import (
    AFFINE_IDENTITY,
    IDENTITY,
    AffineMap,
    CanonicalForm,
    affine_model,
    canonicalize,
    evaluate_word,
    mul,
    pure_element,
    to_word,
)
from cactuskit.equiv import (
    OutsideSubgroupError,
    PureElement,
    Report,
    check_equivariance,
    check_isomorphism,
    check_oracle,
    check_shift_law,
    cover_to_group,
    cover_to_group_perturbed,
    deck_from_pure,
    group_to_cover,
    pure_action,
    pure_from_deck,
    verify_action_axioms,
)
from cactuskit.moves import relation_instances
from cactuskit.words import Word, all_generators, parse_word


def test_pure_element_round_trip():
    assert PureElement.from_canonical(CanonicalForm(3, 1)) == PureElement(1)
    assert PureElement.from_canonical(CanonicalForm(6, 0)) == PureElement(2)
    assert PureElement.from_canonical(IDENTITY) == PureElement(0)
    for bad in (CanonicalForm(3, 0), CanonicalForm(1, 0), CanonicalForm(0, 1)):
        with pytest.raises(ValueError):
            PureElement.from_canonical(bad)
    for k in range(-12, 13):
        assert PureElement.from_canonical(PureElement(k).to_canonical()) == PureElement(k)
        assert PureElement(k).to_canonical() == pure_element(k)
    assert repr(PureElement(2)) == "PureElement(k=2)"


def test_pure_element_validation():
    for k in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match=f"pure power must be an int, got {k!r}"):
            PureElement(k)


def test_from_canonical_rejects_other_types():
    for c in (5, (3, 0), PureElement(1), None):
        with pytest.raises(ValueError) as info:
            PureElement.from_canonical(c)
        assert str(info.value) == f"a pure power comes from a CanonicalForm, got {c!r}"


def test_pure_action_examples():
    assert pure_action(PureElement(0), CanonicalForm(7, 0)) == CanonicalForm(7, 0)
    assert pure_action(PureElement(1), IDENTITY) == CanonicalForm(3, 0)
    assert pure_action(PureElement(1), CanonicalForm(-1, 0)) == CanonicalForm(2, 0)


def test_pure_action_rejects_trailing_flip():
    for k, m in ((1, 0), (0, -7), (2, 5)):
        with pytest.raises(OutsideSubgroupError) as info:
            pure_action(PureElement(k), CanonicalForm(m, 1))
        assert type(info.value) is OutsideSubgroupError
        assert str(info.value) == f"(m={m}, eps=1) has a trailing s13; the action is not defined there"


@given(
    st.integers(min_value=-20, max_value=20), st.integers(min_value=-60, max_value=60)
)
def test_pure_action_shifts_index(k, m):
    out = pure_action(PureElement(k), CanonicalForm(m, 0))
    assert out == CanonicalForm(m + 3 * k, 0)


def test_pure_action_is_one_product_then_a_dropped_s13():
    s13 = CanonicalForm(0, 1)
    for k in range(-30, 31):
        g = PureElement(k)
        for m in range(-90, 91):
            h = CanonicalForm(m, 0)
            raw = mul(g.to_canonical(), h)
            expected = mul(raw, s13) if raw.eps else raw
            assert pure_action(g, h) == expected, (k, m)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**9, max_value=10**9),
    st.sampled_from((0, 1)),
)
@example(1, 0, 0)
@example(-1, 7, 0)
@example(3, -10**9, 1)
def test_pure_action_is_the_product_less_its_s13_at_any_size(k, m, eps):
    g, h = PureElement(k), CanonicalForm(m, eps)
    if eps:
        message = f"{h} has a trailing s13; the action is not defined there"
        with pytest.raises(OutsideSubgroupError, match=f"^{re.escape(message)}$"):
            pure_action(g, h)
        return
    raw = mul(g.to_canonical(), h)
    assert pure_action(g, h) == (mul(raw, CanonicalForm(0, 1)) if raw.eps else raw)


def test_pure_action_builds_one_form(monkeypatch):
    # The product's eps is dropped, so no odd power builds a form with a
    # trailing s13 only to build its index again without it.
    cases = [(PureElement(k), CanonicalForm(m, 0)) for k in (-3, -2, -1, 0, 1, 2) for m in (-4, 5)]
    built = []
    init = CanonicalForm.__init__
    monkeypatch.setattr(CanonicalForm, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for g, h in cases:
        pure_action(g, h)
    assert len(built) == len(cases) == 12


def test_pure_action_matches_word_level():
    flip = parse_word("s1,3")
    for k in range(-5, 6):
        gw = to_word(pure_element(k))
        for m in range(-10, 11):
            h = CanonicalForm(m, 0)
            raw = canonicalize(Word(3, gw.letters + to_word(h).letters))
            if raw.eps:
                raw = canonicalize(Word(3, gw.letters + to_word(h).letters + flip.letters))
            assert pure_action(PureElement(k), h) == raw


def test_cover_to_group_examples():
    assert cover_to_group(CoverVertex("123", 0)) == IDENTITY
    assert cover_to_group(CoverVertex("213", 0)) == CanonicalForm(1, 0)
    assert cover_to_group(CoverVertex("132", 0)) == CanonicalForm(-1, 0)
    assert cover_to_group(CoverVertex("213", 1)) == CanonicalForm(4, 0)


def _pair_power(m):
    """The index-m element built by stacking (s1,2 s2,3) pairs end to end."""
    pair = parse_word("s1,2 s2,3")
    pair_rev = parse_word("s2,3 s1,2")
    half, odd = divmod(abs(m), 2)
    letters = (pair if m >= 0 else pair_rev).letters * half
    if odd:
        letters += (pair.letters[0],) if m >= 0 else (pair_rev.letters[0],)
    return Word(3, letters)


def test_cover_to_group_matches_explicit_words():
    offsets = {"213": 1, "123": 0, "132": -1}
    for label in COVER_LABELS:
        for k in range(-6, 7):
            v = CoverVertex(label, k)
            expected = canonicalize(_pair_power(3 * k + offsets[label]))
            assert cover_to_group(v) == expected


def test_group_to_cover_examples():
    assert group_to_cover(IDENTITY) == CoverVertex("123", 0)
    assert group_to_cover(CanonicalForm(4, 0)) == CoverVertex("213", 1)
    assert group_to_cover(CanonicalForm(-4, 0)) == CoverVertex("132", -1)
    with pytest.raises(OutsideSubgroupError):
        group_to_cover(CanonicalForm(0, 1))


def test_cover_maps_invert_each_other():
    for label in COVER_LABELS:
        for k in range(-50, 51):
            v = CoverVertex(label, k)
            assert group_to_cover(cover_to_group(v)) == v
    for m in range(-60, 61):
        c = CanonicalForm(m, 0)
        assert cover_to_group(group_to_cover(c)) == c


def test_equivariance_single_case():
    v = CoverVertex("213", 0)
    lhs = cover_to_group(CoverVertex("213", 1))
    rhs = pure_action(PureElement(1), cover_to_group(v))
    assert lhs == rhs == CanonicalForm(4, 0)


def test_check_equivariance_passes():
    report = check_equivariance(range(-6, 7), range(-8, 9))
    assert report.ok()
    assert report.total == 13 * 17 * 3
    assert report.render() == f"OK {report.total} cases"


def test_perturbed_map_fails_equivariance():
    report = check_equivariance(range(-2, 3), range(-2, 3), phi=cover_to_group_perturbed)
    assert not report.ok()
    line = re.compile(
        r"FAIL j=-?\d+ v=\[\d{3}\]_-?\d+ lhs=\(m=-?\d+, eps=[01]\) rhs=\(m=-?\d+, eps=[01]\)"
    )
    for failure in report.failures:
        assert line.fullmatch(failure)
    assert report.render().splitlines()[-1] == f"FAIL {len(report.failures)}/{report.total}"


def _count_calls(monkeypatch, name):
    """Count the calls a sweep makes through the module-level name in equiv."""
    calls = []
    real = getattr(equiv, name)
    monkeypatch.setattr(equiv, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_action_axioms_act_once_per_row(monkeypatch):
    # The default window: 121 identity cases, one row of 121 for each of the
    # 41 distinct elements among the products g12 and the inner g2, and one
    # action by each of the 21 g1 on each of the 181 inner indices -90..90,
    # where the 21 * 21 * 121 compatibility cases would act 53,361 times.
    calls = _count_calls(monkeypatch, "pure_action")
    assert verify_action_axioms(range(-10, 11), range(-60, 61)).ok()
    assert len(calls) == 121 + 41 * 121 + 21 * 181 == 8_883


def test_equivariance_maps_each_vertex_once():
    # The default window: 41 shifts of the 303 vertices with k in -50..50
    # reach the 423 vertices with k in -70..70.  Mapping the shifted vertex
    # per case would call phi 303 + 12,423 = 12,726 times.
    for phi, failures in ((cover_to_group, 0), (cover_to_group_perturbed, 2_020)):
        calls = []
        report = check_equivariance(
            range(-20, 21), range(-50, 51), phi=lambda v, phi=phi: calls.append(v) or phi(v)
        )
        assert report.total == 12_423
        assert len(report.failures) == failures
        assert len(calls) == len(set(calls)) == 423
    assert report.render().endswith("FAIL 2020/12423")


def test_action_axioms_memory_stays_below_all_rows():
    # Two powers and 20,000 indices: the products 10, 11 and 12 and the inner
    # 5 and 6 make five rows.  Keeping every row beside the window's own
    # elements would take six rows' worth; dropping each row after its last
    # pair keeps at most three, plus g1's memo.
    m_range = range(-20_000, 0)
    row = len(m_range) * (sys.getsizeof(CanonicalForm(-20_000, 0)) + sys.getsizeof(-20_000) + 8)
    tracemalloc.start()
    try:
        report = verify_action_axioms(range(5, 7), m_range)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok()
    assert peak < 6 * row


def test_action_axioms_memory_shares_equal_forms():
    # The same window as above: with one object per distinct form, the rows
    # and g1's memo hold references, so the peak stays below four rows.
    m_range = range(-20_000, 0)
    row = len(m_range) * (sys.getsizeof(CanonicalForm(-20_000, 0)) + sys.getsizeof(-20_000) + 8)
    tracemalloc.start()
    try:
        report = verify_action_axioms(range(5, 7), m_range)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok()
    assert peak < 4 * row


def test_isomorphism_maps_each_power_once(monkeypatch):
    # The default window: the 31 powers -15..15 and their 61 products -30..30.
    # Mapping g12, g1 and g2 per pair, and both round trips per power, would
    # call deck_from_pure 3 * 961 + 2 * 31 = 2,945 times.
    calls = _count_calls(monkeypatch, "deck_from_pure")
    assert check_isomorphism(range(-15, 16)).ok()
    assert len(calls) == len({g.k for (g,) in calls}) == 61


def test_oracle_multiplies_once_per_pair_and_letter(monkeypatch):
    # 29,524 words of length 0..9, but their prefixes reach a few dozen
    # (form, map) pairs, each extended by 3 letters.
    calls = _count_calls(monkeypatch, "mul")
    assert check_oracle(9).ok()
    assert len(calls) < 200


def test_verify_action_axioms():
    report = verify_action_axioms(range(-4, 5), range(-10, 11))
    assert report.ok()
    # compatibility sweep plus one identity check per m
    assert report.total == 9 * 9 * 21 + 21
    assert pure_action(
        PureElement(1), pure_action(PureElement(1), IDENTITY)
    ) == CanonicalForm(6, 0)
    assert pure_action(
        PureElement(2), pure_action(PureElement(-1), CanonicalForm(-5, 0))
    ) == CanonicalForm(-2, 0)


def test_check_shift_law():
    report = check_shift_law(range(-5, 6), range(-12, 13))
    assert report.ok()
    # One-shot iterables give every case too: 2 * 3 index cases, each with its length case.
    assert check_shift_law(range(2), range(3)).total == 12
    assert check_shift_law(iter(range(2)), iter(range(3))).total == 12
    for k in range(6):
        for m in range(13):
            out = pure_action(PureElement(k), CanonicalForm(m, 0))
            assert len(to_word(out)) == m + 3 * k


def test_isomorphism_maps():
    assert deck_from_pure(PureElement(5)) == DeckElement(5)
    assert pure_from_deck(DeckElement(-3)) == PureElement(-3)
    g1, g2 = PureElement(3), PureElement(-7)
    prod = PureElement.from_canonical(mul(g1.to_canonical(), g2.to_canonical()))
    assert deck_from_pure(prod) == DeckElement(-4)


def test_check_isomorphism_passes():
    report = check_isomorphism(range(-8, 9))
    assert report.ok()
    assert report.total == 17 * 2 + 17 * 17


def test_check_oracle_small():
    report = check_oracle(4)
    assert report.ok()
    assert report.total == 121 + 5  # words of length <= 4 plus the relators


def _break_pure_action(monkeypatch, at=((1, 0),)):
    """Make the action by each pure power k on the index m miss by one, for
    each (k, m) in ``at``: by default the first power on the identity."""

    def broken(g, h):
        out = pure_action(g, h)
        return CanonicalForm(out.m + 1, 0) if (g.k, h.m) in at else out

    monkeypatch.setattr(equiv, "pure_action", broken)


def test_equivariance_failure_lines(monkeypatch):
    _break_pure_action(monkeypatch)
    report = check_equivariance(range(0, 2), range(-1, 1))
    assert report.render() == (
        "FAIL j=1 v=[123]_0 lhs=(m=3, eps=0) rhs=(m=4, eps=0)\n"
        "FAIL 1/12"
    )


def test_action_axioms_failure_lines(monkeypatch):
    _break_pure_action(monkeypatch)
    report = verify_action_axioms(range(0, 2), range(0, 2))
    assert report.render() == (
        "FAIL k1=1 k2=1 m=0 lhs=(m=6, eps=0) rhs=(m=7, eps=0)\n"
        "FAIL 1/10"
    )


def test_action_axioms_repeated_failure_lines(monkeypatch):
    # The broken actions land in the rows (as lhs) and in g1's action on an
    # inner value (as rhs); k1=1 acts wrongly on the inner values 0 and 3,
    # which several k2 reach, so one wrong rhs fails several cases.
    _break_pure_action(monkeypatch, at=((1, 0), (1, 3), (2, -1)))
    report = verify_action_axioms(range(-1, 3), range(-3, 4))
    assert report.render() == (
        "FAIL k1=-1 k2=1 m=0 lhs=(m=0, eps=0) rhs=(m=1, eps=0)\n"
        "FAIL k1=-1 k2=1 m=3 lhs=(m=3, eps=0) rhs=(m=4, eps=0)\n"
        "FAIL k1=-1 k2=2 m=-1 lhs=(m=2, eps=0) rhs=(m=3, eps=0)\n"
        "FAIL k1=-1 k2=2 m=0 lhs=(m=4, eps=0) rhs=(m=3, eps=0)\n"
        "FAIL k1=-1 k2=2 m=3 lhs=(m=7, eps=0) rhs=(m=6, eps=0)\n"
        "FAIL k1=1 k2=-1 m=3 lhs=(m=3, eps=0) rhs=(m=4, eps=0)\n"
        "FAIL k1=1 k2=1 m=-3 lhs=(m=3, eps=0) rhs=(m=4, eps=0)\n"
        "FAIL k1=1 k2=1 m=-1 lhs=(m=6, eps=0) rhs=(m=5, eps=0)\n"
        "FAIL k1=1 k2=1 m=0 lhs=(m=6, eps=0) rhs=(m=7, eps=0)\n"
        "FAIL k1=1 k2=1 m=3 lhs=(m=9, eps=0) rhs=(m=10, eps=0)\n"
        "FAIL k1=1 k2=2 m=-3 lhs=(m=6, eps=0) rhs=(m=7, eps=0)\n"
        "FAIL k1=1 k2=2 m=-1 lhs=(m=8, eps=0) rhs=(m=9, eps=0)\n"
        "FAIL k1=2 k2=-1 m=0 lhs=(m=4, eps=0) rhs=(m=3, eps=0)\n"
        "FAIL k1=2 k2=-1 m=2 lhs=(m=5, eps=0) rhs=(m=6, eps=0)\n"
        "FAIL k1=2 k2=-1 m=3 lhs=(m=7, eps=0) rhs=(m=6, eps=0)\n"
        "FAIL k1=2 k2=1 m=0 lhs=(m=9, eps=0) rhs=(m=10, eps=0)\n"
        "FAIL k1=2 k2=1 m=3 lhs=(m=12, eps=0) rhs=(m=13, eps=0)\n"
        "FAIL k1=2 k2=2 m=-1 lhs=(m=11, eps=0) rhs=(m=12, eps=0)\n"
        "FAIL 18/119"
    )


def test_equivariance_repeated_failure_lines():
    # phi is wrong on two vertices, so every shift j that lands on one (lhs)
    # or starts from one (rhs) fails; j=0 still passes.
    def phi(v):
        out = cover_to_group(v)
        return CanonicalForm(out.m + 1, 0) if (v.label, v.k) in (("213", 1), ("132", 0)) else out

    report = check_equivariance(range(-1, 2), range(-1, 2), phi=phi)
    assert report.render() == (
        "FAIL j=-1 v=[132]_0 lhs=(m=-4, eps=0) rhs=(m=-3, eps=0)\n"
        "FAIL j=-1 v=[213]_1 lhs=(m=1, eps=0) rhs=(m=2, eps=0)\n"
        "FAIL j=-1 v=[132]_1 lhs=(m=0, eps=0) rhs=(m=-1, eps=0)\n"
        "FAIL j=1 v=[132]_-1 lhs=(m=0, eps=0) rhs=(m=-1, eps=0)\n"
        "FAIL j=1 v=[213]_0 lhs=(m=5, eps=0) rhs=(m=4, eps=0)\n"
        "FAIL j=1 v=[132]_0 lhs=(m=2, eps=0) rhs=(m=3, eps=0)\n"
        "FAIL j=1 v=[213]_1 lhs=(m=7, eps=0) rhs=(m=8, eps=0)\n"
        "FAIL 7/27"
    )


def _equivariance_by_case(j_range, k_range, phi):
    """check_equivariance with one check per case: phi of both vertices and
    the action, every case."""
    ks = list(k_range)
    total = 0
    failures = []
    for j in j_range:
        for v in (CoverVertex(label, k) for k in ks for label in COVER_LABELS):
            total += 1
            lhs = phi(deck_act(DeckElement(j), v))
            rhs = equiv.pure_action(PureElement(j), phi(v))
            if lhs != rhs:
                failures.append(f"FAIL j={j} v={v} lhs={lhs} rhs={rhs}")
    return Report(total, tuple(failures))


def _action_by_case(k_range, m_range):
    """verify_action_axioms with one check per case: three actions per
    compatibility case."""
    ks, ms = list(k_range), list(m_range)
    total = 0
    failures = []
    for m in ms:
        total += 1
        got = equiv.pure_action(PureElement(0), CanonicalForm(m, 0))
        if got != CanonicalForm(m, 0):
            failures.append(f"FAIL identity m={m} got={got}")
    for k1, k2 in product(ks, ks):
        g1, g2 = PureElement(k1), PureElement(k2)
        g12 = PureElement.from_canonical(mul(g1.to_canonical(), g2.to_canonical()))
        for m in ms:
            total += 1
            h = CanonicalForm(m, 0)
            lhs = equiv.pure_action(g12, h)
            rhs = equiv.pure_action(g1, equiv.pure_action(g2, h))
            if lhs != rhs:
                failures.append(f"FAIL k1={k1} k2={k2} m={m} lhs={lhs} rhs={rhs}")
    return Report(total, tuple(failures))


def _shift_law_by_case(k_range, m_range):
    """check_shift_law with one check per case; a failed index case has no
    length case."""
    ms = list(m_range)
    total = 0
    failures = []
    for k in k_range:
        for m in ms:
            total += 1
            out = equiv.pure_action(PureElement(k), CanonicalForm(m, 0))
            if out != CanonicalForm(m + 3 * k, 0):
                failures.append(f"FAIL k={k} m={m} got={out}")
            elif m >= 0 and k >= 0:
                total += 1
                length = len(equiv.to_word(out))
                if length != m + 3 * k:
                    failures.append(f"FAIL k={k} m={m} length={length}")
    return Report(total, tuple(failures))


def _isomorphism_by_case(k_range):
    """check_isomorphism with one check per case, building each element it uses."""
    ks = list(k_range)
    total = 0
    failures = []
    for k in ks:
        total += 2
        if equiv.pure_from_deck(equiv.deck_from_pure(PureElement(k))) != PureElement(k):
            failures.append(f"FAIL round trip k={k} via deck")
        if equiv.deck_from_pure(equiv.pure_from_deck(DeckElement(k))) != DeckElement(k):
            failures.append(f"FAIL round trip j={k} via pure")
    for k1, k2 in product(ks, ks):
        total += 1
        c1, c2 = PureElement(k1).to_canonical(), PureElement(k2).to_canonical()
        lhs = equiv.deck_from_pure(PureElement.from_canonical(mul(c1, c2)))
        rhs = equiv.deck_from_pure(PureElement(k1)).then(equiv.deck_from_pure(PureElement(k2)))
        if lhs != rhs:
            failures.append(f"FAIL k1={k1} k2={k2} lhs=j{lhs.j} rhs=j{rhs.j}")
    return Report(total, tuple(failures))


# A small window, possibly empty: range(start, start + size).
_windows = st.builds(
    lambda start, size: range(start, start + size), st.integers(-6, 6), st.integers(0, 5)
)


def _ranges(one_shot, *ranges):
    """The ranges as given, or as one-shot iterators over the same values."""
    return [iter(list(r)) for r in ranges] if one_shot else list(ranges)


def test_sweeps_count_empty_windows():
    assert check_equivariance(range(0), range(3)) == Report(0)
    assert check_equivariance(range(3), range(0)) == Report(0)
    assert verify_action_axioms(range(0), range(3)) == Report(3)
    assert verify_action_axioms(range(3), range(0)) == Report(0)
    assert check_shift_law(range(0), range(3)) == Report(0)
    assert check_shift_law(range(3), range(0)) == Report(0)
    assert check_isomorphism(range(0)) == Report(0)


@settings(deadline=None, max_examples=100)
@given(
    _windows,
    _windows,
    st.dictionaries(
        st.tuples(st.sampled_from(COVER_LABELS), st.integers(-12, 12)),
        st.builds(CanonicalForm, st.integers(-40, 40)),
        max_size=5,
    ),
    st.sets(st.tuples(st.integers(-6, 6), st.integers(-40, 40)), max_size=5),
    st.booleans(),
)
def test_equivariance_matches_case_by_case(j_range, k_range, wrong, at, one_shot):
    # phi is wrong on the vertices in wrong, the action on the (k, m) in at.
    def phi(v):
        return wrong.get((v.label, v.k)) or cover_to_group(v)

    with pytest.MonkeyPatch.context() as mp:
        _break_pure_action(mp, at)
        expected = _equivariance_by_case(j_range, k_range, phi)
        assert check_equivariance(*_ranges(one_shot, j_range, k_range), phi=phi) == expected


class _Lookalike(CanonicalForm):
    """A form of another class: CanonicalForm.__eq__ refuses it, whatever its (m, eps)."""

    __slots__ = ()


@settings(deadline=None, max_examples=100)
@given(
    _windows,
    _windows,
    st.sets(st.tuples(st.integers(-6, 6), st.integers(-25, 25)), max_size=6),
    st.sets(st.tuples(st.integers(-6, 6), st.integers(-12, 12)), max_size=12),
    st.booleans(),
)
def test_action_suites_match_case_by_case(k_range, m_range, at, lookalike, one_shot):
    # The action misses by one at the (k, m) in at, and at those in lookalike
    # returns its value as a _Lookalike with the same (m, eps).
    with pytest.MonkeyPatch.context() as mp:
        _break_pure_action(mp, at)
        broken = equiv.pure_action

        def action(g, h):
            out = broken(g, h)
            return _Lookalike(out.m, out.eps) if (g.k, h.m) in lookalike else out

        mp.setattr(equiv, "pure_action", action)
        expected = _action_by_case(k_range, m_range)
        assert verify_action_axioms(*_ranges(one_shot, k_range, m_range)) == expected
        expected = _shift_law_by_case(k_range, m_range)
        assert check_shift_law(*_ranges(one_shot, k_range, m_range)) == expected


@settings(deadline=None, max_examples=100)
@given(_windows, st.sets(st.integers(-6, 6), max_size=3), st.booleans())
def test_isomorphism_matches_case_by_case(k_range, wrong, one_shot):
    # deck_from_pure misses by one at the powers in wrong.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equiv, "deck_from_pure", lambda g: DeckElement(g.k + (g.k in wrong)))
        expected = _isomorphism_by_case(k_range)
        assert check_isomorphism(*_ranges(one_shot, k_range)) == expected


def test_shift_law_index_failure_skips_length_case(monkeypatch):
    _break_pure_action(monkeypatch)
    report = check_shift_law(range(0, 2), range(-1, 2))
    # 10 cases when everything passes; the failed index check drops k=1 m=0's length case.
    assert report.render() == "FAIL k=1 m=0 got=(m=4, eps=0)\nFAIL 1/9"


def test_shift_law_length_failure_lines(monkeypatch):
    monkeypatch.setattr(
        equiv, "to_word", lambda c: to_word(CanonicalForm(5, 0) if c.m == 4 else c)
    )
    report = check_shift_law(range(0, 2), range(-1, 2))
    assert report.render() == "FAIL k=1 m=1 length=5\nFAIL 1/10"


def test_isomorphism_failure_lines(monkeypatch):
    monkeypatch.setattr(equiv, "deck_from_pure", lambda g: DeckElement(g.k + (g.k == 1)))
    report = check_isomorphism(range(0, 2))
    assert report.render() == (
        "FAIL round trip k=1 via deck\n"
        "FAIL round trip j=1 via pure\n"
        "FAIL k1=1 k2=1 lhs=j2 rhs=j4\n"
        "FAIL 3/8"
    )


def _oracle_by_word(max_len):
    """check_oracle word by word: each word of length 0..max_len, by length
    and in product order, folds equiv.mul and AffineMap.then over its letters
    and is checked against the same first-seen dicts."""
    steps = [(g, canonicalize(Word(3, (g,))), affine_model(g)) for g in all_generators(3)]
    canon_to_affine = {}
    affine_to_canon = {}
    total = 0
    failures = []
    for length in range(max_len + 1):
        for word in product(steps, repeat=length):
            c, a = IDENTITY, AFFINE_IDENTITY
            for _, step_c, step_a in word:
                c, a = equiv.mul(c, step_c), a.then(step_a)
            w = Word(3, tuple(g for g, _, _ in word))
            total += 1
            if canon_to_affine.setdefault(c, a) != a:
                failures.append(f"FAIL word={w} canon={c} affine={a} expected={canon_to_affine[c]}")
            elif affine_to_canon.setdefault(a, c) != c:
                failures.append(f"FAIL word={w} affine={a} canon={c} expected={affine_to_canon[a]}")
    for family, lhs, rhs in relation_instances(3):
        total += 1
        if equiv.evaluate_word(Word(3, lhs.letters + rhs.letters[::-1])) != AFFINE_IDENTITY:
            failures.append(f"FAIL {family} relator {lhs} = {rhs} not respected")
    return Report(total, tuple(failures))


def test_oracle_matches_word_by_word():
    # The folds agree with the models computed from each whole word.
    for word in (Word(3, letters) for n in range(7) for letters in product(all_generators(3), repeat=n)):
        c, a = IDENTITY, AFFINE_IDENTITY
        for g in word.letters:
            c, a = mul(c, canonicalize(Word(3, (g,)))), a.then(affine_model(g))
        assert (c, a) == (canonicalize(word), evaluate_word(word))
    for max_len in (-3, -1, 0, 1, 2, 7, True):
        assert check_oracle(max_len) == _oracle_by_word(max_len)
    # No words below length 0; True counts as 1.
    assert check_oracle(-3) == Report(5)
    assert check_oracle(True) == Report(9)
    for bad in (2.0, "2", None):
        with pytest.raises(TypeError):
            check_oracle(bad)


# A broken mul: wrong products of a form near the identity and a letter's form.
_wrong_products = st.dictionaries(
    st.tuples(
        st.builds(CanonicalForm, st.integers(-3, 3), st.integers(0, 1)),
        st.sampled_from([canonicalize(Word(3, (g,))) for g in all_generators(3)]),
    ),
    st.builds(CanonicalForm, st.integers(-8, 8), st.integers(0, 1)),
    max_size=5,
)


@settings(deadline=None, max_examples=100)
@given(_wrong_products, st.integers(0, 6))
# Criterion 01's radius, where s1,2 s1,2's wrong form fails 2,441 words.
@example({(CanonicalForm(1, 0), CanonicalForm(1, 0)): CanonicalForm(9, 0)}, 8)
def test_oracle_matches_word_by_word_under_broken_mul(wrong, max_len):
    real = equiv.mul
    equiv.mul = lambda c1, c2: wrong.get((c1, c2)) or real(c1, c2)
    try:
        assert check_oracle(max_len) == _oracle_by_word(max_len)
    finally:
        equiv.mul = real


def test_oracle_memory_stays_below_one_level():
    # The walk keeps one prefix per letter; the 3^9 forms of the last level
    # alone would take this many bytes if the sweep held them.
    level = 3**9 * sys.getsizeof(IDENTITY)
    tracemalloc.start()
    try:
        report = check_oracle(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok()
    assert peak < level / 10


def test_oracle_failure_lines(monkeypatch):
    # The walk builds each word's form through equiv.mul: s1,2 s1,2 gets a
    # new form for an affine map already seen, s1,3 s1,3 a form already seen
    # with another map.  Relators still go through equiv.evaluate_word.
    wrong_products = {
        (CanonicalForm(1, 0), CanonicalForm(1, 0)): CanonicalForm(9, 0),
        (CanonicalForm(0, 1), CanonicalForm(0, 1)): CanonicalForm(2, 0),
    }
    monkeypatch.setattr(equiv, "mul", lambda c1, c2: wrong_products.get((c1, c2)) or mul(c1, c2))
    wrong = {"s1,3 s1,3": AffineMap(-1, 1)}
    real = equiv.evaluate_word
    monkeypatch.setattr(equiv, "evaluate_word", lambda w: wrong.get(str(w)) or real(w))
    report = check_oracle(2)
    assert report.render() == (
        "FAIL word=s1,2 s1,2 affine=(sign=+1, shift=0) canon=(m=9, eps=0) "
        "expected=(m=0, eps=0)\n"
        "FAIL word=s1,3 s1,3 canon=(m=2, eps=0) affine=(sign=+1, shift=0) "
        "expected=(sign=+1, shift=2)\n"
        "FAIL involution relator s1,3 s1,3 =  not respected\n"
        "FAIL 3/18"
    )


def test_oracle_repeated_failure_lines(monkeypatch):
    # s1,2 s1,2 and s1,3 s1,3 both get the wrong form (m=9) for the identity
    # map, so both words reach one failing (form, map) pair, and each of its
    # three extensions is again a pair both words' extensions reach.
    wrong = {
        (CanonicalForm(1, 0), CanonicalForm(1, 0)): CanonicalForm(9, 0),
        (CanonicalForm(0, 1), CanonicalForm(0, 1)): CanonicalForm(9, 0),
    }
    monkeypatch.setattr(equiv, "mul", lambda c1, c2: wrong.get((c1, c2)) or mul(c1, c2))
    report = check_oracle(3)
    assert report.render() == (
        "FAIL word=s1,2 s1,2 affine=(sign=+1, shift=0) canon=(m=9, eps=0) "
        "expected=(m=0, eps=0)\n"
        "FAIL word=s1,3 s1,3 affine=(sign=+1, shift=0) canon=(m=9, eps=0) "
        "expected=(m=0, eps=0)\n"
        "FAIL word=s1,2 s1,2 s1,2 affine=(sign=-1, shift=0) canon=(m=8, eps=0) "
        "expected=(m=1, eps=0)\n"
        "FAIL word=s1,2 s1,2 s1,3 affine=(sign=-1, shift=1) canon=(m=9, eps=1) "
        "expected=(m=0, eps=1)\n"
        "FAIL word=s1,2 s1,2 s2,3 affine=(sign=-1, shift=2) canon=(m=10, eps=0) "
        "expected=(m=-1, eps=0)\n"
        "FAIL word=s1,3 s1,3 s1,2 affine=(sign=-1, shift=0) canon=(m=8, eps=0) "
        "expected=(m=1, eps=0)\n"
        "FAIL word=s1,3 s1,3 s1,3 affine=(sign=-1, shift=1) canon=(m=9, eps=1) "
        "expected=(m=0, eps=1)\n"
        "FAIL word=s1,3 s1,3 s2,3 affine=(sign=-1, shift=2) canon=(m=10, eps=0) "
        "expected=(m=-1, eps=0)\n"
        "FAIL 8/45"
    )


def test_report_merge_and_render():
    good = Report(3)
    bad = Report(2, ("FAIL one",))
    merged = good.merged(bad)
    assert merged.total == 5
    assert not merged.ok()
    assert merged.render() == "FAIL one\nFAIL 1/5"
    assert good.render() == "OK 3 cases"
