import random
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import cactuskit.moves as moves
import cactuskit.words as words
from cactuskit.degree3 import canonicalize, to_word
from cactuskit.moves import apply_commute, apply_nesting, equal_by_search, neighbors, relation_instances
from cactuskit.perm import project
from cactuskit.words import (
    DegreeMismatchError,
    Generator,
    InvalidGeneratorError,
    MoveNotApplicableError,
    Word,
    WordParseError,
    all_generators,
    free_reduce,
    parse_word,
)


def w3(text):
    return parse_word(text, 3)


def w4(text):
    return parse_word(text, 4)


def words_of(degree, max_size=8):
    gens = all_generators(degree)
    return st.lists(st.sampled_from(gens), max_size=max_size).map(
        lambda ls: Word(degree, tuple(ls))
    )


def test_generator_validation():
    assert str(Generator(1, 2, 3)) == "s1,2"
    assert str(Generator(1, 3, 3)) == "s1,3"
    with pytest.raises(InvalidGeneratorError):
        Generator(2, 2, 3)
    with pytest.raises(InvalidGeneratorError):
        Generator(0, 2, 3)
    with pytest.raises(InvalidGeneratorError):
        Generator(1, 4, 3)
    for p, q, n in ((1.5, 2, 3), (1, 2.0, 3), (1, 2, 3.0), (True, 2, 3), (1, 2, "3")):
        with pytest.raises(InvalidGeneratorError):
            Generator(p, q, n)


def test_parse_word_round_trip():
    assert parse_word("", 3) == Word(3)
    assert str(parse_word("s1,2   s1,3\n s2,3", 3)) == "s1,2 s1,3 s2,3"
    with pytest.raises(WordParseError, match="token 1"):
        parse_word("s1,2 nope", 3)
    with pytest.raises(WordParseError, match="token 0"):
        parse_word("s3,1", 3)


def test_parse_word_edge_cases():
    s12 = Generator(1, 2, 3)
    assert parse_word("s1,2 s1,2 s1,2", 3) == Word(3, (s12, s12, s12))
    assert parse_word("s01,2 s1,2", 3) == Word(3, (s12, s12))
    failures = [
        ("s1,2 s2,3 s1,2 s3,4", 3, "token 3: s3,4 is not a generator at degree 3"),
        ("s1,2 s3,4 s3,4", 3, "token 1: s3,4 is not a generator at degree 3"),
        ("s1,2 s1,2 x", 3, "token 2: 'x' is not of the form s<p>,<q>"),
        ("s1,2 s1,2 s1,2,", 3, "token 2: 's1,2,' is not of the form s<p>,<q>"),
        # Arabic-Indic and fullwidth digits: int() reads them, the text form does not.
        ("s\u0661,\u0662", 3, "token 0: 's\u0661,\u0662' is not of the form s<p>,<q>"),
        ("s\uff11,\uff12", 3, "token 0: 's\uff11,\uff12' is not of the form s<p>,<q>"),
        ("s1,2", True, "token 0: s1,2 is not a generator at degree True"),
        ("s1,2", 2.0, "token 0: s1,2 is not a generator at degree 2.0"),
    ]
    for text, degree, message in failures:
        with pytest.raises(WordParseError) as info:
            parse_word(text, degree)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        parse_word("", True)
    assert str(info.value) == "degree must be an int of at least 2, got True"


# The token pattern parse_word matched before it checked tokens with str
# methods, kept as the reference for what a token is.
TOKEN = re.compile(r"s(\d+),(\d+)\Z", re.ASCII)


def _parse_by_regex(text, degree):
    """The word the token pattern reads from text, or parse_word's message
    for the first token it refuses."""
    letters = []
    for i, token in enumerate(text.split()):
        match = TOKEN.match(token)
        if match is None:
            return f"token {i}: {token!r} is not of the form s<p>,<q>"
        try:
            letters.append(Generator(int(match.group(1)), int(match.group(2)), degree))
        except InvalidGeneratorError as exc:
            return f"token {i}: {exc}"
    return Word(degree, letters)


def _parse_or_message(text, degree):
    try:
        return parse_word(text, degree)
    except WordParseError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "token",
    [
        "s1,2", "s01,2", "s3,4", "S1,2", "s+1,2", "s-1,2", "s1,", "s,2", "s,", "s", "s1,2,3", "s1,2s", "ss1,2",
        # Arabic-Indic, fullwidth and superscript digits, which str.isdigit accepts.
        "s\u0661,\u0662", "s\uff11,\uff12", "s\u00b9,\u00b2", "s1,\u00b2", "s\uff11,2",
    ],
)
def test_parse_word_reads_tokens_as_the_regex_did(token):
    for degree in (3, 4):
        for text in (token, f"s1,2 {token} {token}"):
            assert _parse_or_message(text, degree) == _parse_by_regex(text, degree)


@settings(deadline=None, max_examples=500)
@given(st.text(alphabet="s,S+-0123\u0661\uff11\u00b2 ", max_size=16))
def test_parse_word_reads_text_as_the_regex_did(text):
    assert _parse_or_message(text, 3) == _parse_by_regex(text, 3)


def test_parse_word_builds_one_generator_per_distinct_token(monkeypatch):
    class CountingGenerator(Generator):
        built = 0

        def __init__(self, p, q, n):
            CountingGenerator.built += 1
            super().__init__(p, q, n)

    monkeypatch.setattr(words, "Generator", CountingGenerator)
    w = parse_word(" ".join(("s1,2", "s2,3", "s1,3")[i % 3] for i in range(1_000)), 3)
    assert len(w) == 1_000
    assert CountingGenerator.built <= 3
    # Nothing is built ahead of the tokens, however large the degree.
    CountingGenerator.built = 0
    assert len(parse_word("s1,2", 200_000)) == 1
    assert CountingGenerator.built == 1


def test_word_rejects_mixed_degrees():
    with pytest.raises(DegreeMismatchError):
        Word(3, (Generator(1, 2, 4),))


def test_word_rejects_non_int_degree():
    for degree in (3.0, True, "3", None):
        with pytest.raises(ValueError, match="degree must be an int"):
            Word(degree, ())
    with pytest.raises(ValueError, match="degree must be an int"):
        Word(1)


def test_free_reduce():
    assert free_reduce(w3("s1,2 s1,2")) == Word(3)
    assert free_reduce(w3("s1,2 s2,3 s2,3 s1,2")) == Word(3)
    unchanged = w3("s1,2 s2,3 s1,2")
    assert free_reduce(unchanged) == unchanged


def test_free_reduce_compares_letters_by_value():
    # from_pairs builds one Generator per letter, so equal letters are
    # distinct objects here; parse_word shares one object per token.
    w = Word.from_pairs(3, [(1, 2), (2, 3), (2, 3), (1, 2), (1, 3), (1, 2)])
    assert free_reduce(w) == w3("s1,3 s1,2")
    mixed = Word(3, w3("s1,2 s2,3").letters + Word.from_pairs(3, [(2, 3), (1, 2), (1, 2)]).letters)
    assert free_reduce(mixed) == w3("s1,2")


@given(words_of(4))
def test_free_reduce_idempotent(w):
    once = free_reduce(w)
    assert free_reduce(once) == once
    for a, b in zip(once.letters, once.letters[1:]):
        assert a != b
    stack = []
    for g in w.letters:
        if stack and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    assert once.letters == tuple(stack)


def test_apply_commute():
    assert apply_commute(w4("s1,2 s3,4"), 0) == w4("s3,4 s1,2")
    assert apply_commute(w4("s3,4 s1,2"), 0) == w4("s1,2 s3,4")
    failures = [
        (w4("s1,2 s2,3"), 0, "s1,2 and s2,3 do not commute: intervals overlap"),
        (w4("s1,2 s1,2"), 0, "s1,2 and s1,2 do not commute: intervals overlap"),
        (w4("s1,3 s2,3"), 0, "s1,3 and s2,3 do not commute: intervals overlap"),
        (w4("s1,2"), 0, "no adjacent pair at position 0"),
        (w4("s1,2 s3,4"), 1, "no adjacent pair at position 1"),
        (w4("s1,2 s3,4"), -1, "no adjacent pair at position -1"),
    ]
    for w, i, message in failures:
        with pytest.raises(MoveNotApplicableError) as info:
            apply_commute(w, i)
        assert str(info.value) == message


def test_apply_commute_is_involutive():
    w = w4("s1,2 s3,4 s1,2")
    assert apply_commute(apply_commute(w, 0), 0) == w


def test_apply_nesting():
    assert apply_nesting(w3("s1,3 s1,2"), 0, "left-to-right") == w3("s2,3 s1,3")
    assert apply_nesting(w3("s1,3 s2,3"), 0, "left-to-right") == w3("s1,2 s1,3")
    assert apply_nesting(w3("s2,3 s1,3"), 0, "right-to-left") == w3("s1,3 s1,2")
    assert apply_nesting(w4("s1,2 s1,4 s2,3"), 1, "left-to-right") == w4("s1,2 s2,3 s1,4")
    assert apply_nesting(w4("s2,3 s1,4"), 0, "right-to-left") == w4("s1,4 s2,3")
    failures = [
        (w3("s1,2 s2,3"), 0, "left-to-right", "interval of s2,3 is not strictly inside s1,2"),
        # Equal intervals are not a nesting instance.
        (w3("s1,3 s1,3"), 0, "left-to-right", "interval of s1,3 is not strictly inside s1,3"),
        (w3("s1,3 s1,3"), 0, "right-to-left", "interval of s1,3 is not strictly inside s1,3"),
        (w3("s1,3 s1,2"), 0, "right-to-left", "interval of s1,3 is not strictly inside s1,2"),
        (w3("s1,2 s1,3"), 0, "left-to-right", "interval of s1,3 is not strictly inside s1,2"),
        (w3("s1,3"), 0, "left-to-right", "no adjacent pair at position 0"),
        # The position is checked before the direction.
        (w3("s1,3"), 0, "sideways", "no adjacent pair at position 0"),
    ]
    for w, i, direction, message in failures:
        with pytest.raises(MoveNotApplicableError) as info:
            apply_nesting(w, i, direction)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        apply_nesting(w3("s1,3 s1,2"), 0, "sideways")
    assert type(info.value) is ValueError
    assert str(info.value) == "unknown direction 'sideways'"


def _generator_pairs(n):
    return [(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]


def _reference_neighbors(pairs, n, max_length):
    """Words one move away, read off the three relation families over (p, q)."""
    found = set()
    if len(pairs) + 2 <= max_length:
        for g in _generator_pairs(n):
            for i in range(len(pairs) + 1):
                found.add(pairs[:i] + (g, g) + pairs[i:])
    for i in range(len(pairs) - 1):
        head, (p, q), (m, r), tail = pairs[:i], pairs[i], pairs[i + 1], pairs[i + 2 :]
        if (p, q) == (m, r):
            found.add(head + tail)
        elif q < m or r < p:
            found.add(head + ((m, r), (p, q)) + tail)
        elif p <= m and r <= q:
            found.add(head + ((p + q - r, p + q - m), (p, q)) + tail)
        elif m <= p and q <= r:
            found.add(head + ((m, r), (m + r - q, m + r - p)) + tail)
    return found


@st.composite
def degree_and_pairs(draw, degrees=(3, 4, 5, 6), max_size=7):
    n = draw(st.sampled_from(degrees))
    pairs = draw(st.lists(st.sampled_from(_generator_pairs(n)), max_size=max_size))
    return n, tuple(pairs)


@settings(deadline=None, max_examples=200)
@given(degree_and_pairs(), st.integers(0, 10))
def test_neighbors_equal_the_relation_families(word, max_length):
    n, pairs = word
    expected = {Word.from_pairs(n, nb) for nb in _reference_neighbors(pairs, n, max_length)}
    assert neighbors(Word.from_pairs(n, pairs), max_length) == expected


def test_neighbors_of_empty_word():
    got = neighbors(Word(3), max_length=2)
    assert got == {w3("s1,2 s1,2"), w3("s2,3 s2,3"), w3("s1,3 s1,3")}
    assert neighbors(Word(3), max_length=1) == set()


def test_neighbors_contains_expected_moves():
    assert w3("s2,3 s1,3") in neighbors(w3("s1,3 s1,2"), max_length=2)
    assert w4("s3,4 s1,2") in neighbors(w4("s1,2 s3,4"), max_length=2)
    assert Word(3) in neighbors(w3("s1,2 s1,2"), max_length=2)


def test_neighbors_rejects_a_non_int_max_length():
    for cap in (True, 3.5, "7", None):
        with pytest.raises(ValueError) as info:
            neighbors(w3("s1,2"), cap)
        assert str(info.value) == f"max_length must be an int, got {cap!r}"


def test_equal_by_search():
    assert equal_by_search(w3("s1,2 s1,2"), Word(3)) == "equal"
    assert equal_by_search(w3("s1,2 s1,3"), w3("s1,3 s2,3")) == "equal"
    assert equal_by_search(w3("s1,2"), w3("s2,3"), node_budget=50) == "unknown"
    with pytest.raises(DegreeMismatchError):
        equal_by_search(w3("s1,2"), w4("s1,2"))


@st.composite
def search_queries(draw):
    """Two words a few reference moves apart, or two unrelated words."""
    n, start = draw(degree_and_pairs(degrees=(3, 4, 5, 6), max_size=5))
    end = start
    for _ in range(draw(st.integers(0, 3))):
        end = draw(st.sampled_from(sorted(_reference_neighbors(end, n, len(end) + 2))))
    if draw(st.booleans()):
        end = draw(degree_and_pairs(degrees=(n,), max_size=5))[1]
    return Word.from_pairs(n, start), Word.from_pairs(n, end)


@settings(deadline=None, max_examples=60)
@given(search_queries())
def test_search_equal_is_sound(query):
    w1, w2 = query
    if equal_by_search(w1, w2, node_budget=100) == "equal":
        if w1.degree == 3:
            assert canonicalize(w1) == canonicalize(w2)
        assert project(w1) == project(w2)


def test_every_relation_instance_is_equal():
    for n in range(2, 9):
        for family, lhs, rhs in relation_instances(n):
            assert equal_by_search(lhs, rhs) == "equal", (family, str(lhs), str(rhs))


@st.composite
def degree_3_pairs(draw):
    """Two random words, or a word and a respelling of the same element."""
    w1, w2 = draw(words_of(3, max_size=9)), draw(words_of(3, max_size=9))
    if draw(st.booleans()):
        w2 = Word(3, w2.letters + w2.letters[::-1] + to_word(canonicalize(w1)).letters)
    return w1, w2


@settings(deadline=None, max_examples=300)
@given(degree_3_pairs())
def test_search_decides_degree_3_exactly(query):
    w1, w2 = query
    assert (equal_by_search(w1, w2) == "equal") == (canonicalize(w1) == canonicalize(w2))


def _reference_search(w1, w2, length_cap=None, node_budget=20_000):
    """The one-sided breadth-first search over tuples of (p, q) pairs that the
    bidirectional search replaced: it expands from w1 only."""
    n = w1.degree
    if length_cap is None:
        length_cap = max(len(w1), len(w2)) + 4
    start = tuple((g.p, g.q) for g in w1)
    goal = tuple((g.p, g.q) for g in w2)
    if start == goal:
        return "equal"
    seen, frontier, expanded = {start}, deque([start]), 0
    while frontier and expanded < node_budget:
        expanded += 1
        for nb in _reference_neighbors(frontier.popleft(), n, length_cap):
            if nb == goal:
                return "equal"
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return "unknown"


@st.composite
def short_queries(draw):
    """Two words of at most 3 letters, a few moves apart or unrelated."""
    n, start = draw(degree_and_pairs(degrees=(3, 4), max_size=3))
    end = start
    for _ in range(draw(st.integers(0, 3))):
        options = sorted(_reference_neighbors(end, n, 3))
        if not options:
            break
        end = draw(st.sampled_from(options))
    if draw(st.booleans()):
        end = draw(degree_and_pairs(degrees=(n,), max_size=3))[1]
    return Word.from_pairs(n, start), Word.from_pairs(n, end)


@settings(deadline=None, max_examples=40)
@given(short_queries())
def test_search_matches_the_one_sided_search_on_whole_components(query):
    # At the default length cap no component of these words has more than
    # 7,659 words, so both searches run until they have an exact answer.
    w1, w2 = query
    assert equal_by_search(w1, w2) == _reference_search(w1, w2)


def _known_equal_pairs(seed, count_per_kind=6):
    """Seeded pairs a few reference moves apart, both within 7 letters."""
    rng = random.Random(seed)
    pairs = []
    for n, k in [(3, 2), (3, 4), (3, 6), (4, 2), (4, 4), (4, 6), (4, 8)] * count_per_kind:
        gens = _generator_pairs(n)
        end = start = tuple(rng.choice(gens) for _ in range(rng.randint(4, 6)))
        while end == start:
            for _ in range(k):
                end = rng.choice(sorted(_reference_neighbors(end, n, 7)))
        pairs.append((Word.from_pairs(n, start), Word.from_pairs(n, end)))
    return pairs


def test_search_decides_what_the_one_sided_search_decides():
    pairs = _known_equal_pairs(1)
    reference = [_reference_search(a, b, node_budget=300) for a, b in pairs]
    ours = [equal_by_search(a, b, node_budget=300) for a, b in pairs]
    lost = [i for i, answer in enumerate(reference) if answer == "equal" != ours[i]]
    assert lost == []
    # The one-sided search leaves some of these undecided at this budget.
    assert reference.count("equal") < ours.count("equal") == len(pairs) == 42


def test_search_budget_counts_swap_moves():
    # s1,2 commutes leftwards past k letters that overlap each other and do
    # not swap among themselves: k swaps, after which every letter cancels.
    chain = [(3, 4), (4, 5)] * 3
    for k in range(len(chain) + 1):
        w1 = Word.from_pairs(5, chain[:k] + [(1, 2)])
        w2 = Word.from_pairs(5, [(1, 2)] + chain[:k])
        assert equal_by_search(w1, w2, node_budget=k) == "equal"
        if k:
            assert equal_by_search(w1, w2, node_budget=k - 1) == "unknown"
    # One nesting swap in either direction.
    for a, b in [("s1,3 s1,2", "s2,3 s1,3"), ("s1,2 s1,3", "s1,3 s2,3")]:
        assert equal_by_search(w4(a), w4(b), node_budget=1) == "equal"
        assert equal_by_search(w4(a), w4(b), node_budget=0) == "unknown"
    # Identical words need no move at all.
    for a, _ in _known_equal_pairs(2, count_per_kind=1):
        assert equal_by_search(a, a, node_budget=0) == "equal"


def test_search_argument_checks():
    a, b = w3("s1,2"), w3("s2,3")
    for cap in (2.5, True, "7"):
        with pytest.raises(ValueError) as info:
            equal_by_search(a, b, length_cap=cap)
        assert str(info.value) == f"length_cap must be None or an int, got {cap!r}"
    for budget in (True, 2.5, None):
        with pytest.raises(ValueError) as info:
            equal_by_search(a, b, node_budget=budget)
        assert str(info.value) == f"node_budget must be an int, got {budget!r}"
    with pytest.raises(DegreeMismatchError):
        equal_by_search(a, w4("s1,2"), length_cap=2.5)


def test_search_has_no_degree_limit():
    # From degree 1,494 on, the generators outnumber the Unicode code points.
    for n in (1494, 2000):
        for p, q in [(1, n), (2, n - 1)]:
            outer = Word.from_pairs(n, [(p, q), (3, 5)])
            inner = Word.from_pairs(n, [(p + q - 5, p + q - 3), (p, q)])
            assert equal_by_search(outer, inner) == "equal"
            assert equal_by_search(outer, Word(n)) == "unknown"
            assert neighbors(outer, 2) == {inner}
            assert outer in neighbors(inner, 2)
        with pytest.raises(DegreeMismatchError):
            equal_by_search(outer, w3("s1,2"))


def test_search_moves_never_change_the_element():
    # Every single-step neighbor keeps the degree-3 canonical form, so any
    # path the search finds connects genuinely equal words.
    gens = all_generators(3)
    frontier = [Word(3)]
    for _ in range(5):
        frontier = [Word(3, w.letters + (g,)) for w in frontier for g in gens]
        for w in frontier:
            c = canonicalize(w)
            for nb in neighbors(w, max_length=9):
                assert canonicalize(nb) == c


@settings(deadline=None, max_examples=50)
@given(words_of(4, max_size=5))
def test_moves_preserve_projection(w):
    p = project(w)
    for nb in neighbors(w, max_length=7):
        assert project(nb) == p


def _moves_as_generator(a, b):
    """The move table as a generator of the moves that rewrite the adjacent
    pair a b, which yields nothing where the intervals overlap."""
    (p, q), (m, r) = a, b
    if a == b:
        yield "cancel", ()
    elif q < m or r < p:
        yield "commute", (b, a)
    elif p <= m and r <= q:
        yield "left-to-right", ((p + q - r, p + q - m), a)
    elif m <= p and q <= r:
        yield "right-to-left", (b, (m + r - q, m + r - p))


def test_moves_returns_the_one_move_the_generator_yielded():
    for n in range(2, 9):
        gens = _generator_pairs(n)
        for a in gens:
            for b in gens:
                yielded = list(_moves_as_generator(a, b))
                assert len(yielded) <= 1
                assert moves._moves(a, b) == (yielded[0] if yielded else ("overlap", ())), (a, b)
    assert list(_moves_as_generator((1, 2), (2, 3))) == []


def test_relation_instances_equal_the_relation_families():
    for n in range(3, 7):
        gens = _generator_pairs(n)
        expected = [("involution", (g, g), ()) for g in gens]
        for p, q in gens:
            for m, r in gens:
                if q < m or r < p:
                    expected.append(("commute", ((p, q), (m, r)), ((m, r), (p, q))))
                elif p <= m and r <= q and (p, q) != (m, r):
                    expected.append(
                        ("nesting", ((p, q), (m, r)), ((p + q - r, p + q - m), (p, q)))
                    )
        assert list(relation_instances(n)) == [
            (family, Word.from_pairs(n, lhs), Word.from_pairs(n, rhs))
            for family, lhs, rhs in expected
        ]


def test_relation_instances_degree3():
    got = list(relation_instances(3))
    families = [f for f, _, _ in got]
    assert families.count("involution") == 3
    assert families.count("nesting") == 2
    assert families.count("commute") == 0  # no disjoint pairs fit in 3 indices


def test_relation_instances_degree4_has_commuting_pair():
    got = list(relation_instances(4))
    assert any(f == "commute" for f, _, _ in got)
    for _, lhs, rhs in got:
        assert project(lhs) == project(rhs)
