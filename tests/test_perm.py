import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cactuskit.degree3 import canonicalize, pure_element
from cactuskit.moves import relation_instances
from cactuskit.perm import Permutation, interval_reversal, is_pure, project
from cactuskit.words import Word, all_generators, parse_word


def test_interval_reversal_examples():
    assert interval_reversal(1, 2, 3).images == (2, 1, 3)
    assert interval_reversal(1, 3, 3).images == (3, 2, 1)
    assert interval_reversal(2, 4, 5).images == (1, 4, 3, 2, 5)
    with pytest.raises(ValueError):
        interval_reversal(2, 2, 3)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    for images in ((1.0, 2.0), (True, 2), (2.0, 1.0), (1, "2")):
        with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.2"):
            Permutation(images)
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
        interval_reversal(1.0, 2, 3)
    assert Permutation(()).is_identity()
    assert str(Permutation((2, 3, 1))) == "[2,3,1]"


def test_project_is_leftmost_first():
    assert project(Word(3)).is_identity()
    assert project(parse_word("s1,2 s1,3")).images == (2, 3, 1)
    assert project(parse_word("s1,3 s1,2")).images == (3, 1, 2)


def test_generator_squares_project_to_identity():
    for n in (3, 4, 5):
        for g in all_generators(n):
            assert project(Word(n, (g, g))).is_identity()


def test_relators_project_equally_up_to_degree_6():
    checked = 0
    for n in range(3, 7):
        for _, lhs, rhs in relation_instances(n):
            assert project(lhs) == project(rhs)
            checked += 1
    assert checked > 100


def test_purity_matches_canonical_form():
    # A degree-3 word is pure exactly when its canonical form is a power of
    # the length-6 pure generator, i.e. (m, eps) = (3k, k mod 2).
    gens = all_generators(3)
    for length in range(8):
        for letters in product(gens, repeat=length):
            w = Word(3, letters)
            c = canonicalize(w)
            expected = c.m % 3 == 0 and c == pure_element(c.m // 3)
            assert is_pure(w) == expected


def test_purity_of_powers():
    q = parse_word("s1,2 s1,3")
    q_inv = parse_word("s1,3 s1,2")
    for j in range(-30, 31):
        base = q if j >= 0 else q_inv
        w = Word(3, base.letters * abs(j))
        assert is_pure(w) == (j % 3 == 0)


def words_of_degree_2_to_40(max_size=60):
    return st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.lists(st.sampled_from(all_generators(n)), max_size=max_size).map(
            lambda letters: Word(n, tuple(letters))
        )
    )


def project_by_fold(w):
    """Reference: the leftmost-first product of one reversal per letter."""
    acc = Permutation.identity(w.degree)
    for g in w.letters:
        acc = acc.then(interval_reversal(g.p, g.q, w.degree))
    return acc


@given(words_of_degree_2_to_40())
def test_project_equals_the_fold_of_interval_reversals(w):
    expected = project_by_fold(w)
    assert project(w) == expected
    assert is_pure(w) == expected.is_identity()


def test_project_equals_the_fold_at_degree_1000():
    # s1,1000 and s1,2 reverse blocks that start at position 1, and s1,1000
    # and s999,1000 blocks that end at position n.
    edges = [(1, 1000), (1, 2), (999, 1000), (500, 501)]
    rng = random.Random(13)
    middle = [tuple(sorted(rng.sample(range(1, 1001), 2))) for _ in range(200)]
    w = Word.from_pairs(1000, edges + middle + edges[::-1] + edges)
    expected = project_by_fold(w)
    assert not expected.is_identity()
    assert project(w) == expected
    assert is_pure(w) is False
    assert is_pure(Word.from_pairs(1000, edges + edges[::-1]))


@pytest.mark.parametrize("n, max_len", [(3, 6), (4, 4), (5, 3)])
def test_project_equals_the_fold_on_every_short_word(n, max_len):
    gens = all_generators(n)
    for length in range(max_len + 1):
        for letters in product(gens, repeat=length):
            w = Word(n, letters)
            expected = project_by_fold(w)
            assert project(w) == expected
            assert is_pure(w) == expected.is_identity()


def test_project_swaps_and_slices_blocks_at_both_ends_at_degree_1000():
    # Blocks of 2 and 3 positions take the swap, blocks of 4 the slice; each
    # length appears at position 1 (the slice stops at pos[0]) and at n.
    n = 1000
    ends = [(1, 2), (1, 3), (1, 4), (n - 1, n), (n - 2, n), (n - 3, n)]
    rng = random.Random(23)
    middle = [(p, p + rng.choice((1, 2, 3))) for p in rng.choices(range(1, n - 2), k=300)]
    for pairs in (ends, middle + ends, ends + middle + ends[::-1]):
        w = Word.from_pairs(n, pairs)
        expected = project_by_fold(w)
        assert not expected.is_identity()
        assert project(w) == expected
        assert is_pure(w) is False
    for p, q in ends:
        assert project(Word.from_pairs(n, [(p, q)])) == interval_reversal(p, q, n)
    assert is_pure(Word.from_pairs(n, ends + middle + middle[::-1] + ends[::-1]))


def test_project_and_is_pure_validate_one_permutation(monkeypatch):
    gens = all_generators(4)
    w = Word(4, tuple(gens[i % len(gens)] for i in range(10_000)))
    expected = project_by_fold(w)
    validated = []
    check = Permutation.__init__

    def counting(self, images):
        validated.append(self)
        check(self, images)

    monkeypatch.setattr(Permutation, "__init__", counting)
    assert project(w) == expected
    assert len(validated) == 1
    validated.clear()
    assert is_pure(w) == expected.is_identity()
    assert len(validated) == 1


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_then_applies_left_factor_first(a_images, b_images):
    a, b = Permutation(tuple(a_images)), Permutation(tuple(b_images))
    c = a.then(b)
    for i in range(1, 6):
        assert c(i) == b(a(i))
