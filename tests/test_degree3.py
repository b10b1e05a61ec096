from itertools import product

import pytest
from hypothesis import given, strategies as st

from cactuskit import degree3
from cactuskit.degree3 import (
    AFFINE_IDENTITY,
    IDENTITY,
    AffineMap,
    CanonicalForm,
    affine_model,
    canonicalize,
    evaluate_word,
    inv,
    mul,
    pure_element,
    to_word,
)
from cactuskit.moves import relation_instances
from cactuskit.words import DegreeMismatchError, Generator, Word, all_generators, parse_word

degree3_words = st.lists(st.sampled_from(all_generators(3)), max_size=60).map(
    lambda letters: Word(3, tuple(letters))
)

forms = st.builds(
    CanonicalForm, st.integers(min_value=-30, max_value=30), st.sampled_from((0, 1))
)

wide_forms = st.builds(
    CanonicalForm, st.integers(min_value=-500, max_value=500), st.sampled_from((0, 1))
)

long_degree3_words = st.lists(st.sampled_from(all_generators(3)), max_size=300).map(
    lambda letters: Word(3, tuple(letters))
)


def all_words_up_to(max_len):
    gens = all_generators(3)
    for length in range(max_len + 1):
        for letters in product(gens, repeat=length):
            yield Word(3, letters)


def test_canonicalize_examples():
    assert canonicalize(Word(3)) == CanonicalForm(0, 0)
    assert canonicalize(parse_word("s2,3")) == CanonicalForm(-1, 0)
    assert canonicalize(parse_word("s1,2 s1,3 s1,2 s1,3 s1,2 s1,3")) == CanonicalForm(3, 1)
    assert canonicalize(parse_word("s1,3 s1,2 s1,3")) == CanonicalForm(-1, 0)
    with pytest.raises(DegreeMismatchError):
        canonicalize(Word(4))


def test_canonical_form_text():
    assert str(CanonicalForm(3, 1)) == "(m=3, eps=1)"
    assert str(CanonicalForm(-4, 0)) == "(m=-4, eps=0)"
    for m, eps in ((0, 2), (1.5, True), (1.5, 0), ("1", 0), (0, True), (0, 1.0)):
        with pytest.raises(ValueError):
            CanonicalForm(m, eps)


def test_from_index_and_to_word_examples():
    assert to_word(CanonicalForm(0, 0)) == Word(3)
    assert str(to_word(CanonicalForm(4, 0))) == "s1,2 s2,3 s1,2 s2,3"
    assert str(to_word(CanonicalForm(-3, 0))) == "s2,3 s1,2 s2,3"
    assert str(to_word(CanonicalForm(1, 1))) == "s1,2 s1,3"
    assert str(to_word(CanonicalForm(-2, 0))) == "s2,3 s1,2"


def test_to_word_alternates_from_the_sign_of_m():
    s12, s13, s23 = Generator(1, 2, 3), Generator(1, 3, 3), Generator(2, 3, 3)
    for m in range(-41, 42):
        first, second = (s12, s23) if m > 0 else (s23, s12)
        alternating = [first if i % 2 == 0 else second for i in range(abs(m))]
        assert to_word(CanonicalForm(m, 0)).letters == tuple(alternating)
        assert to_word(CanonicalForm(m, 1)).letters == tuple(alternating + [s13])


def test_round_trip_window():
    seen = set()
    for m in range(-40, 41):
        for eps in (0, 1):
            c = CanonicalForm(m, eps)
            w = to_word(c)
            assert canonicalize(w) == c
            assert len(w) == abs(m) + eps
            seen.add(str(w))
    assert len(seen) == 81 * 2  # distinct coordinates give distinct words


def test_mul_examples():
    assert mul(CanonicalForm(7, 1), IDENTITY) == CanonicalForm(7, 1)
    assert mul(CanonicalForm(1, 0), CanonicalForm(1, 0)) == IDENTITY
    assert mul(CanonicalForm(3, 1), CanonicalForm(0, 1)) == CanonicalForm(3, 0)


def test_mul_matches_word_level_product():
    span = range(-12, 13)
    for m1, e1 in product(span, (0, 1)):
        c1 = CanonicalForm(m1, e1)
        for m2, e2 in product(span, (0, 1)):
            c2 = CanonicalForm(m2, e2)
            assert mul(c1, c2) == canonicalize(Word(3, to_word(c1).letters + to_word(c2).letters))


@given(forms, forms, forms)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_group_axioms_exhaustive_window():
    window = [CanonicalForm(m, e) for m in range(-10, 11) for e in (0, 1)]
    for c in window:
        assert mul(c, inv(c)) == IDENTITY
    for a in window:
        for b in window:
            ab = mul(a, b)
            for c in window:
                assert mul(ab, c) == mul(a, mul(b, c))


def test_inv_examples():
    assert inv(IDENTITY) == IDENTITY
    assert inv(CanonicalForm(1, 0)) == CanonicalForm(1, 0)
    assert inv(CanonicalForm(4, 0)) == CanonicalForm(-4, 0)


@given(forms)
def test_inv_cancels(c):
    assert mul(c, inv(c)) == IDENTITY
    assert mul(inv(c), c) == IDENTITY
    assert inv(inv(c)) == c


def test_canonical_form_not_equal_is_the_negation_of_equal():
    forms = [CanonicalForm(m, eps) for m in (-2, 0, 3) for eps in (0, 1)]
    others = [(0, 0), AffineMap(1, 0), None, object(), 0]
    for a in forms:
        for b in [CanonicalForm(a.m, a.eps), *forms, *others]:
            assert (a != b) is (not a == b), (a, b)
            assert (b != a) is (not b == a), (b, a)
        assert a != CanonicalForm(a.m + 1, a.eps) and a != CanonicalForm(a.m, 1 - a.eps)
        for other in others:
            assert a.__ne__(other) is NotImplemented


def test_dihedral_subgroup_membership():
    # The subgroup generated by s12 and s23 is the forms with eps == 0.
    assert canonicalize(parse_word("s1,3 s1,2 s1,3")).eps == 0


@given(forms, forms)
def test_membership_follows_xor(c1, c2):
    assert mul(c1, c2).eps == c1.eps ^ c2.eps


def test_pure_element_values():
    assert pure_element(0) == IDENTITY
    assert pure_element(1) == CanonicalForm(3, 1)
    assert pure_element(2) == CanonicalForm(6, 0)
    assert pure_element(-1) == CanonicalForm(-3, 1)
    # pure_element(k) really is the k-th power of (s12 s13)^3
    cube = canonicalize(parse_word("s1,2 s1,3 s1,2 s1,3 s1,2 s1,3"))
    acc = IDENTITY
    for k in range(1, 12):
        acc = mul(acc, cube)
        assert acc == pure_element(k)
        assert inv(acc) == pure_element(-k)


def test_pure_elements_add():
    for k1 in range(-10, 11):
        for k2 in range(-10, 11):
            assert mul(pure_element(k1), pure_element(k2)) == pure_element(k1 + k2)


def test_affine_generator_images_are_involutions():
    for g in all_generators(3):
        a = affine_model(g)
        assert a.then(a) == AFFINE_IDENTITY
    with pytest.raises(DegreeMismatchError):
        affine_model(Generator(1, 2, 4))


def test_affine_relators_hold():
    for _, lhs, rhs in relation_instances(3):
        assert evaluate_word(lhs) == evaluate_word(rhs)


def test_affine_power_is_translation():
    w = parse_word("s1,2 s1,3")
    six = Word(3, w.letters * 6)
    a = evaluate_word(six)
    assert a.sign == 1
    assert a.shift != 0 and a.shift % 2 == 0


@given(degree3_words)
def test_evaluate_word_equals_the_fold_of_affine_images(w):
    acc = AFFINE_IDENTITY
    for g in w.letters:
        acc = acc.then(affine_model(g))
    assert evaluate_word(w) == acc


def test_every_affine_sign_is_minus_one():
    # evaluate_word's closed form rests on this: each generator maps x to c - x.
    images = [image for image in degree3._AFFINE_BY_SUM if image is not None]
    assert [sign for sign, _ in images] == [-1, -1, -1]


def test_evaluate_word_equals_the_fold_on_every_word_up_to_length_8():
    assert evaluate_word(Word(3)) == AFFINE_IDENTITY
    fold = {(): AFFINE_IDENTITY}
    for w in all_words_up_to(8):
        if w.letters:
            fold[w.letters] = fold[w.letters[:-1]].then(affine_model(w.letters[-1]))
        assert evaluate_word(w) == fold[w.letters]
    assert len(fold) == 9841


@given(degree3_words)
def test_canonicalize_equals_the_fold_of_letter_forms(w):
    letter_form = {
        "s1,2": CanonicalForm(1, 0),
        "s2,3": CanonicalForm(-1, 0),
        "s1,3": CanonicalForm(0, 1),
    }
    acc = IDENTITY
    for g in w.letters:
        acc = mul(acc, letter_form[str(g)])
    c = canonicalize(w)
    assert c == acc
    assert canonicalize(to_word(c)) == c


def test_evaluate_word_builds_one_affine_map(monkeypatch):
    w = Word(3, tuple(all_generators(3)) * 3_000)
    built = []
    check = AffineMap.__init__

    def counting(self, sign, shift):
        built.append(self)
        check(self, sign, shift)

    monkeypatch.setattr(AffineMap, "__init__", counting)
    assert evaluate_word(w) == AFFINE_IDENTITY
    assert len(built) == 1


def test_affine_map_validation_and_text():
    with pytest.raises(ValueError):
        AffineMap(2, 0)
    for sign in (True, 1.0, -1.0, "1"):
        with pytest.raises(ValueError, match=f"sign must be \\+-1, got {sign!r}"):
            AffineMap(sign, 0)
    for shift in (0.5, 1.0, True, "0"):
        with pytest.raises(ValueError, match=f"shift must be an int, got {shift!r}"):
            AffineMap(1, shift)
    assert str(AffineMap(-1, 3)) == "(sign=-1, shift=3)"


@given(wide_forms, wide_forms)
def test_mul_agrees_with_the_oracle_at_large_indices(c1, c2):
    product_word = Word(3, to_word(c1).letters + to_word(c2).letters)
    assert evaluate_word(to_word(mul(c1, c2))) == evaluate_word(product_word)


@given(wide_forms)
def test_inv_agrees_with_the_oracle_at_large_indices(c):
    a = evaluate_word(to_word(c))
    b = evaluate_word(to_word(inv(c)))
    assert a.then(b) == AFFINE_IDENTITY
    assert b.then(a) == AFFINE_IDENTITY


@given(long_degree3_words)
def test_canonicalize_agrees_with_the_oracle_on_long_words(w):
    assert evaluate_word(to_word(canonicalize(w))) == evaluate_word(w)


def test_oracle_agreement_up_to_length_6():
    # The affine model and the canonical form must partition words identically.
    canon_of_affine = {}
    affine_of_canon = {}
    for w in all_words_up_to(6):
        c = canonicalize(w)
        a = evaluate_word(w)
        assert canon_of_affine.setdefault(a, c) == c
        assert affine_of_canon.setdefault(c, a) == a
