"""Value semantics shared by every value class in the package: equality and
hashing by fields within one class, immutability, the repr, copying and
pickling, field order for the ordered classes, and the sweeps' signatures."""

import copy
import inspect
import operator
import pickle

import pytest

from cactuskit import (
    AffineMap,
    CanonicalForm,
    CayleyGraph,
    Chamber,
    CoverVertex,
    DeckElement,
    DualComplex,
    Generator,
    Permutation,
    PresentationSpec,
    PureElement,
    Report,
    Word,
    build_dual_complex,
    build_window,
    check_equivariance,
    check_isomorphism,
    check_oracle,
    check_shift_law,
    cover_to_group,
    pure_element,
    verify_action_axioms,
)

S12 = Generator(1, 2, 3)
C0 = Chamber((1, 2, 3))
F0 = CanonicalForm(0, 0)

# (class, fields by name, exact repr); each value is built from its fields by keyword.
CASES = [
    (Generator, {"p": 1, "q": 2, "n": 3}, "Generator(p=1, q=2, n=3)"),
    (Word, {"degree": 3, "letters": (S12,)}, "Word(degree=3, letters=(Generator(p=1, q=2, n=3),))"),
    (
        PresentationSpec,
        {"degree": 3, "subset": frozenset({2})},
        "PresentationSpec(degree=3, subset=frozenset({2}))",
    ),
    (CanonicalForm, {"m": 3, "eps": 1}, "CanonicalForm(m=3, eps=1)"),
    (AffineMap, {"sign": -1, "shift": 2}, "AffineMap(sign=-1, shift=2)"),
    (Permutation, {"images": (2, 1, 3)}, "Permutation(images=(2, 1, 3))"),
    (Chamber, {"order": (1, 2, 4, 3)}, "Chamber(order=(1, 2, 4, 3))"),
    (
        DualComplex,
        {"vertices": (C0,), "edges": ((C0, C0),)},
        "DualComplex(vertices=(Chamber(order=(1, 2, 3)),),"
        " edges=((Chamber(order=(1, 2, 3)), Chamber(order=(1, 2, 3))),))",
    ),
    (CoverVertex, {"label": "213", "k": -1}, "CoverVertex(label='213', k=-1)"),
    (DeckElement, {"j": 2}, "DeckElement(j=2)"),
    (
        CayleyGraph,
        {"group": "J3_2", "radius": 0, "vertices": (F0,), "edges": ()},
        "CayleyGraph(group='J3_2', radius=0, vertices=(CanonicalForm(m=0, eps=0),), edges=())",
    ),
    (PureElement, {"k": 2}, "PureElement(k=2)"),
    (Report, {"total": 3, "failures": ("FAIL x",)}, "Report(total=3, failures=('FAIL x',))"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, text):
    value, twin = cls(**fields), cls(**fields)
    key = tuple(fields.values())
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(key)
    # Equal fields in another type are a different value.
    assert value != key and key != value
    assert value != object()


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, text):
    value = cls(**fields)
    for name, field in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        assert getattr(value, name) == field


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_keep_the_value(cls, fields, text):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


def test_copies_of_built_values_keep_working():
    for value in (build_window("J3", 2), build_dual_complex(), Word(3, (S12, S12))):
        assert pickle.loads(pickle.dumps(value)) == value
    g = copy.deepcopy(PureElement(-3))
    assert g.to_canonical() == pure_element(-3)
    assert pickle.loads(pickle.dumps(g)).to_canonical() == pure_element(-3)


ORDERED = [
    [Generator(1, 2, 3), Generator(1, 3, 3), Generator(2, 3, 3), Generator(1, 2, 4)],
    [CanonicalForm(-2, 0), CanonicalForm(0, 1), CanonicalForm(0, 0), CanonicalForm(5, 0)],
    [Chamber((1, 2, 3, 4)), Chamber((1, 3, 2, 4)), Chamber((1, 2, 4, 3)), Chamber((1, 2, 3))],
]


@pytest.mark.parametrize("values", ORDERED, ids=["Generator", "CanonicalForm", "Chamber"])
def test_ordered_values_compare_like_their_field_tuples(values):
    def key(v):
        return tuple(getattr(v, name) for name in fields_of[type(v)])

    fields_of = {cls: tuple(fields) for cls, fields, _ in CASES}
    for a in values:
        for b in values:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(a, b) == op(key(a), key(b)), (op, a, b)
    assert sorted(values, reverse=True) == sorted(values, key=key, reverse=True)


def test_unordered_values_refuse_order():
    with pytest.raises(TypeError):
        Word(3) < Word(3)
    with pytest.raises(TypeError):
        AffineMap(1, 0) < AffineMap(1, 1)


def test_sweeps_keep_their_signatures():
    expected = {
        check_equivariance: [("j_range", None), ("k_range", None), ("phi", cover_to_group)],
        verify_action_axioms: [("k_range", None), ("m_range", None)],
        check_shift_law: [("k_range", None), ("m_range", None)],
        check_isomorphism: [("k_range", None)],
        check_oracle: [("max_len", 8)],
    }
    for sweep, params in expected.items():
        sig = inspect.signature(sweep)
        got = [
            (p.name, None if p.default is inspect.Parameter.empty else p.default)
            for p in sig.parameters.values()
        ]
        assert got == params, sweep.__name__
        assert sig.return_annotation is Report, sweep.__name__
