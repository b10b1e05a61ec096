"""Value semantics shared by every value class in the package: equality and
hashing by fields within one class, immutability, the repr, copying and
pickling, field order for the ordered classes, the constructors' rejection
messages, and the signatures of the constructors and the sweeps."""

import copy
import inspect
import operator
import pickle
from pathlib import Path

import pytest

import cactuskit
from cactuskit import (
    AffineMap,
    CanonicalForm,
    CayleyGraph,
    Chamber,
    CoverVertex,
    DeckElement,
    DegreeMismatchError,
    DualComplex,
    Generator,
    InvalidGeneratorError,
    Permutation,
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
def test_fields_cannot_be_deleted(cls, fields, text):
    value = cls(**fields)
    for name, field in fields.items():
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == field


# Each slot that is not a field, with its value in the CASES value.
HIDDEN = {PureElement: {"_form": pure_element(2)}, CayleyGraph: {"_keys": frozenset({0})}}


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_every_slot_reads_back(cls, fields, text):
    value = cls(**fields)
    assert cls.__slots__ == (*fields, *HIDDEN.get(cls, ()))
    for name, expected in {**fields, **HIDDEN.get(cls, {})}.items():
        assert getattr(value, name) == expected, name


def test_slots_that_are_not_fields_cannot_be_assigned():
    values = [PureElement(2), CayleyGraph("J3_2", 0, (F0,), ())]
    for value in values:
        for name, expected in HIDDEN[type(value)].items():
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == expected


def test_no_module_stores_through_the_generic_setattr():
    # Values store their slots through the slot descriptors' own setters.
    package = Path(cactuskit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        text = path.read_text()
        assert "object.__setattr__" not in text, path.name
        assert "_setfield" not in text, path.name


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize(("cls", "fields", "text"), CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_keep_the_value(cls, fields, text):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)


def test_sequence_fields_are_stored_as_tuples():
    chamber = Chamber([1, 2, 3])
    assert chamber == C0 and hash(chamber) == hash(C0)
    assert Report(2, ["FAIL a"]).merged(Report(1, ("x",))) == Report(3, ("FAIL a", "x"))
    assert DualComplex([C0], [(C0, C0)]) == DualComplex((C0,), ((C0, C0),))
    listed = DualComplex([C0], [[C0, C0]])
    assert listed == DualComplex((C0,), ((C0, C0),))
    assert hash(listed) == hash(DualComplex((C0,), ((C0, C0),)))
    graph = build_window("J3_2", 1)
    rebuilt = CayleyGraph(graph.group, graph.radius, list(graph.vertices), list(graph.edges))
    assert rebuilt == graph and hash(rebuilt) == hash(graph)
    listed = CayleyGraph(graph.group, graph.radius, graph.vertices, [list(e) for e in graph.edges])
    assert listed == graph and hash(listed) == hash(graph)


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


# (class, arguments, error type, exact message): one rejected input per check.
REJECTIONS = [
    (Generator, (2, 1, 3), InvalidGeneratorError, "s2,1 is not a generator at degree 3"),
    (Generator, (1, 2.0, 3), InvalidGeneratorError, "s1,2.0 is not a generator at degree 3"),
    (Word, (1,), ValueError, "degree must be an int of at least 2, got 1"),
    (
        Word,
        (3, (Generator(1, 2, 4),)),
        DegreeMismatchError,
        "letter s1,2 has degree 4 in a word of degree 3",
    ),
    (Word, (1.5,), ValueError, "degree must be an int of at least 2, got 1.5"),
    (Word, (True,), ValueError, "degree must be an int of at least 2, got True"),
    (CanonicalForm, (1.0,), ValueError, "m must be an int, got 1.0"),
    (CanonicalForm, (0, 2), ValueError, "eps must be 0 or 1, got 2"),
    (AffineMap, (0, 0), ValueError, "sign must be +-1, got 0"),
    (AffineMap, (1, "0"), ValueError, "shift must be an int, got '0'"),
    (Permutation, ((1, 1, 3),), ValueError, "(1, 1, 3) is not a permutation of 1..3"),
    (Chamber, ((1, 2),), ValueError, "need at least 3 labels, got 2"),
    (Chamber, ((1, 2, 5),), ValueError, "(1, 2, 5) is not an arrangement of 1..3"),
    (
        Chamber,
        ((1, 4, 3, 2),),
        ValueError,
        "(1, 4, 3, 2) is not a canonical chamber representative",
    ),
    (
        CoverVertex,
        ("321", 0),
        ValueError,
        "label must be one of ('213', '123', '132'), got '321'",
    ),
    (CoverVertex, ("213", 0.5), ValueError, "winding index must be an int, got 0.5"),
    (DeckElement, ("1",), ValueError, "deck power must be an int, got '1'"),
    (PureElement, (None,), ValueError, "pure power must be an int, got None"),
    (CayleyGraph, ('J3"', 0, (), ()), ValueError, "unknown group tag 'J3\"'; expected J3 or J3_2"),
    (CayleyGraph, ("J3", 1.0, (), ()), ValueError, "radius must be an int, got 1.0"),
    (CayleyGraph, ("J3_2", -1, (), ()), ValueError, "radius must be nonnegative, got -1"),
    (CayleyGraph, ("J3", 0, ((0, 0),), ()), ValueError, "vertex must be a CanonicalForm, got (0, 0)"),
    (
        CayleyGraph,
        ("J3", 0, (F0,), ((F0, F0, 'a"b'),)),
        ValueError,
        "edge label must be a Generator, got 'a\"b'",
    ),
    (
        CayleyGraph,
        ("J3", 0, (F0,), ((F0, CanonicalForm(5, 0), S12),)),
        ValueError,
        "edge (m=0, eps=0) -- (m=5, eps=0) does not join two vertices of the window",
    ),
    (
        CayleyGraph,
        ("J3", 0, (F0,), (("x", F0, S12),)),
        ValueError,
        "edge endpoints must be CanonicalForms, got 'x' and CanonicalForm(m=0, eps=0)",
    ),
    (
        CayleyGraph,
        ("J3_2", 1, (CanonicalForm(1, 0), F0, CanonicalForm(-1, 0)), ()),
        ValueError,
        "vertices must be sorted and distinct, got (m=0, eps=0) after (m=1, eps=0)",
    ),
    (
        CayleyGraph,
        ("J3", 0, (F0, CanonicalForm(0, 1), CanonicalForm(0, 1)), ()),
        ValueError,
        "vertices must be sorted and distinct, got (m=0, eps=1) after (m=0, eps=1)",
    ),
    (Report, (True,), ValueError, "total must be a nonnegative int, got True"),
    (Report, (-1,), ValueError, "total must be a nonnegative int, got -1"),
    (Report, (1, "ab"), ValueError, "failures must be a sequence of lines, got 'ab'"),
    (Report, (2, ("FAIL a", 1)), ValueError, "failure lines must be str, got 1"),
    (Report, (1, ("FAIL a", "FAIL b")), ValueError, "2 failures exceed the total of 1 cases"),
    (CanonicalForm, (0, True), ValueError, "eps must be 0 or 1, got True"),
    (Word, (3, (5,)), ValueError, "letter 5 is not a Generator"),
]


@pytest.mark.parametrize(
    ("cls", "args", "error", "message"),
    REJECTIONS,
    ids=[f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(REJECTIONS)],
)
def test_constructors_reject_with_their_messages(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_sweeps_keep_their_signatures():
    # Parameters as (name, default), None where there is no default.
    constructors = {
        Generator: [("p", None), ("q", None), ("n", None)],
        Word: [("degree", None), ("letters", ())],
        CanonicalForm: [("m", None), ("eps", 0)],
        AffineMap: [("sign", None), ("shift", None)],
        Permutation: [("images", None)],
        Chamber: [("order", None)],
        DualComplex: [("vertices", None), ("edges", None)],
        CoverVertex: [("label", None), ("k", None)],
        DeckElement: [("j", None)],
        CayleyGraph: [("group", None), ("radius", None), ("vertices", None), ("edges", None)],
        PureElement: [("k", None)],
        Report: [("total", None), ("failures", ())],
    }
    assert set(constructors) == {cls for cls, _, _ in CASES}
    for cls, params in constructors.items():
        got = [
            (p.name, None if p.default is inspect.Parameter.empty else p.default)
            for p in inspect.signature(cls).parameters.values()
        ]
        assert got == params, cls.__name__
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
