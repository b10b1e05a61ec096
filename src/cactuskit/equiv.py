"""The pure-subgroup action on the dihedral part, the vertex bijection with
the cover line, and the window verifiers tying them together.

The pure subgroup is infinite cyclic, generated by the cube of (s12 s13).
Acting by its k-th power sends the element with alternating index m to the
one with index m + 3k (left multiplication, followed by a right s13 factor
whenever the raw product picks one up).  The cover line maps onto the group
by [213]_k -> 3k+1, [123]_k -> 3k, [132]_k -> 3k-1, and this intertwines
the deck shift with the action above.

Verifiers return a ``Report`` rather than raising: failures are data.  A
deliberately wrong variant of the cover map is included as a negative
control so the verifiers themselves can be shown to catch errors.
"""

from __future__ import annotations

from functools import wraps
from itertools import product
from typing import Callable, Iterable, Iterator

from .confspace import COVER_LABELS, CoverVertex, DeckElement, deck_act
from .degree3 import (
    AFFINE_IDENTITY,
    IDENTITY,
    AffineMap,
    CanonicalForm,
    affine_model,
    canonicalize,
    evaluate_word,
    in_dihedral_subgroup,
    mul,
    pure_element,
    to_word,
)
from .words import Word, _setfield, _Value, all_generators, relation_instances


_S13 = CanonicalForm(0, 1)


class OutsideSubgroupError(ValueError):
    """Operand outside the subgroup the operation is defined on."""


class PureElement(_Value):
    """The k-th power of the pure generator (s12 s13)^3."""

    # _form, built once for the sweeps to act with, is not a field.
    __slots__ = ("k", "_form")
    _fields = ("k",)

    def __init__(self, k: int) -> None:
        _setfield(self, "k", k)
        self.__post_init__()

    def __post_init__(self) -> None:
        if type(self.k) is not int:
            raise ValueError(f"pure power must be an int, got {self.k!r}")
        _setfield(self, "_form", pure_element(self.k))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.k == other.k

    def __hash__(self) -> int:
        return hash((self.k,))

    @classmethod
    def from_canonical(cls, c: CanonicalForm) -> PureElement:
        if c.m % 3 != 0 or c != pure_element(c.m // 3):
            raise ValueError(f"{c} is not a power of the pure generator")
        return cls(c.m // 3)

    def to_canonical(self) -> CanonicalForm:
        return self._form

    def then(self, other: PureElement) -> PureElement:
        return PureElement(self.k + other.k)


def pure_action(g: PureElement, h: CanonicalForm) -> CanonicalForm:
    """Act on an eps=0 element; the result has index h.m + 3k and eps=0."""
    if not in_dihedral_subgroup(h):
        raise OutsideSubgroupError(f"{h} has a trailing s13; the action is not defined there")
    out = mul(g.to_canonical(), h)
    if out.eps:
        out = mul(out, _S13)
    return out


def cover_to_group(v: CoverVertex) -> CanonicalForm:
    """Vertex bijection from the cover line onto the eps=0 elements."""
    return CanonicalForm(3 * v.k + 1 - COVER_LABELS.index(v.label), 0)


def cover_to_group_perturbed(v: CoverVertex) -> CanonicalForm:
    """Negative control: wrong image for [213] at odd k."""
    if v.label == "213" and v.k % 2:
        return CanonicalForm(3 * v.k + 2, 0)
    return cover_to_group(v)


def group_to_cover(c: CanonicalForm) -> CoverVertex:
    """Inverse of cover_to_group."""
    if not in_dihedral_subgroup(c):
        raise OutsideSubgroupError(f"{c} has a trailing s13; no cover vertex maps to it")
    k, r = divmod(c.m + 1, 3)
    return CoverVertex(COVER_LABELS[2 - r], k)


class Report(_Value):
    """Outcome of a verification sweep; failures are kept as rendered lines."""

    __slots__ = _fields = ("total", "failures")

    def __init__(self, total: int, failures: tuple[str, ...] = ()) -> None:
        _setfield(self, "total", total)
        _setfield(self, "failures", failures)

    def ok(self) -> bool:
        return not self.failures

    def merged(self, other: Report) -> Report:
        return Report(self.total + other.total, self.failures + other.failures)

    def render(self) -> str:
        if self.ok():
            tail = f"OK {self.total} cases"
        else:
            tail = f"FAIL {len(self.failures)}/{self.total}"
        return "\n".join((*self.failures, tail))


CoverMap = Callable[[CoverVertex], CanonicalForm]


def _sweep(suite: Callable[..., Iterator[str | None]]) -> Callable[..., Report]:
    """Turn a generator that yields one item per case -- None when the case
    passes, its failure line when it fails -- into a verifier returning a Report."""

    @wraps(suite)
    def verifier(*args, **kwargs) -> Report:
        total = 0
        failures = []
        for total, outcome in enumerate(suite(*args, **kwargs), 1):
            if outcome is not None:
                failures.append(outcome)
        return Report(total, tuple(failures))

    # wraps shares the suite's annotations dict; signature() reads it via __wrapped__.
    verifier.__annotations__["return"] = Report
    return verifier


@_sweep
def check_equivariance(
    j_range: Iterable[int],
    k_range: Iterable[int],
    phi: CoverMap = cover_to_group,
) -> Iterator[str | None]:
    """Deck shift then phi must equal phi then the pure action."""
    vs = [CoverVertex(label, k) for k in k_range for label in COVER_LABELS]
    for j in j_range:
        g = PureElement(j)
        d = DeckElement(j)
        for v in vs:
            lhs = phi(deck_act(d, v))
            rhs = pure_action(g, phi(v))
            yield f"FAIL j={j} v={v} lhs={lhs} rhs={rhs}" if lhs != rhs else None


@_sweep
def verify_action_axioms(k_range: Iterable[int], m_range: Iterable[int]) -> Iterator[str | None]:
    """Identity and compatibility axioms of the pure action.

    The action of one element on every ``h`` is a row, built by
    ``pure_action`` the first time the element appears as ``g12`` or ``g2``
    and reused after: |k|^2 pairs have at most 2|k| - 1 distinct products.
    ``pure_action`` is a function of its arguments, so a reused row holds
    what calling it again would return; each case still acts by ``g1`` on
    its inner value, and each pair still multiplies through ``mul``.
    """
    gs = [PureElement(k) for k in k_range]
    hs = [CanonicalForm(m, 0) for m in m_range]
    e = PureElement(0)
    for h in hs:
        got = pure_action(e, h)
        yield f"FAIL identity m={h.m} got={got}" if got != h else None
    rows = {}
    for g1, g2 in product(gs, gs):
        g12 = PureElement.from_canonical(mul(g1.to_canonical(), g2.to_canonical()))
        for g in (g12, g2):
            if g not in rows:
                rows[g] = [pure_action(g, h) for h in hs]
        for h, lhs, inner in zip(hs, rows[g12], rows[g2]):
            rhs = pure_action(g1, inner)
            yield f"FAIL k1={g1.k} k2={g2.k} m={h.m} lhs={lhs} rhs={rhs}" if lhs != rhs else None


@_sweep
def check_shift_law(k_range: Iterable[int], m_range: Iterable[int]) -> Iterator[str | None]:
    """Acting by the k-th pure power adds 3k to the alternating index."""
    hs = [CanonicalForm(m, 0) for m in m_range]
    for k in k_range:
        g = PureElement(k)
        for h in hs:
            m = h.m
            out = pure_action(g, h)
            if out != CanonicalForm(m + 3 * k, 0):
                yield f"FAIL k={k} m={m} got={out}"
                continue
            yield None
            if m >= 0 and k >= 0:
                # Word length grows by exactly 3k on this quadrant.
                length = len(to_word(out))
                yield f"FAIL k={k} m={m} length={length}" if length != m + 3 * k else None


def deck_from_pure(g: PureElement) -> DeckElement:
    """The isomorphism from the pure subgroup onto the deck group."""
    return DeckElement(g.k)


def pure_from_deck(d: DeckElement) -> PureElement:
    return PureElement(d.j)


@_sweep
def check_isomorphism(k_range: Iterable[int]) -> Iterator[str | None]:
    """deck_from_pure is a homomorphism and pure_from_deck inverts it."""
    ks = list(k_range)
    for k in ks:
        g = PureElement(k)
        d = DeckElement(k)
        yield f"FAIL round trip k={k} via deck" if pure_from_deck(deck_from_pure(g)) != g else None
        yield f"FAIL round trip j={k} via pure" if deck_from_pure(pure_from_deck(d)) != d else None
    for k1, k2 in product(ks, ks):
        g1, g2 = PureElement(k1), PureElement(k2)
        g12 = PureElement.from_canonical(mul(g1.to_canonical(), g2.to_canonical()))
        lhs = deck_from_pure(g12)
        rhs = deck_from_pure(g1).then(deck_from_pure(g2))
        yield f"FAIL k1={k1} k2={k2} lhs=j{lhs.j} rhs=j{rhs.j}" if lhs != rhs else None


def _oracle_walk(max_len: int) -> Iterator[tuple[list[int], CanonicalForm, AffineMap]]:
    """Every degree-3 word of length 0..max_len as (path, form, map), the
    lengths in turn and each in ``product`` order.

    A depth-first walk over the prefix tree extends a prefix's canonical form
    by ``mul`` and its affine map by ``then`` with the next letter's images, so
    the two models are still computed apart; the stacks hold one entry per
    letter.  ``path`` lists the letters' indices in ``all_generators(3)``; it
    is the walk's own list, valid until the next step.

    Each step is memoised on the (form, map) pair and the letter: a pair gets
    an id the first time the walk reaches it, and ``mul`` and ``then`` run
    once per id and letter, not once per prefix.  Both are functions of their
    arguments, so a memoised step yields what computing it again would; the
    walk reaches a few dozen pairs, one per group element within the radius
    when the two models agree.
    """
    steps = [(canonicalize(Word(3, (g,))), affine_model(g)) for g in all_generators(3)]
    pairs = [(IDENTITY, AFFINE_IDENTITY)]  # each distinct (form, map) reached
    ids = {pairs[0]: 0}  # the inverse of pairs
    succ = {}  # (id of a pair, letter index) -> id of the pair extended by it
    for length in range(max_len + 1):
        path = []
        nodes = [0]  # nodes[d]: id of the form and map of path[:d]
        i = 0  # the next letter to try below the current prefix
        while True:
            if len(path) == length:
                yield path, *pairs[nodes[-1]]
                i = len(steps)
            if i < len(steps):
                key = (nodes[-1], i)
                if key not in succ:
                    (c, a), (step_c, step_a) = pairs[nodes[-1]], steps[i]
                    pair = (mul(c, step_c), a.then(step_a))
                    if pair not in ids:
                        ids[pair] = len(pairs)
                        pairs.append(pair)
                    succ[key] = ids[pair]
                path.append(i)
                nodes.append(succ[key])
                i = 0
            elif path:
                i = path.pop() + 1
                nodes.pop()
            else:
                break


@_sweep
def check_oracle(max_len: int = 8) -> Iterator[str | None]:
    """Canonical forms and the affine model induce the same word partition,
    and every relator evaluates to the identity map."""
    gens = all_generators(3)
    canon_to_affine = {}
    affine_to_canon = {}
    for path, c, a in _oracle_walk(max_len):
        if canon_to_affine.setdefault(c, a) != a:
            w = Word(3, tuple(gens[i] for i in path))
            yield f"FAIL word={w} canon={c} affine={a} expected={canon_to_affine[c]}"
        elif affine_to_canon.setdefault(a, c) != c:
            w = Word(3, tuple(gens[i] for i in path))
            yield f"FAIL word={w} affine={a} canon={c} expected={affine_to_canon[a]}"
        else:
            yield None
    for family, lhs, rhs in relation_instances(3):
        relator = Word(3, lhs.letters + tuple(reversed(rhs.letters)))
        broken = evaluate_word(relator) != AFFINE_IDENTITY
        yield f"FAIL {family} relator {lhs} = {rhs} not respected" if broken else None
