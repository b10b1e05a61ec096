"""The pure-subgroup action on the dihedral part, the vertex bijection with
the cover line, and the window verifiers tying them together.

The pure subgroup is infinite cyclic, generated by the cube of (s12 s13).
Acting by its k-th power sends the element with alternating index m to the
one with index m + 3k (left multiplication, followed by a right s13 factor
whenever the raw product picks one up).  The cover line maps onto the group
by [213]_k -> 3k+1, [123]_k -> 3k, [132]_k -> 3k-1, and this intertwines
the deck shift with the action above.

Verifiers return a ``Report`` rather than raising: failures are data.  Each
counts its cases and keeps only the failure lines, in case order.  A
deliberately wrong variant of the cover map is included as a negative
control so the verifiers themselves can be shown to catch errors.
"""

from collections.abc import Callable, Iterable
from itertools import product, repeat

from .confspace import COVER_LABELS, CoverVertex, DeckElement, deck_act
from .degree3 import (
    AFFINE_IDENTITY,
    IDENTITY,
    CanonicalForm,
    _alt_concat,
    affine_model,
    canonicalize,
    evaluate_word,
    mul,
    pure_element,
    to_word,
)
from .words import Word, _setters, _Value, all_generators


class OutsideSubgroupError(ValueError):
    """Operand outside the subgroup the operation is defined on."""


class PureElement(_Value):
    """The k-th power of the pure generator (s12 s13)^3."""

    # _form, built once for the sweeps to act with, is not a field.
    __slots__ = ("k", "_form")
    _fields = ("k",)

    def __init__(self, k: int) -> None:
        if type(k) is not int:
            raise ValueError(f"pure power must be an int, got {k!r}")
        _set_k(self, k)
        _set_form(self, pure_element(k))

    @classmethod
    def from_canonical(cls, c: CanonicalForm) -> "PureElement":
        if type(c) is not CanonicalForm:
            raise ValueError(f"a pure power comes from a CanonicalForm, got {c!r}")
        if c.m % 3 != 0 or c != pure_element(c.m // 3):
            raise ValueError(f"{c} is not a power of the pure generator")
        return cls(c.m // 3)

    def to_canonical(self) -> CanonicalForm:
        return self._form

    def then(self, other: "PureElement") -> "PureElement":
        return PureElement(self.k + other.k)


_set_k, _set_form = _setters(PureElement)


def pure_action(g: PureElement, h: CanonicalForm) -> CanonicalForm:
    """Act on an eps=0 element; the result has index h.m + 3k and eps=0."""
    if h.eps:
        raise OutsideSubgroupError(f"{h} has a trailing s13; the action is not defined there")
    # One form: mul's index by the parity rule, less the eps the action drops.
    f = g._form
    return CanonicalForm(_alt_concat(f.m, -h.m if f.eps else h.m), 0)


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
    if c.eps:
        raise OutsideSubgroupError(f"{c} has a trailing s13; no cover vertex maps to it")
    k, r = divmod(c.m + 1, 3)
    return CoverVertex(COVER_LABELS[2 - r], k)


class Report(_Value):
    """Outcome of a verification sweep; failures are kept as rendered lines."""

    __slots__ = _fields = ("total", "failures")

    def __init__(self, total: int, failures: tuple[str, ...] = ()) -> None:
        if type(total) is not int or total < 0:
            raise ValueError(f"total must be a nonnegative int, got {total!r}")
        if isinstance(failures, str):
            raise ValueError(f"failures must be a sequence of lines, got {failures!r}")
        failures = tuple(failures)
        if not all(map(isinstance, failures, repeat(str))):
            bad = next(f for f in failures if not isinstance(f, str))
            raise ValueError(f"failure lines must be str, got {bad!r}")
        if len(failures) > total:
            raise ValueError(f"{len(failures)} failures exceed the total of {total} cases")
        _set_total(self, total)
        _set_failures(self, failures)

    def ok(self) -> bool:
        return not self.failures

    def merged(self, other: "Report") -> "Report":
        return Report(self.total + other.total, self.failures + other.failures)

    def render(self) -> str:
        if self.ok():
            tail = f"OK {self.total} cases"
        else:
            tail = f"FAIL {len(self.failures)}/{self.total}"
        return "\n".join((*self.failures, tail))


_set_total, _set_failures = _setters(Report)


CoverMap = Callable[[CoverVertex], CanonicalForm]


def check_equivariance(
    j_range: Iterable[int],
    k_range: Iterable[int],
    phi: CoverMap = cover_to_group,
) -> Report:
    """Deck shift then phi must equal phi then the pure action.

    Each case shifts its vertex by ``deck_act`` and compares ``phi`` of the
    shifted vertex (lhs) with the shift's pure power acting on ``phi`` of the
    vertex (rhs).  ``phi`` is a function of its argument, so it maps each
    distinct vertex once, keyed by ``(k, label)``: first the unshifted
    vertices, then each shifted vertex the first time a case reaches it.
    """
    vs = [CoverVertex(label, k) for k in k_range for label in COVER_LABELS]
    images = [phi(v) for v in vs]
    mapped = {(v.k, v.label): image for v, image in zip(vs, images)}
    js = list(j_range)
    failures = []
    for j in js:
        g = PureElement(j)
        d = DeckElement(j)
        for v, image in zip(vs, images):
            w = deck_act(d, v)
            lhs = mapped.get((w.k, w.label))
            if lhs is None:
                lhs = mapped[w.k, w.label] = phi(w)
            rhs = pure_action(g, image)
            if lhs != rhs:
                failures.append(f"FAIL j={j} v={v} lhs={lhs} rhs={rhs}")
    return Report(len(js) * len(vs), tuple(failures))


def verify_action_axioms(k_range: Iterable[int], m_range: Iterable[int]) -> Report:
    """Identity and compatibility axioms of the pure action.

    Each case compares ``g12`` acting on ``h`` (lhs) with ``g1`` acting on
    ``g2``'s image of ``h`` (rhs), in ``product`` order of (g1, g2) and then
    ``h``.  ``pure_action`` is a function of its arguments, so each value is
    computed once and looked up after:

    - the action of one power on every ``h`` is a row, keyed by the int power
      ``k``, built the first time the power appears as ``g12`` or ``g2`` and
      dropped after the last pair that reads it: |k|^2 pairs have at most
      2|k| - 1 distinct products;
    - ``g1``'s action is kept by inner value, by its eps and then its m, while
      ``g1`` is current: its inner values span at most |m| + 3(|k| - 1)
      indices, where its cases number |k| |m|.

    Every ``CanonicalForm`` a row or the memo keeps passes through a pool,
    by eps and then m, that lives for the sweep, so equal forms are one
    object and a case compares them by identity first.  ``CanonicalForm.__eq__``
    is reflexive, so identity implies equality.  The pool takes exact
    ``CanonicalForm``s only: ``__eq__`` refuses any other class, so any
    other value is kept as it is and compared with ``!=``.
    """
    gs = [PureElement(k) for k in k_range]
    hs = [CanonicalForm(m, 0) for m in m_range]
    e = PureElement(0)
    failures = []
    for h in hs:
        got = pure_action(e, h)
        if got != h:
            failures.append(f"FAIL identity m={h.m} got={got}")
    products = [
        PureElement.from_canonical(mul(g1.to_canonical(), g2.to_canonical()))
        for g1, g2 in product(gs, gs)
    ]
    last = {}  # power -> index of the last pair that reads its row
    for n, ((_, g2), g12) in enumerate(zip(product(gs, gs), products)):
        last[g12.k] = last[g2.k] = n
    pool = ({}, {})  # each exact CanonicalForm kept, by its eps and then its m

    def pooled(c: CanonicalForm) -> CanonicalForm:
        return pool[c.eps].setdefault(c.m, c) if type(c) is CanonicalForm else c

    rows = {}  # power -> its action on each h
    n = 0
    for g1 in gs:
        acted = ({}, {})  # g1's action on each inner value, by its eps and then its m
        for g2 in gs:
            g12 = products[n]
            for g in (g12, g2):
                if g.k not in rows:
                    rows[g.k] = [pooled(pure_action(g, h)) for h in hs]
            for h, lhs, inner in zip(hs, rows[g12.k], rows[g2.k]):
                seen = acted[inner.eps]
                rhs = seen.get(inner.m)
                if rhs is None:
                    rhs = seen[inner.m] = pooled(pure_action(g1, inner))
                if lhs is not rhs and lhs != rhs:
                    failures.append(f"FAIL k1={g1.k} k2={g2.k} m={h.m} lhs={lhs} rhs={rhs}")
            for k in (g12.k, g2.k):
                if last[k] == n:
                    rows.pop(k, None)
            n += 1
    return Report(len(hs) * (1 + len(products)), tuple(failures))


def check_shift_law(k_range: Iterable[int], m_range: Iterable[int]) -> Report:
    """Acting by the k-th pure power adds 3k to the alternating index.

    One case per (k, m), plus a word-length case for each k, m >= 0 whose
    index case passes."""
    hs = [CanonicalForm(m, 0) for m in m_range]
    failures = []
    total = 0
    for k in k_range:
        g = PureElement(k)
        total += len(hs)
        for h in hs:
            m = h.m
            out = pure_action(g, h)
            if out != CanonicalForm(m + 3 * k, 0):
                failures.append(f"FAIL k={k} m={m} got={out}")
            elif m >= 0 and k >= 0:
                # Word length grows by exactly 3k on this quadrant.
                total += 1
                length = len(to_word(out))
                if length != m + 3 * k:
                    failures.append(f"FAIL k={k} m={m} length={length}")
    return Report(total, tuple(failures))


def deck_from_pure(g: PureElement) -> DeckElement:
    """The isomorphism from the pure subgroup onto the deck group."""
    return DeckElement(g.k)


def pure_from_deck(d: DeckElement) -> PureElement:
    return PureElement(d.j)


def check_isomorphism(k_range: Iterable[int]) -> Report:
    """deck_from_pure is a homomorphism and pure_from_deck inverts it.

    ``deck_from_pure`` is a function of its argument, so it maps each
    distinct power once, keyed by ``k``, the first time a case reaches it.
    """
    gs = [PureElement(k) for k in k_range]
    decks = {}  # power -> its image under deck_from_pure

    def deck(g: PureElement) -> DeckElement:
        if g.k not in decks:
            decks[g.k] = deck_from_pure(g)
        return decks[g.k]

    failures = []
    for g in gs:
        k = g.k
        d = DeckElement(k)
        if pure_from_deck(deck(g)) != g:
            failures.append(f"FAIL round trip k={k} via deck")
        if deck(pure_from_deck(d)) != d:
            failures.append(f"FAIL round trip j={k} via pure")
    for g1, g2 in product(gs, gs):
        g12 = PureElement.from_canonical(mul(g1.to_canonical(), g2.to_canonical()))
        lhs = deck(g12)
        rhs = deck(g1).then(deck(g2))
        if lhs != rhs:
            failures.append(f"FAIL k1={g1.k} k2={g2.k} lhs=j{lhs.j} rhs=j{rhs.j}")
    return Report(len(gs) * (2 + len(gs)), tuple(failures))


def check_oracle(max_len: int = 8) -> Report:
    """Canonical forms and the affine model induce the same word partition,
    and every relator evaluates to the identity map.

    One case per degree-3 word of length 0..max_len, plus one per relator;
    the words are counted, not visited.  For each length the sweep lists the
    (form, map) pairs its words reach, in the order of the least word that
    reaches each.  A pair extends by ``mul`` of its form and ``then`` of its
    map with a letter's images, once per pair and letter, so the two models
    are still computed apart; the lengths reach a few dozen pairs.

    A word fails when its form was first seen with another map, or its map
    with another form.  The first check reads the form's entry, which the
    first word with that form sets, and the second the map's entry, which the
    first word with that map to pass the first check sets; so the first word
    that reaches a pair settles its verdict, and each pair is decided once,
    at its first length and in that length's order, as a walk over the words
    by length and in ``product`` order would.  Only a length L that reaches a
    failing pair makes the sweep write words out: it walks all 3^L words of
    that length in that order, however few fail, and gives each word that
    ends at a failing pair its line.
    """
    from .moves import relation_instances

    gens = all_generators(3)
    steps = [(canonicalize(Word(3, (g,))), affine_model(g)) for g in gens]
    ids = {(IDENTITY, AFFINE_IDENTITY): 0}  # each distinct (form, map) reached -> its id
    succ = []  # succ[id]: ids of the pairs the pair extends to, by letter index
    canon_to_affine = {}
    affine_to_canon = {}
    tails = []  # tails[id]: None when the pair passes, else its failure line after the word
    level = [0]  # ids of the pairs that words of the current length reach, in order
    failures = []
    for length in range(max_len + 1):
        if length:
            # The pairs first reached at the last length are the ones not yet extended.
            for c, a in pairs[len(succ):]:
                succ.append([ids.setdefault((mul(c, sc), a.then(sa)), len(ids)) for sc, sa in steps])
            level = list(dict.fromkeys(q for p in level for q in succ[p]))
        pairs = list(ids)
        for c, a in pairs[len(tails):]:
            if canon_to_affine.setdefault(c, a) != a:
                tails.append(f"canon={c} affine={a} expected={canon_to_affine[c]}")
            elif affine_to_canon.setdefault(a, c) != c:
                tails.append(f"affine={a} canon={c} expected={affine_to_canon[a]}")
            else:
                tails.append(None)
        if any(tails[p] is not None for p in level):
            for word in product(range(3), repeat=length):
                p = 0
                for i in word:
                    p = succ[p][i]
                if tails[p] is not None:
                    failures.append(f"FAIL word={Word(3, tuple(gens[i] for i in word))} {tails[p]}")
    instances = list(relation_instances(3))
    for family, lhs, rhs in instances:
        relator = Word(3, lhs.letters + tuple(reversed(rhs.letters)))
        if evaluate_word(relator) != AFFINE_IDENTITY:
            failures.append(f"FAIL {family} relator {lhs} = {rhs} not respected")
    return Report(sum(3**n for n in range(max_len + 1)) + len(instances), tuple(failures))
