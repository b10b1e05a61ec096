"""Free words over interval-reversing generators and their rewriting moves.

A generator ``s_{p,q}`` (written ``s<p>,<q>`` in text, with 1 <= p < q <= n)
reverses the index interval [p, q].  Three relation families hold:

* involution:  s_{p,q} s_{p,q} = 1,
* commutation: s_{p,q} s_{m,r} = s_{m,r} s_{p,q}  when [p,q] and [m,r] are
  disjoint,
* nesting:     s_{p,q} s_{m,r} = s_{p+q-r,p+q-m} s_{p,q}  when [m,r] is
  strictly nested in [p,q] (the big interval reflects the small one while
  passing it).

This module holds the word container, single-step moves for each relation,
and a search oracle over those moves; the relation patterns live in one move
table over ``(p, q)`` pairs.  The search is a bidirectional breadth-first
search over strings with one character per letter, and its node budget
counts the expansions of both sides.  It answers only "equal" or "unknown":
it never claims two words are distinct.  Exact equality is available at
degree 3 through the canonical form in ``degree3``.
"""

from __future__ import annotations

import re
from collections import deque
from functools import total_ordering
from itertools import chain
from typing import Iterable, Iterator, Literal

_setfield = object.__setattr__


class _Value:
    """Base of the package's immutable values: a subclass sets the slots named
    in ``_fields`` through ``_setfield`` in its own ``__init__``, equals values
    of its class with equal fields (``_Ordered`` ones also order by them), and
    copies through ``__init__``.  Hot classes write these methods out for speed."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key()


@total_ordering
class _Ordered(_Value):
    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() < other._key()


class InvalidGeneratorError(ValueError):
    """Index pair outside 1 <= p < q <= n."""


class DegreeMismatchError(ValueError):
    """Operands built over different degrees were combined."""


class MoveNotApplicableError(ValueError):
    """A rewriting move's pattern does not match at the given position."""


class WordParseError(ValueError):
    """Malformed word text; the message names the offending token."""


class Generator(_Ordered):
    """The interval reverser s_{p,q} at degree n."""

    __slots__ = _fields = ("p", "q", "n")

    def __init__(self, p: int, q: int, n: int) -> None:
        _setfield(self, "p", p)
        _setfield(self, "q", q)
        _setfield(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        ints = type(self.p) is type(self.q) is type(self.n) is int
        if not (ints and 1 <= self.p < self.q <= self.n):
            raise InvalidGeneratorError(
                f"s{self.p},{self.q} is not a generator at degree {self.n}"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.n))

    def __str__(self) -> str:
        return f"s{self.p},{self.q}"


def all_generators(n: int) -> list[Generator]:
    return [Generator(p, q, n) for p in range(1, n) for q in range(p + 1, n + 1)]


class Word(_Value):
    """A finite product of generators; the empty word is the identity."""

    __slots__ = _fields = ("degree", "letters")

    def __init__(self, degree: int, letters: Iterable[Generator] = ()) -> None:
        _setfield(self, "degree", degree)
        _setfield(self, "letters", tuple(letters))
        self.__post_init__()

    def __post_init__(self) -> None:
        if type(self.degree) is not int or self.degree < 2:
            raise ValueError(f"degree must be an int of at least 2, got {self.degree!r}")
        for g in self.letters:
            if g.n != self.degree:
                raise DegreeMismatchError(
                    f"letter {g} has degree {g.n} in a word of degree {self.degree}"
                )

    @classmethod
    def from_pairs(cls, degree: int, pairs: Iterable[tuple[int, int]]) -> Word:
        return cls(degree, tuple(Generator(p, q, degree) for p, q in pairs))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.letters)


_TOKEN = re.compile(r"s(\d+),(\d+)\Z")


def parse_word(text: str, degree: int = 3) -> Word:
    """Parse whitespace-separated ``s<p>,<q>`` tokens; '' is the identity."""
    # Each distinct token is matched and validated once per call.
    interned: dict[str, Generator] = {}
    letters = []
    for i, token in enumerate(text.split()):
        g = interned.get(token)
        if g is None:
            match = _TOKEN.match(token)
            if match is None:
                raise WordParseError(f"token {i}: {token!r} is not of the form s<p>,<q>")
            try:
                g = Generator(int(match.group(1)), int(match.group(2)), degree)
            except InvalidGeneratorError as exc:
                raise WordParseError(f"token {i}: {exc}") from exc
            interned[token] = g
        letters.append(g)
    return Word(degree, tuple(letters))


def concat(*ws: Word) -> Word:
    if not ws:
        raise ValueError("need at least one word")
    degree = ws[0].degree
    for w in ws[1:]:
        if w.degree != degree:
            raise DegreeMismatchError("cannot concatenate words of different degrees")
    return Word(degree, tuple(chain.from_iterable(w.letters for w in ws)))


class PresentationSpec(_Value):
    """Degree n together with the admitted interval lengths.

    ``subset`` may be given as the string "full" (all lengths 2..n) or any
    iterable of lengths within [2, n].  A generator s_{p,q} belongs to the
    presentation when q - p + 1 is an admitted length.
    """

    __slots__ = _fields = ("degree", "subset")

    def __init__(self, degree: int, subset: Iterable[int] | str = "full") -> None:
        _setfield(self, "degree", degree)
        _setfield(self, "subset", subset)
        self.__post_init__()

    def __post_init__(self) -> None:
        if type(self.degree) is not int or self.degree < 2:
            raise ValueError(f"degree must be an int of at least 2, got {self.degree!r}")
        subset = self.subset
        if subset == "full":
            subset = frozenset(range(2, self.degree + 1))
        else:
            subset = frozenset(subset)
        if not subset <= set(range(2, self.degree + 1)):
            bad = sorted(subset - set(range(2, self.degree + 1)))
            raise ValueError(f"interval lengths {bad} lie outside [2, {self.degree}]")
        _setfield(self, "subset", subset)

    def generators(self) -> list[Generator]:
        return [g for g in all_generators(self.degree) if g.q - g.p + 1 in self.subset]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent equal letters until none remain."""
    out: list[Generator] = []
    for g in w.letters:
        if out and out[-1].p == g.p and out[-1].q == g.q:
            out.pop()
        else:
            out.append(g)
    return Word(w.degree, tuple(out))


def _moves(a: tuple[int, int], b: tuple[int, int]) -> Iterator[tuple[str, tuple]]:
    """The move table: each move (``cancel``, ``commute``, ``left-to-right`` or
    ``right-to-left`` nesting) that rewrites the adjacent letters a b, given as
    (p, q) pairs, with its replacement."""
    (p, q), (m, r) = a, b
    if a == b:
        yield "cancel", ()
    elif q < m or r < p:
        yield "commute", (b, a)
    elif p <= m and r <= q:
        yield "left-to-right", ((p + q - r, p + q - m), a)
    elif m <= p and q <= r:
        yield "right-to-left", (b, (m + r - q, m + r - p))


def _pairs(letters: Iterable[Generator]) -> tuple[tuple[int, int], ...]:
    return tuple((g.p, g.q) for g in letters)


# chr() has this many code points; n(n-1)/2 generators outgrow it at degree 1,494.
_CODES = 0x110000


class _Alphabet(dict):
    """Degree n's words as strings with one character per letter: s_{p,q} is
    ``chr(i)`` for its index i in ``all_generators(n)``.  A ``str`` caches its
    hash, so the search's ``seen`` lookups do not re-hash every letter.

    As a dict, it maps each adjacent two-letter string to its encoded
    ``_moves`` replacements, filled on first use: the full table would have
    n^2(n-1)^2/4 entries.
    """

    def __init__(self, n: int) -> None:
        if n * (n - 1) // 2 > _CODES:
            raise ValueError(
                f"degree {n} has {n * (n - 1) // 2} generators, more than the "
                f"{_CODES} one-character letter codes"
            )
        super().__init__()
        self.n = n
        self.pairs = [(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]
        self.squares = [chr(i) * 2 for i in range(len(self.pairs))]

    def __missing__(self, two: str) -> list[str]:
        moves = _moves(self.pairs[ord(two[0])], self.pairs[ord(two[1])])
        self[two] = replacements = [self.encode(r) for _, r in moves]
        return replacements

    def encode(self, pairs: Iterable[tuple[int, int]]) -> str:
        n = self.n
        return "".join([chr((p - 1) * (2 * n - p) // 2 + q - p - 1) for p, q in pairs])

    def decode(self, word: str) -> Word:
        return Word.from_pairs(self.n, [self.pairs[ord(c)] for c in word])


def _rewrites(alphabet: _Alphabet, word: str, max_length: int) -> list[str]:
    """Every word one relation move away from ``word``, possibly repeated;
    square insertions only while the result stays within ``max_length``."""
    out = [
        word[:i] + replacement + word[i + 2 :]
        for i in range(len(word) - 1)
        for replacement in alphabet[word[i : i + 2]]
    ]
    if len(word) + 2 <= max_length:
        cuts = [(word[:i], word[i:]) for i in range(len(word) + 1)]
        out += [head + square + tail for square in alphabet.squares for head, tail in cuts]
    return out


def _rewrite(w: Word, i: int, move: str, mismatch: str | None) -> Word:
    """Apply the named move at i, i+1; a None ``mismatch`` is an unknown direction."""
    if not 0 <= i <= len(w.letters) - 2:
        raise MoveNotApplicableError(f"no adjacent pair at position {i}")
    if mismatch is None:
        raise ValueError(f"unknown direction {move!r}")
    letters = _pairs(w)
    for name, replacement in _moves(letters[i], letters[i + 1]):
        if name == move:
            return Word.from_pairs(w.degree, letters[:i] + replacement + letters[i + 2 :])
    raise MoveNotApplicableError(mismatch.format(a=w.letters[i], b=w.letters[i + 1]))


def apply_commute(w: Word, i: int) -> Word:
    """Swap the letters at positions i, i+1 when their intervals are disjoint."""
    return _rewrite(w, i, "commute", "{a} and {b} do not commute: intervals overlap")


Direction = Literal["left-to-right", "right-to-left"]


def apply_nesting(w: Word, i: int, direction: Direction) -> Word:
    """Apply the nesting relation at positions i, i+1.

    left-to-right expects (outer, inner) and yields (reflected inner, outer);
    right-to-left is its inverse and expects (inner', outer).
    """
    mismatch = {
        "left-to-right": "interval of {b} is not strictly inside {a}",
        "right-to-left": "interval of {a} is not strictly inside {b}",
    }.get(direction)
    return _rewrite(w, i, direction, mismatch)


def neighbors(w: Word, max_length: int) -> set[Word]:
    """All words one relation move away from w.

    Pair insertions are included only while the result stays within
    ``max_length``; every other move can only shrink or rearrange.
    """
    if type(max_length) is not int:
        raise ValueError(f"max_length must be an int, got {max_length!r}")
    alphabet = _Alphabet(w.degree)
    found = set(_rewrites(alphabet, alphabet.encode(_pairs(w)), max_length))
    return {alphabet.decode(word) for word in found}


def equal_by_search(
    w1: Word,
    w2: Word,
    length_cap: int | None = None,
    node_budget: int = 20_000,
) -> Literal["equal", "unknown"]:
    """Bidirectional breadth-first equality oracle over the single-step moves.

    One search runs from each word, over strings with one character per
    letter; each step expands a word from the side with the smaller
    frontier.  Returns "equal" as soon as one side reaches a word the other
    has seen, and "unknown" when either frontier runs dry or after
    ``node_budget`` expansions, counted over both sides.  Every move is
    undone by another within the length cap, so a meeting is a rewrite path
    from w1 to w2.
    """
    if w1.degree != w2.degree:
        raise DegreeMismatchError("cannot compare words of different degrees")
    if length_cap is not None and type(length_cap) is not int:
        raise ValueError(f"length_cap must be None or an int, got {length_cap!r}")
    if type(node_budget) is not int:
        raise ValueError(f"node_budget must be an int, got {node_budget!r}")
    alphabet = _Alphabet(w1.degree)
    if length_cap is None:
        length_cap = max(len(w1), len(w2)) + 4
    start, goal = alphabet.encode(_pairs(w1)), alphabet.encode(_pairs(w2))
    if start == goal:
        return "equal"
    seen, other_seen = {start}, {goal}
    frontier, other_frontier = deque([start]), deque([goal])
    for _ in range(node_budget):
        if len(other_frontier) < len(frontier):
            seen, other_seen = other_seen, seen
            frontier, other_frontier = other_frontier, frontier
        if not frontier:
            return "unknown"
        # The new words in first-seen order, each marked seen as it is kept
        # (set.add returns None); the order makes every run expand alike.
        add = seen.add
        rewrites = _rewrites(alphabet, frontier.popleft(), length_cap)
        found = [nb for nb in rewrites if nb not in seen and not add(nb)]
        if not other_seen.isdisjoint(found):
            return "equal"
        frontier.extend(found)
    return "unknown"


def relation_instances(n: int) -> Iterator[tuple[str, Word, Word]]:
    """Yield (family, lhs, rhs) for every valid relation instance at degree n."""
    gens = all_generators(n)
    for g in gens:
        yield "involution", Word(n, (g, g)), Word(n)
    family = {"commute": "commute", "left-to-right": "nesting"}
    for a in gens:
        for b in gens:
            for move, replacement in _moves((a.p, a.q), (b.p, b.q)):
                if move in family:
                    yield family[move], Word(n, (a, b)), Word.from_pairs(n, replacement)
