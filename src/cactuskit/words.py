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
and a breadth-first search oracle over those moves.  The search answers only
"equal" or "unknown": it never claims two words are distinct.  Exact equality
is available at degree 3 through the canonical form in ``degree3``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Literal


class InvalidGeneratorError(ValueError):
    """Index pair outside 1 <= p < q <= n."""


class DegreeMismatchError(ValueError):
    """Operands built over different degrees were combined."""


class MoveNotApplicableError(ValueError):
    """A rewriting move's pattern does not match at the given position."""


class WordParseError(ValueError):
    """Malformed word text; the message names the offending token."""


@dataclass(frozen=True, order=True)
class Generator:
    """The interval reverser s_{p,q} at degree n."""

    p: int
    q: int
    n: int

    def __post_init__(self) -> None:
        ints = type(self.p) is type(self.q) is type(self.n) is int
        if not (ints and 1 <= self.p < self.q <= self.n):
            raise InvalidGeneratorError(
                f"s{self.p},{self.q} is not a generator at degree {self.n}"
            )

    def __str__(self) -> str:
        return f"s{self.p},{self.q}"

    def disjoint_from(self, other: Generator) -> bool:
        return self.q < other.p or other.q < self.p

    def strictly_contains(self, other: Generator) -> bool:
        if (self.p, self.q) == (other.p, other.q):
            # Equal intervals make the nesting relation vacuous; not a move.
            return False
        return self.p <= other.p and other.q <= self.q

    def reflected_through(self, outer: Generator) -> Generator:
        """Image of this generator under reflection of [outer.p, outer.q]."""
        s = outer.p + outer.q
        return Generator(s - self.q, s - self.p, self.n)


def all_generators(n: int) -> list[Generator]:
    return [Generator(p, q, n) for p in range(1, n) for q in range(p + 1, n + 1)]


@dataclass(frozen=True)
class Word:
    """A finite product of generators; the empty word is the identity."""

    degree: int
    letters: tuple[Generator, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
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


@dataclass(frozen=True)
class PresentationSpec:
    """Degree n together with the admitted interval lengths.

    ``subset`` may be given as the string "full" (all lengths 2..n) or any
    iterable of lengths within [2, n].  A generator s_{p,q} belongs to the
    presentation when q - p + 1 is an admitted length.
    """

    degree: int
    subset: frozenset[int] = "full"  # type: ignore[assignment]

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
        object.__setattr__(self, "subset", subset)

    def generators(self) -> list[Generator]:
        return [g for g in all_generators(self.degree) if g.q - g.p + 1 in self.subset]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent equal letters until none remain."""
    out: list[Generator] = []
    for g in w.letters:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return Word(w.degree, tuple(out))


def _adjacent_pair(w: Word, i: int) -> tuple[Generator, Generator]:
    if not 0 <= i <= len(w.letters) - 2:
        raise MoveNotApplicableError(f"no adjacent pair at position {i}")
    return w.letters[i], w.letters[i + 1]


def _replace_pair(w: Word, i: int, pair: tuple[Generator, Generator]) -> Word:
    return Word(w.degree, w.letters[:i] + pair + w.letters[i + 2 :])


def apply_commute(w: Word, i: int) -> Word:
    """Swap the letters at positions i, i+1 when their intervals are disjoint."""
    a, b = _adjacent_pair(w, i)
    if not a.disjoint_from(b):
        raise MoveNotApplicableError(f"{a} and {b} do not commute: intervals overlap")
    return _replace_pair(w, i, (b, a))


Direction = Literal["left-to-right", "right-to-left"]


def apply_nesting(w: Word, i: int, direction: Direction) -> Word:
    """Apply the nesting relation at positions i, i+1.

    left-to-right expects (outer, inner) and yields (reflected inner, outer);
    right-to-left is its inverse and expects (inner', outer).
    """
    a, b = _adjacent_pair(w, i)
    if direction == "left-to-right":
        if not a.strictly_contains(b):
            raise MoveNotApplicableError(f"interval of {b} is not strictly inside {a}")
        return _replace_pair(w, i, (b.reflected_through(a), a))
    if direction == "right-to-left":
        if not b.strictly_contains(a):
            raise MoveNotApplicableError(f"interval of {a} is not strictly inside {b}")
        return _replace_pair(w, i, (b, a.reflected_through(b)))
    raise ValueError(f"unknown direction {direction!r}")


def neighbors(w: Word, max_length: int) -> set[Word]:
    """All words one relation move away from w.

    Pair insertions are included only while the result stays within
    ``max_length``; every other move can only shrink or rearrange.
    """
    found: set[Word] = set()
    letters = w.letters
    n_letters = len(letters)
    for i in range(n_letters - 1):
        if letters[i] == letters[i + 1]:
            found.add(Word(w.degree, letters[:i] + letters[i + 2 :]))
    if n_letters + 2 <= max_length:
        for g in all_generators(w.degree):
            pair = (g, g)
            for i in range(n_letters + 1):
                found.add(Word(w.degree, letters[:i] + pair + letters[i:]))
    for i in range(n_letters - 1):
        a, b = letters[i], letters[i + 1]
        if a.disjoint_from(b):
            found.add(_replace_pair(w, i, (b, a)))
        elif a.strictly_contains(b):
            found.add(_replace_pair(w, i, (b.reflected_through(a), a)))
        elif b.strictly_contains(a):
            found.add(_replace_pair(w, i, (b, a.reflected_through(b))))
    return found


def equal_by_search(
    w1: Word,
    w2: Word,
    length_cap: int | None = None,
    node_budget: int = 20_000,
) -> Literal["equal", "unknown"]:
    """Breadth-first equality oracle over the single-step moves.

    Returns "equal" only when a rewrite path from w1 to w2 is found within
    the word-length cap and the node budget; otherwise "unknown".
    """
    if w1.degree != w2.degree:
        raise DegreeMismatchError("cannot compare words of different degrees")
    if length_cap is None:
        length_cap = max(len(w1), len(w2)) + 4
    if w1 == w2:
        return "equal"
    seen = {w1}
    frontier = deque([w1])
    expanded = 0
    while frontier and expanded < node_budget:
        expanded += 1
        for nb in neighbors(frontier.popleft(), length_cap):
            if nb == w2:
                return "equal"
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return "unknown"


def relation_instances(n: int) -> Iterator[tuple[str, Word, Word]]:
    """Yield (family, lhs, rhs) for every valid relation instance at degree n."""
    gens = all_generators(n)
    for g in gens:
        yield "involution", Word(n, (g, g)), Word(n)
    for a in gens:
        for b in gens:
            if a.disjoint_from(b):
                yield "commute", Word(n, (a, b)), Word(n, (b, a))
            elif a.strictly_contains(b):
                yield "nesting", Word(n, (a, b)), Word(n, (b.reflected_through(a), a))
