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
and an equality oracle over those moves; the relation patterns live in one
move table over ``(p, q)`` pairs.  The oracle reduces w1 w2^-1: it pushes
every ``s1,n`` to the right end, reflecting the letters it passes, and
shuffles each other letter leftwards by commutes and nestings until it
cancels or meets an overlapping letter.  Its node budget counts those swap
moves, at any degree.  It answers only "equal" or "unknown": it never claims
two words are distinct.  Exact equality is available at degree 3 through the
canonical form in ``degree3``.
"""

from __future__ import annotations

import re
from functools import total_ordering
from itertools import chain
from typing import Iterable, Iterator, Literal


def _setters(cls: type) -> tuple:
    """The ``__set__`` of each slot named in ``cls.__slots__``, in that order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class _Value:
    """Base of the package's immutable values.

    A subclass's ``__init__`` checks its arguments as locals, then stores them
    in its slots, sequences as tuples.  ``__setattr__`` and ``__delattr__``
    raise, so the stores go through each slot descriptor's own ``__set__``,
    bound once per class by ``_setters`` after the class body.  A bound
    ``__set__`` stores straight into the slot, where the generic attribute
    store of ``object`` would first look the descriptor up by name, about a
    quarter of the cost of building a two-field value.

    A value equals and hashes as the values of its class with equal fields
    (``_Ordered`` ones also order by them), and copies through ``__init__``.
    Two classes write ``__eq__`` and ``__hash__`` out, because a workload
    calls them per case: ``CanonicalForm`` (the sweeps' comparisons, so it
    writes ``__ne__`` out too) and ``AffineMap``; the oracle's dicts hash
    both, as (form, map) pairs."""

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
        if not (type(p) is type(q) is type(n) is int and 1 <= p < q <= n):
            raise InvalidGeneratorError(f"s{p},{q} is not a generator at degree {n}")
        _set_p(self, p)
        _set_q(self, q)
        _set_n(self, n)

    def __str__(self) -> str:
        return f"s{self.p},{self.q}"


_set_p, _set_q, _set_n = _setters(Generator)


def all_generators(n: int) -> list[Generator]:
    return [Generator(p, q, n) for p in range(1, n) for q in range(p + 1, n + 1)]


class Word(_Value):
    """A finite product of generators; the empty word is the identity."""

    __slots__ = _fields = ("degree", "letters")

    def __init__(self, degree: int, letters: Iterable[Generator] = ()) -> None:
        letters = tuple(letters)
        if type(degree) is not int or degree < 2:
            raise ValueError(f"degree must be an int of at least 2, got {degree!r}")
        # A letter without an ``n`` is not a Generator.  Only ``n`` is read,
        # as a type test per letter would slow long words down, so an object
        # with ``p``, ``q`` and ``n`` passes.
        try:
            for g in letters:
                if g.n != degree:
                    raise DegreeMismatchError(
                        f"letter {g} has degree {g.n} in a word of degree {degree}"
                    )
        except AttributeError:
            raise ValueError(f"letter {g!r} is not a Generator") from None
        _set_word_degree(self, degree)
        _set_letters(self, letters)

    @classmethod
    def from_pairs(cls, degree: int, pairs: Iterable[tuple[int, int]]) -> Word:
        return cls(degree, tuple(Generator(p, q, degree) for p, q in pairs))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.letters)


_set_word_degree, _set_letters = _setters(Word)


_TOKEN = re.compile(r"s(\d+),(\d+)\Z", re.ASCII)


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


def free_reduce(w: Word) -> Word:
    """Cancel adjacent equal letters until none remain."""
    out: list[Generator] = []
    top = None  # out[-1], or None while out is empty
    for g in w.letters:
        if g is top or top is not None and top.p == g.p and top.q == g.q:
            out.pop()
            top = out[-1] if out else None
        else:
            out.append(g)
            top = g
    return Word(w.degree, tuple(out))


def _moves(a: tuple[int, int], b: tuple[int, int]) -> tuple[str, tuple]:
    """The move table: the move (``cancel``, ``commute``, ``left-to-right`` or
    ``right-to-left`` nesting) that rewrites the adjacent letters a b, given as
    (p, q) pairs, with its replacement, or ``("overlap", ())`` where none does."""
    (p, q), (m, r) = a, b
    if a == b:
        return "cancel", ()
    if q < m or r < p:
        return "commute", (b, a)
    if p <= m and r <= q:
        return "left-to-right", ((p + q - r, p + q - m), a)
    if m <= p and q <= r:
        return "right-to-left", (b, (m + r - q, m + r - p))
    return "overlap", ()


def _pairs(letters: Iterable[Generator]) -> tuple[tuple[int, int], ...]:
    return tuple((g.p, g.q) for g in letters)


def _reduce(
    letters: Iterable[tuple[int, int]], n: int, budget: int
) -> tuple[list[tuple[int, int]], bool] | None:
    """Rewrite a degree-n word, given as (p, q) pairs, as ``stack`` times
    ``s1,n`` to the power ``odd``, by ``_moves`` alone.

    Each ``s1,n`` toggles the parity, and the letters after an odd count are
    reflected through it (s1,n x = x' s1,n).  Every other letter then shuffles
    leftwards through the stack by the swap ``_moves`` gives for each adjacent
    pair (a commute, or a nesting either way) until it cancels with an equal
    letter or stops at an overlapping one.  Returns None instead of making
    swap number ``budget + 1``.
    """
    top = (1, n)
    stack: list[tuple[int, int]] = []
    odd = False
    swaps = 0
    for x in letters:
        if x == top:
            odd = not odd
            continue
        if odd:
            x = _moves(top, x)[1][0]
        i = len(stack)
        while i:
            move, swapped = _moves(stack[i - 1], x)
            if move == "cancel":
                del stack[i - 1]
                break
            if move == "overlap":
                stack.insert(i, x)
                break
            if swaps >= budget:
                return None
            swaps += 1
            i -= 1
            x, stack[i] = swapped
        else:
            stack.insert(0, x)
    return stack, odd


def _rewrite(w: Word, i: int, move: str, mismatch: str | None) -> Word:
    """Apply the named move at i, i+1; a None ``mismatch`` is an unknown direction."""
    if not 0 <= i <= len(w.letters) - 2:
        raise MoveNotApplicableError(f"no adjacent pair at position {i}")
    if mismatch is None:
        raise ValueError(f"unknown direction {move!r}")
    letters = _pairs(w)
    name, replacement = _moves(letters[i], letters[i + 1])
    if name != move:
        raise MoveNotApplicableError(mismatch.format(a=w.letters[i], b=w.letters[i + 1]))
    return Word.from_pairs(w.degree, letters[:i] + replacement + letters[i + 2 :])


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
    letters = _pairs(w)
    moves = [_moves(a, b) for a, b in zip(letters, letters[1:])]
    found = {
        letters[:i] + replacement + letters[i + 2 :]
        for i, (move, replacement) in enumerate(moves)
        if move != "overlap"
    }
    if len(letters) + 2 <= max_length:
        squares = [(g, g) for g in _pairs(all_generators(w.degree))]
        cuts = [(letters[:i], letters[i:]) for i in range(len(letters) + 1)]
        found.update(head + square + tail for square in squares for head, tail in cuts)
    return {Word.from_pairs(w.degree, pairs) for pairs in found}


def equal_by_search(
    w1: Word,
    w2: Word,
    length_cap: int | None = None,
    node_budget: int = 20_000,
) -> Literal["equal", "unknown"]:
    """Equality oracle over the single-step moves, by reducing w1 w2^-1.

    Every generator is an involution, so w2^-1 is w2 reversed.  ``_reduce``
    rewrites w1 followed by w2 reversed through relation moves; the words are
    equal when they are identical, or when nothing is left and the ``s1,n``
    count is even.  Returns "unknown" otherwise, and once the reduction would
    make more than ``node_budget`` swap moves.  ``length_cap`` is checked but
    does not change the answer, because the reduction never lengthens a word;
    it stays for callers that pass it.
    """
    if w1.degree != w2.degree:
        raise DegreeMismatchError("cannot compare words of different degrees")
    if length_cap is not None and type(length_cap) is not int:
        raise ValueError(f"length_cap must be None or an int, got {length_cap!r}")
    if type(node_budget) is not int:
        raise ValueError(f"node_budget must be an int, got {node_budget!r}")
    start, goal = _pairs(w1), _pairs(w2)
    if start == goal:
        return "equal"
    reduced = _reduce(chain(start, reversed(goal)), w1.degree, node_budget)
    return "equal" if reduced == ([], False) else "unknown"


def relation_instances(n: int) -> Iterator[tuple[str, Word, Word]]:
    """Yield (family, lhs, rhs) for every valid relation instance at degree n."""
    gens = all_generators(n)
    for g in gens:
        yield "involution", Word(n, (g, g)), Word(n)
    family = {"commute": "commute", "left-to-right": "nesting"}
    for a in gens:
        for b in gens:
            move, replacement = _moves((a.p, a.q), (b.p, b.q))
            if move in family:
                yield family[move], Word(n, (a, b)), Word.from_pairs(n, replacement)
