"""Free words over interval-reversing generators: the values and their text form.

A generator ``s_{p,q}`` (written ``s<p>,<q>`` in text, with 1 <= p < q <= n)
reverses the index interval [p, q]; a word is a finite product of them at one
degree n.  ``parse_word`` reads whitespace-separated tokens, each ``s``, ASCII
decimal digits, a comma and ASCII decimal digits.  This module also holds the
immutable value base that every module's values build on, the package's word
errors and free reduction.  The relations between generators, the moves that
apply them and the equality oracle over those moves are in ``moves``.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import total_ordering


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


def parse_word(text: str, degree: int = 3) -> Word:
    """Parse whitespace-separated ``s<p>,<q>`` tokens; '' is the identity."""
    # Each distinct token is checked once per call.
    interned: dict[str, Generator] = {}
    letters = []
    for i, token in enumerate(text.split()):
        g = interned.get(token)
        if g is None:
            p, _, q = token[1:].partition(",")
            if not (token[:1] == "s" and token.isascii() and p.isdigit() and q.isdigit()):
                raise WordParseError(f"token {i}: {token!r} is not of the form s<p>,<q>")
            try:
                g = Generator(int(p), int(q), degree)
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
