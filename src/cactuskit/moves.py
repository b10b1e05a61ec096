"""Rewriting moves on words and an equality oracle over them.

A generator ``s_{p,q}`` reverses the index interval [p, q].  Three relation
families hold:

* involution:  s_{p,q} s_{p,q} = 1,
* commutation: s_{p,q} s_{m,r} = s_{m,r} s_{p,q}  when [p,q] and [m,r] are
  disjoint,
* nesting:     s_{p,q} s_{m,r} = s_{p+q-r,p+q-m} s_{p,q}  when [m,r] is
  strictly nested in [p,q] (the big interval reflects the small one while
  passing it).

This module holds single-step moves for each relation and an equality
oracle over those moves; the relation patterns live in one move table over
``(p, q)`` pairs.  The oracle reduces w1 w2^-1: it pushes every ``s1,n`` to
the right end, reflecting the letters it passes, and shuffles each other
letter leftwards by commutes and nestings until it cancels or meets an
overlapping letter.  Its node budget counts those swap moves, at any degree.
It answers only "equal" or "unknown": it never claims two words are
distinct.  Exact equality is available at degree 3 through the canonical
form in ``degree3``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Literal

from .words import DegreeMismatchError, Generator, MoveNotApplicableError, Word, all_generators


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
