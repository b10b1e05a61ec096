"""Chambers of labeled points on a circle, the dual complex for 4 points,
and the line that covers it.

A chamber is a cyclic arrangement of the labels 1..n up to rotation and
reflection.  Two chambers are adjacent when one arises from the other by
swapping two cyclically neighboring labels (a single collision wall).  This
swap adjacency finds every wall of the chamber tiling, n(n-3)/2 per chamber,
only for 4 and 5 labels.  A wall may reverse any block of 2 to n-2
neighboring labels, so from n = 6 on swaps find only n of the walls: 6 of 9
at n = 6, 7 of 14 at n = 7.  For n = 4 there are three chambers and the
dual complex is a 3-cycle; its universal cover is a line whose vertices carry
a chamber name and a winding index k.

Chamber representatives start at label 1 and read towards its smaller
neighbour; this is the lexicographically least rotation or reflection.
Chamber names: anchor the largest label, read the remaining labels around
the circle in both directions, and keep the lexicographically smaller
string.  For n = 4 this yields the names 213, 123, 132.
"""

from __future__ import annotations

from itertools import permutations

from .words import DegreeMismatchError, _Ordered, _setters, _Value


class Chamber(_Ordered):
    """Canonical representative of a cyclic arrangement of 1..n."""

    __slots__ = _fields = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        order = tuple(order)
        _check_arrangement(order)
        if order[0] != 1 or order[1] > order[-1]:
            raise ValueError(f"{order} is not a canonical chamber representative")
        _set_order(self, order)

    @property
    def degree(self) -> int:
        return len(self.order)

    @property
    def name(self) -> str:
        rest = _rotate_to_front(self.order, self.degree)[1:]
        forward = "".join(str(x) for x in rest)
        backward = "".join(str(x) for x in reversed(rest))
        return min(forward, backward)

    def __str__(self) -> str:
        return f"[{self.name}]"


(_set_order,) = _setters(Chamber)


def _rotate_to_front(seq: tuple[int, ...], anchor: int) -> tuple[int, ...]:
    i = seq.index(anchor)
    return seq[i:] + seq[:i]


def _check_arrangement(seq: tuple[int, ...]) -> None:
    n = len(seq)
    if n < 3:
        raise ValueError(f"need at least 3 labels, got {n}")
    if any(type(x) is not int for x in seq) or set(seq) != set(range(1, n + 1)):
        raise ValueError(f"{seq} is not an arrangement of 1..{n}")


def _canonical_order(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Lex-min rotation or reflection of an arrangement already checked."""
    seq = _rotate_to_front(seq, 1)
    if seq[1] > seq[-1]:
        seq = (1, *reversed(seq[1:]))
    return seq


def canonical_chamber(seq) -> Chamber:
    """Chamber of a label sequence; representative is the lex-min dihedral image."""
    seq = tuple(seq)
    _check_arrangement(seq)
    return Chamber(_canonical_order(seq))


def enumerate_chambers(n: int) -> tuple[Chamber, ...]:
    """All chambers for n labels, sorted; there are (n-1)!/2 of them."""
    if type(n) is not int:
        raise ValueError(f"number of labels must be an int, got {n!r}")
    if n < 3:
        raise ValueError(f"need at least 3 labels, got {n}")
    return tuple(
        Chamber((1, *rest)) for rest in permutations(range(2, n + 1)) if rest[0] < rest[-1]
    )


def chamber_adjacent(c1: Chamber, c2: Chamber) -> bool:
    """Whether one chamber turns into the other by one adjacent-label swap.

    These are all the walls for 4 and 5 labels; from 6 labels on, the walls
    that reverse a block of 3 to n-3 labels are not counted.
    """
    if c1.degree != c2.degree:
        raise DegreeMismatchError("cannot compare chambers of different degrees")
    if c1.order == c2.order:
        return False
    n = c1.degree
    seq = c1.order
    for i in range(n):
        j = (i + 1) % n
        swapped = list(seq)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        # c1 is a valid chamber, so each swap is an arrangement of 1..n.
        if _canonical_order(tuple(swapped)) == c2.order:
            return True
    return False


class DualComplex(_Value):
    """Chambers as vertices, collision walls as edges."""

    __slots__ = _fields = ("vertices", "edges")

    def __init__(
        self, vertices: tuple[Chamber, ...], edges: tuple[tuple[Chamber, Chamber], ...]
    ) -> None:
        _set_vertices(self, tuple(vertices))
        _set_edges(self, tuple(map(tuple, edges)))

    def degree_of(self, c: Chamber) -> int:
        return sum(c in e for e in self.edges)


_set_vertices, _set_edges = _setters(DualComplex)


def build_dual_complex() -> DualComplex:
    """The wall complex for 4 labels: a 3-cycle on its three chambers."""
    chambers = enumerate_chambers(4)
    edges = tuple(
        (a, b)
        for i, a in enumerate(chambers)
        for b in chambers[i + 1 :]
        if chamber_adjacent(a, b)
    )
    return DualComplex(chambers, edges)


COVER_LABELS = ("213", "123", "132")


class CoverVertex(_Value):
    """A chamber name plus the winding index of one lift."""

    __slots__ = _fields = ("label", "k")

    def __init__(self, label: str, k: int) -> None:
        if label not in COVER_LABELS:
            raise ValueError(f"label must be one of {COVER_LABELS}, got {label!r}")
        if type(k) is not int:
            raise ValueError(f"winding index must be an int, got {k!r}")
        _set_label(self, label)
        _set_k(self, k)

    def __str__(self) -> str:
        return f"[{self.label}]_{self.k}"


_set_label, _set_k = _setters(CoverVertex)


class DeckElement(_Value):
    """The j-th power of the deck generator; shifts winding indices by j."""

    __slots__ = _fields = ("j",)

    def __init__(self, j: int) -> None:
        if type(j) is not int:
            raise ValueError(f"deck power must be an int, got {j!r}")
        _set_j(self, j)

    def then(self, other: DeckElement) -> DeckElement:
        return DeckElement(self.j + other.j)


(_set_j,) = _setters(DeckElement)


def cover_window(K: int) -> list[CoverVertex]:
    """Cover vertices for k in [-K, K] in line order: [213]_k, [123]_k, [132]_k."""
    if type(K) is not int:
        raise ValueError(f"window size must be an int, got {K!r}")
    if K < 0:
        raise ValueError(f"window size must be nonnegative, got {K}")
    return [
        CoverVertex(label, k) for k in range(-K, K + 1) for label in COVER_LABELS
    ]


def deck_act(d: DeckElement, v: CoverVertex) -> CoverVertex:
    return CoverVertex(v.label, v.k + d.j)


def covering_map(v: CoverVertex) -> Chamber:
    """Forget the winding index: the chamber named by the label, read after 4."""
    return canonical_chamber((4, *map(int, v.label)))
