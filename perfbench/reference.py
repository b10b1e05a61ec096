"""Reference answers computed without the code paths the benchmark times.

Words are plain lists of ``(p, q)`` pairs here.  Nothing in this module
imports ``cactuskit``: each answer comes from a separate, simpler model, so
a wrong result in the package cannot hide behind the same mistake here.
"""

from __future__ import annotations

from itertools import permutations

Pairs = list[tuple[int, int]]

# The affine model of the degree-3 generators: x -> sign*x + shift.
_AFFINE = {(1, 2): (-1, 0), (1, 3): (-1, 1), (2, 3): (-1, 2)}


def generators(n: int) -> Pairs:
    return [(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]


def project(pairs: Pairs, n: int) -> tuple[int, ...]:
    """One-line image of the word, leftmost letter acting first.

    Reversing slices of a position array composes on the right, so the
    letters are applied last to first to get the leftmost-first product.
    """
    pos = list(range(1, n + 1))
    for p, q in reversed(pairs):
        pos[p - 1 : q] = pos[p - 1 : q][::-1]
    return tuple(pos)


def is_pure(pairs: Pairs, n: int) -> bool:
    return project(pairs, n) == tuple(range(1, n + 1))


def free_reduce(pairs: Pairs) -> Pairs:
    out: Pairs = []
    for g in pairs:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return out


def affine(pairs: Pairs) -> tuple[int, int]:
    """(sign, shift) of a degree-3 word in the affine model."""
    sign, shift = 1, 0
    for g in pairs:
        s, t = _AFFINE[g]
        sign, shift = sign * s, s * shift + t
    return sign, shift


def canonical(pairs: Pairs) -> tuple[int, int]:
    """(m, eps) of a degree-3 word, read off its affine image.

    The alternating part with index m maps to (1, m) for even m and to
    (-1, 1 - m) for odd m; a trailing s1,3 composes with x -> 1 - x.
    Solving for (m, eps) gives the two branches below.
    """
    sign, shift = affine(pairs)
    if sign == 1:
        return shift, shift % 2
    m = 1 - shift
    return m, 1 - m % 2


def chamber_orders(n: int) -> list[tuple[int, ...]]:
    """Lex-min dihedral representatives: 1 first, second label below the last."""
    return sorted((1, *rest) for rest in permutations(range(2, n + 1)) if rest[0] < rest[-1])


def chamber_name(order: tuple[int, ...]) -> str:
    n = len(order)
    i = order.index(n)
    rest = (order[i:] + order[:i])[1:]
    return min("".join(map(str, rest)), "".join(map(str, reversed(rest))))


def _dihedral(order: tuple[int, ...]) -> set[tuple[int, ...]]:
    out = set()
    for s in (order, order[::-1]):
        out.update(s[i:] + s[:i] for i in range(len(s)))
    return out


def chambers_adjacent(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """One swap of cyclically neighbouring labels turns a into b."""
    if a == b:
        return False
    images = _dihedral(b)
    n = len(a)
    for i in range(n):
        j = (i + 1) % n
        s = list(a)
        s[i], s[j] = s[j], s[i]
        if tuple(s) in images:
            return True
    return False


def window_counts(group: str, radius: int) -> tuple[int, int]:
    """(vertices, edges) of a Cayley window of radius >= 1.

    J3_2 is the infinite dihedral group, whose Cayley graph is a line:
    a ball of radius r is a path on 2r + 1 vertices.  J3 adds the 2r - 1
    elements with a trailing s1,3; its ball has 4r vertices and 6r - 3
    edges.
    """
    if group == "J3_2":
        return 2 * radius + 1, 2 * radius
    return 4 * radius, 6 * radius - 3


def oracle_cases(max_len: int) -> int:
    """Words of length <= max_len over 3 letters, plus the 5 degree-3 relators."""
    return (3 ** (max_len + 1) - 1) // 2 + 5


def equivariance_failures(js: range, ks: range) -> int:
    """The perturbed cover map breaks exactly the [213] cases with odd j."""
    return sum(j % 2 for j in js) * len(ks)
