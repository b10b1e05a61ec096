"""Permutations of {1..n} and the projection from words onto them.

Composition is leftmost-first throughout: in a product the left factor acts
on positions before the right factor does.

``project`` builds no ``Permutation`` per letter.  It keeps the preimage
array of the running product (the label at each position); a letter acts
after the product so far, on positions, so it reverses one block of that
array: one swap for a block of two or three positions, a slice assignment
for a longer one.  The array is inverted once at the end.
"""

from __future__ import annotations

from .words import DegreeMismatchError, Word, _setters, _Value


class Permutation(_Value):
    """One-line notation: images[i - 1] is the image of i."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        images = tuple(images)
        n = len(images)
        ints = all(type(v) is int for v in images)
        if not ints or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        _set_images(self, images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: Permutation) -> Permutation:
        """This permutation followed by ``other``."""
        if self.n != other.n:
            raise DegreeMismatchError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> Permutation:
        out = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            out[v - 1] = i
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"


(_set_images,) = _setters(Permutation)


def interval_reversal(p: int, q: int, n: int) -> Permutation:
    """The permutation i -> p + q - i on [p, q], identity elsewhere."""
    if not 1 <= p < q <= n:
        raise ValueError(f"need 1 <= p < q <= n, got p={p}, q={q}, n={n}")
    images = [p + q - i if p <= i <= q else i for i in range(1, n + 1)]
    return Permutation(tuple(images))


def project(w: Word) -> Permutation:
    """Image of a word under the projection onto permutations.

    ``pos[j]`` is the label that the product so far sends to position j
    (``pos[0]`` stays 0, a stop for the slice read when p == 1).  Following
    that product by s_{p,q} sends the label at position j to position
    p + q - j, which reverses ``pos[p:q + 1]``: one swap of ``pos[p]`` and
    ``pos[q]`` when q - p <= 2 (every letter at degree 3), a slice assignment
    otherwise.  The fold is therefore
    ``Permutation.identity(n).then(interval_reversal(p, q, n))...`` over the
    letters, with one ``Permutation`` per call.
    """
    pos = list(range(w.degree + 1))
    for g in w.letters:
        p = g.p
        q = g.q
        if q - p <= 2:
            pos[p], pos[q] = pos[q], pos[p]
        else:
            pos[p : q + 1] = pos[q : p - 1 : -1]
    images = [0] * (w.degree + 1)
    for j, label in enumerate(pos):
        images[label] = j
    return Permutation(tuple(images[1:]))


def is_pure(w: Word) -> bool:
    """Whether the word projects to the identity permutation."""
    return project(w).is_identity()
