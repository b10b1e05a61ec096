"""Exact arithmetic for the degree-3 group in canonical coordinates.

Every degree-3 element is an alternating word over {s12, s23} followed by at
most one s13.  We store it as a pair (m, eps):

* m is the signed alternating index: |m| is the length of the {s12, s23}
  part, with m > 0 when it starts with s12 and m < 0 when it starts with
  s23 (m = 0 for the empty part);
* eps in {0, 1} marks a single trailing s13.

Distinct pairs are distinct group elements, and the word length of the
element is |m| + eps.  The subgroup generated by s12 and s23 alone is
exactly {(m, 0)}.

Pushing an s13 leftward past the alternating part swaps s12 and s23
(s13 s12 = s23 s13 and s13 s23 = s12 s13), which is what makes the
single-trailing-s13 form reachable from any word.

Alternating parts compose by one parity rule: index m1 followed by index m2
has index m1 - m2 when m1 is odd and m1 + m2 when m1 is even.  An odd part
is a reflection, so it reverses the part that follows it (s12 and s23 swap
roles, which negates m2); an even part is a translation and leaves it as it
is.  Folded over a word's letters, the rule has a closed form, which
``canonicalize`` computes: m is the alternating sum over letter positions i,
counting every letter, of (-1)^i times +1 for s12 and -1 for s23; each s13
adds 0 and flips eps.  ``test_canonicalize_equals_the_fold_of_letter_forms``
pins that the two agree.

An independent cross-check lives in ``AffineMap``: the degree-3 group is
faithfully modeled by integer maps x -> sign*x + shift with s12: x -> -x,
s13: x -> 1 - x, s23: x -> 2 - x.  The model is derived separately from the
coordinate arithmetic so the two can audit each other.  Every generator's
sign is -1, so ``evaluate_word`` folds a word in closed form: an alternating
sum of the shifts, which it reads only from the generator table.
"""

from __future__ import annotations

from .words import DegreeMismatchError, Generator, Word, _Ordered, _setters, _Value


class CanonicalForm(_Ordered):
    """Coordinates (m, eps) of a degree-3 element."""

    __slots__ = _fields = ("m", "eps")

    def __init__(self, m: int, eps: int = 0) -> None:
        if type(m) is not int:
            raise ValueError(f"m must be an int, got {m!r}")
        if type(eps) is not int or eps not in (0, 1):
            raise ValueError(f"eps must be 0 or 1, got {eps!r}")
        _set_m(self, m)
        _set_eps(self, eps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self.eps == other.eps

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m != other.m or self.eps != other.eps

    def __hash__(self) -> int:
        return hash((self.m, self.eps))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.eps) < (other.m, other.eps)

    def __str__(self) -> str:
        return f"(m={self.m}, eps={self.eps})"

    def word_length(self) -> int:
        return abs(self.m) + self.eps


_set_m, _set_eps = _setters(CanonicalForm)

IDENTITY = CanonicalForm(0, 0)

_S12 = Generator(1, 2, 3)
_S23 = Generator(2, 3, 3)
_S13 = Generator(1, 3, 3)


def _alt_concat(m1: int, m2: int) -> int:
    """Index of the concatenation of two alternating parts (the parity rule)."""
    return m1 - m2 if m1 % 2 else m1 + m2


def canonicalize(w: Word) -> CanonicalForm:
    """Unique (m, eps) coordinates of a degree-3 word."""
    if w.degree != 3:
        raise DegreeMismatchError(f"canonical form is degree-3 only, got degree {w.degree}")
    # The parity-rule fold in closed form (see the module docstring): 4 - p - q
    # is +1, -1 and 0 for s12, s23 and s13, added at even positions and
    # subtracted at odd ones, and each s13 flips eps.
    m = eps = 0
    for g in w.letters[::2]:
        t = 4 - g.p - g.q
        if t:
            m += t
        else:
            eps ^= 1
    for g in w.letters[1::2]:
        t = 4 - g.p - g.q
        if t:
            m -= t
        else:
            eps ^= 1
    return CanonicalForm(m, eps)


def to_word(c: CanonicalForm) -> Word:
    """The length-(|m| + eps) word encoded by c."""
    first, second = (_S12, _S23) if c.m > 0 else (_S23, _S12)
    letters = (first, second) * (abs(c.m) // 2)
    if c.m % 2:
        letters += (first,)
    if c.eps:
        letters += (_S13,)
    return Word(3, letters)


def mul(c1: CanonicalForm, c2: CanonicalForm) -> CanonicalForm:
    """Product in coordinates; equals canonicalize(to_word(c1) to_word(c2))."""
    # A trailing s13 on c1 conjugates c2's alternating part (s12 <-> s23
    # swap, i.e. index negation) while the s13 itself moves to the tail.
    # The alternating parts then compose by the parity rule: an odd c1.m is a
    # reflection and reverses m2, an even one is a translation and keeps it.
    m2 = -c2.m if c1.eps else c2.m
    return CanonicalForm(_alt_concat(c1.m, m2), c1.eps ^ c2.eps)


def inv(c: CanonicalForm) -> CanonicalForm:
    """Group inverse in coordinates."""
    # Reversing an alternating word fixes odd indices and negates even ones;
    # a trailing s13 additionally conjugates, negating the index again.
    m = c.m if c.m % 2 else -c.m
    if c.eps:
        m = -m
    return CanonicalForm(m, c.eps)


def pure_element(k: int) -> CanonicalForm:
    """Canonical form of the k-th power of (s12 s13)^3."""
    return CanonicalForm(3 * k, k % 2)


class AffineMap(_Value):
    """The integer map x -> sign*x + shift; independent equality oracle."""

    __slots__ = _fields = ("sign", "shift")

    def __init__(self, sign: int, shift: int) -> None:
        if type(sign) is not int or sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {sign!r}")
        if type(shift) is not int:
            raise ValueError(f"shift must be an int, got {shift!r}")
        _set_sign(self, sign)
        _set_shift(self, shift)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sign == other.sign and self.shift == other.shift

    def __hash__(self) -> int:
        return hash((self.sign, self.shift))

    def __call__(self, x: int) -> int:
        return self.sign * x + self.shift

    def then(self, other: AffineMap) -> AffineMap:
        """This map applied first, then ``other``."""
        return AffineMap(self.sign * other.sign, other.sign * self.shift + other.shift)

    def __str__(self) -> str:
        return f"(sign={self.sign:+d}, shift={self.shift})"


_set_sign, _set_shift = _setters(AffineMap)

AFFINE_IDENTITY = AffineMap(1, 0)

# Each generator's image in the affine model as (sign, shift), indexed by
# p + q: 3, 4 and 5 for s12, s13 and s23.
_AFFINE_BY_SUM = (None, None, None, (-1, 0), (-1, 1), (-1, 2))


def affine_model(g: Generator) -> AffineMap:
    """Image of a degree-3 generator in the affine model."""
    if g.n != 3:
        raise DegreeMismatchError(f"affine model is degree-3 only, got degree {g.n}")
    return AffineMap(*_AFFINE_BY_SUM[g.p + g.q])


def evaluate_word(w: Word) -> AffineMap:
    """Image of a degree-3 word in the affine model, leftmost letter first.

    Every sign in ``_AFFINE_BY_SUM``, the (sign, shift) table indexed by a
    letter's p + q, is -1: each generator maps x to c - x.  So the fold of
    ``AffineMap.then`` over letters with shifts c_1, ..., c_L is
    x -> (-1)^L x + c_L - c_{L-1} + ..., with the last c positive.  It reads
    nothing but that table and builds one ``AffineMap``, so it stays
    independent of the (m, eps) arithmetic it audits.
    """
    if w.degree != 3:
        raise DegreeMismatchError(f"affine model is degree-3 only, got degree {w.degree}")
    letters = w.letters
    odd = len(letters) % 2
    shift = 0
    for g in letters[1 - odd :: 2]:
        shift += _AFFINE_BY_SUM[g.p + g.q][1]
    for g in letters[odd::2]:
        shift -= _AFFINE_BY_SUM[g.p + g.q][1]
    return AffineMap(-1 if odd else 1, shift)
