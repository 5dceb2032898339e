"""Named families of mapping classes and the generating-set enumerators.

The slide family Y, the twist powers A, the slide squares B, the mixed
family C and the paired-twist family D are the building blocks of the
finite generating sets; ordered transversals over Y (and over the derived
set Z) enumerate coset representatives.  Everything is deterministic:
families are listed in lexicographic index order and transversals follow
binary counting over that order, so streams are reproducible.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from . import homology
from ._frozen import Frozen, set_field
from .finitegrp import ScaleGuardError
from .words import (
    BoundaryTwist,
    MCGWord,
    Slide,
    TorelliTag,
    Twist,
    commutator,
    conjugate,
    word,
)


class FamilyIndexError(ValueError):
    """Indices violate a family's constraints."""


class RealizationError(ValueError):
    """Two realizations of a family element that must agree on homology do
    not, or no sign makes a D word act trivially: an identity of the paper
    failed, not a bad index."""


# the most letters of an explicit long word: the even-d seed word of
# main2_normal_generators (2d letters at level d) and the C words of the tower
# set zset (2^(l-1) letters at level 2^l).  THM31-CLOSURE at d = 2^19 builds
# and evaluates its 2^20 letters in about a second, and a longer word only
# costs more memory
SEED_LETTER_LIMIT = 1 << 20


class NamedFamilyElement(Frozen):
    __slots__ = ("family", "indices", "word")

    def __init__(self, family: str, indices: tuple[int, ...], word: MCGWord) -> None:
        set_field(self, "family", family)
        set_field(self, "indices", indices)
        set_field(self, "word", word)


def _slide_word(g: int, a: int, b: int, exp: int = 1) -> MCGWord:
    return word(g, (Slide(a, b), exp))


def _twist_word(g: int, indices: Sequence[int], exp: int = 1) -> MCGWord:
    return word(g, (Twist(tuple(indices)), exp))


# chosen exponent for the conjugated twist inside D, per (genus, indices);
# resolved once by requiring the full word to act as the identity matrix
_D_SIGN_CACHE: dict[tuple[int, tuple[int, ...]], int] = {}


def _resolve_d_sign(g: int, indices: tuple[int, ...]) -> int:
    key = (g, indices)
    if key in _D_SIGN_CACHE:
        return _D_SIGN_CACHE[key]
    from .homology import word_matrix

    i, j, k, l = indices
    conjugator = _slide_word(g, j, i) * _slide_word(g, k, l).inverse()
    twist = _twist_word(g, indices)
    winners = []
    for sign in (1, -1):
        candidate = twist * conjugate(twist**sign, conjugator)
        if word_matrix(candidate).is_identity():
            winners.append(sign)
    if len(winners) != 1:
        raise RealizationError(
            f"conjugated-twist sign for D{indices} is not determined (candidates {winners})"
        )
    _D_SIGN_CACHE[key] = winners[0]
    return winners[0]


def named_element(family: str, indices: tuple[int, ...], g: int) -> NamedFamilyElement:
    """Build one family element with its realization word.

    ``Y(i,j)`` is the slide itself; ``A(i,j)`` the 4th twist power; ``B(i,j)``
    a slide square; ``C(i,j;k)`` is a slide form, checked on every build to
    act on homology as a twist form does; ``D(i,j,k,l)`` pairs a twist with
    a conjugated twist whose exponent is chosen so the whole word acts
    trivially on homology.
    """
    idx = tuple(int(v) for v in indices)
    if family == "Y":
        i, j = _expect(idx, 2, family)
        if not (1 <= i <= g - 1 and 1 <= j <= g and i != j):
            raise FamilyIndexError(f"Y{idx} out of range for genus {g}")
        return NamedFamilyElement("Y", idx, _slide_word(g, i, j))
    if family == "A":
        i, j = _expect(idx, 2, family)
        _require_increasing(idx[:2], g, family)
        return NamedFamilyElement("A", idx, _twist_word(g, (i, j), 4))
    if family == "B":
        i, j = _expect(idx, 2, family)
        _require_increasing(idx[:2], g, family)
        return NamedFamilyElement("B", idx, _slide_word(g, i, j) ** 2)
    if family == "C":
        i, j, k = _expect(idx, 3, family)
        _require_increasing((i, j), g, family)
        if not 1 <= k <= g or k in (i, j):
            raise FamilyIndexError(f"C{idx}: third index must avoid {{{i},{j}}}")
        t2 = _twist_word(g, (i, j), 2)
        s = _slide_word(g, k, i)
        # the slide form as one word, the twist form as factors
        if i < k < j:
            primary = word(g, Slide(k, j), Slide(k, i), Slide(k, j), Slide(k, i))
            twist_form = ((t2, -1), (s, 1), (t2, 1), (s, -1))
        else:
            primary = word(g, Slide(k, i), Slide(k, j), Slide(k, i), Slide(k, j))
            twist_form = ((t2, 1), (s, -1), (t2, -1), (s, 1))
        if failing([(f"C{idx}", g, ((primary, 1),) + inverse_factors(twist_form))]):
            raise RealizationError(f"C{idx}: slide and twist realizations disagree on homology")
        return NamedFamilyElement("C", idx, primary)
    if family == "D":
        i, j, k, l = _expect(idx, 4, family)
        _require_increasing(idx, g, family)
        sign = _resolve_d_sign(g, idx)
        conjugator = _slide_word(g, j, i) * _slide_word(g, k, l).inverse()
        twist = _twist_word(g, idx)
        return NamedFamilyElement("D", idx, twist * conjugate(twist**sign, conjugator))
    raise FamilyIndexError(f"unknown family {family!r}")


def _expect(idx: tuple[int, ...], count: int, family: str) -> tuple[int, ...]:
    if len(idx) != count:
        raise FamilyIndexError(f"{family} takes {count} indices, got {idx}")
    return idx


def _require_increasing(idx: tuple[int, ...], g: int, family: str) -> None:
    if any(a >= b for a, b in zip(idx, idx[1:])) or idx[0] < 1 or idx[-1] > g:
        raise FamilyIndexError(f"{family}{idx} must be strictly increasing within 1..{g}")


def family_indices(family: str, g: int) -> list[tuple[int, ...]]:
    if g < 3:
        raise FamilyIndexError("families need genus >= 3")
    if family == "Y":
        return [(i, j) for i in range(1, g) for j in range(1, g + 1) if j != i]
    if family in ("A", "B"):
        return [(i, j) for i in range(1, g + 1) for j in range(i + 1, g + 1)]
    if family == "C":
        return [
            (i, j, k)
            for i in range(1, g + 1)
            for j in range(i + 1, g + 1)
            for k in range(1, g + 1)
            if k not in (i, j)
        ]
    if family == "D":
        return [
            (1, j, k, l)
            for j in range(2, g + 1)
            for k in range(j + 1, g + 1)
            for l in range(k + 1, g + 1)
        ]
    raise FamilyIndexError(f"unknown family {family!r}")


def family_elements(family: str, g: int) -> list[NamedFamilyElement]:
    return [named_element(family, idx, g) for idx in family_indices(family, g)]


def generator_alphabet(g: int) -> list[MCGWord]:
    """Every twist (even index set) and every slide, as single-letter words."""
    out = []
    for size in range(2, g + 1, 2):
        for combo in itertools.combinations(range(1, g + 1), size):
            out.append(_twist_word(g, combo))
    for a in range(1, g + 1):
        for b in range(1, g + 1):
            if a != b:
                out.append(_slide_word(g, a, b))
    return out


# ---------------------------------------------------------------------------
# ordered transversals
# ---------------------------------------------------------------------------


def y_count(g: int) -> int:
    return (g - 1) ** 2


def transversal_count(g: int) -> int:
    return 1 << y_count(g)


def subset_word(g: int, mask: int) -> MCGWord:
    """Ordered product of the Y-elements selected by ``mask`` bits: the
    product of ``subset_word(g, 1 << t)`` over the set bits t, in
    increasing t."""
    pairs = family_indices("Y", g)
    if not 0 <= mask < (1 << len(pairs)):
        raise FamilyIndexError(f"mask {mask} out of range")
    letters = []
    for t, (i, j) in enumerate(pairs):
        if mask >> t & 1:
            letters.append((Slide(i, j), 1))
    return MCGWord.from_letters(g, letters)


def transversal_2y(g: int) -> Iterator[MCGWord]:
    """All ordered products of distinct Y-elements, in mask order (empty first)."""
    for mask in range(transversal_count(g)):
        yield subset_word(g, mask)


def zset(g: int, l: int) -> list[MCGWord]:
    """The tower generating set at level 2^l: suitable powers of A and C elements.

    Order: A-block before C-block, each lexicographic by indices (the total
    order is a free choice; this one is fixed so transversals reproduce).
    """
    if l < 3:
        raise FamilyIndexError("the 2^l tower starts at l = 3")
    bases = [named_element("A", (i, g - 1), g).word for i in range(1, g - 1)]
    bases += [
        named_element("C", (j, g, k), g).word
        for j in range(1, g)
        for k in range(1, g)
        if k != j
    ]
    # a power of a word of k letters has at most k * 2^(l - 3) of them, as many
    # for the cyclically reduced C words; capping the shift at the limit's bit
    # length decides the bound without forming the power of two
    longest = max((len(w.letters) for w in bases), default=0)
    if longest << min(l - 3, SEED_LETTER_LIMIT.bit_length()) > SEED_LETTER_LIMIT:
        raise ScaleGuardError(
            f"the tower set at l = {l} raises a {longest}-letter word to the power 2^{l - 3},"
            f" {longest} x 2^{l - 3} letters, over SEED_LETTER_LIMIT = {SEED_LETTER_LIMIT}"
        )
    return [w ** (1 << (l - 3)) for w in bases]


def transversal_2z(g: int, l: int) -> Iterator[MCGWord]:
    """The ordered products of the tower set's subsets, in mask order
    (empty first).  A product whose factors have more than
    SEED_LETTER_LIMIT letters between them is refused before it is formed."""
    elements = zset(g, l)
    sizes = [len(w.letters) for w in elements]
    for mask in range(1 << len(elements)):
        count = sum(n for t, n in enumerate(sizes) if mask >> t & 1)
        if count > SEED_LETTER_LIMIT:
            raise ScaleGuardError(
                f"the tower-set product of mask {mask} would have up to {count} letters,"
                f" over SEED_LETTER_LIMIT = {SEED_LETTER_LIMIT}"
            )
        out = MCGWord.identity(g)
        for t, element in enumerate(elements):
            if mask >> t & 1:
                out = out * element
        yield out


# ---------------------------------------------------------------------------
# normal generators of the level-d group (closed and bounded surfaces)
# ---------------------------------------------------------------------------


class Main2Generator(Frozen):
    __slots__ = ("name", "word", "closed_surface")

    def __init__(self, name: str, word: MCGWord, closed_surface: bool) -> None:
        set_field(self, "name", name)
        set_field(self, "word", word)
        set_field(self, "closed_surface", closed_surface)


def main2_normal_generators(g: int, n: int, d: int) -> list[Main2Generator]:
    """The conditional normal-generator list for the level-d group of N_{g,n}.

    The delta/epsilon/zeta twists stop at boundary n-1: the last boundary's
    twists are redundant.
    """
    if g < 4:
        raise FamilyIndexError("the normal generating set needs genus >= 4")
    if n < 0 or d < 2:
        raise ValueError("need n >= 0 and d >= 2")
    out: list[Main2Generator] = []
    odd = d % 2 == 1

    if odd or n >= 1:
        out.append(Main2Generator("twist(a12)^d", _twist_word(g, (1, 2), d), True))
    if odd and g == 4:
        out.append(Main2Generator("twist(a1234)^d", _twist_word(g, (1, 2, 3, 4), d), True))
    if not odd:
        # t' is the twist about the slide image of a_{1,2}; the product with
        # the inverse twist is the commutator [t_{a12}, Y_{3,2}], a cyclically
        # reduced word of 4 letters, so its (d/2)-th power has 2d letters
        if 2 * d > SEED_LETTER_LIMIT:
            raise ScaleGuardError(
                f"the seed (twist(a12) twist(a12')^-1)^(d/2) would have {2 * d} letters,"
                f" over the limit of {SEED_LETTER_LIMIT}"
            )
        half = commutator(_twist_word(g, (1, 2)), _slide_word(g, 3, 2)) ** (d // 2)
        out.append(Main2Generator("(twist(a12) twist(a12')^-1)^(d/2)", half, True))
    paired = named_element("D", (1, 2, 3, 4), g).word
    out.append(Main2Generator("twist(a1234) twist(a1234')", paired, True))
    out.append(Main2Generator("twist(beta12)", word(g, TorelliTag("beta", (1, 2))), True))
    if g == 4:
        out.append(Main2Generator("twist(gamma)", word(g, TorelliTag("gamma")), True))

    # the boundary twists: none for n <= 1, and zeta twists only from n = 3
    for k in range(1, n):
        delta = word(g, BoundaryTwist("delta", (k,)))
        out.append(Main2Generator(f"twist(delta{k})", delta, False))
        epsilon = word(g, BoundaryTwist("epsilon", (g, k)))
        out.append(Main2Generator(f"twist(eps{g},{k})", epsilon, False))
    for k in range(1, n):
        for l in range(k + 1, n):
            for kind in ("zeta", "zetabar"):
                twist = word(g, BoundaryTwist(kind, (k, l)))
                out.append(Main2Generator(f"twist({kind}{k},{l})", twist, False))
    return out


# ---------------------------------------------------------------------------
# finite generating set of the level-4 group (closed surface)
# ---------------------------------------------------------------------------


def main3_families(g: int) -> list[NamedFamilyElement]:
    _require_main3_genus(g)
    out = []
    for family in ("A", "B", "C", "D"):
        out.extend(family_elements(family, g))
    return out


def _require_main3_genus(g: int) -> None:
    if g < 4:
        raise FamilyIndexError("the level-4 generating set needs genus >= 4")


def main3_count(g: int) -> int:
    _require_main3_genus(g)
    per = sum(len(family_indices(f, g)) for f in ("A", "B", "C", "D"))
    return transversal_count(g) * per


def main3_position(g: int, index: int, per: int) -> tuple[int, int]:
    """The (transversal mask, family index) of stream position ``index``.

    The stream is ordered transversal-major: position ``mask * per + k`` is
    the conjugate of the k-th of the ``per`` family elements by
    ``subset_word(g, mask)``.  A position outside the stream raises
    ``IndexError``.
    """
    total = transversal_count(g) * per
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range 0..{total - 1}")
    return divmod(index, per)


def main3_generator(g: int, index: int) -> MCGWord:
    """Random access into the generator stream: conjugate of a family element
    by a transversal word, ordered transversal-major."""
    fams = main3_families(g)
    mask, fam_idx = main3_position(g, index, len(fams))
    return conjugate(fams[fam_idx].word, subset_word(g, mask))


def main3_generators(g: int) -> Iterator[MCGWord]:
    """The stream of ``main3_generator`` in order.  Each family element is
    built when the mask-0 pass first reaches it and reused for the later
    masks, so the first word comes before the rest are built."""
    _require_main3_genus(g)
    keys = [(family, idx) for family in ("A", "B", "C", "D") for idx in family_indices(family, g)]
    elements: list[MCGWord] = []
    for mask in range(transversal_count(g)):
        y = subset_word(g, mask)
        for pos, (family, idx) in enumerate(keys):
            if not mask:
                elements.append(named_element(family, idx, g).word)
            yield conjugate(elements[pos], y)


# ---------------------------------------------------------------------------
# bounded-surface generating sets
# ---------------------------------------------------------------------------


class GenNSets(Frozen):
    """The boundary generating data for the level-d group of N_{g,n} with
    n >= 1: words in boundary-twist letters (no homology action), with the
    between-boundary conjugating words built from exact twist powers.
    """

    __slots__ = ("g", "n", "d")

    def __init__(self, g: int, n: int, d: int) -> None:
        if g < 1:
            raise ValueError(f"genus g must be >= 1, got {g}")
        # n = 0 is allowed as the degenerate record with empty boundary sets
        if n < 0:
            raise ValueError("boundary count must be >= 0")
        if d < 2:
            raise ValueError("need d >= 2")
        set_field(self, "g", g)
        set_field(self, "n", n)
        set_field(self, "d", d)

    def f_set(self, l: int) -> list[MCGWord]:
        g, d = self.g, self.d
        if not 1 <= l <= self.n:
            raise ValueError(f"boundary index l = {l} out of range 1..{self.n}")
        out = []
        for i in range(1, g):
            out.append(_twist_word(g, (i, g), d))
        for i in range(1, g):
            out.append(word(g, (BoundaryTwist("acurve", (i, l)), d)))
        out.append(word(g, BoundaryTwist("delta", (l,))))
        for j in range(1, g + 1):
            out.append(word(g, BoundaryTwist("epsilon", (j, l))))
        for k in range(1, l):
            out.append(word(g, BoundaryTwist("zeta", (k, l))))
            out.append(word(g, BoundaryTwist("zetabar", (k, l))))
        for i1 in range(1, g):
            for i2 in range(i1 + 1, g):
                out.append(word(g, BoundaryTwist("eta", (i1, i2, l))))
        return out

    def f_count(self, l: int) -> int:
        g = self.g
        return 2 * (g - 1) + 1 + g + 2 * (l - 1) + (g - 1) * (g - 2) // 2

    def g_count(self) -> int:
        return self.d ** (self.g - 1)

    def g_set(self, l: int) -> Iterator[MCGWord]:
        """The d^(g-1) conjugating words for boundary l, in exponent-vector order."""
        g, d = self.g, self.d
        if not 1 <= l <= self.n:
            raise ValueError(f"boundary index l = {l} out of range 1..{self.n}")
        blocks = [
            _twist_word(g, (i, g), -d) * word(g, (BoundaryTwist("acurve", (i, l)), d))
            for i in range(1, g)
        ]
        for exps in itertools.product(range(d), repeat=g - 1):
            out = MCGWord.identity(g)
            for block, m in zip(blocks, exps):
                out = out * block**m
            yield out

    def h_count(self) -> int:
        return sum(self.f_count(l) * self.g_count() for l in range(1, self.n + 1))

    def h_stream(self) -> Iterator[MCGWord]:
        for l in range(1, self.n + 1):
            f_words = self.f_set(l)
            for z in self.g_set(l):
                for y in f_words:
                    yield conjugate(y, z)


# ---------------------------------------------------------------------------
# the relations: the slide-commutator table, the twist squares, the 3-chain
# ---------------------------------------------------------------------------


# a product w_1^s_1 ... w_k^s_k of words, each sign 1 or -1, as the
# (word, sign) pairs ``homology.product_matrix`` and
# ``homology.acts_trivially`` read without forming it
Factors = tuple[tuple[MCGWord, int], ...]
# a claim that a product of factors at a genus acts as I, under the name a
# failing check reports
Relation = tuple[Hashable, int, Factors]


def _conj(a: Factors, x: MCGWord) -> Factors:
    """x a x^-1 (apply the conjugator last), left unexpanded."""
    return ((x, 1),) + a + ((x, -1),)


def inverse_factors(a: Factors) -> Factors:
    """a^-1: the factors reversed, each with its sign negated."""
    return tuple((w, -s) for w, s in reversed(a))


def failing(relations: Iterable[Relation]) -> list:
    """The names of the ``(name, genus, factors)`` relations whose product
    does not act as I on H_1, in order, each decided as it is drawn.  This
    is the one place a relation is decided."""
    return [name for name, g, factors in relations if not homology.acts_trivially(g, factors)]


def slide_commutator_relations(gmax: int) -> Iterator[Relation]:
    """The slide-commutator table at each genus 4..gmax as relations, one
    for each pair x1 < x2 of Y indices, in Y order, named ``(g, x1, x2)``:
    [Y_{x1}, Y_{x2}]^-1 = Y_{x2} Y_{x1} Y_{x2}^-1 Y_{x1}^-1 as its four
    factors, then the row's decomposition of the commutator as a product
    of conjugated A/B/C elements, with every conjugate left unexpanded.
    The product is trivial exactly when the row equals the commutator.  A
    row whose slides commute is empty, so its relation is the four
    commutator factors alone.

    Each A, B and C element is built by :func:`named_element` and each slide
    word by ``word`` at most once per genus, and looked up after; no row
    forms a word product or inverse.
    """
    for g in range(4, gmax + 1):

        @functools.cache
        def element(family: str, *indices: int) -> MCGWord:
            return named_element(family, indices, g).word

        @functools.cache
        def slide(a: int, b: int) -> MCGWord:
            return _slide_word(g, a, b)

        ys = family_indices("Y", g)
        for pos, x1 in enumerate(ys):
            for x2 in ys[pos + 1 :]:
                y1, y2 = slide(*x1), slide(*x2)
                row = _commutator_factors(x1, x2, element, slide)
                yield (g, x1, x2), g, ((y2, 1), (y1, 1), (y2, -1), (y1, -1)) + row


def _commutator_factors(
    x1_idx: tuple[int, int],
    x2_idx: tuple[int, int],
    element: Callable[..., MCGWord],
    slide: Callable[[int, int], MCGWord],
) -> Factors:
    """The row of ``slide_commutator_relations`` for x1 < x2, with the A, B
    and C element words ``element(family, *indices)`` and the slide words
    ``slide(a, b)``.

    The bracketed conjugator in the four-distinct-index rows is read as a
    commutator of slides; on homology the factor it wraps is a Torelli
    conjugate, so either reading of the bracket gives the same action.
    """

    def b(a: int, c: int, sign: int = 1) -> Factors:
        assert a < c
        return ((element("B", a, c), sign),)

    def c(i: int, j: int, k: int, sign: int = 1) -> Factors:
        assert i < j
        return ((element("C", i, j, k), sign),)

    i, j = x1_idx
    k, l = x2_idx
    x1 = slide(i, j)
    x2 = slide(k, l)

    if (k, l) == (j, i):
        return b(i, j) + ((element("A", i, j), -1),) + b(i, j, -1)

    if k == i:  # (Y_{i,j}, Y_{i,k'}) with j < k' = l
        kk = l
        cc = c(*sorted((j, kk)), i)
        if i < j < kk:
            return cc + b(i, kk, -1) + _conj(b(i, j, -1), x2)
        if j < i < kk:
            return _conj(cc, x1) + b(i, kk, -1) + _conj(b(j, i, -1), x2)
        # j < kk < i
        return cc + b(kk, i, -1) + _conj(b(j, i, -1), x2)

    if l == j:  # (Y_{i,j}, Y_{k,j}) with i < k
        mid = _conj(b(min(i, k), max(i, k), -1), x1)
        if j < i < k:
            return b(j, i, -1) + mid + b(j, i)
        if i < j < k:
            return mid
        # i < k < j
        return b(i, j, -1) + mid + b(i, j)

    if k == j:  # (Y_{i,j}, Y_{j,k'}) with k' = l != i
        kk = l
        if kk < i < j:
            return _conj(b(kk, i, -1), x1) + c(kk, j, i)
        if i < kk < j:
            return b(i, j, -1) + _conj(b(i, kk, -1), x1) + _conj(c(kk, j, i), x1) + b(i, j)
        # i < j < kk
        return _conj(b(i, kk, -1), x1) + c(j, kk, i)

    if l == i:  # (Y_{i,j}, Y_{k,i}) with i < k, j != k
        if j < i < k:
            return b(i, k, -1) + b(j, k, -1) + _conj(b(i, k, -1), slide(k, j)) + c(j, i, k)
        if i < j < k:
            return c(i, j, k, -1) + _conj(b(j, k), x2)
        # i < k < j
        return b(i, k, -1) + _conj(c(i, j, k, -1), x2) + _conj(b(k, j), x2) + b(i, k)

    # four distinct indices; nontrivial only when the index pairs interleave
    y_il = slide(i, l)
    q = ((y_il, 1), (x1, 1), (y_il, -1), (x1, -1))  # [y_il, x1]
    if i < k < j < l:
        return (
            _conj(b(i, l, -1), x1)
            + _conj(_conj(b(i, k), y_il), x1)
            + _conj(b(i, l), x1)
            + _conj(b(i, k), x1)
            + b(i, k, -1)
            + b(i, l, -1)
            + _conj(b(i, k, -1), x1)
            + b(i, l)
        )
    if i < l < j < k:
        return (
            _conj(b(i, k, -1), x1)
            + _conj(b(i, l, -1), x1)
            + inverse_factors(q)
            + _conj(_conj(b(i, k, -1), x1), y_il)
            + q
            + _conj(b(i, l), x1)
            + b(i, l, -1)
            + _conj(b(i, k), y_il)
            + b(i, l)
            + b(i, k)
        )
    if j < l < i < k:
        return (
            _conj(b(l, i, -1), x1)
            + _conj(_conj(b(i, k), y_il), x1)
            + _conj(b(l, i), x1)
            + _conj(b(i, k), x1)
            + b(i, k, -1)
            + b(l, i, -1)
            + _conj(b(i, k, -1), x1)
            + b(l, i)
        )
    if l < i < k < j:
        return (
            _conj(b(l, i, -1), x1)
            + inverse_factors(q)
            + _conj(_conj(b(i, k), x1), y_il)
            + q
            + _conj(b(l, i), x1)
            + _conj(b(i, k), x1)
            + b(i, k, -1)
            + b(l, i, -1)
            + _conj(b(i, k, -1), y_il)
            + b(l, i)
        )
    return ()


def twist_square_relations(gmax: int) -> Iterator[Relation]:
    """T(i,j)^2 = Y(j,i)^-1 Y(i,j) for each i < j at each genus 3..gmax,
    named ``(g, i, j)``."""
    for g in range(3, gmax + 1):
        for i, j in family_indices("A", g):
            pair = word(g, (Slide(j, i), -1), (Slide(i, j), 1))
            yield (g, i, j), g, ((_twist_word(g, (i, j), 2), 1), (pair, -1))


def three_chain_factors(
    j: int, k: int, l: int, twist: Callable[[tuple[int, ...]], MCGWord]
) -> Factors:
    """(T(1,j) T(j,k) T(k,l))^4, the 4th power of the twist chain, as its
    twelve twist factors, with the twist words ``twist(indices)``."""
    chain = ((twist((1, j)), 1), (twist((j, k)), 1), (twist((k, l)), 1))
    return chain * 4


def three_chain_slide_factors(
    j: int, k: int, l: int, slide: Callable[[int, int], MCGWord]
) -> Factors:
    """Lemma 4.2's slide-word expansion of the chain power for
    1 < j < k < l, with the slide words ``slide(a, b)`` and its three
    conjugates left unexpanded: Y(j,1)^-1 Y(1,j) Y(k,j)^-1 Y(j,k) .
    x Y(k,1)^-1 Y(1,k) x^-1 with x = Y(j,1), then Y(l,k)^-1 Y(k,l) .
    x Y(l,j)^-1 Y(j,l) x^-1 with x = Y(k,j), then x Y(l,1)^-1 Y(1,l) x^-1
    with x = Y(j,1) Y(k,l)^-1."""

    def y(a: int, b: int, sign: int = 1) -> tuple[MCGWord, int]:
        return slide(a, b), sign

    return (
        y(j, 1, -1), y(1, j), y(k, j, -1), y(j, k),
        y(j, 1), y(k, 1, -1), y(1, k), y(j, 1, -1),
        y(l, k, -1), y(k, l),
        y(k, j), y(l, j, -1), y(j, l), y(k, j, -1),
        y(j, 1), y(k, l, -1), y(l, 1, -1), y(1, l), y(k, l), y(j, 1, -1),
    )


def three_chain_relations(gmax: int) -> Iterator[Relation]:
    """Lemma 4.2 for each 1 < j < k < l <= g at each genus 4..gmax: the
    inverse of the 4th power of the twist chain times the paired-twist
    form T T'^-1, named ``(g, j, k, l, "paired")``, and times the slide
    form, named ``(g, j, k, l, "slides")``, each trivial exactly when its
    form equals the chain power.  The D element of the same indices is
    T T', so the paired form is T D^-1 T.  Both forms and the chain are
    factors, so no word product is formed but in the D element, and each
    twist and slide word is built at most once per genus."""
    for g in range(4, gmax + 1):

        @functools.cache
        def twist(indices: tuple[int, ...]) -> MCGWord:
            return _twist_word(g, indices)

        @functools.cache
        def slide(a: int, b: int) -> MCGWord:
            return _slide_word(g, a, b)

        for idx in family_indices("D", g):
            _, j, k, l = idx
            chain_inverse = inverse_factors(three_chain_factors(j, k, l, twist))
            paired = ((twist(idx), 1), (named_element("D", idx, g).word, -1), (twist(idx), 1))
            yield (g, j, k, l, "paired"), g, chain_inverse + paired
            yield (g, j, k, l, "slides"), g, chain_inverse + three_chain_slide_factors(j, k, l, slide)
