"""Reference slide-commutator table, each row spelled out as one freely
reduced word, and the alternate realizations of the A, B and C elements.

The table is the word-level definition that the relations of
``crosscap.families.slide_commutator_relations`` must reproduce: the
factors of each relation after the commutator's four, multiplied out with
word products, are the inverse of the word this table gives for that row.

``alternates`` gives the other words that realize an A, B or C element,
each of which must act on homology as ``named_element``'s word does.

``main3_word`` indexes the level-4 generating stream on family elements
built once by the caller.

``three_chain_relations`` is LEM42-3CHAIN's relation family as it was
before its forms became factors: the chain power and the slide form are
each multiplied out into one word with word products and conjugates, and
each relation is the chain power times the inverse of a form.  The factors
of ``crosscap.families.three_chain_factors`` and
``three_chain_slide_factors`` must act as these words do.

``main3_generators`` is the level-4 stream as it was before it built its
family elements lazily: every A, B, C and D element first, then each
conjugate.  ``crosscap.families.main3_generators`` must give the same
words in the same order.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

from crosscap.families import (
    NamedFamilyElement,
    Relation,
    family_indices,
    main3_families,
    main3_position,
    named_element,
    subset_word,
    transversal_count,
)
from crosscap.words import MCGWord, Slide, Twist, commutator, conjugate, word


def _slide(g: int, a: int, b: int) -> MCGWord:
    return word(g, Slide(a, b))


def alternates(family: str, indices: tuple[int, ...], g: int) -> list[MCGWord]:
    """The alternate realizations of A(i,j) = T(i,j)^4 as squares of slide
    products, of B(i,j) = Y(i,j)^2 as Y(j,i)^2, and of the slide form of
    C(i,j;k) as a product of a squared twist and its conjugate."""
    if family == "A":
        i, j = indices
        return [
            (_slide(g, j, i).inverse() * _slide(g, i, j)) ** 2,
            (_slide(g, j, i) * _slide(g, i, j).inverse()) ** 2,
        ]
    if family == "B":
        i, j = indices
        return [_slide(g, j, i) ** 2]
    if family == "C":
        i, j, k = indices
        t2 = word(g, (Twist((i, j)), 2))
        if i < k < j:
            return [t2.inverse() * conjugate(t2, _slide(g, k, i))]
        return [t2 * conjugate(t2.inverse(), _slide(g, k, i).inverse())]
    raise ValueError(f"family {family!r} has no alternate realization")


def main3_word(g: int, index: int, fams: list[NamedFamilyElement]) -> MCGWord:
    """Stream word ``index`` of ``crosscap.families.main3_generator``, on the
    family elements ``fams`` (``main3_families(g)``) built once."""
    mask, k = main3_position(g, index, len(fams))
    return conjugate(fams[k].word, subset_word(g, mask))


def main3_generators(g: int) -> Iterator[MCGWord]:
    fams = main3_families(g)
    for mask in range(transversal_count(g)):
        y = subset_word(g, mask)
        for element in fams:
            yield conjugate(element.word, y)


def three_chain_relations(gmax: int) -> Iterator[Relation]:
    """Lemma 4.2 for each 1 < j < k < l <= g at each genus 4..gmax: the 4th
    power of the twist chain equals the paired-twist form T T'^-1, named
    ``(g, j, k, l, "paired")``, and the full slide-word expansion, named
    ``(g, j, k, l, "slides")``.  The D element of the same indices is
    T T', so the paired form's inverse is T^-1 D T^-1."""
    for g in range(4, gmax + 1):

        def yw(a: int, b: int, e: int = 1) -> MCGWord:
            return word(g, (Slide(a, b), e))

        def tw(indices: tuple[int, ...]) -> MCGWord:
            return word(g, Twist(indices))

        for idx in family_indices("D", g):
            _, j, k, l = idx
            chain = (tw((1, j)) * tw((j, k)) * tw((k, l))) ** 4
            twist = tw(idx)
            paired_inverse = ((twist, -1), (named_element("D", idx, g).word, 1), (twist, -1))
            slide_form = (
                yw(j, 1, -1)
                * yw(1, j)
                * yw(k, j, -1)
                * yw(j, k)
                * conjugate(yw(k, 1, -1) * yw(1, k), yw(j, 1))
                * yw(l, k, -1)
                * yw(k, l)
                * conjugate(yw(l, j, -1) * yw(j, l), yw(k, j))
                * conjugate(yw(l, 1, -1) * yw(1, l), yw(j, 1) * yw(k, l, -1))
            )
            yield (g, j, k, l, "paired"), g, ((chain, 1),) + paired_inverse
            yield (g, j, k, l, "slides"), g, ((chain, 1), (slide_form, -1))


def slide_commutator_rows(g: int) -> Iterator[tuple[tuple[int, int], tuple[int, int], MCGWord]]:
    """The rows ``(x1, x2, rhs)`` of the slide-commutator table at genus g,
    one for each pair x1 < x2 of Y indices, in Y order: ``rhs`` is the
    decomposition of [Y_{x1}, Y_{x2}] as a product of conjugated A/B/C
    elements, the identity word for the pairs whose slides commute.

    Each A, B and C element is built by :func:`named_element` at most once
    per call, so its checks run as for any element, and looked up after.
    """

    @functools.cache
    def element(family: str, *indices: int) -> MCGWord:
        return named_element(family, indices, g).word

    ys = family_indices("Y", g)
    for pos, x1 in enumerate(ys):
        for x2 in ys[pos + 1 :]:
            yield x1, x2, _commutator_rhs(x1, x2, g, element)


def _commutator_rhs(
    x1_idx: tuple[int, int],
    x2_idx: tuple[int, int],
    g: int,
    element: Callable[..., MCGWord],
) -> MCGWord:
    """The row of ``slide_commutator_rows`` for x1 < x2, with the A, B and
    C element words ``element(family, *indices)``.

    The bracketed conjugator in the four-distinct-index rows is read as a
    commutator of slides; on homology the factor it wraps is a Torelli
    conjugate, so either reading of the bracket gives the same action.
    """

    def _b(a: int, b: int) -> MCGWord:
        assert a < b
        return element("B", a, b)

    def _c(i: int, j: int, k: int) -> MCGWord:
        assert i < j
        return element("C", i, j, k)

    i, j = x1_idx
    k, l = x2_idx
    x1 = _slide(g, i, j)
    x2 = _slide(g, k, l)

    if (k, l) == (j, i):
        b = _b(i, j)
        a = element("A", i, j)
        return b * a.inverse() * b.inverse()

    if k == i:  # (Y_{i,j}, Y_{i,k'}) with j < k' = l
        kk = l
        c = _c(*sorted((j, kk)), i)
        if i < j < kk:
            return c * _b(i, kk).inverse() * conjugate(_b(i, j).inverse(), x2)
        if j < i < kk:
            return (
                conjugate(c, x1)
                * _b(i, kk).inverse()
                * conjugate(_b(j, i).inverse(), x2)
            )
        # j < kk < i
        return c * _b(kk, i).inverse() * conjugate(_b(j, i).inverse(), x2)

    if l == j:  # (Y_{i,j}, Y_{k,j}) with i < k
        mid = conjugate(_b(min(i, k), max(i, k)).inverse(), x1)
        if j < i < k:
            return _b(j, i).inverse() * mid * _b(j, i)
        if i < j < k:
            return mid
        # i < k < j
        return _b(i, j).inverse() * mid * _b(i, j)

    if k == j:  # (Y_{i,j}, Y_{j,k'}) with k' = l != i
        kk = l
        if kk < i < j:
            return conjugate(_b(kk, i).inverse(), x1) * _c(kk, j, i)
        if i < kk < j:
            return (
                _b(i, j).inverse()
                * conjugate(_b(i, kk).inverse(), x1)
                * conjugate(_c(kk, j, i), x1)
                * _b(i, j)
            )
        # i < j < kk
        return conjugate(_b(i, kk).inverse(), x1) * _c(j, kk, i)

    if l == i:  # (Y_{i,j}, Y_{k,i}) with i < k, j != k
        if j < i < k:
            return (
                _b(i, k).inverse()
                * _b(j, k).inverse()
                * conjugate(_b(i, k).inverse(), _slide(g, k, j))
                * _c(j, i, k)
            )
        if i < j < k:
            return _c(i, j, k).inverse() * conjugate(_b(j, k), x2)
        # i < k < j
        return (
            _b(i, k).inverse()
            * conjugate(_c(i, j, k).inverse(), x2)
            * conjugate(_b(k, j), x2)
            * _b(i, k)
        )

    # four distinct indices; nontrivial only when the index pairs interleave
    y_il = _slide(g, i, l)
    q = commutator(y_il, x1)
    if i < k < j < l:
        return (
            conjugate(_b(i, l).inverse(), x1)
            * conjugate(conjugate(_b(i, k), y_il), x1)
            * conjugate(_b(i, l), x1)
            * conjugate(_b(i, k), x1)
            * _b(i, k).inverse()
            * _b(i, l).inverse()
            * conjugate(_b(i, k).inverse(), x1)
            * _b(i, l)
        )
    if i < l < j < k:
        return (
            conjugate(_b(i, k).inverse(), x1)
            * conjugate(_b(i, l).inverse(), x1)
            * q.inverse()
            * conjugate(conjugate(_b(i, k).inverse(), x1), y_il)
            * q
            * conjugate(_b(i, l), x1)
            * _b(i, l).inverse()
            * conjugate(_b(i, k), y_il)
            * _b(i, l)
            * _b(i, k)
        )
    if j < l < i < k:
        return (
            conjugate(_b(l, i).inverse(), x1)
            * conjugate(conjugate(_b(i, k), y_il), x1)
            * conjugate(_b(l, i), x1)
            * conjugate(_b(i, k), x1)
            * _b(i, k).inverse()
            * _b(l, i).inverse()
            * conjugate(_b(i, k).inverse(), x1)
            * _b(l, i)
        )
    if l < i < k < j:
        return (
            conjugate(_b(l, i).inverse(), x1)
            * q.inverse()
            * conjugate(conjugate(_b(i, k), x1), y_il)
            * q
            * conjugate(_b(l, i), x1)
            * conjugate(_b(i, k), x1)
            * _b(i, k).inverse()
            * _b(l, i).inverse()
            * conjugate(_b(i, k).inverse(), y_il)
            * _b(l, i)
        )
    return MCGWord.identity(g)
