"""Words over the mapping-class generator alphabet.

The alphabet has four kinds of letters:

* ``Twist(indices)`` -- Dehn twist about the two-sided curve through the
  crosscaps listed in ``indices`` (an even-size subset of 1..g).
* ``Slide(moving, along)`` -- crosscap slide of crosscap ``moving`` along the
  two-sided curve through crosscaps ``{moving, along}``.
* ``TorelliTag`` -- named elements that act trivially on integral homology
  (the separating-curve twists); they participate in words as identities.
* ``BoundaryTwist`` -- twists about curves that only exist on surfaces with
  boundary.  They parse, enumerate and count but have no homology action.

Words multiply by concatenation and are kept freely reduced; the group
operations live once in :class:`ReducedWord`, which :class:`MCGWord` shares
with the free-group words of :mod:`crosscap.pi1free`.  In a written word the
rightmost letter is applied first, matching the composition convention used
throughout: the matrix of ``u v`` is ``M(u) * M(v)``.
"""

from __future__ import annotations

import re
from typing import Hashable, Iterable, TypeVar, Union

from ._frozen import Frozen, set_field


class WordSyntaxError(ValueError):
    """Raised by the parser, with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class GenusMismatchError(ValueError):
    """Words over different genus contexts cannot be combined."""


class InvalidSymbolError(ValueError):
    """A generator symbol does not fit the surface it is used on."""


class Twist(Frozen):
    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]) -> None:
        idx = tuple(sorted(map(int, indices)))
        if len(set(idx)) != len(idx):
            raise InvalidSymbolError(f"repeated twist index in {idx}")
        if len(idx) % 2 != 0 or len(idx) < 2:
            raise InvalidSymbolError(
                f"twist needs an even number (>= 2) of crosscap indices, got {idx}"
            )
        if any(i < 1 for i in idx):
            raise InvalidSymbolError(f"twist indices must be >= 1, got {idx}")
        set_field(self, "indices", idx)


class Slide(Frozen):
    __slots__ = ("moving", "along")

    def __init__(self, moving: int, along: int) -> None:
        if moving == along:
            raise InvalidSymbolError("slide requires two distinct crosscap indices")
        if moving < 1 or along < 1:
            raise InvalidSymbolError("slide indices must be >= 1")
        set_field(self, "moving", moving)
        set_field(self, "along", along)


class TorelliTag(Frozen):
    __slots__ = ("kind", "indices")

    def __init__(self, kind: str, indices: tuple[int, ...] = ()) -> None:
        if kind == "beta":
            if len(indices) != 2:
                raise InvalidSymbolError("beta tag takes two indices")
        elif kind == "gamma":
            if indices:
                raise InvalidSymbolError("gamma tag takes no indices")
        else:
            raise InvalidSymbolError(f"unknown Torelli tag {kind!r}")
        set_field(self, "kind", kind)
        set_field(self, "indices", indices)


_BOUNDARY_ARITY = {"delta": 1, "epsilon": 2, "zeta": 2, "zetabar": 2, "eta": 3, "acurve": 2}

# the written name of each boundary curve kind, and back
_BOUNDARY_NAME = {
    "delta": "Delta",
    "epsilon": "Eps",
    "zeta": "Zeta",
    "zetabar": "Zbar",
    "eta": "Eta",
    "acurve": "Acurve",
}
_BOUNDARY_KIND = {name: kind for kind, name in _BOUNDARY_NAME.items()}


class BoundaryTwist(Frozen):
    __slots__ = ("kind", "indices")

    def __init__(self, kind: str, indices: tuple[int, ...]) -> None:
        if kind not in _BOUNDARY_ARITY:
            raise InvalidSymbolError(f"unknown boundary curve kind {kind!r}")
        if len(indices) != _BOUNDARY_ARITY[kind]:
            raise InvalidSymbolError(
                f"{kind} takes {_BOUNDARY_ARITY[kind]} indices, got {indices}"
            )
        if any(i < 1 for i in indices):
            raise InvalidSymbolError("boundary curve indices must be >= 1")
        set_field(self, "kind", kind)
        set_field(self, "indices", indices)


Symbol = Union[Twist, Slide, TorelliTag, BoundaryTwist]


def validate_symbol(sym: Symbol, genus: int) -> None:
    if isinstance(sym, Twist):
        if sym.indices[-1] > genus:
            raise InvalidSymbolError(f"twist index {sym.indices[-1]} exceeds genus {genus}")
    elif isinstance(sym, Slide):
        if max(sym.moving, sym.along) > genus:
            raise InvalidSymbolError(f"slide index exceeds genus {genus}")
    elif isinstance(sym, TorelliTag):
        if sym.kind == "beta" and max(sym.indices) > genus:
            raise InvalidSymbolError(f"beta index exceeds genus {genus}")
    # boundary indices depend on the boundary count, which words do not carry


def _reduce(letters: Iterable[tuple[Hashable, int]]) -> tuple[tuple[Hashable, int], ...]:
    stack: list[tuple[Hashable, int]] = []
    for atom, exp in letters:
        exp = int(exp)
        if exp == 0:
            continue
        if stack and stack[-1][0] == atom:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged != 0:
                stack.append((atom, merged))
        else:
            stack.append((atom, exp))
    return tuple(stack)


W = TypeVar("W", bound="ReducedWord")


class ReducedWord:
    """Freely reduced word: a tuple of (atom, nonzero exponent) pairs with no
    two neighbours on the same atom.

    The group operations live here once; a subclass is a frozen value type
    (``_frozen.Frozen``) with a ``letters`` field that adds ``_with``, which
    rebuilds a word of its own kind (and context) from already reduced
    letters, and a ``__mul__`` that checks its operand before calling
    ``_times``.
    """

    __slots__ = ()
    letters: tuple[tuple[Hashable, int], ...]

    def _with(self: W, letters: tuple[tuple[Hashable, int], ...]) -> W:
        raise NotImplementedError

    def _times(self: W, other: W) -> W:
        """Both operands are reduced, so letters cancel or merge only at the
        seam: pop cancelling pairs off the end of ``self`` and the start of
        ``other`` until a pair merges to a nonzero exponent or the atoms
        differ.  A merged letter cannot meet its new neighbours' atoms, which
        differed from its own in the reduced operands."""
        left, right = self.letters, other.letters
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            merged = left[i - 1][1] + right[j][1]
            if merged:
                return self._with(left[: i - 1] + ((right[j][0], merged),) + right[j + 1 :])
            i -= 1
            j += 1
        return self._with(left[:i] + right[j:])

    def inverse(self: W) -> W:
        return self._with(tuple((a, -e) for a, e in reversed(self.letters)))

    def __pow__(self: W, e: int) -> W:
        """A single letter scales its exponent; a longer word is squared
        repeatedly, so the number of products grows with log |e|, not |e|."""
        if e == 0 or not self.letters:
            return self._with(())
        if len(self.letters) == 1:
            ((atom, exp),) = self.letters
            return self._with(((atom, exp * e),))
        base = self if e > 0 else self.inverse()
        e = abs(e)
        out = None
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)


class MCGWord(ReducedWord, Frozen):
    """Freely reduced word over the generator alphabet, with a genus context."""

    __slots__ = ("genus", "letters")

    def __init__(self, genus: int, letters: tuple[tuple[Symbol, int], ...]) -> None:
        set_field(self, "genus", genus)
        set_field(self, "letters", letters)

    @staticmethod
    def identity(genus: int) -> "MCGWord":
        if genus < 1:
            raise InvalidSymbolError("genus must be >= 1")
        return MCGWord(genus, ())

    @staticmethod
    def from_letters(genus: int, letters: Iterable[tuple[Symbol, int]]) -> "MCGWord":
        reduced = _reduce(letters)
        for sym, _ in reduced:
            validate_symbol(sym, genus)
        return MCGWord(genus, reduced)

    def _with(self, letters: tuple[tuple[Symbol, int], ...]) -> "MCGWord":
        return MCGWord(self.genus, letters)

    def _check(self, other: "MCGWord") -> None:
        if self.genus != other.genus:
            raise GenusMismatchError(f"genus {self.genus} vs {other.genus}")

    def __mul__(self, other: "MCGWord") -> "MCGWord":
        if not isinstance(other, MCGWord):
            return NotImplemented
        self._check(other)
        return self._times(other)

    def __str__(self) -> str:
        return format_word(self)


def word(genus: int, *items) -> MCGWord:
    """Convenience builder: items are symbols or (symbol, exponent) pairs."""
    letters = []
    for item in items:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int):
            letters.append(item)
        else:
            letters.append((item, 1))
    return MCGWord.from_letters(genus, letters)


def commutator(a: MCGWord, b: MCGWord) -> MCGWord:
    """[a, b] = a b a^-1 b^-1."""
    a._check(b)
    return a * b * a.inverse() * b.inverse()


def conjugate(a: MCGWord, b: MCGWord) -> MCGWord:
    """b a b^-1 (apply the conjugator last)."""
    a._check(b)
    return b * a * b.inverse()


# ---------------------------------------------------------------------------
# text grammar
#
#   word  := item*                      (whitespace concatenation)
#   item  := atom ('^' INT)?
#   atom  := NAME '(' ints ')' | 'Gamma' | '[' word ',' word ']'
#          | 'conj' '(' word ',' word ')'
#
# Generator names: T (twist), Y (slide), A B C D (named families, which
# expand to their realization words), Bname/Gamma (Torelli tags), and
# Delta/Eps/Zeta/Zbar/Eta/Acurve (boundary twists).  Integer argument lists
# accept ',' or ';' separators; the canonical output uses ';' before the
# final index of C, Eta and Acurve.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<int>-?\d+)|(?P<punct>[-\^\(\)\[\],;]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise WordSyntaxError(f"unexpected character {text[bad]!r}", bad)
        # every alternative consumes a character, so exactly one group is set
        ((kind, value),) = ((k, v) for k, v in m.groupdict().items() if v is not None)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, genus: int):
        self.text = text
        self.genus = genus
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_punct(self, value: str):
        kind, val, pos = self.next()
        if kind != "punct" or val != value:
            raise WordSyntaxError(f"expected {value!r}, found {val!r}", pos)

    def parse_int(self) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise WordSyntaxError(f"expected integer, found {val!r}", pos)
        return int(val)

    def parse_int_args(self) -> list[int]:
        self.expect_punct("(")
        args = [self.parse_int()]
        while True:
            kind, val, pos = self.peek()
            if kind == "punct" and val in (",", ";"):
                self.next()
                args.append(self.parse_int())
            elif kind == "punct" and val == ")":
                self.next()
                return args
            else:
                raise WordSyntaxError(f"expected ',', ';' or ')', found {val!r}", pos)

    def parse_word(self, stops: frozenset[str]) -> MCGWord:
        out = MCGWord.identity(self.genus)
        while True:
            kind, val, pos = self.peek()
            if kind == "eof" or (kind == "punct" and val in stops):
                return out
            piece = self.parse_atom()
            kind, val, _ = self.peek()
            exp = 1
            if kind == "punct" and val == "^":
                self.next()
                exp = self.parse_int()
            out = out * (piece ** exp)

    def parse_atom(self) -> MCGWord:
        kind, val, pos = self.next()
        if kind == "punct" and val == "[":
            u = self.parse_word(frozenset(","))
            self.expect_punct(",")
            v = self.parse_word(frozenset("]"))
            self.expect_punct("]")
            return commutator(u, v)
        if kind != "name":
            raise WordSyntaxError(f"expected generator name, found {val!r}", pos)
        if val == "conj":
            self.expect_punct("(")
            u = self.parse_word(frozenset(","))
            self.expect_punct(",")
            v = self.parse_word(frozenset(")"))
            self.expect_punct(")")
            return conjugate(u, v)
        if val == "Gamma":
            return word(self.genus, TorelliTag("gamma"))
        try:
            return self._named_atom(val, pos)
        except InvalidSymbolError as exc:
            raise WordSyntaxError(str(exc), pos) from None

    def _named_atom(self, name: str, pos: int) -> MCGWord:
        g = self.genus
        if name == "T":
            return word(g, Twist(tuple(self.parse_int_args())))
        if name == "Y":
            args = self.parse_int_args()
            if len(args) != 2:
                raise WordSyntaxError("Y takes two indices", pos)
            return word(g, Slide(args[0], args[1]))
        if name == "Bname":
            args = self.parse_int_args()
            return word(g, TorelliTag("beta", tuple(args)))
        if name in ("A", "B", "C", "D"):
            from . import families

            args = self.parse_int_args()
            return families.named_element(name, tuple(args), g).word
        if name in _BOUNDARY_KIND:
            args = self.parse_int_args()
            return word(g, BoundaryTwist(_BOUNDARY_KIND[name], tuple(args)))
        raise WordSyntaxError(f"unknown generator name {name!r}", pos)


def parse(text: str, genus: int) -> MCGWord:
    parser = _Parser(text, genus)
    result = parser.parse_word(frozenset())
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise WordSyntaxError(f"unexpected {val!r}", pos)
    return result


def _format_symbol(sym: Symbol) -> str:
    if isinstance(sym, Twist):
        return "T(" + ",".join(str(i) for i in sym.indices) + ")"
    if isinstance(sym, Slide):
        return f"Y({sym.moving},{sym.along})"
    if isinstance(sym, TorelliTag):
        if sym.kind == "gamma":
            return "Gamma"
        return "Bname(" + ",".join(str(i) for i in sym.indices) + ")"
    if isinstance(sym, BoundaryTwist):
        name = _BOUNDARY_NAME[sym.kind]
        idx = sym.indices
        if sym.kind in ("eta", "acurve"):
            head = ",".join(str(i) for i in idx[:-1])
            return f"{name}({head};{idx[-1]})"
        return name + "(" + ",".join(str(i) for i in idx) + ")"
    raise TypeError(f"not a generator symbol: {sym!r}")


def format_word(w: MCGWord) -> str:
    """Inverse of :func:`parse` up to free reduction; the empty word prints as ''."""
    parts = []
    for sym, exp in w.letters:
        text = _format_symbol(sym)
        if exp != 1:
            text += f"^{exp}"
        parts.append(text)
    return " ".join(parts)
