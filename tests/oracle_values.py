"""crosscap's value types as the frozen dataclasses they were declared as.

Each class here is the ``@dataclass(frozen=True)`` declaration of the
crosscap type of the same name: its fields in order, their defaults and its
``__post_init__``.  The generated ``__init__``, ``__eq__``, ``__hash__``,
``__repr__`` and frozen ``__setattr__``/``__delattr__`` are the reference
that the slotted classes of ``crosscap`` must reproduce.  Methods that do not
touch those (products, properties, ``to_json``) and the non-dataclass bases
(``words.ReducedWord``, ``intmat._Square``) are left out, because the value
semantics do not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from crosscap.intmat import IntMatrix
from crosscap.pi1free import Atom
from crosscap.words import _BOUNDARY_ARITY, InvalidSymbolError, MCGWord, Symbol

# --- crosscap.words ---------------------------------------------------------


@dataclass(frozen=True)
class Twist:
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise InvalidSymbolError(f"repeated twist index in {idx}")
        if len(idx) % 2 != 0 or len(idx) < 2:
            raise InvalidSymbolError(
                f"twist needs an even number (>= 2) of crosscap indices, got {idx}"
            )
        if any(i < 1 for i in idx):
            raise InvalidSymbolError(f"twist indices must be >= 1, got {idx}")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class Slide:
    moving: int
    along: int

    def __post_init__(self):
        if self.moving == self.along:
            raise InvalidSymbolError("slide requires two distinct crosscap indices")
        if self.moving < 1 or self.along < 1:
            raise InvalidSymbolError("slide indices must be >= 1")


@dataclass(frozen=True)
class TorelliTag:
    kind: str  # "beta" or "gamma"
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == "beta":
            if len(self.indices) != 2:
                raise InvalidSymbolError("beta tag takes two indices")
        elif self.kind == "gamma":
            if self.indices:
                raise InvalidSymbolError("gamma tag takes no indices")
        else:
            raise InvalidSymbolError(f"unknown Torelli tag {self.kind!r}")


@dataclass(frozen=True)
class BoundaryTwist:
    kind: str
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _BOUNDARY_ARITY:
            raise InvalidSymbolError(f"unknown boundary curve kind {self.kind!r}")
        if len(self.indices) != _BOUNDARY_ARITY[self.kind]:
            raise InvalidSymbolError(
                f"{self.kind} takes {_BOUNDARY_ARITY[self.kind]} indices, got {self.indices}"
            )
        if any(i < 1 for i in self.indices):
            raise InvalidSymbolError("boundary curve indices must be >= 1")


@dataclass(frozen=True)
class MCGWord:
    """Freely reduced word over the generator alphabet, with a genus context."""

    genus: int
    letters: tuple[tuple[Symbol, int], ...]


# --- crosscap.intmat --------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square matrix over Z."""

    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ModMatrix:
    """Square matrix over Z/d; the modulus travels with the value."""

    modulus: int
    rows: tuple[tuple[int, ...], ...]


# --- crosscap.homology ------------------------------------------------------


@dataclass(frozen=True)
class LiftSearch:
    """Outcome of the exhaustive lift search for a reduced-action target."""

    obstructed: bool
    witness: Optional[IntMatrix]
    candidates_checked: int


# --- crosscap.finitegrp -----------------------------------------------------


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """An explicitly enumerated subgroup of the n x n matrices over F_2,
    held as the keys of its elements; equal exactly when the groups are."""

    dim: int
    keys: frozenset[int]


@dataclass(frozen=True)
class LevelLayer:
    """A subgroup of the matrices M = I + dX (mod 2d), d even, held as the
    F_2 span of the X = (M - I)/d mod 2.

    Bit r*n + c of a vector is entry (r, c) of X.  The basis is in reduced
    echelon form, each vector's highest bit being its pivot and set in no
    other vector, sorted by pivot from the top, so equal subgroups have equal
    bases.
    """

    modulus: int
    dim: int
    basis: tuple[int, ...]


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table for the trivial subgroup of a finite presentation."""

    rank: int
    coset_count: int
    table: tuple[tuple[int, ...], ...]  # rows indexed by coset; 2*rank columns


# --- crosscap.families ------------------------------------------------------


@dataclass(frozen=True)
class NamedFamilyElement:
    family: str
    indices: tuple[int, ...]
    word: MCGWord


@dataclass(frozen=True)
class Main2Generator:
    name: str
    word: MCGWord
    closed_surface: bool


@dataclass(frozen=True)
class GenNSets:
    """The boundary generating data for the level-d group of N_{g,n} with
    n >= 1: words in boundary-twist letters (no homology action), with the
    between-boundary conjugating words built from exact twist powers.
    """

    g: int
    n: int
    d: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"genus g must be >= 1, got {self.g}")
        # n = 0 is allowed as the degenerate record with empty boundary sets
        if self.n < 0:
            raise ValueError("boundary count must be >= 0")
        if self.d < 2:
            raise ValueError("need d >= 2")


# --- crosscap.pi1free -------------------------------------------------------


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word over named letters."""

    letters: tuple[tuple[Atom, int], ...]


@dataclass(frozen=True)
class StallingsGraph:
    """Folded, based subgroup graph over a fixed alphabet, held as the rows
    of a complete or partial coset table.

    Vertices are row numbers with base 0; ``rows[v][2t]`` and
    ``rows[v][2t + 1]`` are the neighbours of v along ``alphabet[t]``
    forwards and backwards, or None.  Graphs built here number their
    vertices breadth-first from the base, so two of them are equal exactly
    when their subgroups are.
    """

    alphabet: tuple[Atom, ...]
    rows: tuple[tuple[Optional[int], ...], ...]


# --- crosscap.ledger --------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    id: str
    params: dict
    status: str  # pass / fail / inconclusive
    details: dict
    runtime_ms: int
    anchor: str


@dataclass(frozen=True)
class CheckSpec:
    runner: Callable[[dict], tuple[bool, dict]]
    anchor: str
    defaults: dict = field(default_factory=dict)
    # the least value of each parameter but ``seed``, checked in this order
    floors: dict = field(default_factory=dict)
    # the greatest value of a floored parameter, where the check has one
    ceilings: dict = field(default_factory=dict)
    # the residue mod 2 a parameter must have, where the check needs one
    parities: dict = field(default_factory=dict)
