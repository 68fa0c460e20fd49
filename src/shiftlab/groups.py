"""Supported groups, their finite subsets, and finite actions.

Two group kinds are supported: the integers and the integer lattices of
dimension 2 and 3.  Elements are stored as canonical normal forms (an
``int`` or a tuple of ints), so ``==`` on elements is exactly group
equality.  A finite set holds a nonempty run of consecutive integers as a
``range`` (`GroupSet.interval` reads it, and products of intervals are
formed in closed form) and any other set as a sorted tuple.  Every action
is total, and translates points through one pair of methods,
`FiniteAction.translates` (the points e.x of a point x) and
`FiniteAction.image` (gamma.p for every point p).

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Elem = Union[int, tuple]


class GroupError(ValueError):
    """Usage error: context mismatch or malformed normal form."""


INTEGERS = "integers"
LATTICE = "lattice"


@dataclass(frozen=True)
class GroupCtx:
    """A supported group.

    kind/param combinations, the only ones accepted:
      - ("integers", 0)           the group of integers under addition
      - ("lattice", d)            integer d-tuples, d an int 2 or 3
    """

    kind: str
    param: int = 0

    def __post_init__(self):
        allowed = {INTEGERS: (0,), LATTICE: (2, 3)}.get(self.kind)
        if allowed is None:
            raise GroupError(f"unknown group kind {self.kind!r}")
        # by type, so that a bool or a float equal to an allowed int is refused
        if type(self.param) is not int or self.param not in allowed:
            raise GroupError(f"{self.kind} parameter must be one of {allowed}, "
                             f"got {self.param!r}")

    # -- algebra ---------------------------------------------------------

    def identity(self) -> Elem:
        return 0 if self.kind == INTEGERS else (0,) * self.param

    def normalize(self, a) -> Elem:
        """Canonical normal form of `a`; raises GroupError if malformed."""
        if self.kind == INTEGERS:
            if not isinstance(a, (int, np.integer)):
                raise GroupError(f"integer element expected, got {a!r}")
            return int(a)
        t = tuple(int(v) for v in a)
        if len(t) != self.param:
            raise GroupError(f"lattice element of dim {self.param} expected, got {a!r}")
        return t

    def op(self, a: Elem, b: Elem) -> Elem:
        if self.kind == INTEGERS:
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a: Elem) -> Elem:
        if self.kind == INTEGERS:
            return -a
        return tuple(-x for x in a)


@dataclass(frozen=True)
class GroupSet:
    """Deduplicated, sorted finite subset of a group: a ``range`` for a
    nonempty run of consecutive integers, else a tuple.  `__post_init__`
    brings every construction to this one form."""

    ctx: GroupCtx
    elements: Union[range, tuple]

    def __post_init__(self):
        e = self.elements
        if not isinstance(e, range) or e.step != 1:
            e = sorted(set(e))
        run = self.ctx.kind == INTEGERS and e and e[-1] - e[0] + 1 == len(e)
        object.__setattr__(self, "elements", range(e[0], e[-1] + 1) if run else tuple(e))

    @classmethod
    def from_iterable(cls, ctx: GroupCtx, items: Iterable) -> "GroupSet":
        return cls(ctx, [ctx.normalize(e) for e in items])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e) -> bool:
        return self.ctx.normalize(e) in self.elements

    @property
    def interval(self) -> Optional[tuple[int, int]]:
        """(start, length) when this is a nonempty set of consecutive
        integers {start, ..., start+length-1}, else None."""
        e = self.elements
        return (e.start, len(e)) if isinstance(e, range) else None


def integer_interval(n: int, start: int = 0) -> GroupSet:
    """The interval {start, ..., start+n-1} in the integers."""
    if n < 1:
        raise GroupError(f"interval length must be >= 1, got {n}")
    return GroupSet(GroupCtx(INTEGERS), range(start, start + n))


def set_product(S: GroupSet, D: GroupSet) -> GroupSet:
    """{s * d : s in S, d in D}, deduplicated; |SD| <= |S||D|.  Two
    integer intervals give the interval of length |S| + |D| - 1."""
    if S.ctx != D.ctx:
        raise GroupError(f"context mismatch: {S.ctx} vs {D.ctx}")
    ctx = S.ctx
    s_iv, d_iv = S.interval, D.interval
    if s_iv is not None and d_iv is not None:
        return integer_interval(s_iv[1] + d_iv[1] - 1, s_iv[0] + d_iv[0])
    if ctx.kind == INTEGERS:
        a = np.asarray(S.elements, dtype=np.int64)
        b = np.asarray(D.elements, dtype=np.int64)
        # chunks of at most 4,000,000 sums (or one element of S times D),
        # each sorted and rid of equal neighbours; GroupSet sorts and
        # deduplicates across chunks
        step = max(1, 4_000_000 // max(b.size, 1))
        vals = []
        for i in range(0, a.size, step):
            c = np.sort(a[i:i + step, None] + b, axis=None)
            first = np.ones(c.size, dtype=bool)  # c[j] starts a run of equal sums
            first[1:] = c[1:] != c[:-1]
            vals.extend(c[first].tolist())
        return GroupSet(ctx, vals)
    return GroupSet(ctx, {ctx.op(s, d) for s in S for d in D})


def set_inverse(S: GroupSet) -> GroupSet:
    return GroupSet.from_iterable(S.ctx, (S.ctx.inv(s) for s in S))


def difference_set_size(S: GroupSet, D: GroupSet) -> Optional[int]:
    """|(SD)^-1 SD| computed exactly, or None when |SD| exceeds 10000."""
    sd = set_product(S, D)
    if len(sd) > 10_000:
        return None
    return len(set_product(set_inverse(sd), sd))


# -- finite actions -------------------------------------------------------


class FiniteAction:
    """A finite point set {0..n-1} on which a group context acts totally:
    every translate of every point is a point."""

    ctx: GroupCtx
    n_points: int

    def act(self, gamma: Elem, point: int) -> int:
        raise NotImplementedError

    def act_array(self, gamma: Elem, points: np.ndarray) -> np.ndarray:
        """Vectorized act."""
        raise NotImplementedError

    def points(self) -> np.ndarray:
        return np.arange(self.n_points)

    def translates(self, elems, x: int) -> np.ndarray:
        """The points e.x for e in `elems`, in that order."""
        return np.array([self.act(e, x) for e in elems], dtype=np.int64)

    def image(self, gamma: Elem, points: Optional[np.ndarray] = None) -> np.ndarray:
        """gamma.p for every p in `points` (by default every point)."""
        return self.act_array(gamma, self.points() if points is None else points)

    # Subclasses with translation structure answer in O(|S|); this oracle
    # compares the images of every pair of elements of S at every point.
    def free_for(self, S: GroupSet) -> bool:
        images = [self.image(self.ctx.normalize(e)) for e in S]
        return not any(np.any(a == b) for a, b in itertools.combinations(images, 2))


class CyclicTranslation(FiniteAction):
    """Integers acting on Z/M by translation: act(g, x) = (x + g) mod M."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise GroupError(f"modulus must be >= 1, got {modulus}")
        self.ctx = GroupCtx(INTEGERS)
        self.modulus = modulus
        self.n_points = modulus

    def act(self, gamma, point):
        return (point + gamma) % self.modulus

    def act_array(self, gamma, points):
        return (points + int(gamma)) % self.modulus

    def translates(self, elems, x):
        if isinstance(elems, range):  # built in C, not element by element
            elems = np.arange(elems.start, elems.stop, elems.step)
        return (np.asarray(elems, dtype=np.int64) + x) % self.modulus

    def free_for(self, S: GroupSet) -> bool:
        iv = S.interval
        if iv is not None:  # consecutive integers have distinct residues iff they fit
            return iv[1] <= self.modulus
        residues = {int(e) % self.modulus for e in S}
        return len(residues) == len(S)


class TorusTranslation(FiniteAction):
    """Z^2 acting on (Z/M1) x (Z/M2); point (x, y) is encoded as x*M2 + y."""

    def __init__(self, m1: int, m2: int):
        if m1 < 1 or m2 < 1:
            raise GroupError(f"moduli must be >= 1, got {(m1, m2)}")
        self.ctx = GroupCtx(LATTICE, 2)
        self.m1, self.m2 = m1, m2
        self.n_points = m1 * m2

    def act(self, gamma, point):
        x, y = divmod(point, self.m2)
        return ((x + gamma[0]) % self.m1) * self.m2 + (y + gamma[1]) % self.m2

    def act_array(self, gamma, points):
        x, y = np.divmod(points, self.m2)
        return ((x + gamma[0]) % self.m1) * self.m2 + (y + gamma[1]) % self.m2

    def free_for(self, S: GroupSet) -> bool:
        residues = {(e[0] % self.m1, e[1] % self.m2) for e in S}
        return len(residues) == len(S)


def is_sd_free(action: FiniteAction, sets: Sequence[GroupSet]) -> bool:
    """True iff distinct elements of each set move every point differently."""
    for S in sets:
        if S.ctx != action.ctx:
            raise GroupError(f"context mismatch: action is over {action.ctx}, set over {S.ctx}")
        if not action.free_for(S):
            return False
    return True
