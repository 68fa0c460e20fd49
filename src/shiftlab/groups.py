"""Supported groups, their finite subsets, and finite actions.

Three group kinds are supported: the integers, integer lattices up to
dimension 3, and free groups up to rank 3.  Elements are stored as
canonical normal forms (an ``int``, a tuple of ints, or a reduced generator
word as a tuple of nonzero signed ints), so ``==`` on elements is exactly
group equality.  A finite set holds a nonempty run of consecutive integers
as a ``range`` (`GroupSet.interval` reads it, and products of intervals are
formed in closed form) and any other set as a sorted tuple.  A finite
action translates points through one pair of methods,
`FiniteAction.translates` (the points e.x of a point x) and
`FiniteAction.image` (gamma.p for every point p), and both raise
`BoundaryError` where a translate is undefined.

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


class BoundaryError(GroupError):
    """A translate or statistic needs information outside the available window."""


INTEGERS = "integers"
LATTICE = "lattice"
FREE = "free"


@dataclass(frozen=True)
class GroupCtx:
    """A supported group.

    kind/param combinations:
      - ("integers", 0)           the group of integers under addition
      - ("lattice", d)            integer d-tuples, 2 <= d <= 3
      - ("free", r)               free group on r generators, 1 <= r <= 3
    """

    kind: str
    param: Union[int, tuple] = 0

    def __post_init__(self):
        if self.kind == INTEGERS:
            pass
        elif self.kind == LATTICE:
            if not (2 <= self.param <= 3):
                raise GroupError(f"lattice dimension must be 2 or 3, got {self.param}")
        elif self.kind == FREE:
            if not (1 <= self.param <= 3):
                raise GroupError(f"free rank must be 1..3, got {self.param}")
        else:
            raise GroupError(f"unknown group kind {self.kind!r}")

    # -- algebra ---------------------------------------------------------

    def identity(self) -> Elem:
        if self.kind == INTEGERS:
            return 0
        if self.kind == LATTICE:
            return (0,) * self.param
        return ()

    def normalize(self, a) -> Elem:
        """Canonical normal form of `a`; raises GroupError if malformed."""
        if self.kind == INTEGERS:
            if not isinstance(a, (int, np.integer)):
                raise GroupError(f"integer element expected, got {a!r}")
            return int(a)
        if self.kind == LATTICE:
            t = tuple(int(v) for v in a)
            if len(t) != self.param:
                raise GroupError(f"lattice element of dim {self.param} expected, got {a!r}")
            return t
        # free group: reduce the word
        word = tuple(int(v) for v in a)
        for v in word:
            if v == 0 or abs(v) > self.param:
                raise GroupError(f"letter {v} outside generator range 1..{self.param}")
        out: list[int] = []
        for v in word:
            if out and out[-1] == -v:
                out.pop()
            else:
                out.append(v)
        return tuple(out)

    def op(self, a: Elem, b: Elem) -> Elem:
        if self.kind == INTEGERS:
            return a + b
        if self.kind == LATTICE:
            return tuple(x + y for x, y in zip(a, b))
        return self.normalize(a + b)

    def inv(self, a: Elem) -> Elem:
        if self.kind == INTEGERS:
            return -a
        if self.kind == LATTICE:
            return tuple(-x for x in a)
        return tuple(-v for v in reversed(a))


@dataclass(frozen=True)
class GroupSet:
    """Deduplicated finite subset of a group, sorted (free-group words as
    tuples): a ``range`` for a nonempty run of consecutive integers, else a
    tuple.  `__post_init__` brings every construction to this one form."""

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


def ball(S: GroupSet, n: int) -> GroupSet:
    """All products of exactly n factors from S (not <= n)."""
    if n < 1:
        raise GroupError(f"word length must be >= 1, got {n}")
    cur = set(S.elements)
    for _ in range(n - 1):
        cur = {S.ctx.op(w, s) for w in cur for s in S.elements}
    return GroupSet(S.ctx, cur)


def difference_set_size(S: GroupSet, D: GroupSet, cap: int = 10_000) -> Optional[int]:
    """|(SD)^-1 SD| computed exactly, or None when |SD| exceeds `cap`."""
    sd = set_product(S, D)
    if len(sd) > cap:
        return None
    return len(set_product(set_inverse(sd), sd))


# -- finite actions -------------------------------------------------------


class FiniteAction:
    """A finite point set {0..n-1} acted on by a group context.

    `act` may be partial for window flavors: it returns None (scalar form)
    or -1 (array form) where the translate leaves the window.  Consumers
    translate through `translates` and `image`, which raise BoundaryError
    there instead.
    """

    ctx: GroupCtx
    n_points: int
    total: bool

    def act(self, gamma: Elem, point: int) -> Optional[int]:
        raise NotImplementedError

    def act_array(self, gamma: Elem, points: np.ndarray) -> np.ndarray:
        """Vectorized act; -1 marks undefined translates."""
        raise NotImplementedError

    def points(self) -> np.ndarray:
        return np.arange(self.n_points)

    def translates(self, elems, x: int) -> np.ndarray:
        """The points e.x for e in `elems`, in that order."""
        out = np.empty(len(elems), dtype=np.int64)
        for i, e in enumerate(elems):
            y = self.act(e, x)
            if y is None:
                raise BoundaryError(f"translate {e!r} . {x} is undefined")
            out[i] = y
        return out

    def image(self, gamma: Elem, points: Optional[np.ndarray] = None) -> np.ndarray:
        """gamma.p for every p in `points` (by default every point)."""
        img = self.act_array(gamma, self.points() if points is None else points)
        if np.any(img < 0):
            raise BoundaryError(f"translate {gamma!r} . p is undefined for some point p")
        return img

    # Subclasses with translation structure can answer freeness questions
    # in O(|S|); the generic fallback compares translate arrays pairwise.
    def free_for(self, S: GroupSet) -> Optional[bool]:
        elems = [self.ctx.normalize(e) for e in S]
        pts = self.points()
        images = []
        indeterminate = False
        for e in elems:
            img = self.act_array(e, pts)
            images.append(img)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                a, b = images[i], images[j]
                both = (a >= 0) & (b >= 0)
                if np.any(a[both] == b[both]):
                    return False
                if not np.all(both):
                    indeterminate = True
        return None if indeterminate else True


class CyclicTranslation(FiniteAction):
    """Integers acting on Z/M by translation: act(g, x) = (x + g) mod M."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise GroupError(f"modulus must be >= 1, got {modulus}")
        self.ctx = GroupCtx(INTEGERS)
        self.modulus = modulus
        self.n_points = modulus
        self.total = True

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
        self.total = True

    def act(self, gamma, point):
        x, y = divmod(point, self.m2)
        return ((x + gamma[0]) % self.m1) * self.m2 + (y + gamma[1]) % self.m2

    def act_array(self, gamma, points):
        x, y = np.divmod(points, self.m2)
        return ((x + gamma[0]) % self.m1) * self.m2 + (y + gamma[1]) % self.m2

    def free_for(self, S: GroupSet) -> bool:
        residues = {(e[0] % self.m1, e[1] % self.m2) for e in S}
        return len(residues) == len(S)


class WindowAction(FiniteAction):
    """Partial action on a finite window of group elements by left
    multiplication.  Translates landing outside the window are dropped
    (never wrapped): act returns None / -1 there.
    """

    def __init__(self, window: GroupSet):
        self.ctx = window.ctx
        self.window = window
        self.n_points = len(window)
        self.total = False
        self._index = {e: i for i, e in enumerate(window.elements)}

    def element_of(self, point: int) -> Elem:
        return self.window.elements[point]

    def index_of(self, elem: Elem) -> Optional[int]:
        return self._index.get(self.ctx.normalize(elem))

    def act(self, gamma, point):
        target = self.ctx.op(self.ctx.normalize(gamma), self.window.elements[point])
        return self._index.get(target)

    def act_array(self, gamma, points):
        g = self.ctx.normalize(gamma)
        out = np.empty(len(points), dtype=np.int64)
        for i, p in enumerate(np.asarray(points)):
            t = self._index.get(self.ctx.op(g, self.window.elements[int(p)]))
            out[i] = -1 if t is None else t
        return out


def free_group_window(rank: int, radius: int) -> WindowAction:
    """Window of all reduced words of length <= radius in the free group."""
    ctx = GroupCtx(FREE, rank)
    gens = [(+i,) for i in range(1, rank + 1)] + [(-i,) for i in range(1, rank + 1)]
    words = {(): None}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                r = ctx.op(w, g)
                if r not in words:
                    words[r] = None
                    nxt.append(r)
        frontier = nxt
    return WindowAction(GroupSet.from_iterable(ctx, words.keys()))


def lattice_window(dims: Sequence[int]) -> WindowAction:
    """Box window {0..d1-1} x ... in Z^len(dims) (or in Z when len == 1)."""
    if len(dims) == 1:
        ctx = GroupCtx(INTEGERS)
        return WindowAction(GroupSet.from_iterable(ctx, range(dims[0])))
    ctx = GroupCtx(LATTICE, len(dims))
    pts = itertools.product(*(range(d) for d in dims))
    return WindowAction(GroupSet.from_iterable(ctx, pts))


def is_sd_free(action: FiniteAction, sets: Sequence[GroupSet]) -> Optional[bool]:
    """True iff distinct elements of each set move every point differently.

    Returns None ("indeterminate") when a window boundary prevents testing a
    pair at some point and no definite violation was found elsewhere.
    """
    verdict: Optional[bool] = True
    for S in sets:
        if S.ctx != action.ctx:
            raise GroupError(f"context mismatch: action is over {action.ctx}, set over {S.ctx}")
        r = action.free_for(S)
        if r is False:
            return False
        if r is None:
            verdict = None
    return verdict


def growth_profile(action: FiniteAction, S: GroupSet, n_max: int) -> list[int]:
    """max_x |S^n . x| for n = 1..n_max on a translation action.

    Translations commute, so the orbit-ball size does not depend on x and
    a single expansion from point 0 suffices.
    """
    if not isinstance(action, (CyclicTranslation, TorusTranslation)):
        raise GroupError("growth profile is defined for translation actions only")
    if n_max < 1:
        raise GroupError(f"n_max must be >= 1, got {n_max}")
    elems = [action.ctx.normalize(e) for e in S]
    reach = {0}
    out = []
    for _ in range(n_max):
        reach = {action.act(e, p) for p in reach for e in elems}
        out.append(len(reach))
    return out
