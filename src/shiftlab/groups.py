"""The lab's group, the integers Z acting on Z/M by translation, and its
finite subsets.

Every experiment runs over Z.  A finite set of integers holds a nonempty
run of consecutive integers as a ``range`` (`GroupSet.interval` reads it,
and products of intervals are formed in closed form) and any other set as a
sorted tuple.  The one action is `CyclicTranslation`, Z acting on the points
{0..M-1} of Z/M by x -> (x + e) mod M; it is total, and it translates points
through one pair of methods, `translates` (the points e.x of a point x) and
`image` (gamma.p for every point p).

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


class GroupError(ValueError):
    """Usage error: an element that is not an integer, or an action that is
    not free for a set."""


def _as_int(e) -> int:
    if not isinstance(e, (int, np.integer)):
        raise GroupError(f"integer element expected, got {e!r}")
    return int(e)


@dataclass(frozen=True)
class GroupSet:
    """Deduplicated, sorted finite set of integers: a ``range`` for a
    nonempty run of consecutive integers, else a tuple.  `__post_init__`
    brings every construction to this one form."""

    elements: Union[range, tuple]

    def __post_init__(self):
        e = self.elements
        if not isinstance(e, range) or e.step != 1:
            e = sorted({_as_int(x) for x in e})
        run = e and e[-1] - e[0] + 1 == len(e)
        object.__setattr__(self, "elements", range(e[0], e[-1] + 1) if run else tuple(e))

    def __len__(self) -> int:
        return len(self.elements)

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
    return GroupSet(range(start, start + n))


def set_product(S: GroupSet, D: GroupSet) -> GroupSet:
    """{s + d : s in S, d in D}, deduplicated; |SD| <= |S||D|.  Two
    intervals give the interval of length |S| + |D| - 1."""
    s_iv, d_iv = S.interval, D.interval
    if s_iv is not None and d_iv is not None:
        return integer_interval(s_iv[1] + d_iv[1] - 1, s_iv[0] + d_iv[0])
    a = np.asarray(S.elements, dtype=np.int64)
    b = np.asarray(D.elements, dtype=np.int64)
    # chunks of at most 4,000,000 sums (or one element of S times D), each
    # sorted and rid of equal neighbours; GroupSet sorts and deduplicates
    # across chunks
    step = max(1, 4_000_000 // max(b.size, 1))
    vals = []
    for i in range(0, a.size, step):
        c = np.sort(a[i:i + step, None] + b, axis=None)
        first = np.ones(c.size, dtype=bool)  # c[j] starts a run of equal sums
        first[1:] = c[1:] != c[:-1]
        vals.extend(c[first].tolist())
    return GroupSet(vals)


# -- the action -------------------------------------------------------------


class CyclicTranslation:
    """The integers acting on the points {0..M-1} of Z/M by translation,
    e.x = (x + e) mod M.  Every translate of every point is a point."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise GroupError(f"modulus must be >= 1, got {modulus}")
        self.modulus = modulus

    def translates(self, elems, x: int) -> np.ndarray:
        """The points e.x for e in `elems`, in that order."""
        if isinstance(elems, range):  # built in C, not element by element
            elems = np.arange(elems.start, elems.stop, elems.step)
        return (np.asarray(elems, dtype=np.int64) + x) % self.modulus

    def image(self, gamma: int, points: Optional[np.ndarray] = None) -> np.ndarray:
        """gamma.p for every p in `points` (by default every point)."""
        if points is None:
            points = np.arange(self.modulus)
        return (points + int(gamma)) % self.modulus

    def free_for(self, S: GroupSet) -> bool:
        """Whether distinct elements of S move every point to distinct
        points: whether they have distinct residues mod M."""
        iv = S.interval
        if iv is not None:  # consecutive integers have distinct residues iff they fit
            return iv[1] <= self.modulus
        return len({e % self.modulus for e in S.elements}) == len(S)
