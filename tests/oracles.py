"""Brute-force oracles, each the definition itself for tiny inputs, that
tests compare the package's fast paths against.  A coloring is a plain
{site: color} dict, and g is an occurrence of a pattern phi in c exactly
when c(s + g) = phi(s) for every s in dom(phi)."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from shiftlab.groups import GroupSet, set_product


def occurrences(phi, c: dict) -> set:
    """{g : s + g is a site of c and c(s + g) = phi(s) for all s in dom(phi)}."""
    s0 = phi.domain.elements[0]
    return {w - s0 for w in c if all(c.get(s + w - s0) == col for s, col in phi.items())}


def empirical_freq(phi, c: dict, D: GroupSet) -> Fraction:
    """|D ∩ occurrences(phi, c)| / |D|, exactly; a translate s + d outside c
    raises KeyError naming it instead of being dropped."""
    hits = sum(all(c[s + d] == col for s, col in phi.items()) for d in D.elements)
    return Fraction(hits, len(D))


def event_holds(ev, c: dict) -> bool:
    """Whether the coloring c of the event's domain lies in the frequency
    deviation event ev: some pattern on S has frequency over D at least eps
    away from k^{-|S|}."""
    counts = Counter(tuple(c[s + d] for s in ev.S.elements) for d in ev.D.elements)
    target = Fraction(1, ev.k ** len(ev.S))
    return any(abs(Fraction(counts[w], len(ev.D)) - target) >= ev.eps
               for w in itertools.product(range(ev.k), repeat=len(ev.S)))


def event_probability_exact(ev) -> Fraction:
    """|B| / k^{|F|} over every coloring of the event's domain F."""
    F = ev.domain.elements
    hits = sum(event_holds(ev, dict(zip(F, colors)))
               for colors in itertools.product(range(ev.k), repeat=len(F)))
    return Fraction(hits, ev.k ** len(F))


def scb_bound(s: int, b: float, t: float) -> float:
    """2 exp(-t^2 / (2 b^2 s)), the bounded-differences bound: s trials, each
    moving the quantity by at most b, and deviation t."""
    return 2.0 * math.exp(-(t * t) / (2.0 * b * b * s))


def level_array(tower) -> np.ndarray:
    """The level in 0..H-1 of each point of a TowerSystem, -1 outside it."""
    rel = (np.arange(tower.modulus, dtype=np.int64) - tower.offset) % tower.modulus
    lev = rel % tower.height
    lev[rel >= tower.columns * tower.height] = -1
    return lev


def difference_set_size(S: GroupSet, D: GroupSet) -> int:
    """|SD - SD|."""
    sd = set_product(S, D)
    return len(set_product(GroupSet([-e for e in sd.elements]), sd))
