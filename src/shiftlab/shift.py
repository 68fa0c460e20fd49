"""Configurations, patterns, occurrence sets, and empirical statistics.

The shift convention throughout is (g . c)(d) = c(d g), so g is an
occurrence of a pattern phi in a configuration c exactly when
c(s g) = phi(s) for every s in dom(phi).

Frequencies and measures are exact rationals; floating point appears only
in bounds and distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .groups import Elem, FiniteAction, GroupCtx, GroupError, GroupSet
from .rng import uniform_colors


class BoundaryError(GroupError):
    """A statistic needs data it was not given: a site outside a
    configuration's or an atom's window, or a pattern missing from a
    cylinder table."""


def as_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/decimal string; floats go through
    their shortest decimal repr (so 0.1 means 1/10)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class Pattern:
    """A total coloring of a nonempty finite group subset by {0..k-1}."""

    domain: GroupSet
    colors: tuple  # aligned with domain.elements
    k: int

    def __post_init__(self):
        if len(self.domain) < 1:
            raise ValueError("pattern domain must be nonempty")
        if len(self.colors) != len(self.domain):
            raise ValueError("pattern must be total on its domain")
        if any(not (0 <= c < self.k) for c in self.colors):
            raise ValueError(f"pattern colors must lie in 0..{self.k - 1}")

    @classmethod
    def from_map(cls, ctx: GroupCtx, values: Mapping, k: int) -> "Pattern":
        dom = GroupSet.from_iterable(ctx, values.keys())
        if len(dom) != len(values):
            raise ValueError("pattern sites collide after normalization")
        norm = {ctx.normalize(e): v for e, v in values.items()}
        return cls(dom, tuple(int(norm[e]) for e in dom.elements), k)

    def items(self):
        return zip(self.domain.elements, self.colors)

    @property
    def pattern_id(self) -> str:
        return "".join(str(c) for c in self.colors) if self.k <= 10 else \
            "-".join(str(c) for c in self.colors)

    def shifted(self, gamma: Elem) -> "Pattern":
        """The pattern g . phi with (g . phi)(d) = phi(d g); its domain is
        dom(phi) g^-1."""
        ctx = self.domain.ctx
        ginv = ctx.inv(ctx.normalize(gamma))
        moved = {ctx.op(d, ginv): c for d, c in self.items()}
        return Pattern.from_map(ctx, moved, self.k)


def all_patterns(S: GroupSet, k: int) -> list[Pattern]:
    """All k^{|S|} patterns on S, ordered by color word."""
    n = len(S)
    out = []
    for code in range(k ** n):
        digits = []
        c = code
        for _ in range(n):
            digits.append(c % k)
            c //= k
        digits.reverse()
        out.append(Pattern(S, tuple(digits), k))
    return out


@dataclass(frozen=True)
class Config:
    """A total coloring of a finite window of group elements."""

    domain: GroupSet
    values: Mapping  # normalized elem -> color

    @classmethod
    def from_map(cls, ctx: GroupCtx, values: Mapping) -> "Config":
        dom = GroupSet.from_iterable(ctx, values.keys())
        norm = {ctx.normalize(e): int(v) for e, v in values.items()}
        return cls(dom, norm)

    @classmethod
    def from_array(cls, window: GroupSet, colors: Sequence[int]) -> "Config":
        if len(colors) != len(window):
            raise ValueError("color array must match the window size")
        return cls(window, dict(zip(window.elements, (int(c) for c in colors))))

    def __call__(self, e: Elem) -> int:
        return self.values[self.domain.ctx.normalize(e)]

    def get(self, e: Elem) -> Optional[int]:
        return self.values.get(self.domain.ctx.normalize(e))

    def shifted(self, gamma: Elem) -> "Config":
        ctx = self.domain.ctx
        ginv = ctx.inv(ctx.normalize(gamma))
        return Config.from_map(ctx, {ctx.op(d, ginv): c for d, c in self.values.items()})


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported measure with positive rational weights summing to 1."""

    atoms: tuple  # ((atom_id, Fraction), ...) sorted by atom_id

    def __post_init__(self):
        if any(w <= 0 for _, w in self.atoms):
            raise ValueError("weights must be positive")
        if sum((w for _, w in self.atoms), Fraction(0)) != 1:
            raise ValueError("weights must sum to exactly 1")

    def mass(self, atom_ids: Iterable) -> Fraction:
        wanted = set(atom_ids)
        return sum((w for a, w in self.atoms if a in wanted), Fraction(0))


@dataclass
class PatternStats:
    """Per-pattern frequencies against the Bernoulli target 1/k^{|S|}."""

    rows: list  # (pattern_id, Fraction freq, Fraction target, Fraction deviation)

    @classmethod
    def from_freqs(cls, freqs: Mapping[str, Fraction], target: Fraction) -> "PatternStats":
        return cls([(pid, f, target, abs(f - target)) for pid, f in sorted(freqs.items())])

    @property
    def worst_deviation(self) -> Fraction:
        return max((r[3] for r in self.rows), default=Fraction(0))

    def csv_rows(self):
        for pid, f, t, d in self.rows:
            yield (pid, float(f), float(t), float(d))


# -- occurrence statistics -------------------------------------------------


def occurrences(phi: Pattern, c: Config) -> GroupSet:
    """{g : s g in dom(c) and c(s g) = phi(s) for all s in dom(phi)}."""
    ctx = phi.domain.ctx
    if ctx != c.domain.ctx:
        raise GroupError("pattern and configuration live over different groups")
    s0 = phi.domain.elements[0]
    s0_inv = ctx.inv(s0)
    found = []
    for w in c.domain.elements:
        g = ctx.op(s0_inv, w)  # candidate with s0 * g = w
        ok = True
        for s, col in phi.items():
            v = c.get(ctx.op(s, g))
            if v != col:
                ok = False
                break
        if ok:
            found.append(g)
    return GroupSet.from_iterable(ctx, found)


def empirical_freq(phi: Pattern, c: Config, D: GroupSet) -> Fraction:
    """|D ∩ occurrences(phi, c)| / |D|, exactly.

    Requires full information: every translate s d must lie inside dom(c),
    otherwise the offending translate is reported instead of being dropped.
    """
    ctx = phi.domain.ctx
    if len(D) == 0:
        raise ValueError("averaging set must be nonempty")
    count = 0
    for d in D:
        hit = True
        for s, col in phi.items():
            site = ctx.op(s, d)
            v = c.get(site)
            if v is None:
                raise BoundaryError(
                    f"translate {site!r} (= {s!r} * {d!r}) falls outside the window")
            if v != col:
                hit = False
        if hit:
            count += 1
    return Fraction(count, len(D))


# -- averages over finite actions ------------------------------------------


def pointwise_average(f: Callable[[int], float], x: int, D: GroupSet,
                      action: FiniteAction) -> float:
    """(1/|D|) * sum of f over the D-translates of x, in sorted-D order."""
    if len(D) == 0:
        raise ValueError("averaging set must be nonempty")
    return sum(map(f, action.translates(D.elements, x).tolist()), 0.0) / len(D)


def empirical_measure(x: int, D: GroupSet, action: FiniteAction) -> EmpiricalMeasure:
    """Weight of y is |{d in D : d . x = y}| / |D| (multiplicity-aware)."""
    if len(D) == 0:
        raise ValueError("averaging set must be nonempty")
    ys, hits = np.unique(action.translates(D.elements, x), return_counts=True)
    return EmpiricalMeasure(tuple((y, Fraction(n, len(D)))
                                  for y, n in zip(ys.tolist(), hits.tolist())))


def discrepancy(f: Union[Callable[[int], float], np.ndarray], global_mean: float,
                D: GroupSet, action: FiniteAction) -> float:
    """max over points x of |avg_D f(x) - global_mean|."""
    if len(D) == 0:
        raise ValueError("averaging set must be nonempty")
    if callable(f):
        vals = np.array([f(p) for p in range(action.n_points)], dtype=float)
    else:
        vals = np.asarray(f, dtype=float)
    acc = np.zeros(action.n_points)
    pts = action.points()
    for d in D.elements:
        acc += vals[action.image(d, pts)]
    return float(np.abs(acc / len(D) - global_mean).max())


# -- sampling and cylinder statistics ---------------------------------------


def sample_uniform_config(W: GroupSet, k: int, seed: int, sample_index: int = 0) -> Config:
    """I.i.d. uniform colors on the window W, reproducible from the seed."""
    if len(W) == 0:
        raise ValueError("window must be nonempty")
    colors = uniform_colors(seed, sample_index, np.arange(len(W)), k)
    return Config.from_array(W, colors.tolist())


class UniformCylinders:
    """Cylinder table of the i.i.d. uniform measure: mass k^{-|phi|}."""

    def __init__(self, k: int):
        self.k = k

    def cylinder_prob(self, phi: Pattern) -> Fraction:
        return Fraction(1, self.k ** len(phi.domain))


class AtomCylinders:
    """Cylinder table of a finitely supported measure on configurations."""

    def __init__(self, atoms: Sequence[tuple]):
        # atoms: (Config, weight) pairs
        self.atoms = [(c, as_fraction(w)) for c, w in atoms]

    def cylinder_prob(self, phi: Pattern) -> Fraction:
        total = Fraction(0)
        for c, w in self.atoms:
            vals = []
            for s, col in phi.items():
                v = c.get(s)
                if v is None:
                    raise BoundaryError(
                        f"pattern site {s!r} is outside an atom's resolvable window")
                vals.append(v == col)
            if all(vals):
                total += w
        return total


def _cyl_value(nu, phi: Pattern) -> Fraction:
    if hasattr(nu, "cylinder_prob"):
        return as_fraction(nu.cylinder_prob(phi))
    if isinstance(nu, Mapping):
        try:
            return as_fraction(nu[phi])
        except KeyError:
            raise BoundaryError(f"pattern {phi.pattern_id} missing from the cylinder table")
    raise TypeError("cylinder source must be a mapping or expose cylinder_prob()")


def cylinder_distance(nu1, nu2, patterns: Sequence[Pattern]) -> Fraction:
    """max over the supplied patterns of |nu1(cyl) - nu2(cyl)|."""
    worst = Fraction(0)
    for phi in patterns:
        diff = abs(_cyl_value(nu1, phi) - _cyl_value(nu2, phi))
        worst = max(worst, diff)
    return worst
