"""Configurations, patterns, occurrence sets, and pattern frequencies.

The shift convention throughout is (g . c)(d) = c(d g), so g is an
occurrence of a pattern phi in a configuration c exactly when
c(s g) = phi(s) for every s in dom(phi).

Frequencies are exact rationals; floating point appears only in the
rows `PatternStats.csv_rows` writes out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .groups import Elem, GroupCtx, GroupError, GroupSet


class BoundaryError(GroupError):
    """A frequency needs a site outside the configuration: `empirical_freq`
    raises it instead of dropping the translate."""


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


@dataclass
class PatternStats:
    """Per-pattern frequencies against the Bernoulli target 1/k^{|S|}."""

    rows: list  # (pattern_id, Fraction freq, Fraction target, Fraction deviation)

    @classmethod
    def from_freqs(cls, freqs: Mapping[str, Fraction], target: Fraction) -> "PatternStats":
        return cls([(pid, f, target, abs(f - target)) for pid, f in sorted(freqs.items())])

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
