"""Patterns and pattern frequencies.

Sites are integers.  The shift convention throughout is
(g . c)(d) = c(d + g), so g is an occurrence of a pattern phi in a
configuration c exactly when c(s + g) = phi(s) for every s in dom(phi).

Frequencies are exact rationals; floating point appears only in the
rows `PatternStats.csv_rows` writes out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .groups import GroupSet


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
    """A total coloring of a nonempty finite set of integers by {0..k-1}."""

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
    def from_map(cls, values: Mapping, k: int) -> "Pattern":
        dom = GroupSet(values.keys())
        return cls(dom, tuple(int(values[e]) for e in dom.elements), k)

    def items(self):
        return zip(self.domain.elements, self.colors)

    @property
    def pattern_id(self) -> str:
        return "".join(str(c) for c in self.colors) if self.k <= 10 else \
            "-".join(str(c) for c in self.colors)

    def shifted(self, gamma: int) -> "Pattern":
        """The pattern g . phi with (g . phi)(d) = phi(d + g); its domain is
        dom(phi) - g."""
        return Pattern.from_map({d - gamma: c for d, c in self.items()}, self.k)


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

