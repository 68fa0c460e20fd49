"""Bad events over groups and local-lemma certification.

A bad event is a set of forbidden colorings of a common finite domain
F inside the group.  Placing one copy at every point of an action induces
an instance whose probability and dependency degree obey closed-form
bounds; the symmetric criterion e * p * (d + 1) < 1 certifies solvability,
and unbounded families are certified through an explicit witness function
omega(n) = exp(-a |D_n|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .concentration import deviation_exponent
from .groups import (FiniteAction, GroupError, GroupSet, difference_set_size,
                     set_product)
from .shift import Config, all_patterns, as_fraction

E = math.e


class CertificationError(ValueError):
    """A precondition of a certification routine fails."""


# -- bad events -------------------------------------------------------------


class BadEvent:
    """Common interface: a domain F and a membership test on colorings of F."""

    domain: GroupSet
    k: int

    def holds(self, c: Config) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitEvent(BadEvent):
    """Event given by an explicit list of forbidden patterns on F."""

    patterns: tuple
    k: int = 2

    def __post_init__(self):
        doms = {p.domain for p in self.patterns}
        if len(doms) != 1:
            raise ValueError("all patterns of an event must share one domain")

    @property
    def domain(self) -> GroupSet:
        return self.patterns[0].domain

    def holds(self, c: Config) -> bool:
        _require_total(c, self.domain)
        for p in self.patterns:
            if all(c(e) == v for e, v in p.items()):
                return True
        return False


@dataclass(frozen=True)
class FrequencyDeviationEvent(BadEvent):
    """Colorings of SD in which some pattern on S has frequency over D at
    least eps away from k^{-|S|}.  Always evaluated by predicate; the
    pattern list of the event itself is never materialized."""

    k: int
    S: GroupSet
    eps: Fraction
    D: GroupSet

    def __post_init__(self):
        object.__setattr__(self, "eps", as_fraction(self.eps))
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if len(self.S) == 0 or len(self.D) == 0:
            raise ValueError("S and D must be nonempty")
        if self.S.ctx != self.D.ctx:
            raise GroupError("S and D must share a context")

    @cached_property
    def domain(self) -> GroupSet:
        return set_product(self.S, self.D)

    def deviation_threshold(self) -> tuple[int, int]:
        """Integer test: count c of a pattern deviates iff
        |c * k^{|S|} - |D|| * den >= num, with (num, den) returned here."""
        scale = self.k ** len(self.S)
        return self.eps.numerator * len(self.D) * scale, self.eps.denominator

    def holds(self, c: Config) -> bool:
        _require_total(c, self.domain)
        ctx = self.S.ctx
        counts: dict[tuple, int] = {}
        for d in self.D:
            word = tuple(c(ctx.op(s, d)) for s in self.S.elements)
            counts[word] = counts.get(word, 0) + 1
        scale = self.k ** len(self.S)
        num, den = self.deviation_threshold()
        d_sz = len(self.D)
        for code_count in _iter_all_counts(counts, self.k, len(self.S)):
            if abs(code_count * scale - d_sz) * den >= num:
                return True
        return False


def _iter_all_counts(counts: dict, k: int, s_len: int):
    import itertools
    for word in itertools.product(range(k), repeat=s_len):
        yield counts.get(word, 0)


def _require_total(c: Config, F: GroupSet):
    for e in F:
        if c.get(e) is None:
            raise ValueError(f"coloring is not total on the event domain (missing {e!r})")


def event_holds(B: BadEvent, c: Config) -> bool:
    """True iff the coloring restricted to dom(B) is one of the forbidden ones."""
    return B.holds(c)


def event_probability_exact(B: BadEvent) -> Fraction:
    """|B| / k^{|F|} by exhaustive enumeration (test oracle; tiny domains only)."""
    F = B.domain
    total = B.k ** len(F)
    if total > 1 << 20:
        raise ValueError("exact event probability is an oracle for tiny domains only")
    hits = 0
    for p in all_patterns(F, B.k):
        c = Config.from_array(F, p.colors)
        if B.holds(c):
            hits += 1
    return Fraction(hits, total)


def explicit_expansion(ev: FrequencyDeviationEvent) -> ExplicitEvent:
    """Expand a frequency event into its pattern list (tiny domains only)."""
    F = ev.domain
    if ev.k ** len(F) > 1 << 20:
        raise ValueError("expansion allowed only for tiny domains")
    pats = []
    for p in all_patterns(F, ev.k):
        if ev.holds(Config.from_array(F, p.colors)):
            pats.append(p)
    return ExplicitEvent(tuple(pats), ev.k)


# -- events induced on an action ---------------------------------------------


@dataclass
class InducedEvent:
    """The copy of a group event anchored at a point: its domain is the
    point set F.x and its test pulls a point coloring back to F."""

    base: BadEvent
    anchor: int
    site_of: dict  # F element -> point
    domain_points: tuple

    def holds_on(self, coloring) -> bool:
        values = {e: int(coloring[pt]) for e, pt in self.site_of.items()}
        return self.base.holds(Config.from_map(self.base.domain.ctx, values))

    @property
    def collapsed(self) -> bool:
        return len(self.domain_points) < len(self.base.domain)


def induced_event(B: BadEvent, action: FiniteAction, x: int) -> InducedEvent:
    F = B.domain
    site_of = {}
    points = []
    for e in F:
        y = action.act(e, x)
        if y is None:
            raise GroupError(f"translate {e!r} . {x} is undefined")
        site_of[e] = y
        if y not in points:
            points.append(y)
    return InducedEvent(B, x, site_of, tuple(points))


# -- symmetric certification --------------------------------------------------


@dataclass
class InstanceStats:
    p_bound: float
    d_bound: int
    degree_mode: str

    @property
    def slll_margin(self) -> float:
        return E * self.p_bound * (self.d_bound + 1)

    @property
    def certified(self) -> bool:
        return self.slll_margin < 1.0


def p_bound_freq(k: int, s_size: int, eps: float, d_size: int) -> float:
    """2 k^{|S|} exp(-eps^2 |D| / (2|S|^3)): union of the per-pattern
    concentration bounds over all k^{|S|} patterns."""
    return 2.0 * (k ** s_size) * math.exp(-deviation_exponent(eps, s_size, d_size))


def _interval_extent(S: GroupSet) -> int:
    if S.interval is None:
        raise CertificationError("interval degree mode needs integer intervals")
    return len(S)


def slll_stats(k: int, S: GroupSet, eps, D: GroupSet,
               degree_mode: str = "auto", exact_cap: int = 10_000) -> InstanceStats:
    """Probability/degree bounds for the frequency event with domain SD.

    degree mode:
      - "auto": |(SD)^-1 SD| - 1 exactly when |SD| <= exact_cap, else the
        generic cap |S|^2 |D|^2 - 1;
      - "generic": always the cap;
      - "interval": closed form 2|SD| - 2 for integer intervals S, D.
    """
    epsf = float(as_fraction(eps))
    p = p_bound_freq(k, len(S), epsf, len(D))
    cap = len(S) ** 2 * len(D) ** 2 - 1
    if degree_mode == "generic":
        d = cap
    elif degree_mode == "interval":
        sd = _interval_extent(S) + _interval_extent(D) - 1
        d = 2 * sd - 2
    elif degree_mode == "auto":
        exact = difference_set_size(S, D, cap=exact_cap)
        d = cap if exact is None else min(exact - 1, cap)
    else:
        raise ValueError(f"unknown degree mode {degree_mode!r}")
    return InstanceStats(p, d, degree_mode)


@dataclass
class ThresholdResult:
    found: bool
    threshold: Optional[int]
    stationary_point: int
    margin_at_threshold: Optional[float]
    margin_at_cap: float
    case: str  # "crossing" | "left-of-stationary" | "not-found"


def find_slll_threshold(k: int, S: GroupSet, eps, shape: str = "interval",
                        search_cap: int = 100_000) -> ThresholdResult:
    """Least m <= cap with margin(|D|) < 1 for every |D| in [m, cap].

    The log-margin is const + log(d(m)+1) - eps^2 m / (2|S|^3); it has one
    interior maximum (at 4|S|^3/eps^2 for the generic cap) and decreases
    beyond it, so a bracket-plus-bisect on the decreasing branch suffices.
    """
    epsf = float(as_fraction(eps))
    if not (0 < epsf < 1):
        raise CertificationError("threshold search needs 0 < eps < 1")
    s_sz = len(S)
    s_extent = _interval_extent(S) if shape == "interval" else None

    def margin(m: int) -> float:
        p = p_bound_freq(k, s_sz, epsf, m)
        if shape == "interval":
            d1 = 2 * (s_extent + m - 1) - 1
        elif shape == "generic":
            d1 = s_sz ** 2 * m ** 2
        else:
            raise ValueError(f"unknown shape {shape!r}")
        return E * p * d1

    m_star = max(1, math.ceil(4.0 * s_sz ** 3 / (epsf * epsf)))
    m_cap = margin(search_cap)
    if m_cap >= 1.0:
        return ThresholdResult(False, None, m_star, None, m_cap, "not-found")
    peak = min(m_star, search_cap)
    if margin(peak) < 1.0:
        # the increasing branch may still poke above 1 before the stationary
        # point, so it is scanned outright (for the frequency-event margins
        # this branch is unreachable: the peak value is always >= 1)
        last_bad = 0
        for m in range(1, peak + 1):
            if margin(m) >= 1.0:
                last_bad = m
        thr = last_bad + 1
        case = "left-of-stationary" if last_bad == 0 else "crossing"
        return ThresholdResult(True, thr, m_star, margin(thr), m_cap, case)
    lo, hi = peak, search_cap  # margin(lo) >= 1 > margin(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if margin(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(True, hi, m_star, margin(hi), m_cap, "crossing")


# -- general (witnessed) certification ----------------------------------------


@dataclass(frozen=True)
class GLLLWitnessSpec:
    """Witness omega(n) = exp(-a |D_n|); optionally a log-growth constant C
    certifying |D_n| >= C log(n+2) for the analytic tail."""

    a: float
    C: Optional[float] = None

    def __post_init__(self):
        if self.a <= 0:
            raise CertificationError("witness exponent a must be positive")

    def omega(self, d_size: int) -> float:
        w = math.exp(-self.a * d_size)
        if w >= 1.0:
            raise CertificationError("witness weights must be < 1")
        return w


def tail_log_series(q: float, start: int) -> float:
    """Upper bound for sum_{m >= start} log(m+2) / (m+2)^q (natural log)."""
    if q <= 1.0:
        return math.inf
    # the integral comparison needs log(u)/u^q decreasing, i.e. u >= e^{1/q};
    # peel explicit terms until the remaining sum starts at u >= 3 > e
    extra = 0.0
    while start + 2 < 3:
        extra += math.log(start + 2) / (start + 2) ** q
        start += 1
    u = start + 1
    return extra + u ** (1.0 - q) * (math.log(u) / (q - 1.0) + 1.0 / (q - 1.0) ** 2)


def tail_plain_series(q: float, start: int) -> float:
    """Upper bound for sum_{m >= start} (m+2)^{-q}."""
    if q <= 1.0:
        return math.inf
    u = start + 1
    return u ** (1.0 - q) / (q - 1.0)


@dataclass
class IneqRecord:
    inequality_id: str
    n: object  # int or "tail"
    lhs: float
    rhs: float
    verdict: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_json(self):
        return {"inequality-id": self.inequality_id, "n": self.n, "lhs": self.lhs,
                "rhs": self.rhs, "slack": self.slack,
                "verdict": "pass" if self.verdict else "fail"}


@dataclass
class GLLLReport:
    records: list
    eps_sum: float
    budget_sum: float

    @property
    def ok(self) -> bool:
        return all(r.verdict for r in self.records)

    @property
    def witness_ok(self) -> bool:
        """Correctness proper: the witness-product inequalities (plus the
        tail admissibility rows when a growth constant is supplied)."""
        return all(r.verdict for r in self.records if r.inequality_id != "budget-sum")

    @property
    def budget_ok(self) -> bool:
        """The extra budget condition powering the resample-fraction claim."""
        return all(r.verdict for r in self.records if r.inequality_id == "budget-sum")

    def failing(self) -> list:
        return [r for r in self.records if not r.verdict]


def _pair_neighbor_cap(S: GroupSet, Dm: GroupSet, Dn: GroupSet, same: bool,
                       degree_mode: str) -> float:
    if degree_mode == "interval":
        sdm = _interval_extent(S) + _interval_extent(Dm) - 1
        sdn = _interval_extent(S) + _interval_extent(Dn) - 1
        cnt = sdm + sdn - 1
        return cnt - 1 if same else cnt
    cnt = len(S) ** 2 * len(Dm) * len(Dn)
    return cnt - 1 if same else cnt


def check_glll_witness(k: int, S: GroupSet, eps, d_seq: Sequence[GroupSet],
                       witness: GLLLWitnessSpec, eps_sum=None,
                       degree_mode: str = "generic") -> GLLLReport:
    """Verify the witness inequalities for the family of frequency events
    with domains S D_n.

    Two families of checks per index n, plus budget and tail records:
      - budget:   sum_n |S D_n| omega(n)/(1-omega(n)) < eps_sum;
      - witness:  2 k^{|S|} exp(-eps^2 |D_n|/(2|S|^3))
                      <= omega(n) prod_m (1-omega(m))^{cnt(m,n)},
        evaluated in log space with cnt the chosen neighbor-count cap.
    A log-growth constant C extends both sums over the unseen tail via the
    comparison series sum log(m+2)/(m+2)^{Ca}.  Natural logs throughout.
    """
    epsf = float(as_fraction(eps))
    s_sz = len(S)
    limit = deviation_exponent(epsf, s_sz, 1)
    if not (0 < witness.a < limit):
        raise CertificationError(
            f"witness exponent a={witness.a} outside (0, eps^2/(2|S|^3)) = (0, {limit})")
    eps_sum_f = epsf if eps_sum is None else float(as_fraction(eps_sum))

    sizes = [len(D) for D in d_seq]
    omegas = [witness.omega(sz) for sz in sizes]
    records: list[IneqRecord] = []

    # budget sum over the prefix
    sd_sizes = []
    for D in d_seq:
        if s_sz * len(D) <= 1_000_000:
            sd_sizes.append(len(set_product(S, D)))
        else:
            sd_sizes.append(s_sz * len(D))
    budget = sum(sd * w / (1.0 - w) for sd, w in zip(sd_sizes, omegas))

    n_pref = len(d_seq)
    tail_budget = 0.0
    tail_neighbor_log = 0.0  # bound on sum over tail m of |D_m| * (-log(1-omega(m)))
    tail_omega_sum = 0.0
    if witness.C is not None:
        q = witness.C * witness.a
        records.append(IneqRecord("tail-monotone", "tail",
                                  1.0 / witness.a, witness.C * math.log(2.0),
                                  witness.C * math.log(2.0) > 1.0 / witness.a))
        records.append(IneqRecord("tail-omega-half", "tail",
                                  math.exp(-witness.a * witness.C * math.log(2.0)), 0.5,
                                  math.exp(-witness.a * witness.C * math.log(2.0)) < 0.5))
        tail_budget = 2.0 * s_sz * witness.C * tail_log_series(q, n_pref)
        tail_neighbor_log = 2.0 * witness.C * tail_log_series(q, n_pref)
        tail_omega_sum = tail_plain_series(q, n_pref)
        budget_total = budget + tail_budget
    else:
        budget_total = budget
    records.append(IneqRecord("budget-sum", "all", budget_total, eps_sum_f,
                              budget_total < eps_sum_f))

    # witness inequality per n, in log space
    prefix_log1m = [math.log1p(-w) for w in omegas]
    for n, (Dn, wn) in enumerate(zip(d_seq, omegas)):
        log_lhs = math.log(2.0 * k ** s_sz) - deviation_exponent(epsf, s_sz, sizes[n])
        log_rhs = math.log(wn)
        for m, Dm in enumerate(d_seq):
            cnt = _pair_neighbor_cap(S, Dm, Dn, m == n, degree_mode)
            log_rhs += cnt * prefix_log1m[m]
        if witness.C is not None:
            if degree_mode == "interval":
                sdn = _interval_extent(S) + _interval_extent(Dn) - 1
                log_rhs -= s_sz * tail_neighbor_log + sdn * 2.0 * tail_omega_sum
            else:
                log_rhs -= s_sz ** 2 * sizes[n] * tail_neighbor_log
        records.append(IneqRecord("witness-product", n, log_lhs, log_rhs,
                                  log_lhs <= log_rhs))

    return GLLLReport(records, eps_sum_f, budget_total)


class SearchError(RuntimeError):
    pass


def find_log_growth_constant(k: int, S: GroupSet, eps, a: float, eps_sum,
                             prefix_terms: int = 512,
                             cap: float = 1e12) -> float:
    """Smallest C (doubling then bisection) such that every sequence with
    |D_n| >= C log(n+2) admits the witness omega(n) = exp(-a |D_n|):

      (1) exp(-a C log 2) < 1/2;
      (2) C log 2 > 1/a  (so xi exp(-a xi) is decreasing on the range);
      (3) 2 |S| C sum_n log(n+2)/(n+2)^{Ca} < eps_sum;
      (4) -log(2 k^{|S|})/(C log 2) + eps^2/(2|S|^3)
              >= a + 2 |S|^2 C sum_m log(m+2)/(m+2)^{Ca}.
    """
    epsf = float(as_fraction(eps))
    s_sz = len(S)
    limit = deviation_exponent(epsf, s_sz, 1)
    if not (0 < a < limit):
        raise CertificationError(f"a must lie in (0, {limit}), got {a}")
    eps_sum_f = float(as_fraction(eps_sum))

    def log_series(q: float) -> float:
        if q <= 1.0:
            return math.inf
        total = sum(math.log(n + 2) / (n + 2) ** q for n in range(prefix_terms))
        return total + tail_log_series(q, prefix_terms)

    def ok(C: float) -> bool:
        if math.exp(-a * C * math.log(2.0)) >= 0.5:
            return False
        if C * math.log(2.0) <= 1.0 / a:
            return False
        series = log_series(C * a)
        if 2.0 * s_sz * C * series >= eps_sum_f:
            return False
        lhs = -math.log(2.0 * k ** s_sz) / (C * math.log(2.0)) + limit
        rhs = a + 2.0 * s_sz ** 2 * C * series
        return lhs >= rhs

    c_hi = max(2.0, 2.0 / (a * math.log(2.0)))
    while not ok(c_hi):
        c_hi *= 2.0
        if c_hi > cap:
            raise SearchError(f"no admissible constant below the cap {cap}")
    c_lo = c_hi / 2.0
    for _ in range(200):
        mid = 0.5 * (c_lo + c_hi)
        if ok(mid):
            c_hi = mid
        else:
            c_lo = mid
        if c_hi - c_lo <= 1e-6 * max(1.0, c_hi):
            break
    return c_hi


def standard_witness_from_slll(stats: InstanceStats) -> float:
    """The uniform witness 1/(d+1), admissible whenever e p (d+1) < 1."""
    if not stats.certified:
        raise CertificationError("instance is not certified for the symmetric criterion")
    return 1.0 / (stats.d_bound + 1)
