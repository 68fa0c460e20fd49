"""Frequency-deviation events over the integers and local-lemma certification.

The one kind of bad event is the frequency-deviation event: the colorings
of the finite domain F = SD of integers in which some pattern on S has
frequency over D at least eps away from k^{-|S|}.  Placing one copy at
every point of an action induces an instance whose probability and
dependency degree obey closed-form bounds; the symmetric criterion
e * p * (d + 1) < 1 certifies solvability, and unbounded families are
certified through an explicit witness function omega(n) = exp(-a |D_n|).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .concentration import deviation_exponent
from .groups import GroupSet, set_product
from .shift import as_fraction

E = math.e


class CertificationError(ValueError):
    """A precondition of a certification routine fails."""


# -- bad events -------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyDeviationEvent:
    """Colorings of SD in which some pattern on S has frequency over D at
    least eps away from k^{-|S|}.  `moser_tardos.violated_anchors` tests it
    at every anchor at once; the pattern list of the event itself is never
    materialized."""

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

    @cached_property
    def domain(self) -> GroupSet:
        return set_product(self.S, self.D)


# -- symmetric certification --------------------------------------------------


@dataclass
class InstanceStats:
    p_bound: float
    d_bound: int

    @property
    def slll_margin(self) -> float:
        return E * self.p_bound * (self.d_bound + 1)

    @property
    def certified(self) -> bool:
        return self.slll_margin < 1.0


def p_bound_freq(k: int, s_size: int, eps: float, d_size: int) -> float:
    """2 k^{|S|} exp(-eps^2 |D| / (2|S|^3)): union of the per-pattern
    concentration bounds over all k^{|S|} patterns.  When 2 k^{|S|} is past
    the float range the bound is taken from its logarithm, and is inf when
    it is past the float range itself."""
    exponent = deviation_exponent(eps, s_size, d_size)
    try:
        return 2.0 * (k ** s_size) * math.exp(-exponent)
    except OverflowError:
        log_p = math.log(2 * k ** s_size) - exponent
        return math.exp(log_p) if log_p < math.log(sys.float_info.max) else math.inf


def _neighbor_count(s_size: int, m_size: int, n_size: int, intervals: bool) -> int:
    """How many anchors of the event with domain S D_m can share a point with
    one fixed event with domain S D_n, that event itself included:
    |S D_m| + |S D_n| - 1 when S and the D's are integer intervals
    (overlapping windows), else |S|^2 |D_m| |D_n|.  Every neighbor count and
    degree bound is this one, minus 1 when the fixed event is not counted."""
    if intervals:
        return (s_size + m_size - 1) + (s_size + n_size - 1) - 1
    return s_size ** 2 * m_size * n_size


def slll_stats(k: int, S: GroupSet, eps, D: GroupSet) -> InstanceStats:
    """Probability/degree bounds for the frequency event with domain SD; the
    degree bound is `_neighbor_count` less the event itself: 2|SD| - 2 when
    S and D are integer intervals, at every size, else the generic cap
    |S|^2 |D|^2 - 1."""
    p = p_bound_freq(k, len(S), float(as_fraction(eps)), len(D))
    intervals = S.interval is not None and D.interval is not None
    return InstanceStats(p, _neighbor_count(len(S), len(D), len(D), intervals) - 1)


# the largest |D| the threshold search tries
SEARCH_CAP = 100_000


@dataclass
class ThresholdResult:
    threshold: Optional[int]   # None when the margin at SEARCH_CAP is >= 1
    stationary_point: int


def find_slll_threshold(k: int, S: GroupSet, eps, shape: str = "interval") -> ThresholdResult:
    """Least m <= SEARCH_CAP with margin(|D|) < 1 for every |D| in
    [m, SEARCH_CAP], for integer intervals D of size m.

    The log-margin is const + log(d(m)+1) - eps^2 m / (2|S|^3); it has one
    interior maximum (at 4|S|^3/eps^2 for the generic cap) and decreases
    beyond it, so a bracket-plus-bisect on the decreasing branch suffices.
    The stationary point is computed exactly, so an eps whose float square
    underflows still has one.
    """
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise CertificationError("threshold search needs 0 < eps < 1")
    epsf = float(eps)
    s_sz = len(S)
    if shape not in ("interval", "generic") or shape == "interval" and S.interval is None:
        raise ValueError(f"shape must be 'generic' or, for an integer interval S, "
                         f"'interval', got {shape!r}")

    def margin(m: int) -> float:
        count = _neighbor_count(s_sz, m, m, shape == "interval")
        return InstanceStats(p_bound_freq(k, s_sz, epsf, m), count - 1).slll_margin

    m_star = math.ceil(4 * s_sz ** 3 / eps ** 2)
    if margin(SEARCH_CAP) >= 1.0:
        return ThresholdResult(None, m_star)
    # No scan left of the stationary point is needed.  The log-margin is
    # concave on [1, m_star], so its least value there is at an end.  At
    # m = 1 the margin is at least 2e exp(-1/2) = 3.30 (k = |S| = 1, eps -> 1);
    # at m_star >= 5 the exponent is below 5/2 and d + 1 >= 9, so it exceeds
    # 18 exp(-3/2) = 4.0.  So margin >= 1 on [1, m_star], and a SEARCH_CAP
    # there was reported as not found above.
    lo, hi = m_star, SEARCH_CAP  # margin(lo) >= 1 > margin(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if margin(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(hi, m_star)


# -- general (witnessed) certification ----------------------------------------


@dataclass(frozen=True)
class GLLLWitnessSpec:
    """Witness omega(n) = exp(-a |D_n|); optionally a log-growth constant C
    certifying |D_n| >= C log(n+2) for the analytic tail."""

    a: float
    C: Optional[float] = None

    def __post_init__(self):
        if self.a <= 0:
            raise CertificationError(f"witness exponent a must be positive, got {self.a}")

    def omega(self, d_size: int) -> float:
        w = math.exp(-self.a * d_size)
        if w >= 1.0:
            raise CertificationError("witness weights must be < 1")
        return w


def default_witness_exponent(eps, s_size: int) -> float:
    """The witness exponent a = eps^2 / (4|S|^3) used when none is given: half
    the exponent of the deviation bound 2 exp(-eps^2 |D| / (2|S|^3)), so the
    bound falls below omega(n) = exp(-a |D_n|) once |D_n| is large."""
    epsf = float(eps)
    return epsf * epsf / (4.0 * s_size ** 3)


def tail_log_series(q: float, start: int) -> float:
    """Upper bound for sum_{m >= start} log(m+2) / (m+2)^q (natural log)."""
    if q <= 1.0:
        return math.inf
    # the integral comparison needs log(u)/u^q decreasing, i.e. u >= e^{1/q};
    # peel explicit terms until the remaining sum starts at u >= 3 > e
    extra = 0.0
    while start + 2 < 3:
        extra += math.log(start + 2) * (start + 2.0) ** -q
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


def _tail_records(a: float, C: float) -> list:
    """Admissibility of the analytic tail |D_n| >= C log(n+2) for the witness
    exp(-a |D_n|): C log 2 > 1/a, so xi exp(-a xi) decreases on the range,
    and exp(-a C log 2) < 1/2."""
    omega_2 = math.exp(-a * C * math.log(2.0))
    return [IneqRecord("tail-monotone", "tail", 1.0 / a, C * math.log(2.0),
                       C * math.log(2.0) > 1.0 / a),
            IneqRecord("tail-omega-half", "tail", omega_2, 0.5, omega_2 < 0.5)]


def check_glll_witness(k: int, S: GroupSet, eps, d_seq: Sequence[GroupSet],
                       witness: GLLLWitnessSpec, eps_sum=None) -> GLLLReport:
    """Verify the witness inequalities for the family of frequency events
    with domains S D_n.

    Two families of checks per index n, plus budget and tail records:
      - budget:   sum_n |S D_n| omega(n)/(1-omega(n)) < eps_sum;
      - witness:  2 k^{|S|} exp(-eps^2 |D_n|/(2|S|^3))
                      <= omega(n) prod_m (1-omega(m))^{cnt(m,n)},
        evaluated in log space, with cnt the neighbor count of
        `_neighbor_count`: the interval form when S and every D_n are
        integer intervals, else the generic cap.
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
    intervals = all(X.interval is not None for X in (S, *d_seq))

    sizes = [len(D) for D in d_seq]
    omegas = [witness.omega(sz) for sz in sizes]
    records: list[IneqRecord] = []

    # budget sum over the prefix
    sd_sizes = [len(set_product(S, D)) for D in d_seq]
    budget = sum(sd * w / (1.0 - w) for sd, w in zip(sd_sizes, omegas))

    n_pref = len(d_seq)
    tail_budget = 0.0
    tail_neighbor_log = 0.0  # bound on sum over tail m of |D_m| * (-log(1-omega(m)))
    tail_omega_sum = 0.0
    if witness.C is not None:
        q = witness.C * witness.a
        records += _tail_records(witness.a, witness.C)
        tail_budget = 2.0 * s_sz * witness.C * tail_log_series(q, n_pref)
        tail_neighbor_log = 2.0 * witness.C * tail_log_series(q, n_pref)
        tail_omega_sum = tail_plain_series(q, n_pref)
    budget_total = budget + tail_budget
    records.append(IneqRecord("budget-sum", "all", budget_total, eps_sum_f,
                              budget_total < eps_sum_f))

    # witness inequality per n, in log space
    prefix_log1m = [math.log1p(-w) for w in omegas]
    for n in range(len(sizes)):
        log_lhs = math.log(2 * k ** s_sz) - deviation_exponent(epsf, s_sz, sizes[n])
        log_rhs = -witness.a * sizes[n]  # log omega(n), finite where omega(n) underflows
        for m, log1m in enumerate(prefix_log1m):
            cnt = _neighbor_count(s_sz, sizes[m], sizes[n], intervals) - int(m == n)
            log_rhs += cnt * log1m
        if intervals:  # the tail terms are 0 without a growth constant
            sdn = s_sz + sizes[n] - 1
            log_rhs -= s_sz * tail_neighbor_log + sdn * 2.0 * tail_omega_sum
        else:
            log_rhs -= s_sz ** 2 * sizes[n] * tail_neighbor_log
        records.append(IneqRecord("witness-product", n, log_lhs, log_rhs,
                                  log_lhs <= log_rhs))

    return GLLLReport(records, budget_total)


class SearchError(RuntimeError):
    pass


def find_log_growth_constant(k: int, S: GroupSet, eps, a: float, eps_sum) -> float:
    """Smallest C (doubling then bisection) such that every sequence with
    |D_n| >= C log(n+2) admits the witness omega(n) = exp(-a |D_n|):

      (1) exp(-a C log 2) < 1/2;
      (2) C log 2 > 1/a  (so xi exp(-a xi) is decreasing on the range);
      (3) 2 |S| C sum_n log(n+2)/(n+2)^{Ca} < eps_sum;
      (4) -log(2 k^{|S|})/(C log 2) + eps^2/(2|S|^3)
              >= a + 2 |S|^2 C sum_m log(m+2)/(m+2)^{Ca}.

    Each series sums its first 512 terms and bounds the rest with
    `tail_log_series`; no C above 1e12 is tried (SearchError).
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
        # a power past the float range underflows to 0 instead of raising
        total = sum(math.log(n + 2) * (n + 2.0) ** -q for n in range(512))
        return total + tail_log_series(q, 512)

    def ok(C: float) -> bool:
        if not all(r.verdict for r in _tail_records(a, C)):
            return False
        series = log_series(C * a)
        if 2.0 * s_sz * C * series >= eps_sum_f:
            return False
        lhs = -math.log(2 * k ** s_sz) / (C * math.log(2.0)) + limit
        rhs = a + 2.0 * s_sz ** 2 * C * series
        return lhs >= rhs

    c_hi = max(2.0, 2.0 / (a * math.log(2.0)))
    while not ok(c_hi):
        c_hi *= 2.0
        if c_hi > 1e12:
            raise SearchError("no admissible constant below the cap 1e12")
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
