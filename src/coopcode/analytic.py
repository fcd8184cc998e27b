"""Closed-form outage bounds and diversity-multiplexing tradeoff curves.

Model: every link is quasi-static Rayleigh fading, so the channel power
gain is exponential with rate beta, and a link at SNR rho supports the
per-packet rate r0 iff gain > tau = (2**r0 - 1)/rho.  With N sources and
M relays the cooperative schedule fits N packets into N+M slots, giving
r0 = R*(N+M)/N for a system rate of R bits per channel use.  The library
holds r0 only, as the simulator does; R appears only in this text.

Both outage brackets are one count of surviving transmissions against a
code threshold (gamma_N in multicast, lambda_j in unicast).  Unicast
differs only in that destination j's own direct row is conditioned to be
down: a factor p0, and the count runs over the other N-1+M rows.

The per-destination formulas are evaluated with expm1/exp so they stay
accurate for tau -> 0 (rho up to 1e8 and beyond); system_outage is not
(see there).

A whole grid of SNR points is one call: LinkParams.rho may be a float or a
1-D array of points, and p0, the brackets, system_outage and the link
terms mirror its shape (a float rho gives floats, and is the one-point
case of the same code).  Each call works on float64 arrays over its
points, with the work split so that every float is the one a point-by-point
evaluation gives, on any grid:
- exp, expm1 and every power go through libm one point at a time
  (math.exp, math.expm1 and Python's float pow, in _up_down, _pow and
  _powers).  numpy's exp, expm1 and power round differently from libm on
  some hosts, so no printed float may come from them;
- + - * / and min are numpy array ops, which round as Python's float ops
  do, and each term keeps its operands and the order of its sum.  Sums run
  left to right, as sum() of floats does up to CPython 3.11 (3.12's sum()
  compensates, and the term-by-term reference in the tests uses sum()).
The CLI hands the grid over in blocks of cli.GRID_BLOCK points, so memory
stays bounded on any grid, and prints the bytes a point-by-point loop did.

The link terms have one home, _rate and _up_down, which _bracket reads
once per call; it also builds the powers of a link's up and down
probabilities and of a relay's success and failure, and the binomial rows
C(k, l), once per call, and keeps nothing between calls.  _binomial, p_fm,
p_ekl and p_relay_all are the same terms one at a time: no bracket calls
them, and they stay as the term-by-term reference the tests check _bracket
against.  A bracket takes N+M up to MAX_TOTAL, past which a binomial it
may need is no float.

Each input rule of the library has one copy here, which simkernel reads
too: check_integers (N, M, thresholds, k, trials and workers are ints or
numpy integers, never floats such as 2.0), check_positive (beta, rho and
r0 are finite and positive at every point) and check_rate (2**r0 is a
float).  Each raises a ValueError that names the input at fault.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

SCHEMES = ("dncc", "rncc", "selection", "ncc", "cc")  # the labels of dmt_curve, the simulator and --scheme
COOP_SCHEMES = ("dncc", "rncc", "selection")  # the coded ones: run_trial's and --strategy's
CODE_SCHEMES = ("dncc", "selection")  # the ones that read a code: Scenario.code, --kind
GAMMA_SCHEMES = ("dncc", "rncc")  # a gamma threshold and a closed-form bracket: analyze, --gamma
# The largest N+M for which every C(k, j), k <= N+M, is a float: C(k, k//2),
# the largest, passes the float limit a few k past max_exp (1029 for doubles).
MAX_TOTAL = next(k for k in itertools.count(sys.float_info.max_exp)
                 if math.comb(k + 1, (k + 1) // 2) > sys.float_info.max)


def tau_for(rho, rate_r0: float):
    """The gain a link needs at SNR rho to carry the per-packet rate r0
    (at every point, for an array of rho)."""
    return (2.0 ** rate_r0 - 1.0) / rho


def check_rate(rate_r0) -> None:
    """Raise a ValueError naming rate_r0 where 2**r0, which tau_for takes,
    overflows a float (from r0 = 1024 on); LinkParams and Scenario call it
    after check_positive."""
    try:
        2.0 ** float(rate_r0)
    except OverflowError:
        raise ValueError(f"rate_r0 is too large: 2**{rate_r0:g} overflows a float") from None


def check_integers(**values) -> None:
    """Raise a ValueError naming the first of `values` that is not an int
    or a numpy integer (2.0 is refused, not rounded)."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise a ValueError naming `name` and its first point that is not
    finite and positive; `value` is a float or an array of points."""
    value = np.ravel(value)
    bad = np.flatnonzero(~(np.isfinite(value) & (value > 0)))
    if bad.size:
        raise ValueError(f"{name} must be finite and positive, got {value[bad[0]]}")


@dataclass(frozen=True)
class LinkParams:
    """Fading/rate operating point shared by the closed-form expressions.
    It holds the per-packet rate r0 as given, so tau is bit for bit the
    simulator's at the same (rho, r0).  rho is one SNR point, a float, or
    a 1-D float array of points that the functions below evaluate at once."""

    beta: float       # exponential rate of the channel power gain
    rho: float        # transmit SNR (linear): a float or a 1-D array
    rate_r0: float    # per-packet rate r0 in bits/channel use
    n_sources: int
    n_relays: int

    def __post_init__(self):
        for name in ("beta", "rho", "rate_r0"):
            check_positive(name, getattr(self, name))
        check_rate(self.rate_r0)
        check_integers(n_sources=self.n_sources, n_relays=self.n_relays)
        if self.n_sources < 1 or self.n_relays < 0:
            raise ValueError("need n_sources >= 1 and n_relays >= 0")

    @property
    def tau(self):
        return tau_for(self.rho, self.rate_r0)


def _rate(lp: LinkParams, links: int = 1) -> np.ndarray:
    """links * beta * tau, the outage rate of `links` links in series, at
    each point of lp as a 1-D array.  Where it overflows it is inf with no
    warning, as in Python's float arithmetic."""
    with np.errstate(over="ignore"):
        return links * lp.beta * np.array(lp.tau, dtype=float, ndmin=1)


def _mirror(lp: LinkParams, values: np.ndarray):
    """`values`, one per point of lp, in the shape of lp.rho: a float for a
    float rho."""
    return values if isinstance(lp.rho, np.ndarray) else float(values[0])


def _up_down(rate: np.ndarray) -> tuple:
    """(exp(-rate), 1 - exp(-rate)) at every point: P(up) and P(down) of a
    link whose outage is exponential in `rate`, the second by expm1 so it
    stays exact as rate -> 0.  Both go through libm point by point."""
    neg = (-rate).tolist()
    return (np.fromiter(map(math.exp, neg), float, len(neg)),
            -np.fromiter(map(math.expm1, neg), float, len(neg)))


def _pow(x: np.ndarray, e: int) -> np.ndarray:
    """x**e at every point, each by Python's float pow (libm's): numpy's
    power rounds differently."""
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(e)), float, len(x))


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """The (points, count) table of x**e, e < count, each as _pow's."""
    cells = itertools.starmap(pow, itertools.product(x.tolist(), range(count)))
    return np.fromiter(cells, float, len(x) * count).reshape(len(x), count)


def _binomial(k: int, j: int, p: np.ndarray, not_p: np.ndarray) -> np.ndarray:
    """P(exactly j of k independent events of probability p) at every
    point, given p and 1 - p (each computed stably by the caller).
    Raises ValueError where C(k, j) is no float."""
    try:
        count = float(math.comb(k, j))
    except OverflowError:
        raise ValueError(f"C({k}, {j}) passes the float limit {sys.float_info.max!r}") from None
    return count * _pow(not_p, k - j) * _pow(p, j)


def p0(lp: LinkParams):
    """Outage probability of a single link: P(gain <= tau)."""
    return _mirror(lp, _up_down(_rate(lp))[1])


def p_relay_all(lp: LinkParams):
    """Probability one relay hears all N sources: every source link up."""
    return _mirror(lp, _up_down(_rate(lp, lp.n_sources))[0])


def p_fm(lp: LinkParams, m: int):
    """Probability exactly m of the M relays fail to decode all N packets."""
    if not 0 <= m <= lp.n_relays:
        raise ValueError(f"m must be in [0, {lp.n_relays}]")
    ps, fail = _up_down(_rate(lp, lp.n_sources))
    return _mirror(lp, _binomial(lp.n_relays, m, fail, ps))


def p_ekl(lp: LinkParams, k: int, l_ok: int):
    """Probability exactly l_ok of k independent links are operational."""
    if k < 0 or not 0 <= l_ok <= k:
        raise ValueError("need 0 <= l_ok <= k")
    up, down = _up_down(_rate(lp))
    return _mirror(lp, _binomial(k, l_ok, up, down))


@dataclass(frozen=True)
class OutageBounds:
    """Per-destination outage bracket: floats, or arrays over a grid."""

    lower: float
    upper: float

    def __post_init__(self):
        lower, upper = np.atleast_1d(self.lower), np.atleast_1d(self.upper)
        bad = np.flatnonzero(~((0.0 <= lower) & (lower <= upper * (1 + 1e-12))
                               & (upper <= 1.0 + 1e-12)))
        if bad.size:
            raise ValueError(f"invalid bracket [{lower[bad[0]]}, {upper[bad[0]]}]")


def _bracket(lp: LinkParams, t: int, own: int) -> OutageBounds:
    """The one count behind both brackets: decoding never fails once t of
    the N+M-own counted transmissions survive.  ``own=1`` (unicast)
    conditions the destination's own direct row on being down, a factor p0
    on the upper bound.

    The link terms (tau, p0 and 1 - p0, a relay's success ps and failure)
    and the power tables up**l (l < t), down**e (e <= N+M), ps**e and
    fail**e (e <= M) are computed once per call; the sum is p_fm times
    p_ekl, term by term, each term from the same operands in the same order
    as _binomial's, and each sum left to right.  So P(exactly m relays
    fail) is float(C(M, m)) * ps**(M-m) * fail**m read off the tables, for
    the upper bound's M+1 relay counts and the lower bound's m = 0 alike.
    Each row C(k, l), l < t, comes from the exact integer recurrence
    C(k, l+1) = C(k, l)*(k-l)//(l+1), so each float is float(math.comb(k, l)).
    N+M above MAX_TOTAL raises ValueError."""
    n, m_relays = lp.n_sources, lp.n_relays
    total = n + m_relays
    if total > MAX_TOTAL:
        raise ValueError(f"N+M must be <= {MAX_TOTAL}, where every binomial C(k, j) with "
                         f"k <= N+M is a float, got {total}")
    up, down = _up_down(_rate(lp))
    ps, fail = _up_down(_rate(lp, n))
    up_pow, down_pow = _powers(up, t), _powers(down, total + 1)
    ps_pow, fail_pow = _powers(ps, m_relays + 1), _powers(fail, m_relays + 1)
    # P(exactly m relays fail), as _binomial(M, m, fail, ps) gives it
    relays = [float(math.comb(m_relays, m)) * ps_pow[:, m_relays - m] * fail_pow[:, m]
              for m in range(m_relays + 1)]
    upper = np.zeros(len(up))
    for m in range(m_relays + 1):
        k = total - own - m
        count = min(t, k + 1)
        comb_k = np.fromiter(map(float, itertools.accumulate(
            range(count - 1), lambda c, l: c * (k - l) // (l + 1), initial=1)), float, count)
        # term l is C(k, l) * down**(k-l) * up**l; accumulate sums along l in order
        terms = comb_k * down_pow[:, k::-1][:, :count] * up_pow[:, :count]
        upper += relays[m] * np.add.accumulate(terms, axis=1)[:, -1]
    if own:
        upper *= down
    d = total - (t - 1)
    lower = relays[0] * down_pow[:, d] * _pow(1.0 - down, t - 1)
    return OutageBounds(_mirror(lp, lower), _mirror(lp, np.minimum(upper, 1.0)))


def outage_bounds_multicast(lp: LinkParams, gamma_n: int) -> OutageBounds:
    """Bracket on P(a destination misses at least one of the N packets).

    ``gamma_n`` is the code's gamma-rank at level N: with fewer than
    N+M-(gamma_n-1) failed transmissions, decoding never fails; with at
    most gamma_n-1 survivors it always fails.  The count runs over all N+M
    transmissions (`_bracket` with own=0).
    """
    check_integers(gamma_n=gamma_n)
    total = lp.n_sources + lp.n_relays
    if not lp.n_sources <= gamma_n <= total:
        raise ValueError(f"gamma_n must be in [N, N+M] = [{lp.n_sources}, {total}]")
    return _bracket(lp, gamma_n, own=0)


def outage_bounds_unicast(lp: LinkParams, lambda_i: int) -> OutageBounds:
    """Bracket on P(destination i misses its own packet).

    ``lambda_i`` is the code's lambda-rank for coordinate i.  It is the
    multicast count with the threshold lambda_i, conditioned on the direct
    link being down (factor p0), over the other N-1+M transmissions
    (`_bracket` with own=1).
    """
    check_integers(lambda_i=lambda_i)
    total = lp.n_sources + lp.n_relays
    if not 1 <= lambda_i <= total:
        raise ValueError(f"lambda_i must be in [1, N+M] = [1, {total}]")
    return _bracket(lp, lambda_i, own=1)


def system_outage(per_dest):
    """P(any destination fails) from independent per-destination outages,
    given as floats, or as arrays over the same grid points.

    It computes 1 - prod(1 - p) directly, so it is accurate only to about
    1e-16 absolute and reads 0 once every p is below that: analyze --n 1
    --m 5 at 30 dB prints p_up 3.182451096e-17 and p_system_up 0.  analyze
    prints it of the upper bounds as p_system_up, an upper bound on the
    system outage under strategy A, where each destination's success is
    increasing in the links that are up (Harris-FKG).  Of the lower bounds
    it prints p_system_low, their independence product, which is not a
    proven lower bound.
    """
    acc = 1.0
    for p in per_dest:
        if not np.all((0.0 <= p) & (p <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        acc *= 1.0 - p
    return 1.0 - acc


def selection_cdf_approx(n: int, m: int, beta: float, tau: float) -> float:
    """Small-tau cdf of one adjacent-link gain of the best-bottleneck relay.

    With M candidate relays, each scored by the minimum of its 2N adjacent
    link gains, the chosen relay's individual link gain g satisfies
    P(g <= tau) ~= (2*N*beta)**(M-1) * beta * tau**M as tau -> 0.
    """
    check_integers(n=n, m=m)
    if n < 1 or m < 1 or not (0 < beta < math.inf and 0 <= tau < math.inf):
        raise ValueError("need n, m >= 1, beta > 0, tau >= 0")
    return (2 * n * beta) ** (m - 1) * beta * tau ** m


# -- diversity-multiplexing tradeoff ------------------------------------------


@dataclass(frozen=True)
class DmtCurve:
    """d(r) = d0 * (1 - r/r_max) on [0, r_max], zero beyond (all curves here
    are straight lines from (0, d0) down to (r_max, 0))."""

    scheme: str
    d0: float
    r_max: float

    def __post_init__(self):
        if self.d0 < 0 or self.r_max <= 0:
            raise ValueError("need d0 >= 0 and r_max > 0")

    def at(self, r):
        """d(r) at a float r, or at every point of a 1-D array of r."""
        rs = np.atleast_1d(r)
        d = np.where((rs < 0) | (rs > self.r_max), 0.0, self.d0 * (1.0 - rs / self.r_max))
        return d if isinstance(r, np.ndarray) else float(d[0])


def dmt_curve(scheme: str, n: int, m: int, *, gamma_n: int | None = None,
              k_select: int | None = None) -> DmtCurve:
    """Closed-form DMT line for one scheme.

    dncc/rncc: network-coded cooperation with all M relays.  ``gamma_n``
      (default N, the full-diversity case) degrades the slope to
      N+M-(gamma_n-1) for weaker codes.
    selection: only the best k_select relays transmit, shortening the
      schedule to N+k_select slots.
    ncc: best-relay XOR forwarding (needs every overheard packet), the
      selection line with k_select=1: diversity 2, or M+1 at N=1.
    cc: repetition-based cooperation, diversity M+1 at half multiplexing.
    """
    given = {"gamma_n": gamma_n, "k_select": k_select}
    check_integers(n=n, m=m, **{name: v for name, v in given.items() if v is not None})
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if scheme in GAMMA_SCHEMES:
        g = n if gamma_n is None else gamma_n
        if not n <= g <= n + m:
            raise ValueError(f"gamma_n must be in [{n}, {n + m}]")
        return DmtCurve(scheme, n + m - (g - 1), n / (n + m))
    if scheme in ("selection", "ncc"):
        k = 1 if scheme == "ncc" else k_select
        if k is None or not 1 <= k <= m:
            raise ValueError("selection needs k_select in [1, M]")
        if k < n - 1:
            d0 = k + 1
        else:
            d0 = n + m * (k - (n - 1))
        return DmtCurve(scheme, d0, n / (n + k))
    if scheme == "cc":
        return DmtCurve(scheme, m + 1, 0.5)
    raise ValueError(f"unknown scheme {scheme!r}")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(ys) against log10(xs)."""
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
