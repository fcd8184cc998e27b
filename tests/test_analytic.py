"""Closed-form outage bounds, asymptotic constants, and tradeoff curves."""

import math
import random
import re
import sys

import numpy as np
import pytest

from coopcode import analytic, simkernel
from coopcode.analytic import (
    MAX_TOTAL,
    SCHEMES,
    DmtCurve,
    LinkParams,
    OutageBounds,
    dmt_curve,
    loglog_slope,
    outage_bounds_multicast,
    outage_bounds_unicast,
    p0,
    p_ekl,
    p_fm,
    p_relay_all,
    selection_cdf_approx,
    system_outage,
    tau_for,
)


def _lp(rho, n=2, m=2, beta=1.0, r0=1.0):
    return LinkParams(beta=beta, rho=rho, rate_r0=r0, n_sources=n, n_relays=m)


def test_link_params_rate_relation():
    lp = LinkParams(beta=1.0, rho=10.0, rate_r0=1.0, n_sources=2, n_relays=2)
    assert (lp.beta, lp.rho, lp.rate_r0, lp.n_sources, lp.n_relays) == (1.0, 10.0, 1.0, 2, 2)
    assert lp.tau == pytest.approx(0.1)
    assert not hasattr(lp, "rate_r") and not hasattr(LinkParams, "from_rate_r0")
    # a system rate R enters as r0 = R(N+M)/N, here R = 0.5
    assert _lp(10.0, r0=0.5 * (2 + 2) / 2) == lp


def test_link_params_tau_is_tau_for_bit_for_bit():
    assert simkernel.tau_for is tau_for  # the simulator thresholds with the same tau
    rng = random.Random(11)
    for _ in range(200):
        rho = 10.0 ** rng.uniform(-2, 8)
        n, m, beta = rng.randrange(1, 7), rng.randrange(0, 7), rng.uniform(0.1, 4.0)
        r0 = rng.uniform(0.01, 8.0)
        tau = _lp(rho, n=n, m=m, beta=beta, r0=r0).tau
        assert tau == tau_for(rho, r0) == (2.0 ** r0 - 1.0) / rho


def test_link_params_validation():
    bad = [("beta", 0.0), ("rho", -1.0), ("rate_r0", 0.0)]
    bad += [(name, v) for name in ("beta", "rho", "rate_r0") for v in (math.nan, math.inf)]
    for name, value in bad:
        base = dict(beta=1.0, rho=1.0, rate_r0=1.0, n_sources=2, n_relays=2)
        base[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            LinkParams(**base)
    for n, m in ((0, 2), (2, -1)):
        with pytest.raises(ValueError, match="^need n_sources >= 1 and n_relays >= 0$"):
            _lp(1.0, n=n, m=m)
    for n, m, message in ((2.5, 2, "n_sources must be an integer, got 2.5"),
                          (2.0, 2, "n_sources must be an integer, got 2.0"),
                          (2, 1.0, "n_relays must be an integer, got 1.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LinkParams(1.0, 10.0, 1.0, n, m)


def test_p0_frozen_value_and_asymptote():
    lp = _lp(10.0)
    assert p0(lp) == pytest.approx(1 - math.exp(-0.1), abs=1e-15)
    assert p0(lp) == pytest.approx(0.09516258196404043)
    # p0 ~ beta*tau as tau -> 0
    tiny = _lp(1e9)
    assert p0(tiny) / tiny.tau == pytest.approx(1.0, rel=1e-6)


def test_p_relay_all():
    lp = _lp(10.0)
    assert p_relay_all(lp) == pytest.approx(math.exp(-0.2))
    assert p_relay_all(lp) == pytest.approx((1 - p0(lp)) ** 2, rel=1e-12)


def test_p_fm_binomial_completeness_and_limit():
    lp = _lp(10.0, n=2, m=3)
    assert sum(p_fm(lp, k) for k in range(4)) == pytest.approx(1.0, abs=1e-12)
    assert p_fm(lp, 0) == pytest.approx(p_relay_all(lp) ** 3)
    assert p_fm(lp, 3) == pytest.approx((1 - p_relay_all(lp)) ** 3)
    with pytest.raises(ValueError):
        p_fm(lp, 4)
    # P(F_m)/tau^m -> C(M,m)(N beta)^m
    hi = _lp(1e8, n=2, m=3)
    for k in range(4):
        want = math.comb(3, k) * (2.0) ** k
        assert p_fm(hi, k) / hi.tau**k == pytest.approx(want, rel=1e-5)


def test_p_ekl_terms():
    lp = _lp(10.0)
    assert p_ekl(lp, 3, 3) == pytest.approx((1 - p0(lp)) ** 3)
    assert p_ekl(lp, 1, 0) == pytest.approx(p0(lp))
    assert sum(p_ekl(lp, 4, j) for j in range(5)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        p_ekl(lp, 2, 3)


def test_multicast_bounds_frozen_constants():
    b = outage_bounds_multicast(_lp(100.0), gamma_n=2)
    assert b.lower <= b.upper


def test_multicast_bounds_converge_to_constants():
    hi = _lp(1e9)
    b = outage_bounds_multicast(hi, gamma_n=2)
    d = 3  # N+M-(Gamma-1)
    # for N=2, M=2, Gamma=2, beta=1, the sum over relay-failure counts of
    # C(M,m) (N beta)^m C(k, Gamma-1) beta^(k-Gamma+1) = 6+12+6 = 24
    assert b.upper / hi.tau**d == pytest.approx(24.0, rel=1e-6)
    assert b.lower / hi.tau**d == pytest.approx(1.0, rel=1e-6)


def test_multicast_gamma_range():
    lp = _lp(10.0)
    for g in (1, 5):
        with pytest.raises(ValueError):
            outage_bounds_multicast(lp, g)
    for g in (2.0, 2.5):
        with pytest.raises(ValueError, match=f"^gamma_n must be an integer, got {g}$"):
            outage_bounds_multicast(lp, g)


def test_unicast_bounds():
    lp = _lp(100.0)
    b = outage_bounds_unicast(lp, lambda_i=2)
    assert b.lower <= b.upper
    assert b.upper <= p0(lp)  # leading direct-link factor
    hi = _lp(1e9)
    bh = outage_bounds_unicast(hi, lambda_i=2)
    assert bh.upper / hi.tau**3 == pytest.approx(15.0, rel=1e-6)
    with pytest.raises(ValueError):
        outage_bounds_unicast(lp, 0)
    with pytest.raises(ValueError):
        outage_bounds_unicast(lp, 5)
    with pytest.raises(ValueError, match=r"^lambda_i must be an integer, got 2\.0$"):
        outage_bounds_unicast(lp, 2.0)


def test_bounds_bracket_over_random_parameters():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        lp = LinkParams(
            beta=rng.uniform(0.1, 3.0),
            rho=10 ** rng.uniform(-1, 8),
            rate_r0=rng.uniform(0.1, 4.0),
            n_sources=n,
            n_relays=m,
        )
        g = rng.randrange(n, n + m + 1)
        b = outage_bounds_multicast(lp, g)
        assert 0.0 <= b.lower <= b.upper <= 1.0
        lam = rng.randrange(1, n + m + 1)
        u = outage_bounds_unicast(lp, lam)
        assert 0.0 <= u.lower <= u.upper <= 1.0


def _ref_multicast(lp, gamma_n):
    """The multicast bracket as written before both modes shared one count."""
    n, m_relays = lp.n_sources, lp.n_relays
    total = n + m_relays
    upper = 0.0
    for m in range(m_relays + 1):
        k = total - m
        fm = p_fm(lp, m)
        upper += fm * sum(p_ekl(lp, k, l) for l in range(min(gamma_n - 1, k) + 1))
    d = total - (gamma_n - 1)
    lower = p_fm(lp, 0) * p0(lp) ** d * (1.0 - p0(lp)) ** (gamma_n - 1)
    return OutageBounds(lower, min(upper, 1.0))


def _ref_unicast(lp, lambda_i):
    """The unicast bracket as written before both modes shared one count."""
    n, m_relays = lp.n_sources, lp.n_relays
    total = n + m_relays
    direct_down = p0(lp)
    upper = 0.0
    for m in range(m_relays + 1):
        k = n - 1 + m_relays - m
        fm = p_fm(lp, m)
        upper += fm * sum(p_ekl(lp, k, l) for l in range(min(lambda_i - 1, k) + 1))
    upper *= direct_down
    d = total - (lambda_i - 1)
    lower = p_fm(lp, 0) * direct_down ** d * (1.0 - direct_down) ** (lambda_i - 1)
    return OutageBounds(lower, min(upper, 1.0))


def test_shared_bracket_matches_the_separate_formulas_exactly():
    for n in range(1, 7):
        for m in range(0, 7):
            for beta in (0.5, 1.0, 2.5):
                for r0 in (0.5, 2.0):
                    for db in (-10.0, 10.0, 40.0, 80.0):
                        lp = _lp(10 ** (db / 10), n=n, m=m, beta=beta, r0=r0)
                        for g in range(n, n + m + 1):
                            assert outage_bounds_multicast(lp, gamma_n=g) == _ref_multicast(lp, g)
                        for lam in range(1, n + m + 1):
                            assert outage_bounds_unicast(lp, lambda_i=lam) == _ref_unicast(lp, lam)


def _bits(values):
    """Each float's exact value, sign of zero included."""
    return [float.hex(v) for v in values]


def _loop_bracket(lp, t, own):
    """(lower, upper) at lp's one point as a loop over Python floats, with
    libm's exp, expm1 and **: the code that the grid evaluation replaced."""
    n, m_relays = lp.n_sources, lp.n_relays
    total = n + m_relays
    up, down = math.exp(-(lp.beta * lp.tau)), -math.expm1(-(lp.beta * lp.tau))
    ps, fail = math.exp(-(n * lp.beta * lp.tau)), -math.expm1(-(n * lp.beta * lp.tau))

    def binomial(k, j, p, not_p):
        return math.comb(k, j) * not_p ** (k - j) * p ** j

    upper = 0.0
    for m in range(m_relays + 1):
        k = total - own - m
        upper += binomial(m_relays, m, fail, ps) * sum(
            [math.comb(k, l) * down ** (k - l) * up ** l for l in range(min(t - 1, k) + 1)])
    if own:
        upper *= down
    d = total - (t - 1)
    lower = binomial(m_relays, 0, fail, ps) * down ** d * (1.0 - down) ** (t - 1)
    return lower, min(upper, 1.0)


def test_grid_evaluation_equals_the_one_point_calls_bit_for_bit():
    rng = random.Random(31)
    for _ in range(14):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        beta, r0 = rng.uniform(0.05, 5.0), rng.uniform(0.01, 8.0)
        dbs = sorted([-1000.0, 2000.0] + [rng.uniform(-1000.0, 2000.0) for _ in range(22)])
        rhos = [10.0 ** (db / 10.0) for db in dbs]
        grid = _lp(np.array(rhos), n=n, m=m, beta=beta, r0=r0)
        points = [_lp(rho, n=n, m=m, beta=beta, r0=r0) for rho in rhos]
        assert _bits(p0(grid).tolist()) == _bits([p0(lp) for lp in points]) == _bits(
            [-math.expm1(-(lp.beta * lp.tau)) for lp in points])
        for bound, thresholds, own in ((outage_bounds_multicast, range(n, n + m + 1), 0),
                                       (outage_bounds_unicast, range(1, n + m + 1), 1)):
            per = {t: bound(grid, t) for t in thresholds}
            one = {t: [bound(lp, t) for lp in points] for t in thresholds}
            for t in thresholds:
                loop = [_loop_bracket(lp, t, own) for lp in points]
                assert _bits(per[t].lower.tolist()) == _bits([b.lower for b in one[t]]) == _bits(
                    [lower for lower, _ in loop])
                assert _bits(per[t].upper.tolist()) == _bits([b.upper for b in one[t]]) == _bits(
                    [upper for _, upper in loop])
            # the average and system columns, as analyze forms them from one
            # threshold per destination
            dest = [rng.choice(thresholds) for _ in range(n)]
            for side in ("lower", "upper"):
                block = [getattr(per[t], side) for t in dest]
                at_point = [[getattr(one[t][i], side) for t in dest] for i in range(len(rhos))]
                assert _bits((sum(block) / n).tolist()) == _bits([sum(v) / n for v in at_point])
                assert _bits(system_outage(block).tolist()) == _bits(
                    [system_outage(v) for v in at_point])


def test_dmt_line_on_a_grid_equals_at_point_by_point():
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        scheme = rng.choice(SCHEMES)
        curve = dmt_curve(scheme, n, m, gamma_n=rng.randint(n, n + m),
                          k_select=rng.randint(1, m))
        rs = np.concatenate([[-0.25], np.linspace(0.0, curve.r_max, rng.randint(2, 400)),
                             [curve.r_max * 1.5]])
        line = [0.0 if r < 0 or r > curve.r_max else curve.d0 * (1.0 - r / curve.r_max)
                for r in rs.tolist()]
        assert _bits(curve.at(rs).tolist()) == _bits([curve.at(r) for r in rs.tolist()])
        assert _bits(curve.at(rs).tolist()) == _bits(line)


def test_a_grid_names_its_first_bad_point():
    with pytest.raises(ValueError, match=r"^rho must be finite and positive, got -2.0$"):
        _lp(np.array([1.0, 10.0, -2.0, np.nan]))
    with pytest.raises(ValueError, match=r"^invalid bracket \[0.5, 0.25\]$"):
        OutageBounds(np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.25, 0.8]))
    with pytest.raises(ValueError, match="probabilities must lie in"):
        system_outage([np.array([0.1, 0.2]), np.array([0.3, 1.5])])


def test_a_bracket_takes_n_plus_m_up_to_the_float_limit():
    """MAX_TOTAL is the largest N+M whose binomials C(k, j), k <= N+M, are
    all floats; a bracket takes it and refuses one more row."""
    top = MAX_TOTAL
    assert top == 1029  # for IEEE doubles
    assert float(math.comb(top, top // 2)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(top + 1, (top + 1) // 2))
    for n in (1, top - 1):  # widest relay binomials, widest rows
        lp = _lp(10.0, n=n, m=top - n)
        for bounds in (outage_bounds_multicast(lp, top), outage_bounds_unicast(lp, 1)):
            assert 0.0 <= bounds.lower <= bounds.upper <= 1.0
        wider = _lp(10.0, n=n, m=top + 1 - n)
        message = re.escape(f"N+M must be <= {top}, where every binomial C(k, j) with k <= N+M "
                            f"is a float, got {top + 1}")
        with pytest.raises(ValueError, match=message):
            outage_bounds_multicast(wider, n)
        with pytest.raises(ValueError, match=message):
            outage_bounds_unicast(wider, top)


def test_a_bracket_reads_its_relay_counts_from_power_tables(monkeypatch):
    """One bracket builds four power tables (up, down, a relay's success and
    failure) and takes one more power, (1 - down)**(t-1) for the lower
    bound; its M+1 relay counts call no _binomial."""
    calls = []
    for name in ("_binomial", "_pow", "_powers"):
        monkeypatch.setattr(analytic, name, lambda *a, _fn=getattr(analytic, name), _name=name:
                            calls.append(_name) or _fn(*a))
    for bound, t in ((outage_bounds_multicast, 4), (outage_bounds_unicast, 2)):
        calls.clear()
        bound(_lp(np.array([1.0, 10.0, 100.0]), n=3, m=4), t)
        assert sorted(calls) == ["_pow"] + ["_powers"] * 4


def test_a_binomial_past_the_float_limit_is_refused():
    """p_fm and p_ekl raise ValueError naming C(k, j) where it is no float,
    and every binomial that fits reads as float(C(k, j)) times libm's powers."""
    message = re.escape(f"C(1100, 550) passes the float limit {sys.float_info.max!r}")
    lp = LinkParams(1.0, 10.0, 1.0, 1, 1100)
    with pytest.raises(ValueError, match=message):
        p_ekl(lp, 1100, 550)
    with pytest.raises(ValueError, match=message):
        p_fm(lp, 550)
    top = LinkParams(1.0, 1 / math.log(2), 1.0, 1, MAX_TOTAL)  # a link is up about half the time
    up, down = math.exp(-top.tau), -math.expm1(-top.tau)  # also a relay's, as N = 1
    for k, j in ((MAX_TOTAL, MAX_TOTAL // 2), (MAX_TOTAL, 3), (40, 20)):
        want = float(math.comb(k, j)) * down ** (k - j) * up ** j
        assert p_ekl(top, k, j) == want
        assert want > 0
        assert p_fm(top, j) == float(math.comb(MAX_TOTAL, j)) * up ** (MAX_TOTAL - j) * down ** j


def test_upper_bound_monotone_in_snr():
    ups = [
        outage_bounds_multicast(_lp(10 ** (db / 10)), 2).upper for db in range(0, 31)
    ]
    assert all(b <= a for a, b in zip(ups, ups[1:]))


def test_analytic_slope_matches_diversity_order():
    # fitted log-log slope of the upper bound ~ -(M+1) for MDS codes
    rhos = [10 ** (5 + i / 4) for i in range(9)]  # 1e5 .. 1e7
    for n, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        ups = [
            outage_bounds_multicast(_lp(r, n=n, m=m), gamma_n=n).upper for r in rhos
        ]
        slope = loglog_slope(rhos, ups)
        assert abs(slope - (-(m + 1))) < 0.05, (n, m, slope)


def test_system_outage():
    assert system_outage([]) == 0.0
    assert system_outage([0.3]) == pytest.approx(0.3)
    assert system_outage([0.1, 0.1]) == pytest.approx(0.19)
    with pytest.raises(ValueError):
        system_outage([1.5])


def test_selection_cdf_approx():
    assert selection_cdf_approx(2, 1, 0.7, 0.01) == pytest.approx(0.007)  # M=1: beta*tau
    assert selection_cdf_approx(2, 2, 1.0, 0.01) == pytest.approx(4e-4)
    assert selection_cdf_approx(2, 3, 1.0, 0.01) == pytest.approx(16 * 1e-6)


@pytest.mark.parametrize("args", [
    (0, 1, 1.0, 0.1), (1, 0, 1.0, 0.1), (1, 1, 0.0, 0.1), (1, 1, -1.0, 0.1), (1, 1, 1.0, -0.1),
    (1, 1, math.nan, 0.1), (1, 1, 1.0, math.nan), (1, 1, math.inf, 0.1), (1, 1, 1.0, math.inf),
])
def test_selection_cdf_approx_rejects_bad_inputs(args):
    with pytest.raises(ValueError, match=r"need n, m >= 1, beta > 0, tau >= 0$"):
        selection_cdf_approx(*args)


@pytest.mark.parametrize("args, message", [
    ((2.5, 2, 1.0, 0.1), "n must be an integer, got 2.5"),
    ((2, 2.0, 1.0, 0.1), "m must be an integer, got 2.0"),
])
def test_selection_cdf_approx_takes_integer_sizes(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        selection_cdf_approx(*args)


def test_dmt_curve_values():
    c = dmt_curve("dncc", 2, 2)
    assert (c.d0, c.r_max) == (3, 0.5)
    assert c.at(0.0) == 3.0
    assert c.at(0.25) == pytest.approx(1.5)
    assert c.at(0.5) == 0.0
    assert c.at(0.7) == 0.0  # clamped outside the interval

    assert dmt_curve("ncc", 2, 2).at(0.0) == 2.0
    assert dmt_curve("cc", 2, 2).at(0.0) == 3.0  # M+1
    assert dmt_curve("cc", 2, 2).at(0.5) == 0.0
    assert dmt_curve("selection", 2, 2, k_select=2).at(0.0) == 4.0  # N + M(K-(N-1))
    assert dmt_curve("selection", 3, 3, k_select=1).at(0.0) == 2.0  # K < N-1: K+1
    assert dmt_curve("selection", 2, 2, k_select=1).r_max == pytest.approx(2 / 3)


def test_dmt_gamma_degrades_curve_pointwise():
    ideal = dmt_curve("dncc", 2, 2, gamma_n=2)
    weak = dmt_curve("dncc", 2, 2, gamma_n=3)
    for i in range(1, 10):
        r = ideal.r_max * i / 10
        assert weak.at(r) < ideal.at(r)


def test_dmt_ncc_is_the_selection_k1_line():
    # with N=1 there are no cross links: the XOR row is the packet itself
    for m in range(1, 4):
        assert dmt_curve("ncc", 1, m).d0 == m + 1
    for n in range(1, 5):
        for m in range(1, 4):
            ncc = dmt_curve("ncc", n, m)
            sel = dmt_curve("selection", n, m, k_select=1)
            assert (ncc.d0, ncc.r_max) == (sel.d0, sel.r_max)


def test_dmt_validation():
    for n, m in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="^need n >= 1 and m >= 1$"):
            dmt_curve("dncc", n, m)
    for d0, r_max in ((-1.0, 0.5), (2.0, 0.0)):
        with pytest.raises(ValueError, match="^need d0 >= 0 and r_max > 0$"):
            DmtCurve("dncc", d0, r_max)
    with pytest.raises(ValueError):
        dmt_curve("dncc", 2, 2, gamma_n=1)
    with pytest.raises(ValueError):
        dmt_curve("selection", 2, 2)  # k_select missing
    with pytest.raises(ValueError):
        dmt_curve("nope", 2, 2)
    for args, kwargs, message in (
            (("dncc", 2.5, 1.5), {}, "n must be an integer, got 2.5"),
            (("cc", 2, 2.0), {}, "m must be an integer, got 2.0"),
            (("dncc", 2, 2), dict(gamma_n=3.0), "gamma_n must be an integer, got 3.0"),
            (("selection", 2, 2), dict(k_select=1.0), "k_select must be an integer, got 1.0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dmt_curve(*args, **kwargs)


def test_dmt_curve_shape_invariants():
    for scheme, kw in (
        ("dncc", {}),
        ("rncc", {}),
        ("selection", {"k_select": 2}),
        ("ncc", {}),
        ("cc", {}),
    ):
        c = dmt_curve(scheme, 2, 3, **kw)
        samples = [c.at(c.r_max * i / 20) for i in range(21)]
        assert all(b <= a for a, b in zip(samples, samples[1:]))  # nonincreasing
        assert samples[-1] == pytest.approx(0.0, abs=1e-15)


def test_loglog_slope_exact_on_powerlaw():
    xs = [10.0, 100.0, 1000.0]
    ys = [5 * x**-2.5 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(-2.5, abs=1e-12)
