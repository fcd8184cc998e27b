"""Monte Carlo kernel: trial semantics, batching, determinism, and oracles."""

import concurrent.futures
import math
import multiprocessing
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcode import simkernel
from coopcode.analytic import LinkParams, outage_bounds_multicast, outage_bounds_unicast
from coopcode.gf import Field, field_new
from coopcode.ffmat import FfMatrix, batch_rank, unit_spans
from coopcode.netcode import (
    build_cauchy,
    build_explicit,
    build_random,
    build_vandermonde,
    dump_code,
    load_code,
    mds_check,
)
from coopcode.simkernel import (
    CHUNK_TRIALS,
    PerLinkBeta,
    Scenario,
    SweepPoint,
    TrialDraw,
    chunk_rng,
    draw_chunk,
    run_sweep,
    run_trial,
    run_trial_cc,
    run_trial_ncc,
    select_relays,
    selected_link_gain_cdf,
    tau_for,
)
from coopcode.simkernel import (
    _coop_failures,
    _ncc_as_selection,
    _pattern_key,
    _PatternKey,
)

F2 = field_new(1)
F4 = field_new(2)
F16 = field_new(4)
F256 = field_new(8)
CODE22 = build_vandermonde(2, 2, F4)


def _scn(**kw):
    base = dict(
        scheme="dncc",
        n_sources=2,
        n_relays=2,
        snr_grid=(1.0,),
        trials=4,
        seed=0,
        code=CODE22,
    )
    base.update(kw)
    return Scenario(**base)


def _draw(gsr, gsd, grd, coeffs=None):
    return TrialDraw(
        np.asarray(gsr, float), np.asarray(gsd, float), np.asarray(grd, float),
        None if coeffs is None else np.asarray(coeffs),
    )


def test_run_trial_strict_threshold():
    # rho=1, r0=1 -> tau=1; log2(1+1) == r0 exactly is NOT enough
    assert tau_for(1.0, 1.0) == 1.0
    scn = _scn(traffic="unicast")
    at_tau = _draw([[0, 0]] * 2, [[1.0, 0], [0, 1.01]], [[0, 0]] * 2)
    assert run_trial(scn, 1.0, at_tau) == (False, True)


def test_run_trial_all_up_and_all_down():
    scn = _scn()
    up = _draw([[9, 9]] * 2, [[9, 9]] * 2, [[9, 9]] * 2)
    assert run_trial(scn, 1.0, up) == (True, True)
    down = _draw([[0, 0]] * 2, [[0, 0]] * 2, [[0, 0]] * 2)
    assert run_trial(scn, 1.0, down) == (False, False)


def test_run_trial_relay_rows_alone_decode_one_destination():
    # only the two relay->d0 links plus all source->relay links are up:
    # d0 sees both relay rows (rank 2), d1 sees nothing
    scn = _scn()
    draw = _draw(
        [[9, 9], [9, 9]],
        [[0, 0], [0, 0]],
        [[9, 0], [9, 0]],
    )
    assert run_trial(scn, 1.0, draw) == (True, False)


def test_run_trial_unicast_direct_only():
    scn = _scn(traffic="unicast")
    draw = _draw(
        [[0, 0], [0, 0]],
        [[9, 0], [0, 0]],  # only s0 -> d0
        [[0, 0], [0, 0]],
    )
    assert run_trial(scn, 1.0, draw) == (True, False)


def test_strategy_b_partial_row_rescues_unicast():
    # relay 0 decodes only source 0 and reaches d0; direct links down.
    # A: relay stays silent -> fail.  B: zeroed row c*e_0 delivers packet 0.
    gsr = [[9, 0], [0, 0]]  # source0->relay0 only
    gsd = [[0, 0], [0, 0]]
    grd = [[9, 0], [0, 0]]  # relay0->d0 only
    a = run_trial(_scn(traffic="unicast", strategy="A"), 1.0, _draw(gsr, gsd, grd))
    b = run_trial(_scn(traffic="unicast", strategy="B"), 1.0, _draw(gsr, gsd, grd))
    assert a == (False, False)
    assert b == (True, False)


def test_select_relays_rule():
    scn = _scn(scheme="selection", k_select=1)
    draw = _draw(
        [[0.3, 0.7], [0.5, 0.9]],
        [[0, 0], [0, 0]],
        [[0.8, 0.8], [0.9, 0.9]],
    )
    # bottlenecks: relay0 min(0.3, 0.5, 0.8, 0.8)=0.3; relay1 min(0.7,0.9,...)=0.7
    assert select_relays(scn, draw, 1) == [1]
    assert select_relays(scn, draw, 2) == [1, 0]
    tied = _draw([[0.5, 0.5], [0.5, 0.5]], [[0, 0]] * 2, [[0.5, 0.5]] * 2)
    assert select_relays(scn, tied, 1) == [0]  # tie -> lowest index
    with pytest.raises(ValueError):
        select_relays(scn, draw, 3)


def test_selection_does_not_replace_a_failed_relay():
    # relay 0 has the best bottleneck but misses source 0; relay 1 would
    # have decoded everything, yet the selected set is fixed up front.
    scn = _scn(scheme="selection", k_select=1, traffic="unicast")
    draw = _draw(
        [[0.9, 5], [5, 5]],   # gsr[source][relay]; relay0 misses s0
        [[0, 0], [0, 0]],
        [[5, 5], [0.8, 5]],   # relay1's d0 link is its own bottleneck
    )
    # h0 = 0.9 > h1 = 0.8 -> relay 0 selected; it cannot decode all N
    assert select_relays(scn, draw, 1) == [0]
    assert run_trial(scn, 1.0, draw) == (False, False)


def test_run_trial_rejects_a_draw_or_scheme_it_cannot_decide():
    up = _draw([[9, 9]] * 2, [[9, 9]] * 2, [[9, 9]] * 2)
    with pytest.raises(ValueError, match="^rncc trial needs draw.coeffs$"):
        run_trial(_scn(scheme="rncc", code=None, field=F4), 1.0, up)
    for scheme in ("ncc", "cc"):
        with pytest.raises(ValueError, match="^run_trial handles dncc/rncc/selection; "):
            run_trial(_scn(scheme=scheme, code=None, traffic="unicast"), 1.0, up)


def test_run_trial_ncc_semantics():
    scn = _scn(scheme="ncc", code=None, traffic="unicast")
    # direct link up beats everything
    direct = _draw([[0, 0]] * 2, [[9, 0], [0, 9]], [[0, 0]] * 2)
    assert run_trial_ncc(scn, 1.0, direct) == (True, True)
    # relay path needs ALL cross links: s1->d0 down kills d0
    relay_path = _draw(
        [[9, 9], [9, 9]],
        [[0, 0], [0, 9]],   # d0 has no direct and no cross from s1
        [[9, 9], [9, 9]],
    )
    assert run_trial_ncc(scn, 1.0, relay_path) == (False, True)
    down = _draw([[0, 0]] * 2, [[0, 0]] * 2, [[0, 0]] * 2)
    assert run_trial_ncc(scn, 1.0, down) == (False, False)


def test_run_trial_cc_semantics():
    scn = _scn(scheme="cc", code=None, traffic="unicast")
    relay_rescue = _draw(
        [[9, 0], [0, 0]],   # relay0 decoded s0 only
        [[0, 0], [0, 0]],
        [[9, 0], [0, 0]],   # relay0 -> d0
    )
    assert run_trial_cc(scn, 1.0, relay_rescue) == (True, False)
    no_decode = _draw(
        [[0, 0], [9, 9]],   # nobody decoded s0, everybody decoded s1
        [[0, 0], [0, 0]],
        [[9, 9], [9, 9]],
    )
    assert run_trial_cc(scn, 1.0, no_decode) == (False, True)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scn(scheme="bogus")
    with pytest.raises(ValueError):
        _scn(snr_grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        _scn(trials=0)
    with pytest.raises(ValueError):
        _scn(scheme="rncc", field=None)
    with pytest.raises(ValueError):
        _scn(scheme="selection", k_select=5)
    with pytest.raises(ValueError):
        _scn(scheme="ncc", traffic="multicast")
    with pytest.raises(ValueError):
        _scn(code=build_vandermonde(3, 2, F16))
    with pytest.raises(ValueError):
        _scn(strategy="C")
    for value in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            _scn(beta=value)
        with pytest.raises(ValueError, match="rate_r0 must be finite and positive"):
            _scn(rate_r0=value)
    for value in (-1, 2.5, "3"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            _scn(seed=value)


@pytest.mark.parametrize("bad, message", [
    (dict(n_sources=0), "need n_sources >= 1 and n_relays >= 1"),
    (dict(n_relays=0), "need n_sources >= 1 and n_relays >= 1"),
    (dict(n_sources=2.0), "n_sources must be an integer, got 2.0"),
    (dict(n_relays=2.0), "n_relays must be an integer, got 2.0"),
    (dict(trials=2.5), "trials must be an integer, got 2.5"),
    (dict(snr_grid=(0.0, 1.0)), "snr values must be positive"),
    (dict(snr_grid=(math.nan,)), "snr values must be finite"),
    (dict(snr_grid=(1.0, math.nan)), "snr values must be finite"),
    (dict(snr_grid=(10.0, math.inf)), "snr values must be finite"),
    (dict(traffic="broadcast"), "traffic must be 'multicast' or 'unicast'"),
    (dict(code=None), "dncc needs a code"),
    (dict(scheme="selection", k_select=1.5), "k_select must be an integer, got 1.5"),
], ids=["n0", "m0", "n-float", "m-float", "trials-float", "snr-zero", "snr-nan", "snr-then-nan",
        "snr-inf", "traffic", "needs-code", "k-float"])
def test_scenario_names_the_field_at_fault(bad, message):
    """Every input that would change the counts silently, or fail deep in
    the engine, fails here with a ValueError naming its field."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _scn(**bad)


def test_per_link_beta_validation():
    good = PerLinkBeta.uniform(2, 2, 1.0)
    _scn(beta=good)
    bad_shapes = [
        PerLinkBeta(sr=((1.0, 1.0, 1.0),) * 2, sd=good.sd, rd=good.rd),
        PerLinkBeta(sr=good.sr, sd=((1.0, 1.0),), rd=good.rd),
        PerLinkBeta(sr=good.sr, sd=good.sd, rd=((1.0, 1.0),) * 3),
        PerLinkBeta(sr=good.sr, sd=good.sd, rd=(1.0, 1.0)),
    ]
    for beta in bad_shapes:
        with pytest.raises(ValueError, match="shape"):
            _scn(beta=beta)
    for value in (0.0, -1.0, math.inf, math.nan):
        for name in ("sr", "sd", "rd"):
            table = [list(row) for row in getattr(good, name)]
            table[1][0] = value
            beta = PerLinkBeta(**{**good.__dict__, name: tuple(map(tuple, table))})
            with pytest.raises(ValueError, match="finite and positive"):
                _scn(beta=beta)


def test_sweep_point_invariants():
    with pytest.raises(ValueError, match="below any per-destination count"):
        SweepPoint(1.0, (5, 2), system_errors=3, trials=10)
    with pytest.raises(ValueError, match="^more errors than trials$"):
        SweepPoint(1.0, (5, 2), system_errors=11, trials=10)
    pt = SweepPoint(1.0, (5, 2), system_errors=6, trials=10)
    assert pt.dest_rates == (0.5, 0.2)
    assert pt.avg_outage == pytest.approx(0.35)
    assert pt.system_rate == pytest.approx(0.6)


def _assert_scalar_matches_batch(scn, rho, trials=250):
    rng = chunk_rng(scn.seed, 0, 0)
    gsr, gsd, grd, coeffs = draw_chunk(scn, rng, trials)
    tau = tau_for(rho, scn.rate_r0)
    if scn.scheme in ("dncc", "rncc", "selection"):
        fails = _coop_failures(scn, tau, gsr, gsd, grd, coeffs)
        runner = run_trial
    elif scn.scheme == "ncc":
        fails = _coop_failures(_ncc_as_selection(scn), tau, gsr, gsd, grd, coeffs)
        runner = run_trial_ncc
    else:
        fails = _coop_failures(scn, tau, gsr, gsd, grd, None)
        runner = run_trial_cc
    for t in range(trials):
        draw = TrialDraw(gsr[t], gsd[t], grd[t], None if coeffs is None else coeffs[t])
        assert runner(scn, rho, draw) == tuple(not f for f in fails[t]), t


@pytest.mark.parametrize("strategy", ["A", "B"])
@pytest.mark.parametrize("traffic", ["multicast", "unicast"])
def test_batched_engine_matches_scalar_dncc(strategy, traffic):
    scn = _scn(snr_grid=(5.0,), strategy=strategy, traffic=traffic, seed=2)
    _assert_scalar_matches_batch(scn, 5.0)


def test_batched_engine_matches_scalar_other_schemes():
    grid = (5.0,)
    cases = [
        _scn(scheme="rncc", code=None, field=F4, snr_grid=grid, traffic="unicast", seed=5),
        _scn(scheme="rncc", code=None, field=F16, snr_grid=grid, strategy="B", seed=6),
        _scn(scheme="selection", k_select=1, snr_grid=grid, seed=7),
        _scn(scheme="ncc", code=None, traffic="unicast", snr_grid=grid, seed=8),
        _scn(scheme="cc", code=None, traffic="unicast", snr_grid=grid, seed=9),
        Scenario(scheme="dncc", n_sources=3, n_relays=3, code=build_cauchy(3, 3, F16),
                 snr_grid=grid, trials=4, seed=10, traffic="unicast", strategy="B"),
    ]
    for scn in cases:
        _assert_scalar_matches_batch(scn, grid[0])


# non-MDS random codes over GF(4): zero entries, and in RANDOM34 an all-zero
# relay row
RANDOM43 = build_random(4, 3, F4, seed=0)
RANDOM34 = build_random(3, 4, F4, seed=0)
SKEWED34 = PerLinkBeta(
    sr=((0.5, 1.0, 2.0, 1.0), (1.0, 0.7, 1.0, 3.0), (2.0, 1.0, 0.5, 1.0)),
    sd=((1.0, 4.0, 2.0), (0.8, 1.0, 3.0), (2.0, 2.0, 1.5)),
    rd=((1.0, 0.6, 1.0), (2.0, 1.0, 1.0), (0.9, 1.0, 4.0), (1.0, 1.2, 0.7)),
)
DECIDE_CASES = {
    "dncc-2x2": dict(scheme="dncc", n_sources=2, n_relays=2, code=CODE22),
    "dncc-1x1": dict(scheme="dncc", n_sources=1, n_relays=1,
                     code=build_random(1, 1, F4, seed=1)),
    "dncc-1x4": dict(scheme="dncc", n_sources=1, n_relays=4,
                     code=build_vandermonde(1, 4, F16)),
    "dncc-4x3-random": dict(scheme="dncc", n_sources=4, n_relays=3, code=RANDOM43),
    "dncc-4x4-cauchy": dict(scheme="dncc", n_sources=4, n_relays=4,
                            code=build_cauchy(4, 4, F16)),
    "dncc-2x2-zeros": dict(scheme="dncc", n_sources=2, n_relays=2, code=build_explicit(
        FfMatrix(F4, [[1, 0], [0, 1], [0, 0], [2, 0]]))),
    "selection-2x2": dict(scheme="selection", n_sources=2, n_relays=2, code=CODE22,
                          k_select=1),
    "selection-3x4-random-perlink": dict(scheme="selection", n_sources=3, n_relays=4,
                                         code=RANDOM34, k_select=2, beta=SKEWED34),
    "selection-4x4-cauchy": dict(scheme="selection", n_sources=4, n_relays=4,
                                 code=build_cauchy(4, 4, F16), k_select=2),
    "rncc-1x1": dict(scheme="rncc", n_sources=1, n_relays=1, field=F4),
    "rncc-2x3": dict(scheme="rncc", n_sources=2, n_relays=3, field=F16),
    "rncc-4x4-wide": dict(scheme="rncc", n_sources=4, n_relays=4, field=F256),
}
DECIDE_TRIALS = 160


def _decide_scn(case, strategy, traffic):
    return Scenario(snr_grid=(2.0, 20.0), trials=DECIDE_TRIALS, seed=len(case),
                    strategy=strategy, traffic=traffic, **DECIDE_CASES[case])


@pytest.mark.parametrize("traffic", ["multicast", "unicast"])
@pytest.mark.parametrize("strategy", ["A", "B"])
@pytest.mark.parametrize("case", sorted(DECIDE_CASES))
def test_pattern_decide_matches_scalar(case, strategy, traffic):
    scn = _decide_scn(case, strategy, traffic)
    for rho in scn.snr_grid:
        _assert_scalar_matches_batch(scn, rho, trials=DECIDE_TRIALS)


def test_pattern_decide_cases_cover_every_key_regime():
    seen = {}
    for case in DECIDE_CASES:
        for strategy in "AB":
            for traffic in ("multicast", "unicast"):
                scn = _decide_scn(case, strategy, traffic)
                regime = _pattern_key(scn).regime
                seen.setdefault(regime, set()).add(scn.scheme)
    assert seen["table"] == seen["unique"] == {"dncc", "rncc", "selection"}
    assert seen["wide"] == {"rncc"}


def test_pattern_key_widths():
    # 2 direct bits, then one bit per nonzero code entry or l bits per rncc
    # coefficient; both traffic modes share the layout
    assert _pattern_key(_scn()).bits == 2 + 4
    assert _pattern_key(_scn(traffic="unicast")).bits == 2 + 4
    zeros = DECIDE_CASES["dncc-2x2-zeros"]["code"]
    assert _pattern_key(_scn(code=zeros)).bits == 2 + 1
    for traffic in ("multicast", "unicast"):
        rncc = _scn(scheme="rncc", code=None, field=F16, traffic=traffic)
        assert _pattern_key(rncc).bits == 2 + 4 * 4
    wide = Scenario(**DECIDE_CASES["rncc-4x4-wide"], snr_grid=(1.0,), trials=1)
    assert _pattern_key(wide).bits == 4 + 16 * 8
    assert _pattern_key(wide).regime == "wide"


def _stacked_fails(key, direct, relay):
    """Reference decide: stack the held unit rows e_k on the relay rows and
    eliminate the whole (N+M) x N matrix of every pattern."""
    count, n = len(direct), key.n
    e = np.zeros((count, n + key.m, n), dtype=np.int32)
    diag = np.arange(n)
    e[:, diag, diag] = direct
    e[:, n:] = relay
    rank = batch_rank(e, key.field)
    if key.unicast:
        return ~unit_spans(e)
    return np.broadcast_to((rank < n)[:, None], (count, n))


# (scheme, N, M, field): dncc layouts lose a slot per zero code entry, so
# their regime depends on the drawn code; the rncc ones pin one regime each
KEY_LAYOUTS = [
    ("dncc", 1, 1, F4), ("dncc", 2, 2, F4), ("dncc", 3, 2, F16), ("dncc", 2, 4, F2),
    ("dncc", 4, 4, F16), ("dncc", 6, 6, F16), ("dncc", 7, 8, F256),
    ("rncc", 1, 1, F4), ("rncc", 2, 2, F4), ("rncc", 3, 3, F16), ("rncc", 4, 4, F256),
]


@st.composite
def _key_patterns(draw):
    """A key layout (dncc, with zero code entries, or rncc; either traffic
    mode) and a batch of arrival patterns: as packed keys when they fit an
    int64, else as (direct, relay) arrays."""
    scheme, n, m, field = draw(st.sampled_from(KEY_LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_direct, p_deliver, p_entry, p_zero = (
        draw(st.sampled_from((0.0, 0.3, 0.7, 1.0))) for _ in range(4))
    if scheme == "rncc":
        scale, width = np.ones((m, n), dtype=np.int64), field.ell
    else:
        scale = rng.integers(1, field.order, size=(m, n)) * (rng.random((m, n)) >= p_zero)
        width = 1
    key = _PatternKey(field, scale, width, draw(st.booleans()))
    count = draw(st.integers(1, 48))
    direct = (rng.random((count, n)) < p_direct).astype(np.int64)
    slots = len(key.slot_i)
    syms = rng.integers(0, 1 << width, size=(count, slots))
    syms *= (rng.random((count, slots)) < p_entry) & (rng.random((count, m)) < p_deliver)[
        :, key.slot_i]
    if key.regime == "wide":
        relay = np.zeros((count, m, n), dtype=np.int32)
        relay[:, key.slot_i, key.slot_k] = syms * scale[key.slot_i, key.slot_k]
        return key, None, direct, relay
    keys = (direct << np.arange(n)).sum(axis=1) + (syms << key.shifts).sum(axis=1)
    return key, keys, *key.unpack(keys)


def test_key_layouts_cover_every_regime():
    regimes = {_PatternKey(f, np.ones((m, n), dtype=np.int64), f.ell, False).regime
               for scheme, n, m, f in KEY_LAYOUTS if scheme == "rncc"}
    assert regimes == {"table", "unique", "wide"}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_key_patterns())
def test_relay_only_decide_matches_stacked_elimination(case):
    key, keys, direct, relay = case
    got = key.fails(direct, relay.copy())
    assert got.shape == (len(direct), key.n)
    assert np.array_equal(got, _stacked_fails(key, direct, relay))
    if keys is None:
        return
    canon = key.drop_covered(keys)
    low = (1 << key.n) - 1
    assert np.array_equal(canon & low, keys & low)  # direct bits are kept
    assert not (canon & ~keys).any()                # bits are only cleared
    for k, bits in enumerate(key.col_bits):         # covered slots are cleared
        assert not (canon[direct[:, k] == 1] & bits).any()
    assert np.array_equal(key.fails(*key.unpack(canon)), got)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_key_patterns())
def test_canonical_keys_keep_every_outcome(case):
    key, keys, direct, relay = case
    if keys is None:  # too wide for an int64: never canonicalised
        return
    canon = key.canonical(keys)
    low = (1 << key.n) - 1
    assert not (keys & ~canon & low).any()   # direct bits are only added
    assert not (canon & ~keys & ~low).any()  # relay bits are only cleared
    assert np.array_equal(key.canonical(canon), canon)
    for unicast in (False, True):
        mode = _PatternKey(key.field, key.scale, key.width, unicast)
        assert np.array_equal(mode.fails(*mode.unpack(canon)),
                              mode.fails(direct, relay.copy()))


@pytest.mark.parametrize("unicast", [False, True])
def test_canonical_peels_a_chain_of_unit_rows(unicast):
    # held e_0 and relay rows (a, b, 0), (0, c, d): clearing column 0 leaves
    # b*e_1, which covers column 1 and leaves d*e_2 in the second row
    key = _PatternKey(F4, np.array([[1, 2, 0], [0, 3, 1]]), 1, unicast)
    held_e0 = np.array([0b1 | 0b1111 << 3], dtype=np.int64)
    assert key.drop_covered(held_e0)[0] == 0b1 | 0b1110 << 3
    assert key.canonical(held_e0)[0] == 0b111
    assert not key.fails(*key.unpack(held_e0)).any()
    assert key.canonical(np.array([0b1111 << 3]))[0] == 0b1111 << 3  # no unit row


@st.composite
def _coop_scenarios(draw):
    """dncc (cauchy, vandermonde, random, or explicit with zero entries),
    rncc, selection or ncc (unicast only) on N, M in 1..4 over GF(2), GF(4)
    or GF(16), with either strategy and traffic mode and a scalar or
    per-link beta."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    field = draw(st.sampled_from((F2, F4, F16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scheme = draw(st.sampled_from(("dncc", "rncc", "selection", "ncc")))
    kw = dict(scheme=scheme, n_sources=n, n_relays=m,
              strategy=draw(st.sampled_from("AB")),
              traffic=draw(st.sampled_from(("multicast", "unicast"))))
    if scheme == "ncc":
        kw["traffic"] = "unicast"
    elif scheme == "rncc":
        kw["field"] = field
    else:
        kinds = ["random", "explicit"]
        kinds += ["vandermonde"] * (field.order >= n + m)
        kinds += ["cauchy"] * (field.order > n + m)
        kind = draw(st.sampled_from(kinds))
        if kind == "explicit":
            relay = rng.integers(0, field.order, size=(m, n)) * (rng.random((m, n)) < 0.5)
            matrix = FfMatrix.identity(field, n).vstack(FfMatrix(field, relay))
            kw["code"] = build_explicit(matrix)
        elif kind == "random":
            kw["code"] = build_random(n, m, field, seed=int(rng.integers(1 << 16)))
        else:
            kw["code"] = {"cauchy": build_cauchy, "vandermonde": build_vandermonde}[kind](
                n, m, field)
    if scheme == "selection":
        kw["k_select"] = draw(st.integers(1, m))
    if draw(st.booleans()):
        kw["beta"] = PerLinkBeta(*(tuple(map(tuple, rng.uniform(0.25, 4.0, shape)))
                                   for shape in ((n, m), (n, n), (m, n))))
    else:
        kw["beta"] = draw(st.sampled_from((0.5, 1.0, 2.0)))
    return Scenario(snr_grid=(2.0, 20.0), trials=64, seed=draw(st.integers(0, 99)), **kw)


# derandomized: a fixed example sequence, as deterministic as the other tests
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_coop_scenarios())
def test_batched_decide_and_code_round_trip_match_reference(scn):
    for rho in scn.snr_grid:
        _assert_scalar_matches_batch(scn, rho, trials=48)
    if scn.code is not None:
        reloaded = replace(scn, code=load_code(dump_code(scn.code)))
        assert reloaded.code.matrix == scn.code.matrix
        assert run_sweep(reloaded).points == run_sweep(scn).points


def test_relabelled_non_mds_code_is_not_trusted():
    code = build_random(2, 2, F4, seed=0)
    assert not mds_check(code)
    text = dump_code(code).replace('"random"', '"cauchy"').replace(
        '"certified_kappa": null', '"certified_kappa": 2')
    assert '"cauchy"' in text and '"certified_kappa": 2' in text
    loaded = load_code(text)
    assert loaded.construction == "cauchy"
    assert loaded.certified_kappa is None
    trials = 400
    for traffic in ("multicast", "unicast"):
        scn = _scn(code=loaded, snr_grid=(10.0,), trials=trials, seed=3, traffic=traffic)
        pt = run_sweep(scn).points[0]
        gsr, gsd, grd, _ = draw_chunk(scn, chunk_rng(scn.seed, 0, 0), trials)
        dest = [0, 0]
        system = 0
        for t in range(trials):
            fails = [not ok for ok in run_trial(scn, 10.0, TrialDraw(gsr[t], gsd[t], grd[t]))]
            dest = [d + f for d, f in zip(dest, fails)]
            system += any(fails)
        assert pt.dest_errors == tuple(dest)
        assert pt.system_errors == system


def test_sweep_pool_closes_when_a_worker_raises():
    scn = _scn(scheme="rncc", code=None, field=F4, snr_grid=(1.0, 2.0), trials=8)
    object.__setattr__(scn, "field", None)  # breaks the draw inside the workers
    with pytest.raises(AttributeError):
        run_sweep(scn, workers=2)
    assert multiprocessing.active_children() == []


def test_run_sweep_rejects_workers_below_one():
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(_scn(), workers=workers)


def _recording_pool(monkeypatch, cpus):
    """Stand a recorder in for the process pool, so no process starts, and
    give this process `cpus` usable CPUs.  Returns the list of each pool's
    max_workers."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return started


def test_run_sweep_starts_no_more_workers_than_chunks(monkeypatch):
    started = _recording_pool(monkeypatch, cpus=64)
    scn = _scn(snr_grid=(1.0, 5.0, 25.0), trials=100, seed=5)  # 3 chunks
    serial = run_sweep(scn)
    assert started == []
    for workers, size in ((2, 2), (3, 3), (1000, 3)):
        assert run_sweep(scn, workers=workers) == serial
        assert started[-1] == size
    run_sweep(_scn(trials=100), workers=8)  # 1 chunk: no pool at all
    assert started == [2, 3, 3]


def test_run_sweep_starts_no_more_workers_than_usable_cpus(monkeypatch):
    """A pool starts all its processes at once, so --workers 4096 must not
    fork 4096: the CPUs the process may run on cap it, and the counts do
    not depend on it.  Where the OS keeps no affinity set, os.cpu_count
    stands in, and 1 where that is unknown."""
    scn = _scn(snr_grid=tuple(float(g) for g in range(1, 9)), trials=100, seed=5)  # 8 chunks
    serial = run_sweep(scn)
    started = _recording_pool(monkeypatch, cpus=3)
    for workers in (2, 3, 4096):
        assert run_sweep(scn, workers=workers) == serial
    assert started == [2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus in (5, None, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_sweep(scn, workers=4096) == serial
    assert started == [2, 3, 3, 5]  # at None and 1, the sweep runs in this process


_SKEWED_BETA = PerLinkBeta(sr=((0.5, 1.0), (2.0, 1.5)), sd=((1.0, 3.0), (0.7, 1.0)),
                           rd=((1.2, 0.9), (1.0, 2.5)))


@pytest.mark.parametrize("mix, strategy, beta", [
    # rncc away from the front, so the shared draw must come from it
    ((("dncc", "unicast"), ("rncc", "unicast"), ("selection", "unicast"),
      ("ncc", "unicast"), ("cc", "unicast")), "A", 1.0),
    ((("selection", "multicast"), ("dncc", "multicast"), ("rncc", "multicast"),
      ("dncc", "unicast")), "B", _SKEWED_BETA),
    ((("cc", "unicast"), ("rncc", "multicast"), ("rncc", "unicast")), "B", 2.0),
    ((("ncc", "unicast"), ("cc", "unicast")), "A", _SKEWED_BETA),
])
def test_shared_draw_sweep_equals_separate_sweeps(mix, strategy, beta):
    extra = {"dncc": dict(code=CODE22), "selection": dict(code=CODE22, k_select=1),
             "rncc": dict(code=None, field=F4), "ncc": dict(code=None),
             "cc": dict(code=None)}
    scenarios = [_scn(scheme=scheme, traffic=traffic, strategy=strategy, beta=beta,
                      snr_grid=(3.0, 30.0), trials=CHUNK_TRIALS + 100, seed=17,
                      **extra[scheme])
                 for scheme, traffic in mix]
    separate = tuple(run_sweep(s) for s in scenarios)
    for workers in (1, 2):
        shared = run_sweep(scenarios, workers=workers)
        assert shared == separate
        assert all(r.scenario is s for r, s in zip(shared, scenarios))


@pytest.mark.parametrize("change, name", [
    (dict(seed=1), "seed"),
    (dict(n_sources=3, code=build_vandermonde(3, 2, F16)), "n_sources"),
    (dict(n_relays=3, code=build_vandermonde(2, 3, F16)), "n_relays"),
    (dict(snr_grid=(1.0, 3.0)), "snr_grid"),
    (dict(trials=5), "trials"),
    (dict(beta=PerLinkBeta.uniform(2, 2, 1.0)), "beta"),
    (dict(rate_r0=2.0), "rate_r0"),
])
def test_shared_draw_sweep_rejects_scenarios_that_draw_differently(change, name):
    base = _scn()
    with pytest.raises(ValueError, match=f"must share {name}$"):
        run_sweep([base, replace(base, **change)])


def test_shared_draw_sweep_rejects_rncc_fields_of_different_order_and_no_scenario():
    rncc = _scn(scheme="rncc", code=None, field=F4)
    run_sweep([rncc, replace(rncc, field=Field(2), traffic="unicast")])
    with pytest.raises(ValueError, match="must share field order"):
        run_sweep([rncc, _scn(), replace(rncc, field=F16)])
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one scenario"):
            run_sweep(empty)


def test_sweep_deterministic_across_workers_and_chunking():
    scn = _scn(snr_grid=(5.0, 50.0), trials=CHUNK_TRIALS + 37, seed=21,
               traffic="unicast")
    r1 = run_sweep(scn, workers=1)
    r2 = run_sweep(scn, workers=2)
    assert [p.dest_errors for p in r1.points] == [p.dest_errors for p in r2.points]
    assert [p.system_errors for p in r1.points] == [p.system_errors for p in r2.points]
    assert all(p.trials == scn.trials for p in r1.points)


def test_chunk_rng_streams_are_stable_and_distinct():
    a = chunk_rng(3, 0, 0).standard_exponential(4)
    b = chunk_rng(3, 0, 0).standard_exponential(4)
    c = chunk_rng(3, 0, 1).standard_exponential(4)
    d = chunk_rng(4, 0, 0).standard_exponential(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_strategy_b_never_loses_to_a_with_coupled_draws():
    for traffic in ("multicast", "unicast"):
        ea = run_sweep(_scn(strategy="A", traffic=traffic, snr_grid=(20.0,),
                            trials=60000, seed=4)).points[0]
        eb = run_sweep(_scn(strategy="B", traffic=traffic, snr_grid=(20.0,),
                            trials=60000, seed=4)).points[0]
        assert all(b <= a for a, b in zip(ea.dest_errors, eb.dest_errors))
        assert eb.system_errors <= ea.system_errors


def test_simulated_outage_within_analytic_bounds():
    lp = LinkParams(beta=1.0, rho=100.0, rate_r0=1.0, n_sources=2, n_relays=2)
    trials = 400000
    scn = _scn(snr_grid=(100.0,), trials=trials, seed=33)
    pt = run_sweep(scn).points[0]
    b = outage_bounds_multicast(lp, CODE22.matrix.gamma_rank(2))
    for rate in pt.dest_rates:
        sigma = math.sqrt(b.upper * (1 - b.upper) / trials)
        assert b.lower - 3 * sigma <= rate <= b.upper + 3 * sigma

    scn = _scn(snr_grid=(100.0,), trials=trials, seed=34, traffic="unicast")
    pt = run_sweep(scn).points[0]
    u = outage_bounds_unicast(lp, CODE22.matrix.lambda_rank(0))
    for rate in pt.dest_rates:
        sigma = math.sqrt(u.upper * (1 - u.upper) / trials)
        assert u.lower - 3 * sigma <= rate <= u.upper + 3 * sigma


def test_dncc_beats_ncc_at_high_snr():
    trials = 100000
    dncc = run_sweep(_scn(snr_grid=(100.0,), trials=trials, seed=41,
                          traffic="unicast")).points[0]
    ncc = run_sweep(_scn(scheme="ncc", code=None, snr_grid=(100.0,), trials=trials,
                         seed=41, traffic="unicast")).points[0]
    sigma = math.sqrt(max(ncc.avg_outage, 1e-9) / trials)
    assert dncc.avg_outage <= ncc.avg_outage + 3 * sigma


def test_per_link_beta_uniform_matches_scalar():
    table = PerLinkBeta.uniform(2, 2, 1.5)
    s1 = _scn(beta=1.5, snr_grid=(10.0,), trials=20000, seed=6)
    s2 = _scn(beta=table, snr_grid=(10.0,), trials=20000, seed=6)
    r1 = run_sweep(s1).points[0]
    r2 = run_sweep(s2).points[0]
    assert r1.dest_errors == r2.dest_errors
    assert r1.system_errors == r2.system_errors


def test_per_link_beta_can_silence_a_relay():
    # make every link of relay 1 hopeless; selection must then behave
    # like an M=1 system for delivery purposes
    strong = 1e9
    table = PerLinkBeta(
        sr=((1.0, strong), (1.0, strong)),
        sd=((1.0, 1.0), (1.0, 1.0)),
        rd=((1.0, 1.0), (strong, strong)),
    )
    scn = _scn(beta=table, snr_grid=(10.0,), trials=2000, seed=8,
               scheme="selection", k_select=1)
    rng = chunk_rng(scn.seed, 0, 0)
    gsr, gsd, grd, _ = draw_chunk(scn, rng, 2000)
    h = np.minimum(gsr.min(axis=1), grd.min(axis=2))
    assert (np.argmax(h, axis=1) == 0).all()


def test_selected_link_gain_cdf_matches_exact_small_system():
    # For N=2, M=2, beta=1 the cdf of one adjacent-link gain of the
    # best-bottleneck relay is (8/7)[(1-e^-t) - (1-e^-8t)/8] exactly.
    tau = 0.05
    est = selected_link_gain_cdf(2, 2, 1.0, [tau], trials=2_000_000, seed=1)[0]
    exact = (8 / 7) * ((1 - math.exp(-tau)) - (1 - math.exp(-8 * tau)) / 8)
    sigma = math.sqrt(exact * (1 - exact) / 2_000_000)
    assert abs(est - exact) < 4 * sigma


def test_selected_gain_folds_equal_the_argmax_gather_bit_for_bit():
    # the former expression, on random gains and on small-integer gains
    # that tie within and across relays
    rng = np.random.default_rng(11)
    for n, m in ((1, 1), (2, 3), (3, 5)):
        for gains in (rng.standard_exponential((4000, m, 2 * n)) / 0.7,
                      rng.integers(0, 3, (4000, m, 2 * n)).astype(float)):
            want = gains[np.arange(len(gains)), np.argmax(gains.min(axis=2), axis=1), 0]
            h = np.full((m, len(gains)), np.inf)
            simkernel._fold_bottleneck(h, gains.transpose(0, 2, 1))
            got = gains[:, :, 0][simkernel._kept_relays(h, 1).T]
            assert got.tobytes() == want.tobytes()
    # and the whole estimate, with and without the division by beta
    taus = np.array([0.05, 0.3, 1.0])
    for beta in (1.0, 2.5):
        gains = chunk_rng(4, 0, 0).standard_exponential((3000, 3, 4)) / beta
        g = gains[np.arange(3000), np.argmax(gains.min(axis=2), axis=1), 0]
        want = (g[None, :] <= taus[:, None]).sum(axis=1) / 3000
        assert np.array_equal(selected_link_gain_cdf(2, 3, beta, taus, 3000, seed=4), want)


# selected_link_gain_cdf(n, m, beta, [0.05, 0.3, 1.0], CDF_CHUNK + 777, seed)
# times the trial count, as first recorded: the pick of the relay may be
# rewritten, but its numbers may not move
SELECTED_GAIN_COUNTS = {  # (n, m, beta, seed): counts at the three taus
    (1, 1, 1.0, 0): (12847, 67912, 166144),
    (1, 1, 1.0, 7): (12790, 68116, 166058),
    (1, 1, 2.5, 0): (30797, 138724, 241076),
    (1, 1, 2.5, 7): (31010, 138740, 241183),
    (2, 2, 1.0, 0): (2291, 43715, 152351),
    (2, 2, 1.0, 7): (2277, 44084, 153198),
    (2, 2, 2.5, 0): (11457, 121029, 238111),
    (2, 2, 2.5, 7): (11565, 121767, 238388),
    (2, 3, 1.0, 0): (412, 28994, 142738),
    (2, 3, 1.0, 7): (374, 29416, 143102),
    (2, 3, 2.5, 0): (4355, 108743, 235911),
    (2, 3, 2.5, 7): (4480, 109033, 236318),
    (3, 4, 1.0, 0): (172, 31395, 146667),
    (3, 4, 1.0, 7): (196, 31675, 146468),
    (3, 4, 2.5, 0): (3932, 113495, 236788),
    (3, 4, 2.5, 7): (3844, 113399, 236873),
}


@pytest.mark.parametrize("n, m, beta, seed", list(SELECTED_GAIN_COUNTS))
def test_selected_link_gain_cdf_keeps_its_recorded_values(n, m, beta, seed):
    trials = simkernel.CDF_CHUNK + 777  # two Philox streams, the second one short
    cdf = selected_link_gain_cdf(n, m, beta, [0.05, 0.3, 1.0], trials, seed=seed)
    want = np.array(SELECTED_GAIN_COUNTS[n, m, beta, seed], dtype=np.int64) / trials
    assert cdf.tobytes() == want.tobytes()


def test_trials_of_one_work():
    pt = run_sweep(_scn(trials=1, snr_grid=(10.0,))).points[0]
    assert pt.trials == 1
    assert set(pt.dest_errors) <= {0, 1}


# -- link-state counting ----------------------------------------------------------

F8 = field_new(3)
# every (N, M) with L = NM + N^2 + MN <= TABLE_BITS links
TABLE_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2)]


def _random_code_with_zeros(n, m):
    """The first seeded random GF(4) code with a zero relay entry."""
    for seed in range(100):
        code = build_random(n, m, F4, seed)
        if (code.relay_block.to_array() == 0).any():
            return code
    raise AssertionError("no random code with a zero entry")


def _skewed_beta(n, m):
    rng = np.random.default_rng(n * 10 + m)
    return PerLinkBeta(*(tuple(map(tuple, rng.uniform(0.4, 2.5, shape).tolist()))
                         for shape in ((n, m), (n, n), (m, n))))


def _table_mix(n, m, beta, trials):
    """Scenarios on a table shape: dncc over three codes and selection with
    every k over two of them (both strategies and traffic modes), ncc, cc,
    and two at another rate, hence another tau, for a sweep of their own."""
    base = dict(n_sources=n, n_relays=m, snr_grid=(2.0, 40.0), trials=trials, seed=n + m,
                beta=beta)
    codes = (build_cauchy(n, m, F8), build_vandermonde(n, m, F8),
             _random_code_with_zeros(n, m))
    mix = []
    for strategy in "AB":
        for traffic in ("multicast", "unicast"):
            mix += [Scenario(scheme="dncc", code=code, strategy=strategy, traffic=traffic,
                             **base) for code in codes]
            mix += [Scenario(scheme="selection", code=code, k_select=k,
                             strategy=strategy, traffic=traffic, **base)
                    for code in codes[1:] for k in range(1, m + 1)]
    mix += [Scenario(scheme=scheme, traffic="unicast", **base) for scheme in ("ncc", "cc")]
    mix += [replace(mix[0], rate_r0=2.5), replace(mix[3], rate_r0=2.5)]
    return mix


def _sweep_per_rate(mix, workers=1):
    """run_sweep's reports for `mix`, in order, from one sweep per rate."""
    reports = {}
    for rate in {s.rate_r0 for s in mix}:
        group = [i for i, s in enumerate(mix) if s.rate_r0 == rate]
        reports.update(zip(group, run_sweep([mix[i] for i in group], workers=workers)))
    return [reports[i] for i in range(len(mix))]


def _per_trial_counts(scenarios):
    """[scenario][grid point] -> (dest, system), from the per-trial decide of
    every chunk run_sweep draws."""
    first = scenarios[0]
    trials = first.trials
    out = [[None] * len(first.snr_grid) for _ in scenarios]
    for g, rho in enumerate(first.snr_grid):
        fails = [[] for _ in scenarios]
        for c in range(0, trials, CHUNK_TRIALS):
            gsr, gsd, grd, coeffs = draw_chunk(
                first, chunk_rng(first.seed, g, c // CHUNK_TRIALS), min(CHUNK_TRIALS, trials - c))
            for s, scn in enumerate(scenarios):
                work = _ncc_as_selection(scn) if scn.scheme == "ncc" else scn
                fails[s].append(_coop_failures(work, tau_for(rho, scn.rate_r0),
                                               gsr, gsd, grd, coeffs))
        for s in range(len(scenarios)):
            f = np.concatenate(fails[s])
            out[s][g] = (tuple(int(v) for v in f.sum(axis=0)), int(f.any(axis=1).sum()))
    return out


def _counts(report):
    return [(p.dest_errors, p.system_errors) for p in report.points]


@pytest.mark.parametrize("beta", ["scalar", "per-link"])
@pytest.mark.parametrize("n, m", TABLE_SHAPES)
def test_link_state_counts_equal_the_per_trial_path(n, m, beta):
    beta = 1.0 if beta == "scalar" else _skewed_beta(n, m)
    mix = _table_mix(n, m, beta, CHUNK_TRIALS + 100)
    assert all(simkernel._failure_table(_ncc_as_selection(s) if s.scheme == "ncc" else s)
               is not None for s in mix)
    want = _per_trial_counts(mix)
    for workers in (1, 2):
        reports = _sweep_per_rate(mix, workers=workers)
        assert [_counts(r) for r in reports] == want


@pytest.mark.parametrize("n, m", TABLE_SHAPES)
def test_link_state_counts_equal_the_scalar_reference(n, m):
    sample = 64
    mix = _table_mix(n, m, _skewed_beta(n, m) if m % 2 else 1.0, sample)
    scalar = {"ncc": run_trial_ncc, "cc": run_trial_cc}
    for scn, report in zip(mix, _sweep_per_rate(mix)):
        trial = scalar.get(scn.scheme, run_trial)
        for g, (rho, pt) in enumerate(zip(scn.snr_grid, report.points)):
            gsr, gsd, grd, _ = draw_chunk(scn, chunk_rng(scn.seed, g, 0), sample)
            fails = np.array([[not ok for ok in trial(scn, rho, TrialDraw(gsr[t], gsd[t], grd[t]))]
                              for t in range(sample)])
            assert pt.dest_errors == tuple(int(v) for v in fails.sum(axis=0))
            assert pt.system_errors == int(fails.any(axis=1).sum())


def _record_decides(monkeypatch):
    """Patch _decide and _failure_table to log (scheme, batch size) and the
    scenarios tabled."""
    decides, tabled = [], []
    decide, failure_table = simkernel._decide, simkernel._failure_table

    def logged_decide(scn, ok_sr, *rest):
        decides.append((scn.scheme, ok_sr.shape[0]))
        return decide(scn, ok_sr, *rest)

    def logged_table(scn):
        tabled.append(scn.scheme)
        return failure_table(scn)

    monkeypatch.setattr(simkernel, "_decide", logged_decide)
    monkeypatch.setattr(simkernel, "_failure_table", logged_table)
    return decides, tabled


def test_failure_table_is_built_once_per_scenario_per_sweep(monkeypatch):
    decides, tabled = _record_decides(monkeypatch)
    mix = [_scn(scheme=scheme, traffic="unicast", snr_grid=(1.0, 5.0, 25.0),
                trials=trials, code=CODE22 if scheme == "dncc" else None)
           for scheme, trials in (("dncc", 1), ("ncc", 1), ("cc", 1))]
    run_sweep(mix)  # 3 chunks, one trial each
    mix = [replace(s, trials=2 * CHUNK_TRIALS + 5) for s in mix]
    run_sweep(mix)  # 9 chunks
    assert tabled == ["dncc", "selection", "cc"] * 2
    assert decides == [("dncc", 4096), ("selection", 4096), ("cc", 4096)] * 2


def test_pattern_key_is_built_once_per_coded_scenario_per_sweep(monkeypatch):
    """At one worker a sweep over several chunks builds one _PatternKey per
    coded scenario (ncc as its selection scenario), and a "table"-regime
    layout decides its 2**bits keys once, not once per chunk."""
    built, decided = [], []
    init, fails = _PatternKey.__init__, _PatternKey.fails

    def logged_init(self, *args):
        init(self, *args)
        built.append(self.width)

    def logged_fails(self, direct, relay):
        decided.append((self.width, len(direct)))
        return fails(self, direct, relay)

    monkeypatch.setattr(_PatternKey, "__init__", logged_init)
    monkeypatch.setattr(_PatternKey, "fails", logged_fails)
    sweep = dict(traffic="unicast", snr_grid=(1.0, 5.0, 25.0),
                 trials=2 * CHUNK_TRIALS + 5)  # 3 chunks per point, the last one short
    run_sweep([_scn(scheme="dncc", strategy="B", **sweep),
               _scn(scheme="ncc", code=None, **sweep),
               _scn(scheme="cc", code=None, **sweep),
               _scn(scheme="rncc", code=None, field=F4, **sweep)])
    # dncc and selection in their link-state tables' decide, then rncc's
    # 2 + 2*2*2 = 10-bit layout, whose table serves all nine chunks
    assert built == [1, 1, 2]
    assert decided == [(1, 1 << 6), (1, 1 << 6), (2, 1 << 10)]

    built.clear()  # 16 links and a 14-bit rncc layout: every chunk is decided per trial
    wide, code = dict(sweep, n_relays=3), build_vandermonde(2, 3, F8)
    run_sweep([_scn(scheme="dncc", code=code, **wide),
               _scn(scheme="selection", code=code, k_select=2, **wide),
               _scn(scheme="rncc", code=None, field=F4, **wide)])
    assert built == [1, 1, 2]


def test_rncc_and_wide_networks_are_decided_per_trial(monkeypatch):
    wide = [Scenario(scheme="dncc", n_sources=n, n_relays=m, snr_grid=(4.0,), trials=50,
                     code=build_vandermonde(n, m, F8)) for n, m in ((1, 6), (2, 3), (3, 1))]
    rncc = [_scn(scheme="rncc", code=None, field=F4, n_sources=n, n_relays=m, trials=50,
                 snr_grid=(4.0,)) for n, m in ((1, 1), (2, 2))]
    for scn in wide + rncc:
        assert simkernel._failure_table(scn) is None
    for n in (1, 2, 3):
        for m in range(1, 7):
            scn = Scenario(scheme="cc", traffic="unicast", n_sources=n, n_relays=m,
                           snr_grid=(4.0,), trials=1)
            table = simkernel._failure_table(scn)
            links = n * (n + 2 * m)
            tabled = (n, m) in TABLE_SHAPES
            assert (table is not None) == tabled == (links <= simkernel.TABLE_BITS)
            if table is not None:
                assert table.shape == (1 << links, n + 1)
    decides, _ = _record_decides(monkeypatch)
    for scn in wide + rncc:
        run_sweep(scn)
    assert decides == [(s.scheme, 50) for s in wide + rncc]


@pytest.mark.parametrize("beta", [1.0, 0.37, 3.0, "per-link"])
def test_scalar_beta_draw_equals_broadcast_division(beta):
    """draw_chunk scales its gains in place, and skips beta = 1.0; the bytes
    must equal a division by the broadcast scalar or the per-link table."""
    shapes = ((2, 3), (2, 2), (3, 2))
    if beta == "per-link":
        beta = _skewed_beta(2, 3)
        tables = [np.asarray(t) for t in (beta.sr, beta.sd, beta.rd)]
    else:
        tables = [np.full(shape, beta) for shape in shapes]
    scn = _scn(scheme="rncc", code=None, field=F16, n_sources=2, n_relays=3, beta=beta)
    got = draw_chunk(scn, chunk_rng(5, 1, 2), 1000)
    rng = chunk_rng(5, 1, 2)
    want = [rng.standard_exponential((1000,) + shape) / table
            for shape, table in zip(shapes, tables)]
    want.append(rng.integers(0, 16, size=(1000, 3, 2), dtype=np.int64))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# -- selection as links taken down ------------------------------------------------


TIE_LEVELS = np.array([0.0, 0.5, 1.0, 2.0])  # few gain levels: bottleneck ties are common


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_selection_equals_select_relays_on_tied_gains(n, m):
    """Gains on a few levels make exact bottleneck ties common; every kept
    relay set must equal the scalar rule's, ties toward the lower index."""
    rng = np.random.default_rng(10 * n + m)
    levels = TIE_LEVELS
    gsr, grd = levels[rng.integers(0, 4, (400, n, m))], levels[rng.integers(0, 4, (400, m, n))]
    gsd = np.zeros((400, n, n))
    every_link = np.ones((400, n, m), dtype=bool)
    for k in range(1, m + 1):
        scn = _scn(scheme="selection", n_sources=n, n_relays=m, k_select=k,
                   code=build_vandermonde(n, m, F8))
        kept = simkernel._selected_links(scn, every_link, simkernel._bottleneck(gsr, grd))
        assert (kept == kept[:, :1, :]).all()  # a relay keeps all its links or none
        for t in range(400):
            want = select_relays(scn, TrialDraw(gsr[t], gsd[t], grd[t]), k)
            assert np.flatnonzero(kept[t, 0]).tolist() == sorted(want), (k, t)


def _up_down_gains(n, m, tau, states):
    """Gains 2*tau (up) or 0 (down) for every link, per bit of each state in
    _state_keys order: sr (k, i), then sd (k, j), then rd (i, j)."""
    links = n * m + n * n + m * n
    up = (states[:, None] >> np.arange(links)) & 1
    gsr, gsd, grd = np.split(2.0 * tau * up, [n * m, n * m + n * n], axis=1)
    return gsr.reshape(-1, n, m), gsd.reshape(-1, n, n), grd.reshape(-1, m, n)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2)])
def test_selection_decide_on_up_down_gains_matches_run_trial(n, m):
    """Link states given as up/down gains tie every relay that has all its
    links up, and every one that has not; the batched decide must still
    select and decide as run_trial does.  Small shapes are enumerated, the
    others sampled."""
    rho = 4.0
    tau = tau_for(rho, 1.0)
    links = n * m + n * n + m * n
    states = (np.arange(1 << links) if links <= 8
              else np.random.default_rng(links).integers(0, 1 << links, 300))
    gsr, gsd, grd = _up_down_gains(n, m, tau, states)
    code = build_cauchy(n, m, F8)
    for k in range(1, m + 1):
        for strategy in "AB":
            for traffic in ("multicast", "unicast"):
                scn = _scn(scheme="selection", n_sources=n, n_relays=m, k_select=k, code=code,
                           strategy=strategy, traffic=traffic, snr_grid=(rho,))
                fails = _coop_failures(scn, tau, gsr, gsd, grd, None)
                for t in range(len(states)):
                    got = run_trial(scn, rho, TrialDraw(gsr[t], gsd[t], grd[t]))
                    assert got == tuple(not f for f in fails[t]), (k, strategy, traffic, t)


def test_state_keys_are_packed_once_per_chunk_for_unmasked_scenarios(monkeypatch):
    """dncc, ncc and cc share one packing of each chunk's link states; ncc's
    selection clears its dropped relays' bits from the shared keys."""
    calls = []
    state_keys = simkernel._state_keys

    def counted(*states):
        calls.append(states[0].shape[0])
        return state_keys(*states)

    monkeypatch.setattr(simkernel, "_state_keys", counted)
    mix = [_scn(scheme=scheme, traffic="unicast", snr_grid=(1.0, 10.0),
                trials=CHUNK_TRIALS + 7, code=CODE22 if scheme == "dncc" else None)
           for scheme in ("dncc", "ncc", "cc")]
    run_sweep(mix)  # 2 grid points x 2 chunks
    assert calls == [CHUNK_TRIALS, 7] * 2


@pytest.mark.parametrize("n, m", TABLE_SHAPES)
def test_shared_state_keys_with_dropped_relays_cleared_equal_selected_states(n, m):
    """Selection clears its dropped relays' source->relay bits from the
    chunk's one packing of link states; that must equal packing the states
    _selected_links gives, for every k, on random and on tied gains."""
    rng = np.random.default_rng(20 * n + m)
    shapes = ((400, n, m), (400, n, n), (400, m, n))
    random_gains = [rng.standard_exponential(shape) for shape in shapes]
    tied_gains = [TIE_LEVELS[rng.integers(0, 4, shape)] for shape in shapes]
    code = build_vandermonde(n, m, F8)
    for gsr, gsd, grd in (random_gains, tied_gains):
        for tau in (0.3, 1.0):
            ok_sr, ok_sd, ok_rd = simkernel._link_states(tau, gsr, gsd, grd)
            shared = simkernel._state_keys(ok_sr, ok_sd, ok_rd)
            before = shared.copy()
            for k in range(1, m + 1):
                scn = _scn(scheme="selection", n_sources=n, n_relays=m, k_select=k, code=code)
                h = simkernel._bottleneck(gsr, grd)
                want = simkernel._state_keys(simkernel._selected_links(scn, ok_sr, h),
                                             ok_sd, ok_rd)
                got = simkernel._drop_relay_states(shared, simkernel._kept_relays(h, k), n)
                assert got.dtype == want.dtype == np.uint16
                assert np.array_equal(got, want), (k, tau)
            assert np.array_equal(shared, before)  # the shared keys stay as packed


def _table_layouts():
    """The KEY_LAYOUTS entries whose layout, with every code entry present,
    is decided in the "table" regime, as (N, M, field, scale, width)."""
    out = []
    for scheme, n, m, field in KEY_LAYOUTS:
        width = field.ell if scheme == "rncc" else 1
        scale = np.ones((m, n), dtype=np.int64)
        if _PatternKey(field, scale, width, False).regime == "table":
            out.append((n, m, field, scale, width))
    return out


TABLE_LAYOUTS = _table_layouts()


def test_table_layouts_include_rncc_and_dncc():
    assert {(n, m, f.order, w) for n, m, f, _, w in TABLE_LAYOUTS} == {
        (1, 1, 4, 1), (2, 2, 4, 1), (3, 2, 16, 1), (2, 4, 2, 1), (1, 1, 4, 2), (2, 2, 4, 2)}


@pytest.mark.parametrize("sym_kind", ["bool", "coefficients"])
@pytest.mark.parametrize("n, m, field, scale, width", TABLE_LAYOUTS,
                         ids=[f"{n}x{m}-q{f.order}-w{w}" for n, m, f, _, w in TABLE_LAYOUTS])
def test_table_regime_keys_are_uint16_and_equal_the_int64_packing(n, m, field, scale, width,
                                                                  sym_kind):
    rng = np.random.default_rng(n * 100 + m * 10 + width)
    nb = 500
    ok_sd, ok_rd = rng.random((nb, n, n)) < 0.5, rng.random((nb, m, n)) < 0.6
    heard = rng.random((m, nb)) < 0.7
    if sym_kind == "bool":
        sym = rng.random((nb, m, n)) < 0.7
    else:
        sym = rng.integers(0, 1 << width, (nb, m, n), dtype=np.int64)
    for unicast in (False, True):
        key = _PatternKey(field, scale, width, unicast)
        assert key.outcomes is not None
        got = key.pack(ok_sd, heard, ok_rd, sym)
        assert got.dtype == np.uint16
        # the layout's bits, summed directly in int64: direct bit k, then
        # every slot of a relay row that was sent and reached j
        deliver = heard.T[:, :, None] & ok_rd
        direct = (ok_sd.astype(np.int64) << np.arange(n)[:, None]).sum(axis=1)
        slots = sym[:, key.slot_i, key.slot_k].astype(np.int64) << key.shifts
        want = direct + (deliver[:, key.slot_i, :] * slots[:, :, None]).sum(axis=1)
        assert np.array_equal(got.astype(np.int64), want)
        assert want.max() < key.span


@pytest.mark.parametrize("strategy", ["A", "B"])
@pytest.mark.parametrize("n, m, field", [(1, 1, F4), (1, 3, F4), (2, 1, F16), (2, 2, F4)])
def test_rncc_table_regime_counts_equal_the_scalar_reference(n, m, field, strategy):
    """rncc layouts of at most TABLE_BITS bits read their counts off the
    outcome table through uint16 keys; the counts must equal run_trial's."""
    trials = 520
    for traffic in ("multicast", "unicast"):
        scn = Scenario(scheme="rncc", n_sources=n, n_relays=m, field=field, strategy=strategy,
                       traffic=traffic, snr_grid=(3.0, 30.0), trials=trials, seed=n + m)
        assert _pattern_key(scn).regime == "table"
        report = run_sweep(scn)
        for g, (rho, pt) in enumerate(zip(scn.snr_grid, report.points)):
            gsr, gsd, grd, coeffs = draw_chunk(scn, chunk_rng(scn.seed, g, 0), trials)
            fails = np.array([[not ok for ok in run_trial(
                scn, rho, TrialDraw(gsr[t], gsd[t], grd[t], coeffs[t]))] for t in range(trials)])
            assert pt.dest_errors == tuple(int(v) for v in fails.sum(axis=0))
            assert pt.system_errors == int(fails.any(axis=1).sum())


@pytest.mark.parametrize("bad, message", [
    (dict(n=0), "need n_sources >= 1 and n_relays >= 1"),
    (dict(m=0), "need n_sources >= 1 and n_relays >= 1"),
    (dict(trials=0), "trials must be >= 1"),
    (dict(trials=-5), "trials must be >= 1"),
    (dict(beta=-1.0), "beta must be finite and positive, got -1.0"),
    (dict(beta=0.0), "beta must be finite and positive, got 0.0"),
    (dict(beta=math.nan), "beta must be finite and positive, got nan"),
    (dict(beta=math.inf), "beta must be finite and positive, got inf"),
    (dict(seed=1.5), "seed must be a non-negative integer, got 1.5"),
    (dict(seed=-1), "seed must be a non-negative integer, got -1"),
    (dict(n=2.0), "n_sources must be an integer, got 2.0"),
    (dict(m=3.0), "n_relays must be an integer, got 3.0"),
    (dict(trials=2.5), "trials must be an integer, got 2.5"),
    (dict(taus=[0.1, math.nan]), "taus must not hold nan"),
])
def test_selected_link_gain_cdf_rejects_bad_inputs(bad, message):
    args = dict(n=2, m=2, beta=1.0, taus=[0.1], trials=100) | bad
    with pytest.raises(ValueError, match=message):
        selected_link_gain_cdf(**args)


@pytest.mark.parametrize("tau, cdf", [(math.inf, 1.0), (-0.5, 0.0)])
def test_an_infinite_or_negative_tau_is_a_cdf_point(tau, cdf):
    """P(g <= inf) = 1 and P(g <= tau) = 0 for tau < 0: both are valid points."""
    got = selected_link_gain_cdf(2, 2, 1.0, [tau, 0.3], 100, seed=3)
    assert got[0] == cdf
    assert got[1] == selected_link_gain_cdf(2, 2, 1.0, [0.3], 100, seed=3)[0]


SETTLE_CASES = {  # one layout per open-pair regime, both wider than TABLE_BITS
    "dncc-4x4-cauchy-B": (dict(scheme="dncc", n_sources=4, n_relays=4,
                               code=build_cauchy(4, 4, F16), strategy="B"), "unique"),
    "rncc-4x4-wide": (DECIDE_CASES["rncc-4x4-wide"], "wide"),
}
SETTLE_TRIALS = 300


@pytest.mark.parametrize("traffic", ["multicast", "unicast"])
@pytest.mark.parametrize("case", sorted(SETTLE_CASES))
def test_settled_pairs_are_never_ranked(monkeypatch, case, traffic):
    """A (trial, j) pair that holds e_j (unicast) or all N direct rows
    (multicast) decodes whatever relay rows reach it, so outside the table
    regime _decide ranks only the other pairs: none with every link up, at
    most the open ones at a middle SNR, and the flags equal run_trial's."""
    layout, regime = SETTLE_CASES[case]
    scn = Scenario(snr_grid=(4.0,), trials=SETTLE_TRIALS, seed=11, traffic=traffic, **layout)
    n, nb = scn.n_sources, SETTLE_TRIALS
    assert _pattern_key(scn).regime == regime
    ranked, fails = [], _PatternKey.fails

    def counted(self, direct, relay):
        ranked.append(len(direct))
        return fails(self, direct, relay)

    monkeypatch.setattr(_PatternKey, "fails", counted)
    gsr, gsd, grd, coeffs = draw_chunk(scn, chunk_rng(scn.seed, 0, 0), nb)
    every_up = [np.ones(g.shape, dtype=bool) for g in (gsr, gsd, grd)]
    assert not simkernel._decide(scn, *every_up, coeffs).any()
    assert ranked == []

    rho = scn.snr_grid[0]
    tau = tau_for(rho, scn.rate_r0)
    ok_sd = gsd > tau
    if traffic == "unicast":
        open_pairs = sum(np.count_nonzero(~ok_sd[:, j, j]) for j in range(n))
    else:
        open_pairs = sum(np.count_nonzero(~ok_sd[:, :, j].all(axis=1)) for j in range(n))
    got = _coop_failures(scn, tau, gsr, gsd, grd, coeffs)
    assert 0 < sum(ranked) <= open_pairs < nb * n
    for t in range(nb):
        draw = TrialDraw(gsr[t], gsd[t], grd[t], None if coeffs is None else coeffs[t])
        assert run_trial(scn, rho, draw) == tuple(not f for f in got[t]), t


# -- the draw, compared slice by slice ---------------------------------------------


SLICES = [1, 7, simkernel.DRAW_SLICE, 1 << 20]


def _stream_scn(scheme, n, m, beta):
    code = build_vandermonde(n, m, field_new(max(2, math.ceil(math.log2(n + m + 1)))))
    return Scenario(scheme=scheme, n_sources=n, n_relays=m, snr_grid=(3.0,), trials=1,
                    code=code if scheme in ("dncc", "selection") else None,
                    field=F16 if scheme == "rncc" else None,
                    traffic="unicast" if scheme in ("ncc", "cc") else "multicast",
                    k_select=1 if scheme == "selection" else None, beta=beta)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("scheme", simkernel.SCHEMES)
def test_streamed_link_states_equal_the_gains_compared_with_tau(monkeypatch, scheme, n):
    """draw_chunk with tau draws and compares slice by slice; its link states
    must equal the whole gains compared with tau, its coefficients the
    gains-form ones, and its folded bottleneck the min over each relay's
    2N links, bit for bit, for any slice size and any count."""
    m = 7 - n
    tau = 0.8
    for beta in (1.0, 0.37, _skewed_beta(n, m)):
        scn = _stream_scn(scheme, n, m, beta)
        for size in SLICES:
            monkeypatch.setattr(simkernel, "DRAW_SLICE", size)
            for count in {1: (1, 50), 7: (1, 300)}.get(size, (1, 5000)):
                gsr, gsd, grd, coeffs = draw_chunk(scn, chunk_rng(3, 1, 2), count)
                ok_sr, ok_sd, ok_rd, got_coeffs, h = draw_chunk(
                    scn, chunk_rng(3, 1, 2), count, tau, True)
                for ok, g in ((ok_sr, gsr), (ok_sd, gsd), (ok_rd, grd)):
                    assert ok.dtype == bool and np.array_equal(ok, g > tau), (size, count)
                assert (coeffs is None) == (got_coeffs is None) == (scheme != "rncc")
                if coeffs is not None:
                    assert coeffs.tobytes() == got_coeffs.tobytes()
                want = np.minimum(gsr.min(axis=1), grd.min(axis=2)).T
                assert h.shape == (m, count) and h.tobytes() == want.tobytes()
                assert draw_chunk(scn, chunk_rng(3, 1, 2), count, tau, False)[4] is None


@pytest.mark.parametrize("n, m", [(1, 3), (2, 2), (3, 4)])
def test_folded_bottleneck_selects_as_the_full_gains_do(n, m):
    """Folding the bottleneck slice by slice, on tie-heavy gains and on
    drawn ones, keeps exactly the relays the full gains keep, and those of
    the scalar rule."""
    rng = np.random.default_rng(30 * n + m)
    tied = (TIE_LEVELS[rng.integers(0, 4, (400, n, m))], TIE_LEVELS[rng.integers(0, 4, (400, m, n))])
    drawn = (rng.standard_exponential((400, n, m)), rng.standard_exponential((400, m, n)))
    for gsr, grd in (tied, drawn):
        full = np.minimum(gsr.min(axis=1), grd.min(axis=2)).T
        assert simkernel._bottleneck(gsr, grd).tobytes() == full.tobytes()
        for step in (1, 7, 64, 400):
            h = np.full((m, 400), np.inf)
            for lo in range(0, 400, step):
                simkernel._fold_bottleneck(h[:, lo:lo + step], gsr[lo:lo + step])
            for lo in range(0, 400, step):
                simkernel._fold_bottleneck(h[:, lo:lo + step], grd[lo:lo + step].transpose(0, 2, 1))
            assert h.tobytes() == full.tobytes()
        for k in range(1, m + 1):
            scn = _scn(scheme="selection", n_sources=n, n_relays=m, k_select=k,
                       code=build_vandermonde(n, m, F8))
            keep = simkernel._kept_relays(h, k)
            for t in range(400):
                want = select_relays(scn, TrialDraw(gsr[t], np.zeros((n, n)), grd[t]), k)
                assert np.flatnonzero(keep[:, t]).tolist() == sorted(want), (k, t)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_sweep_counts_do_not_depend_on_the_draw_slice(monkeypatch, n, m):
    """dncc, rncc, selection, ncc and cc count as the whole gains do for
    every slice size, at one worker and at two, on a tabled shape (2, 2)
    and an untabled one."""
    code = build_vandermonde(n, m, F8)
    base = dict(n_sources=n, n_relays=m, snr_grid=(2.0, 20.0), trials=700, seed=9,
                traffic="unicast")
    mix = [Scenario(scheme="rncc", field=F16, strategy="B", **base)]  # first: it draws
    mix += [Scenario(scheme="dncc", code=code, strategy=s, **base) for s in "AB"]
    mix += [Scenario(scheme="selection", code=code, k_select=k, **base) for k in range(1, m + 1)]
    mix += [Scenario(scheme=s, **base) for s in ("ncc", "cc")]
    want = _per_trial_counts(mix)  # from the whole gains
    for size in SLICES:
        monkeypatch.setattr(simkernel, "DRAW_SLICE", size)
        for workers in (1, 2):
            assert [_counts(r) for r in run_sweep(mix, workers=workers)] == want, (size, workers)


F512 = field_new(9)


@pytest.mark.parametrize("field, n, regime", [
    (F4, 1, "table"), (F16, 3, "unique"), (F256, 4, "wide"),
    (F512, 1, "table"), (F512, 2, "unique"), (F512, 3, "wide"),
])
def test_pattern_stacks_are_built_in_the_fields_width(monkeypatch, field, n, regime):
    """unpack and the wide regime build the relay stacks fails() reduces in
    field.dtype, np.min_scalar_type(q - 1): uint8 up to GF(256), else uint16."""
    scn = Scenario(scheme="rncc", n_sources=n, n_relays=n, field=field, snr_grid=(4.0,),
                   trials=200, seed=5, strategy="B", traffic="unicast")
    want = np.min_scalar_type(field.order - 1)
    seen, fails = [], _PatternKey.fails

    def recording(self, direct, relay):
        seen.append(relay.dtype)
        return fails(self, direct, relay)

    monkeypatch.setattr(_PatternKey, "fails", recording)
    key = _pattern_key(scn)
    assert key.regime == regime
    draw = draw_chunk(scn, chunk_rng(5, 0, 0), 200, tau_for(4.0, scn.rate_r0))
    simkernel._decide(scn, *draw[:4], key)
    assert seen and set(seen) == {want}
    if regime != "wide":
        keys = np.arange(min(key.span, 64), dtype=np.int64)
        assert key.unpack(keys)[1].dtype == want == field.dtype


def test_the_decide_works_in_the_fields_width():
    """The tracemalloc peak of one _decide on the seed-1, 5 dB chunk of a
    dncc N=M=6 GF(16) strategy-B multicast sweep of 4096 trials.  It read
    3.38 MiB when unpack built each slot in int64 and the relay stacks in
    int32; built in uint8 it reads about 1.9 MiB."""
    n = m = 6
    scn = Scenario(scheme="dncc", n_sources=n, n_relays=m, snr_grid=(10 ** 0.5,), trials=4096,
                   seed=1, code=build_vandermonde(n, m, F16), strategy="B")
    key = simkernel._plan(scn)[2]
    assert key.regime == "unique"
    draw = draw_chunk(scn, chunk_rng(1, 0, 0), 4096, tau_for(10 ** 0.5, scn.rate_r0))
    want = simkernel._decide(scn, *draw[:4], key)
    tracemalloc.start()
    try:
        got = simkernel._decide(scn, *draw[:4], key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 2.25 * 2**20


def test_a_chunk_never_holds_its_gains():
    """The tracemalloc peak of one chunk of a dncc N=M=6 strategy-B sweep
    stays below the size of that chunk's float64 gains."""
    n = m = 6
    count = 4096
    scn = Scenario(scheme="dncc", n_sources=n, n_relays=m, snr_grid=(10 ** 2.5,), trials=count,
                   seed=1, code=build_vandermonde(n, m, F16), strategy="B")
    plans = (simkernel._plan(scn),)
    gain_bytes = count * (n * m + n * n + m * n) * 8  # 3.54 MB
    tracemalloc.start()
    try:
        simkernel._chunk_counts(plans, 0, 0, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gain_bytes
