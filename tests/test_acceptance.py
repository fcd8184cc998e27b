"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[acceptance] C<n>: PASS/FAIL`` line (run with
``pytest -s`` to see them) and then asserts, so a red test is also an
honest FAIL line with the measured numbers.  Monte Carlo grids and trial
budgets were sized so every point collects well over the minimum error
count and every fitted statistic sits at less than half its tolerance.
"""

import itertools
import math
import time

import numpy as np
import pytest

from coopcode import analytic
from coopcode.cli import main
from coopcode.ffmat import FfMatrix
from coopcode.gf import field_new
from coopcode.netcode import (bits_to_symbols, build_cauchy, build_vandermonde,
                              encode, mds_check, min_distance, symbols_to_bits)
from coopcode.simkernel import Scenario, run_sweep, selected_link_gain_cdf

F4 = field_new(2)
CODE22 = build_vandermonde(2, 2, F4)


def _report(num, ok, detail):
    print(f"[acceptance] C{num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _sweep_points(scheme, traffic, strategy, db_trials, seed):
    """One single-point sweep per (SNR, trials) pair so budgets can differ."""
    pts = []
    for db, trials in db_trials:
        scn = Scenario(scheme=scheme, n_sources=2, n_relays=2,
                       snr_grid=(10.0 ** (db / 10.0),), trials=trials, seed=seed,
                       code=None if scheme in ("ncc", "cc") else CODE22,
                       strategy=strategy, traffic=traffic)
        pts.append(run_sweep(scn).points[0])
    return pts


def _fit(points):
    return analytic.loglog_slope([p.rho for p in points],
                                 [p.avg_outage for p in points])


# --- C1: field arithmetic ------------------------------------------------

def _check_axioms(fld, triples):
    for a, b, c in triples:
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.add(a, fld.add(b, c)) == fld.add(fld.add(a, b), c)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, a) == 0 and fld.mul(a, 1) == a
        if a:
            assert fld.mul(a, fld.inv(a)) == 1


def test_c1_field_axioms():
    t0 = time.perf_counter()
    for ell in (1, 2, 3, 4):
        fld = field_new(ell)
        _check_axioms(fld, itertools.product(range(fld.order), repeat=3))
    rng = np.random.default_rng(1)
    for ell in (8, 12, 16):
        fld = field_new(ell)
        _check_axioms(fld, rng.integers(0, fld.order, size=(10_000, 3)).tolist())
    dt = time.perf_counter() - t0
    assert _report(1, dt < 10.0, f"exhaustive l<=4 + 1e4 triples l in 8/12/16, {dt:.1f}s")
    assert dt < 10.0


# --- C2: worked 4x2 example ----------------------------------------------

def test_c2_worked_example_bit_exact():
    matrix_ok = CODE22.matrix.to_lists() == [[1, 0], [0, 1], [3, 2], [2, 3]]
    bitmap = [[0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]]
    bits_ok = True
    for bits in itertools.product((0, 1), repeat=4):
        theta = FfMatrix(F4, [[s] for s in bits_to_symbols(list(bits), 2)])
        relay = [row[0] for row in encode(CODE22, theta).to_lists()[2:]]
        want = [sum(r * b for r, b in zip(row, bits)) % 2 for row in bitmap]
        bits_ok = bits_ok and symbols_to_bits(relay, 2) == want
    assert _report(2, matrix_ok and bits_ok,
                   "matrix [[1,0],[0,1],[3,2],[2,3]] and 4x4 relay bit-map, all 16 inputs")
    assert matrix_ok and bits_ok


# --- C3: full-diversity certification across all admissible sizes --------

def test_c3_mds_certification_everywhere():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 12):
        for m in range(1, 13 - n):
            ell_c = max(1, math.ceil(math.log2(n + m + 1)))
            ell_v = max(1, math.ceil(math.log2(n + m)))
            for ell in range(ell_v, 17):
                fld = field_new(ell)
                builders = [build_vandermonde]
                if ell >= ell_c:
                    builders.append(build_cauchy)
                for build in builders:
                    code = build(n, m, fld)
                    assert code.certified_kappa == n
                    assert mds_check(code), (n, m, ell, build.__name__)
                    checked += 1
    dmin_ok = (min_distance(CODE22) == 3
               and min_distance(build_cauchy(2, 2, field_new(3))) == 3)
    dt = time.perf_counter() - t0
    ok = dmin_ok and dt < 60.0
    assert _report(3, ok, f"{checked} codes, kappa=N everywhere, d_min=3 "
                          f"for the 4x2 codes, {dt:.1f}s")
    assert ok


# --- C4: rank-metric identities on random matrices -----------------------

def _random_invertible(fld, size, rng):
    while True:
        t = FfMatrix(fld, rng.integers(0, fld.order, size=(size, size)).tolist())
        if t.rank() == size:
            return t


def test_c4_rank_metric_identities():
    rng = np.random.default_rng(4)
    count = 0
    for fld in (F4, field_new(4)):
        for _ in range(120):
            cols = int(rng.integers(1, 5))
            rows = int(rng.integers(cols, 9))
            a = FfMatrix(fld, rng.integers(0, fld.order, size=(rows, cols)).tolist())
            r, kappa = a.rank(), a.kruskal_rank()
            if r == cols:
                gamma_n = a.gamma_rank(cols)
                assert (kappa == cols) == (gamma_n == cols)
                lams = [a.lambda_rank(i) for i in range(cols)]
                assert gamma_n == max(lams)
            else:
                assert kappa < cols
                with pytest.raises(ValueError):
                    a.gamma_rank(cols)
                assert any(a.lambda_rank(i) is None for i in range(cols))
            b = a @ _random_invertible(fld, cols, rng)
            assert b.rank() == r and b.kruskal_rank() == kappa
            for i in range(1, r + 1):
                assert b.gamma_rank(i) == a.gamma_rank(i)
            count += 1
    assert _report(4, True, f"{count} random matrices up to 8x4 over GF(4)/GF(16), exact")


# --- C5: Monte Carlo inside the analytic bracket -------------------------

def test_c5_bound_sandwich():
    t0 = time.perf_counter()
    trials = 1_000_000
    rhos = [10.0 ** (db / 10.0) for db in (20, 25, 30)]
    ok, worst = True, ""
    for traffic in ("multicast", "unicast"):
        scn = Scenario(scheme="dncc", n_sources=2, n_relays=2, snr_grid=tuple(rhos),
                       trials=trials, seed=5, code=CODE22, traffic=traffic)
        rep = run_sweep(scn)
        for pt in rep.points:
            lp = analytic.LinkParams(beta=1.0, rho=pt.rho, rate_r0=1.0, n_sources=2, n_relays=2)
            if traffic == "multicast":
                bounds = [analytic.outage_bounds_multicast(lp, gamma_n=2)] * 2
            else:
                bounds = [analytic.outage_bounds_unicast(lp, CODE22.matrix.lambda_rank(i))
                          for i in range(2)]
            for rate, bd in zip(pt.dest_rates, bounds):
                lo = bd.lower - 3.0 * math.sqrt(bd.lower * (1 - bd.lower) / trials)
                hi = bd.upper + 3.0 * math.sqrt(bd.upper * (1 - bd.upper) / trials)
                if not lo <= rate <= hi:
                    ok, worst = False, f"{traffic}@rho={pt.rho:.0f}: {rate:g} not in [{lo:g},{hi:g}]"
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _report(5, ok, worst or f"both traffics, 3 SNRs x 1e6 trials inside "
                                   f"[lower-3s, upper+3s], {dt:.1f}s")
    assert ok


# --- C6: diversity slopes, analytic and simulated ------------------------

def test_c6_diversity_slopes():
    rhos = np.logspace(5, 7, 9)
    analytic_ok = True
    for n, m in ((2, 1), (2, 2), (3, 3)):
        ups = [analytic.outage_bounds_multicast(
            analytic.LinkParams(beta=1.0, rho=r, rate_r0=1.0, n_sources=n, n_relays=m),
            gamma_n=n).upper for r in rhos]
        slope = analytic.loglog_slope(rhos, ups)
        analytic_ok = analytic_ok and abs(slope + (m + 1)) <= 0.05

    dncc = _sweep_points("dncc", "unicast", "A",
                         [(12, 400_000), (14, 1_200_000), (16, 3_200_000),
                          (18, 8_000_000), (20, 20_000_000)], seed=61)
    ncc = _sweep_points("ncc", "unicast", "A",
                        [(17, 600_000), (19, 1_400_000), (21, 4_000_000),
                         (23, 13_000_000), (25, 20_000_000)], seed=62)
    min_errs = min(sum(p.dest_errors) for p in dncc + ncc)
    s_dncc, s_ncc = _fit(dncc), _fit(ncc)
    ok = (analytic_ok and min_errs >= 100
          and abs(s_dncc + 3) <= 0.4 and abs(s_ncc + 2) <= 0.4)
    assert _report(6, ok, f"analytic within 0.05; MC dncc {s_dncc:.2f} (target -3), "
                          f"ncc {s_ncc:.2f} (target -2), >= {min_errs} errors/point")
    assert ok


# --- C7: random-code rank-deficiency rate vs the N/q bound ---------------

def _deficiency_rate(q, draws, seed):
    """P(kappa < 2) for [I; R] with R uniform 2x2 over GF(q).

    kappa < 2 iff some relay row is a multiple of a unit row (a zero
    entry) or the two relay rows are proportional (zero determinant).
    Vectorized via the log/antilog tables; cross-checked below.
    """
    fld = field_new(q.bit_length() - 1)
    log_t, exp2_t, _ = fld.np_tables()
    r = np.random.default_rng(seed).integers(0, q, size=(draws, 2, 2))
    mul = lambda x, y: exp2_t[log_t[x] + log_t[y]]
    deficient = (r == 0).any(axis=(1, 2)) | (
        mul(r[:, 0, 0], r[:, 1, 1]) == mul(r[:, 0, 1], r[:, 1, 0]))
    for i in range(300):  # agree with the subset-rank definition
        stack = FfMatrix(fld, [[1, 0], [0, 1]] + r[i].tolist())
        assert (stack.kruskal_rank() < 2) == bool(deficient[i])
    return deficient.mean()


def test_c7_random_code_deficiency_bound():
    draws = 100_000
    results, ok = [], True
    for q in (16, 256):
        rate = _deficiency_rate(q, draws, seed=70 + q)
        bound = 2 / q + 3.0 * math.sqrt((2 / q) * (1 - 2 / q) / draws)
        results.append(f"q={q}: {rate:.4f} vs bound {bound:.4f}")
        ok = ok and rate <= bound
    assert _report(7, ok, "; ".join(results))
    assert ok


# --- C8: strategy B dominates A, same slope -------------------------------

def test_c8_strategy_ordering():
    grid = [(8, 60_000), (10.5, 200_000), (13, 1_000_000),
            (15.5, 2_500_000), (18, 7_000_000)]
    pa = _sweep_points("dncc", "multicast", "A", grid, seed=81)
    pb = _sweep_points("dncc", "multicast", "B", grid, seed=81)
    errs_a = [sum(p.dest_errors) for p in pa]
    errs_b = [sum(p.dest_errors) for p in pb]
    dominated = all(b <= a for a, b in zip(errs_a, errs_b))
    s_a, s_b = _fit(pa), _fit(pb)
    ok = dominated and min(errs_b) >= 100 and abs(s_a - s_b) <= 0.3
    assert _report(8, ok, f"B<=A at all 5 SNRs (coupled draws), slopes "
                          f"A {s_a:.2f} / B {s_b:.2f}")
    assert ok


# --- C9: selection bottleneck cdf approximation ---------------------------

def test_c9_selection_approximation():
    tau, results, ok = 0.01, [], True
    for m, trials in ((2, 6_000_000), (3, 60_000_000)):
        cdf = selected_link_gain_cdf(2, m, 1.0, [tau], trials, seed=90 + m)
        ratio = cdf[0] / ((2 * 2) ** (m - 1) * tau ** m)
        results.append(f"M={m}: ratio {ratio:.3f}")
        ok = ok and abs(ratio - 1.0) <= 0.2
    assert _report(9, ok, f"tau={tau}, " + "; ".join(results) + ", tolerance 0.2")
    assert ok


# --- C10: DMT curves from the command line --------------------------------

def test_c10_dmt_closed_forms(tmp_path):
    out = tmp_path / "dmt.csv"
    assert main(["dmt", "--scheme", "dncc,rncc,selection,ncc,cc", "--n", "2",
                 "--m", "2", "--k-select", "2", "--r-points", "3",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    got = {}
    for r, scheme, d in rows:
        got.setdefault(scheme, []).append(float(d))
    hand = {"dncc": [3.0, 1.5, 0.0], "rncc": [3.0, 1.5, 0.0],
            "selection": [4.0, 2.0, 0.0], "ncc": [2.0, 1.0, 0.0],
            "cc": [3.0, 1.5, 0.0]}
    worst = max(abs(a - b) for s in hand for a, b in zip(got[s], hand[s]))
    ok = worst <= 1e-12
    assert _report(10, ok, f"five schemes at r in {{0, mid, max}}, max |err| = {worst:g}")
    assert ok


# --- C11: worker-count determinism ----------------------------------------

def test_c11_worker_determinism(tmp_path):
    blobs = []
    for w in (1, 4, 8):
        path = tmp_path / f"w{w}.csv"
        assert main(["simulate", "--n", "2", "--m", "2", "--q", "4",
                     "--trials", "20000", "--seed", "11", "--snr-start-db", "10",
                     "--snr-stop-db", "15", "--snr-step-db", "5",
                     "--workers", str(w), "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _report(11, ok, "byte-identical CSV across 1/4/8 workers")
    assert ok
