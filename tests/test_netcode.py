"""Code constructions, packet encode/recover, and MDS certification."""

import itertools
import json
import random
import re

import numpy as np
import pytest

from coopcode import ffmat, netcode
from coopcode.ffmat import FfMatrix, batch_rank
from coopcode.gf import field_new
from coopcode.netcode import (
    MAX_CODEWORDS,
    FieldTooSmallError,
    NetworkCode,
    bits_to_symbols,
    build_cauchy,
    build_explicit,
    build_random,
    build_vandermonde,
    dump_code,
    encode,
    load_code,
    mds_check,
    min_distance,
    recover,
    symbols_to_bits,
)

F2 = field_new(1)
F4 = field_new(2)
F8 = field_new(3)
F16 = field_new(4)
F32 = field_new(5)

# Stacking V(2x2)^-1 behind V(2x2) with points 0,1,2,3 over GF(4) gives
# these relay rows; frozen from a hand evaluation of the two products.
EXPECTED_VANDERMONDE_22 = [[1, 0], [0, 1], [3, 2], [2, 3]]

# Bit-level view of the same relay block: with symbols packed as
# (high bit, low bit), the relay output bits are this GF(2) matrix times
# (b11, b12, b21, b22).
RELAY_BIT_MATRIX = [[0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]]


def test_vandermonde_worked_example_exact():
    code = build_vandermonde(2, 2, F4)
    assert code.matrix.to_lists() == EXPECTED_VANDERMONDE_22
    assert code.certified_kappa == 2
    assert code.construction == "vandermonde"


def test_vandermonde_relay_bitmap_all_16_patterns():
    code = build_vandermonde(2, 2, F4)
    for bits in itertools.product((0, 1), repeat=4):
        theta = FfMatrix(F4, [[s] for s in bits_to_symbols(list(bits), 2)])
        relay_syms = [row[0] for row in encode(code, theta).to_lists()[2:]]
        got = symbols_to_bits(relay_syms, 2)
        want = [sum(r * b for r, b in zip(rrow, bits)) % 2 for rrow in RELAY_BIT_MATRIX]
        assert got == want, bits


def test_vandermonde_minimal_cases():
    assert build_vandermonde(1, 1, F2).matrix.to_lists() == [[1], [1]]
    with pytest.raises(FieldTooSmallError):
        build_vandermonde(3, 2, F4)  # q=4 < N+M=5


def _vandermonde_by_inverse(n, m, field):
    """The relay rows as V_m @ inverse(V_n) on the points 0..n+m-1, the
    expression build_vandermonde evaluated before its Lagrange form."""
    def vrow(t):
        return [field.pow(t, j) for j in range(n)]

    vn = FfMatrix(field, [vrow(t) for t in range(n)])
    vm = FfMatrix(field, [vrow(t) for t in range(n, n + m)])
    return (vm @ vn.invert()).to_lists()


def _cauchy_by_formula(n, m, field):
    """The relay rows as u_i v_j / (x_i + y_j) on x_i = g^(n+m-1-i) and
    y_j = g^(n-1-j), with u_i = 1 / prod_{l != i} (x_i + x_l) and
    v_j = prod_l (y_j + x_l): the expression build_cauchy evaluated before
    its Lagrange form."""
    g, total = field.generator, n + m
    xs = [field.pow(g, total - 1 - i) for i in range(m)]
    ys = [field.pow(g, total - 1 - m - j) for j in range(n)]
    us = []
    for i in range(m):
        prod = 1
        for l in range(m):
            if l != i:
                prod = field.mul(prod, xs[i] ^ xs[l])
        us.append(field.inv(prod))
    vs = []
    for j in range(n):
        prod = 1
        for l in range(m):
            prod = field.mul(prod, ys[j] ^ xs[l])
        vs.append(prod)
    return [[field.mul(field.mul(us[i], vs[j]), field.inv(xs[i] ^ ys[j])) for j in range(n)]
            for i in range(m)]


def _assert_builder_equals_its_reference(monkeypatch, kind, ell):
    """build_<kind> over GF(2^ell) against its kept reference formula, on
    every (n, m) the field takes, and its shape errors."""
    build = {"cauchy": build_cauchy, "vandermonde": build_vandermonde}[kind]
    field = field_new(ell)
    q = field.order
    top = q - 1 if kind == "cauchy" else q  # the most distinct points build takes
    reference = _cauchy_by_formula if kind == "cauchy" else _vandermonde_by_inverse
    for n, m in ((1, 1), (2, 2), (3, 4), (4, 4)):
        if n + m <= top:  # the certified build, identity block and all
            code = build(n, m, field)
            assert code.relay_block.to_lists() == reference(n, m, field)
            assert code.certified_kappa == n and code.construction == kind
    # every (n, m) with n + m <= top; a Vandermonde relay row i depends on
    # t = n+i alone, so one reference at m = q-n holds the rows of every
    # smaller m
    monkeypatch.setattr(netcode, "_stack_code", lambda field, n, relay, kind: relay.tolist())
    for n in range(1, top):
        whole = _vandermonde_by_inverse(n, q - n, field) if kind == "vandermonde" else None
        for m in range(1, top - n + 1):
            want = whole[:m] if whole else reference(n, m, field)
            assert build(n, m, field) == want, (n, m)
    for n, m in ((q, 1), (1, q), (q // 2, q // 2 + 1), (q + 1, q + 1)):
        with pytest.raises(FieldTooSmallError, match=re.escape(f"q={q} < N+M={n + m}")):
            build(n, m, field)
    if kind == "cauchy":  # q = N+M passes the size check but repeats a point
        for n in range(1, q):
            with pytest.raises(FieldTooSmallError, match=re.escape(
                    f"q={q} gives repeated points and zero denominators; need q >= {q + 1}")):
                build(n, q - n, field)
    for n, m in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            build(n, m, field)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6], ids=lambda ell: f"q{1 << ell}")
def test_vandermonde_lagrange_form_is_v_m_times_v_n_inverse(monkeypatch, ell):
    _assert_builder_equals_its_reference(monkeypatch, "vandermonde", ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6], ids=lambda ell: f"q{1 << ell}")
def test_cauchy_lagrange_form_is_u_i_v_j_over_x_i_plus_y_j(monkeypatch, ell):
    _assert_builder_equals_its_reference(monkeypatch, "cauchy", ell)


@pytest.mark.parametrize("ell", [13, 14], ids=lambda ell: f"q{1 << ell}")
@pytest.mark.parametrize("kind", ["cauchy", "vandermonde"])
def test_a_certified_build_at_the_log_width_boundary(kind, ell):
    """GF(8192) is the largest field whose logs are int16, GF(16384) the
    smallest whose logs are int32.  A 6x6 build in each runs _lagrange and
    the relay block's minors, certifies, and equals its reference formula."""
    field = field_new(ell)
    assert field.np_tables()[0].dtype == (np.int16 if ell == 13 else np.int32)
    build = {"cauchy": build_cauchy, "vandermonde": build_vandermonde}[kind]
    reference = {"cauchy": _cauchy_by_formula, "vandermonde": _vandermonde_by_inverse}[kind]
    code = build(6, 6, field)
    assert code.relay_block.to_lists() == reference(6, 6, field)
    assert code.certified_kappa == 6 and code.construction == kind


def test_cauchy_constructions():
    code = build_cauchy(1, 1, F4)
    assert code.matrix.to_lists()[0] == [1]
    assert code.matrix.to_lists()[1][0] != 0
    assert code.matrix.kruskal_rank() == 1

    code = build_cauchy(2, 2, F16)
    assert code.matrix.kruskal_rank() == 2
    assert mds_check(code)


def test_cauchy_field_too_small():
    with pytest.raises(FieldTooSmallError, match="N\\+M"):
        build_cauchy(3, 2, F4)  # q=4 < 5
    # q = N+M passes the size precheck but reuses a generator power
    with pytest.raises(FieldTooSmallError, match="q >= 5"):
        build_cauchy(2, 2, F4)


def test_random_code_determinism_and_shape():
    a = build_random(2, 2, F16, seed=7)
    b = build_random(2, 2, F16, seed=7)
    assert a.matrix == b.matrix
    assert a.certified_kappa is None
    assert build_random(2, 2, F16, seed=8).matrix != a.matrix
    tiny = build_random(2, 1, F2, seed=0)
    assert tiny.matrix.rows == 3 and tiny.matrix.cols == 2


def test_random_code_seed_must_be_a_non_negative_integer():
    for bad in (-1, 2.5):
        with pytest.raises(ValueError,
                           match=f"^seed must be a non-negative integer, got {bad}$"):
            build_random(2, 2, F16, seed=bad)
    assert build_random(2, 2, F16, seed=np.int64(7)).matrix == \
        build_random(2, 2, F16, seed=7).matrix


def test_random_code_rank_deficiency_exact_fraction_q4():
    # Exhausting all q^(M*N) = 256 relay blocks over GF(4) for N=M=2:
    # P(kappa < 2) = 5/q - 9/q^2 + 7/q^3 - 2/q^4 = 202/256.  Counted here
    # independently by enumerating blocks and checking kappa directly.
    deficient = 0
    top = FfMatrix.identity(F4, 2)
    for entries in itertools.product(range(4), repeat=4):
        relay = FfMatrix(F4, [list(entries[:2]), list(entries[2:])])
        code = build_explicit(top.vstack(relay))
        if code.matrix.kruskal_rank() < 2:
            deficient += 1
    assert deficient == 202
    assert deficient / 256 == 5 / 4 - 9 / 16 + 7 / 64 - 2 / 256


def test_random_single_square_submatrix_deficiency_bounded_by_n_over_q():
    # Any one N x N row subset of a random code is singular with
    # probability at most N/q; checked empirically per subset at q=16.
    n = m = 2
    trials = 4000
    counts = {rows: 0 for rows in itertools.combinations(range(n + m), n)}
    for seed in range(trials):
        mat = build_random(n, m, F16, seed=seed).matrix
        for rows in counts:
            if mat.row_submatrix(rows).rank() < n:
                counts[rows] += 1
    bound = n / F16.order
    for rows, cnt in counts.items():
        p_hat = cnt / trials
        sigma = (bound * (1 - bound) / trials) ** 0.5
        assert p_hat <= bound + 3 * sigma, (rows, p_hat)


def test_encode_matches_hand_combination():
    code = build_vandermonde(2, 2, F4)
    theta = FfMatrix(F4, [[2], [1]])
    out = encode(code, theta)
    assert out.to_lists()[:2] == [[2], [1]]  # systematic prefix
    # relay rows: (3*2 + 2*1, 2*2 + 3*1) = (1+2, 3+3) = (3, 0)
    assert out.to_lists()[2:] == [[3], [0]]


def test_encode_zero_packets():
    code = build_vandermonde(2, 2, F4)
    z = FfMatrix.zeros(F4, 2, 3)
    assert encode(code, z) == FfMatrix.zeros(F4, 4, 3)


def test_recover_multicast_from_relay_rows_only():
    code = build_vandermonde(2, 2, F4)
    rng = random.Random(3)
    for _ in range(20):
        theta = FfMatrix(F4, [[rng.randrange(4)] for _ in range(2)])
        pi = encode(code, theta)
        obs = pi.row_submatrix([2, 3])
        assert recover(code, [2, 3], obs) == theta


def test_recover_multicast_rank_deficient_returns_none():
    code = build_vandermonde(2, 2, F4)
    theta = FfMatrix(F4, [[1], [2]])
    pi = encode(code, theta)
    assert recover(code, [0], pi.row_submatrix([0])) is None


def test_recover_unicast():
    code = build_vandermonde(2, 2, F4)
    theta = FfMatrix(F4, [[1], [3]])
    pi = encode(code, theta)
    # row 1 alone carries e_1 but not e_0
    assert recover(code, [1], pi.row_submatrix([1]), "unicast", dest=0) is None
    got = recover(code, [1], pi.row_submatrix([1]), "unicast", dest=1)
    assert got.to_lists() == [[3]]
    # two relay rows span everything
    got = recover(code, [2, 3], pi.row_submatrix([2, 3]), "unicast", dest=0)
    assert got.to_lists() == [[1]]
    with pytest.raises(ValueError):
        recover(code, [0], pi.row_submatrix([0]), "unicast", dest=5)


def test_recover_from_no_rows_returns_none():
    code = build_vandermonde(2, 2, F4)
    empty = FfMatrix.zeros(F4, 0, 3)
    assert recover(code, [], empty) is None
    assert recover(code, [], empty, "unicast", dest=1) is None


def test_recover_roundtrip_random_subsets():
    rng = random.Random(17)
    code = build_cauchy(3, 3, F16)
    for _ in range(25):
        theta = FfMatrix(F16, [[rng.randrange(16) for _ in range(2)] for _ in range(3)])
        pi = encode(code, theta)
        rows = rng.sample(range(6), rng.randrange(3, 7))
        got = recover(code, rows, pi.row_submatrix(rows))
        assert got == theta  # any >=3 rows of a kappa=3 code decode


def test_mds_check_and_min_distance():
    code = build_vandermonde(2, 2, F4)
    assert mds_check(code)
    assert min_distance(code) == 3  # [4,2] MDS: d = n-k+1

    dup = build_explicit(
        FfMatrix(F4, [[1, 0], [0, 1], [3, 2], [3, 2]])
    )
    assert not mds_check(dup)
    assert min_distance(dup) == 2


def test_min_distance_is_n_plus_1_iff_every_n_rows_are_independent():
    # the paper's link: A is a full-diversity code iff A^T is the parity
    # check of an (N+M, M, N+1) MDS code; min_distance enumerates codewords,
    # mds_check and kruskal_rank rank row subsets
    rng = random.Random(53)
    seen, cases = set(), 0
    while cases < 360:
        ell, n, m = rng.randrange(1, 5), rng.randrange(1, 5), rng.randrange(1, 5)
        if (1 << ell) ** m > 4096:
            continue
        cases += 1
        code = build_random(n, m, field_new(ell), seed=cases)
        mds = mds_check(code)
        assert (min_distance(code) == n + 1) == mds == (code.matrix.kruskal_rank() == n)
        seen.add(mds)
    assert seen == {True, False}


def test_min_distance_at_the_codeword_cap():
    code = build_vandermonde(4, 4, field_new(5))
    assert 32 ** 4 == MAX_CODEWORDS
    assert min_distance(code) == 4 + 1


def test_min_distance_errors():
    with pytest.raises(ValueError, match="no relay rows"):
        min_distance(build_explicit(FfMatrix.identity(F4, 2)))
    with pytest.raises(ValueError, match="exceeds cap"):
        min_distance(build_random(2, 6, F16, seed=0))  # 16**6 > 2**20 codewords


def test_mds_check_cap():
    # 13 rows are decided like 4; 25 rows are above SUBSET_ROW_CAP, where
    # nothing is proven: no kappa, and mds_check refuses
    code = build_random(7, 6, F16, seed=0)
    assert mds_check(code) == (code.matrix.kruskal_rank() == 7)
    code = build_cauchy(13, 12, F32)
    assert code.certified_kappa is None
    with pytest.raises(ValueError, match="capped at 24 rows"):
        mds_check(code)
    text = dump_code(code).replace('"certified_kappa": null', '"certified_kappa": 13')
    assert '"certified_kappa": 13' in text
    assert load_code(text).certified_kappa is None


def test_strategy_b_zeroing_never_helps_multicast_on_certified_codes():
    # Any received set of full rows from a kappa=N code already has the
    # maximum possible rank min(#rows, N); zeroing relay coefficients can
    # only lower it, so multicast decodability never improves.
    rng = random.Random(5)
    for code in (build_vandermonde(2, 2, F4), build_cauchy(2, 3, F16)):
        n = code.n_sources
        total = n + code.n_relays
        for _ in range(200):
            rows = rng.sample(range(total), rng.randrange(1, total + 1))
            full = code.matrix.row_submatrix(rows)
            zeroed = [
                [v if (idx < n or rng.random() < 0.5) else 0 for v in row]
                for idx, row in zip(rows, full.to_lists())
            ]
            rank_zeroed = FfMatrix(code.field, zeroed).rank()
            assert rank_zeroed <= full.rank()
            if full.rank() < n:
                assert rank_zeroed < n


def test_dump_load_roundtrip():
    for code in (build_vandermonde(2, 2, F4), build_random(3, 2, F8, seed=9)):
        text = dump_code(code)
        back = load_code(text)
        assert back.matrix == code.matrix
        assert back.construction == code.construction
        assert back.certified_kappa == code.certified_kappa
        assert (back.n_sources, back.n_relays) == (code.n_sources, code.n_relays)


@pytest.mark.parametrize("build", [build_cauchy, build_vandermonde])
def test_round_trip_keeps_kappa_at_the_row_cap(build, monkeypatch):
    # N = M = 12: 24 rows, kappa proven again from the loaded matrix
    code = build(12, 12, F32)
    assert code.certified_kappa == 12
    proofs, every_minor_nonzero = [], ffmat._every_minor_nonzero

    def counting(block, field):
        proofs.append(block.shape)
        return every_minor_nonzero(block, field)

    monkeypatch.setattr(ffmat, "_every_minor_nonzero", counting)
    back = load_code(dump_code(code))
    assert back.certified_kappa == 12 and back.matrix == code.matrix
    assert proofs == [(12, 12)]


def test_load_code_certifies_from_the_relay_minors(monkeypatch):
    ranked = []

    def counting_batch_rank(mats, field):
        ranked.append(len(mats))
        return batch_rank(mats, field)

    code = build_cauchy(6, 6, F16)
    monkeypatch.setattr(ffmat, "batch_rank", counting_batch_rank)
    back = load_code(dump_code(code))
    assert back.certified_kappa == 6 and back.matrix == code.matrix
    assert ranked == []  # every relay minor is nonzero: no subset is ranked
    # the same file with R[1, 1] set so that det R[{0, 1}, {0, 1}] = 0
    a, r = code.matrix.to_lists(), code.relay_block.to_lists()
    a[7][1] = F16.mul(F16.mul(r[0][1], r[1][0]), F16.inv(r[0][0]))
    assert a[7][1] != r[1][1]
    edited = NetworkCode(FfMatrix(F16, a), "cauchy", 6)
    text = dump_code(edited)
    assert '"certified_kappa": 6' in text
    back = load_code(text)
    assert back.certified_kappa is None and back.construction == "cauchy"
    assert not mds_check(edited) and ranked == []  # a vanishing minor decides too
    assert back.matrix.kruskal_rank() < 6


def test_certification_checks_rank_level_n_alone():
    """mds_check and load_code's kappa check rank no level: on a code short
    of MDS a vanishing relay minor decides, where kruskal_rank() would rank
    levels 1 up to the first deficient one (924 + 1585 subsets at N=M=6)."""
    short = [s for s in range(10) if not mds_check(build_random(6, 6, F16, s))]
    assert short
    for s in short[:3]:
        code = build_random(6, 6, F16, s)  # fresh: no level recorded yet
        assert not mds_check(code)
        assert list(code.matrix._levels) == []
        text = dump_code(code).replace('"random"', '"vandermonde"').replace(
            '"certified_kappa": null', '"certified_kappa": 6')
        assert '"vandermonde"' in text and '"certified_kappa": 6' in text
        back = load_code(text)
        assert back.certified_kappa is None and back.construction == "vandermonde"
        assert list(back.matrix._levels) == []


_HEADER = {"construction": "vandermonde", "n": 2, "m": 2, "q": 4, "certified_kappa": 2}


@pytest.mark.parametrize("header, message", [
    ("[1, 2]", "must be a JSON object"),
    ('"vandermonde"', "must be a JSON object"),
    ({"m": 5}, "contradicts"),
    ({"m": 1}, "contradicts"),
    ({"n": 3}, "contradicts"),
    ({"n": 1, "m": 3}, "contradicts"),
    ({"q": 8}, "contradicts"),
    ({"n": "x"}, "must be ints"),
    ({"m": 2.0}, "must be ints"),
    ({"q": None}, "must be ints"),
    ({"n": True}, "must be ints"),
    ({"certified_kappa": "2"}, "certified_kappa an int or null"),
    ({"certified_kappa": 2.5}, "certified_kappa an int or null"),
    ({"construction": "bogus"}, "unknown construction 'bogus'"),
    ({"construction": None}, "unknown construction None"),
], ids=["list", "string", "m5", "m1", "n3", "n1-m3", "q8", "n-str", "m-float", "q-null", "n-bool",
        "kappa-str", "kappa-float", "bogus", "construction-null"])
def test_load_code_refuses_a_header_that_contradicts_its_matrix(header, message):
    body = dump_code(build_vandermonde(2, 2, F4)).split("\n", 1)[1]
    if isinstance(header, dict):
        header = json.dumps({**_HEADER, **header})
    with pytest.raises(ValueError, match=re.escape(message)):
        load_code(f"# {header}\n" + body)
    # the header it was edited from loads, and a # line that is not JSON
    # is a comment, before the header or in place of it
    assert load_code(f"# {json.dumps(_HEADER)}\n" + body).certified_kappa == 2
    assert load_code(f"# note\n# {json.dumps(_HEADER)}\n" + body).certified_kappa == 2
    assert load_code("# note\n" + body).construction == "explicit"


def test_network_code_refuses_an_unknown_construction():
    a = build_vandermonde(2, 2, F4).matrix
    with pytest.raises(ValueError, match="unknown construction 'mds'"):
        NetworkCode(a, "mds", None)


def test_kruskal_full_is_kruskal_rank_at_the_top():
    rng, seen = random.Random(7), set()
    for _ in range(60):
        ell, rows, cols = rng.randrange(1, 4), rng.randrange(1, 6), rng.randrange(1, 5)
        field = field_new(ell)
        entries = [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)]
        full = FfMatrix(field, entries).kruskal_full()
        assert full == (FfMatrix(field, entries).kruskal_rank() == min(rows, cols))
        seen.add(full)
    assert seen == {True, False}


def test_bit_helpers():
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    assert symbols_to_bits(bits_to_symbols(bits, 4), 4) == bits
    assert bits_to_symbols([1, 0], 2) == [2]  # MSB first
    with pytest.raises(ValueError):
        bits_to_symbols([1, 0, 1], 2)
    with pytest.raises(ValueError):
        symbols_to_bits([4], 2)


_CODE22 = build_vandermonde(2, 2, F4)


@pytest.mark.parametrize("call, message", [
    (lambda: bits_to_symbols([1, 2], 2), "bits must be 0 or 1"),
    (lambda: NetworkCode(FfMatrix.zeros(F4, 2, 0), "explicit", None),
     "need n_sources >= 1 and n_relays >= 0"),
    (lambda: NetworkCode(FfMatrix(F4, [[1, 0]]), "explicit", None),
     "need n_sources >= 1 and n_relays >= 0"),
    (lambda: build_random(0, 2, F4, 0), "need n >= 1 and m >= 1"),
    (lambda: build_random(2, 0, F4, 0), "need n >= 1 and m >= 1"),
    (lambda: encode(_CODE22, FfMatrix.zeros(F4, 3, 1)), "packets must have 2 rows"),
    (lambda: recover(_CODE22, [0, 1], FfMatrix.zeros(F4, 1, 1)),
     "observations must have one row per received index"),
    (lambda: recover(_CODE22, [0], FfMatrix.zeros(F4, 1, 1), "broadcast"),
     "unknown mode 'broadcast'"),
], ids=["bits", "code-n0", "code-m-negative", "random-n0", "random-m0", "encode-rows",
        "recover-rows", "recover-mode"])
def test_a_bad_argument_is_refused_with_its_bound(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_systematic_top_block_enforced():
    for rows in ([[1, 1], [0, 1], [2, 3]],
                 [[0, 1], [1, 0], [2, 3]],  # the identity's rows, swapped
                 [[1, 0], [0, 2], [1, 1]],
                 [[3], [1]]):
        with pytest.raises(ValueError, match="^top block must be the identity$"):
            build_explicit(FfMatrix(F4, rows))


@pytest.mark.parametrize("build", [build_vandermonde, build_cauchy,
                                   lambda n, m, field: build_random(n, m, field, 3)],
                         ids=["vandermonde", "cauchy", "random"])
def test_a_build_validates_one_matrix(monkeypatch, build):
    """A builder stacks [I_N; R] as one array: one FfMatrix, its entries
    validated once, and the top block checked on that array."""
    made = []

    def recorded(self, field, entries, _fn=FfMatrix.__init__):
        made.append(np.shape(entries))
        _fn(self, field, entries)

    monkeypatch.setattr(FfMatrix, "__init__", recorded)
    code = build(3, 4, F16)
    assert made == [(7, 3)]
    assert code.matrix.to_lists()[:3] == np.eye(3, dtype=int).tolist()
