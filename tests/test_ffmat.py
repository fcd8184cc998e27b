"""Finite-field matrices: rank/solve/invert plus the subset-rank metrics."""

import pickle
import random
import re
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcode import ffmat
from coopcode.ffmat import SUBSET_ROW_CAP, FfMatrix, batch_rank, load_matrix, unit_spans
from coopcode.gf import Field, field_new
from coopcode.netcode import (build_cauchy, build_explicit, build_random, build_vandermonde,
                              mds_check)

F2 = field_new(1)
F4 = field_new(2)
F16 = field_new(4)
F32 = field_new(5)

# The 4x2 systematic matrix over GF(4) used throughout: identity on top,
# relay rows (3,2) and (2,3).  Every pair of rows is independent.
EXAMPLE_A = FfMatrix(F4, [[1, 0], [0, 1], [3, 2], [2, 3]])


def _span_size(field, rows) -> int:
    """Independent rank oracle: |span| = q**rank by closure, no elimination."""
    span = {tuple([0] * (len(rows[0]) if rows else 0))}
    for r in rows:
        addition = set()
        for v in span:
            for c in range(field.order):
                addition.add(tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, r)))
        span |= addition
    return len(span)


def _rank_oracle(m: FfMatrix) -> int:
    size = _span_size(m.field, m.to_lists())
    rank = 0
    while m.field.order ** rank < size:
        rank += 1
    return rank


def _random_matrix(field, rows, cols, rng) -> FfMatrix:
    return FfMatrix(
        field, [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)]
    )


def _random_block(field, rows, cols, rng) -> FfMatrix:
    """Like _random_matrix, but any shape, zero rows or columns included."""
    vals = [rng.randrange(field.order) for _ in range(rows * cols)]
    return FfMatrix(field, np.array(vals, dtype=np.int64).reshape(rows, cols))


def test_constructor_validates_entries():
    with pytest.raises(ValueError):
        FfMatrix(F4, [[0, 4]])
    with pytest.raises(ValueError):
        FfMatrix(F4, [[-1]])
    with pytest.raises(ValueError):
        FfMatrix(F4, [[1, 2], [3]])
    with pytest.raises(ValueError) as exc:
        FfMatrix(F4, [1, 2])
    assert str(exc.value) == "entries must be two-dimensional"
    # floats, strings and objects are refused, not cast to int64
    for bad in ([[1.5]], [[1.0]], [["3"]], np.array([[1]], dtype=object)):
        with pytest.raises(ValueError, match="entries must be integers"):
            FfMatrix(F4, bad)
    for ints in ([[3]], [[np.int8(3)]], np.array([[3]], dtype=np.uint8)):
        assert FfMatrix(F4, ints).to_lists() == [[3]]


def test_rank_basics():
    assert FfMatrix.identity(F4, 3).rank() == 3
    assert FfMatrix.zeros(F4, 2, 3).rank() == 0
    # binary matrix with rows 0111/1110/1101/1011 has full rank over GF(2)
    m = FfMatrix(F2, [[0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]])
    assert m.rank() == 4


def test_rank_matches_span_oracle_on_random_matrices():
    rng = random.Random(7)
    for field in (F2, F4, F16):
        for _ in range(60):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 5)
            m = _random_matrix(field, rows, cols, rng)
            assert m.rank() == _rank_oracle(m)


def test_matmul_against_hand_product():
    a = FfMatrix(F4, [[1, 2], [3, 0]])
    b = FfMatrix(F4, [[2, 1], [1, 3]])
    # row 0: (1*2 + 2*1, 1*1 + 2*3) = (2+2, 1+1) = (0, 0)... over GF(4):
    # 1*2=2, 2*1=2 -> 2^2=0; 1*1=1, 2*3=1 -> 1^1=0
    # row 1: (3*2, 3*1) = (1, 3)
    assert (a @ b).to_lists() == [[0, 0], [1, 3]]
    row = FfMatrix(F4, [[1, 2]])
    for other, message in ((FfMatrix(F16, [[1], [2]]), "mixed fields"),
                           (row, "shape mismatch (1, 2) @ (1, 2)")):
        with pytest.raises(ValueError) as exc:
            row @ other
        assert str(exc.value) == message


@pytest.mark.parametrize("ell", [1, 2, 4, 8, 13, 14, 16])
def test_matmul_equals_a_field_mul_sum(ell):
    field = field_new(ell)
    rng = random.Random(ell)
    for _ in range(25):
        rows, inner, cols = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
        a = _random_matrix(field, rows, inner, rng).to_lists()
        b = _random_matrix(field, inner, cols, rng).to_lists()
        want = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                for k in range(inner):
                    want[i][j] ^= field.mul(a[i][k], b[k][j])
        assert (FfMatrix(field, a) @ FfMatrix(field, b)).to_lists() == want


@pytest.mark.parametrize("rows, inner, cols", [(0, 3, 2), (2, 0, 3), (0, 0, 0), (3, 2, 0)])
def test_matmul_keeps_empty_shapes(rows, inner, cols):
    got = FfMatrix.zeros(F16, rows, inner) @ FfMatrix.zeros(F16, inner, cols)
    assert got == FfMatrix.zeros(F16, rows, cols)


def test_products_solves_and_inverses_make_no_scalar_multiplications(monkeypatch):
    """Neither these nor building and certifying a Cauchy or Vandermonde
    code, from GF(2) up to GF(2^16), runs a scalar Field.mul or Field.inv."""
    def scalar(self, *args):
        raise AssertionError("scalar field op called")

    v = FfMatrix(F16, [[F16.pow(t, j) for j in range(5)] for t in range(5)])  # invertible
    b = _random_matrix(F16, 5, 3, random.Random(2))
    fields = [field_new(ell) for ell in (1, 2, 4, 8, 16)]
    monkeypatch.setattr(type(F16), "mul", scalar)
    monkeypatch.setattr(type(F16), "inv", scalar)
    assert v @ v.invert() == FfMatrix.identity(F16, 5)
    assert v @ v.solve(b) == b and v @ v.solve_any(b) == b
    for field in fields:
        for n, m in ((1, 1), (2, 3), (4, 4), (6, 5)):
            if n + m < field.order:
                for build in (build_cauchy, build_vandermonde):
                    assert build(n, m, field).certified_kappa == n


def test_solve_agrees_with_the_rank_reference():
    # solve_any is None iff rank([A | B]) > rank(A); solve also iff rank(A) < cols,
    # which includes every system with no rows and at least one unknown
    rng = random.Random(23)
    outcomes = set()
    for field in (F2, F4, F16):
        for _ in range(80):
            rows, n, k = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 3)
            a = _random_block(field, rows, n, rng)
            if rng.random() < 0.5:  # consistent by construction
                b = a @ _random_block(field, n, k, rng)
            else:
                b = _random_block(field, rows, k, rng)
            ab = FfMatrix(field, np.hstack([a.to_array(), b.to_array()]))
            consistent = ab.rank() == a.rank()
            unique = consistent and a.rank() == n
            x_any, x = a.solve_any(b), a.solve(b)
            assert (x_any is not None) == consistent
            assert (x is not None) == unique
            for got in (x_any, x):
                if got is not None:
                    assert got.shape == (n, k) and a @ got == b
            if unique:
                assert x == x_any
            outcomes.add((consistent, unique))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_solve_identity_and_roundtrip():
    b = FfMatrix(F4, [[1], [2], [3]])
    assert FfMatrix.identity(F4, 3).solve(b) == b
    theta = FfMatrix(F4, [[2], [1]])
    y = EXAMPLE_A @ theta
    assert EXAMPLE_A.solve(y) == theta


def test_solve_inconsistent_and_underdetermined():
    a = FfMatrix(F4, [[1, 0], [1, 0]])
    assert a.solve(FfMatrix(F4, [[1], [2]])) is None        # inconsistent
    a = FfMatrix(F4, [[1, 1]])
    assert a.solve(FfMatrix(F4, [[1]])) is None             # not unique
    got = a.solve_any(FfMatrix(F4, [[1]]))
    assert got is not None and (a @ got).to_lists() == [[1]]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        EXAMPLE_A.solve(FfMatrix(F4, [[1], [2]]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: EXAMPLE_A.vstack(FfMatrix.identity(F4, 3)), ValueError,
     "vstack needs matching field and width"),
    (lambda: EXAMPLE_A.vstack(FfMatrix.identity(F16, 2)), ValueError,
     "vstack needs matching field and width"),
    (lambda: EXAMPLE_A @ [[1], [0]], TypeError,
     "unsupported operand type(s) for @: 'FfMatrix' and 'list'"),
    (lambda: EXAMPLE_A.solve([[1], [0], [0], [0]]), ValueError,
     "rhs must be an FfMatrix over the same field"),
    (lambda: EXAMPLE_A.solve(FfMatrix.zeros(F16, 4, 1)), ValueError,
     "rhs must be an FfMatrix over the same field"),
    (lambda: EXAMPLE_A.invert(), ValueError, "only square matrices can be inverted"),
], ids=["vstack-width", "vstack-field", "matmul-list", "solve-list", "solve-field",
        "invert-4x2"])
def test_a_bad_operand_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_invert_self_inverse_and_random():
    v = FfMatrix(F4, [[1, 0], [1, 1]])
    assert v.invert() == v  # involution over the GF(2) subfield
    rng = random.Random(11)
    for field in (F4, F16):
        for _ in range(20):
            n = rng.randrange(1, 5)
            m = _random_matrix(field, n, n, rng)
            if m.rank() < n:
                with pytest.raises(ValueError, match="singular"):
                    m.invert()
            else:
                assert m @ m.invert() == FfMatrix.identity(field, n)


def test_kruskal_rank_examples():
    assert EXAMPLE_A.kruskal_rank() == 2
    stacked = FfMatrix.vstack(FfMatrix.identity(F4, 3), FfMatrix.identity(F4, 3))
    assert stacked.kruskal_rank() == 1  # duplicate rows pair up
    assert FfMatrix(F4, [[0, 2]]).kruskal_rank() == 1
    assert FfMatrix(F4, [[0, 0]]).kruskal_rank() == 0


def test_kruskal_rank_matches_the_level_by_level_definition():
    # the largest r whose every r-row subset is independent, read off the
    # span oracle; random matrices with rows < cols and duplicated rows too
    rng = random.Random(41)
    for field in (F2, F4, F16):
        for trial in range(40):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 5)
            m = _random_matrix(field, rows, cols, rng)
            if trial % 4 == 0:
                m = m.vstack(m.row_submatrix([rng.randrange(rows)]))
            want = 0
            for r in range(1, min(m.rows, m.cols) + 1):
                if any(_rank_oracle(m.row_submatrix(s)) < r
                       for s in combinations(range(m.rows), r)):
                    break
                want = r
            assert m.kruskal_rank() == want, m.to_lists()


def test_gamma_rank_examples():
    assert FfMatrix.identity(F4, 3).gamma_rank(3) == 3  # every row needed
    assert EXAMPLE_A.gamma_rank(2) == 2
    m = FfMatrix(F2, [[1, 0], [1, 0], [0, 1]])
    assert m.gamma_rank(2) == 3  # the pair {row0, row1} only has rank 1
    with pytest.raises(ValueError, match="rank below"):
        FfMatrix(F4, [[1, 0], [2, 0]]).gamma_rank(2)
    with pytest.raises(ValueError):
        EXAMPLE_A.gamma_rank(0)
    with pytest.raises(ValueError):
        EXAMPLE_A.gamma_rank(3)  # i > cols


def test_lambda_rank_examples():
    assert FfMatrix.identity(F4, 2).lambda_rank(0) == 2
    assert EXAMPLE_A.lambda_rank(0) == 2
    assert EXAMPLE_A.lambda_rank(1) == 2
    # row space = span{e_0}: e_1 unreachable
    assert FfMatrix(F4, [[1, 0], [2, 0]]).lambda_rank(1) is None
    with pytest.raises(ValueError):
        EXAMPLE_A.lambda_rank(2)


def test_gamma_equals_max_lambda_on_example():
    lams = [EXAMPLE_A.lambda_rank(i) for i in range(2)]
    assert EXAMPLE_A.gamma_rank(2) == max(lams)


def _random_invertible(field, n, rng) -> FfMatrix:
    while True:
        t = _random_matrix(field, n, n, rng)
        if t.rank() == n:
            return t


def test_metrics_invariant_under_right_invertible_factor():
    rng = random.Random(23)
    for field in (F4, F16):
        for _ in range(40):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 6)
            h = _random_matrix(field, rows, cols, rng)
            t = _random_invertible(field, cols, rng)
            ht = h @ t
            assert h.rank() == ht.rank()
            assert h.kruskal_rank() == ht.kruskal_rank()
            for i in range(1, min(rows, cols) + 1):
                try:
                    gh = h.gamma_rank(i)
                except ValueError:
                    with pytest.raises(ValueError):
                        ht.gamma_rank(i)
                    continue
                assert gh == ht.gamma_rank(i)


def test_kruskal_gamma_lambda_relations_on_random_matrices():
    rng = random.Random(37)
    for field in (F4, F16):
        for _ in range(60):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 5)
            n = cols
            if rows < n:
                continue
            m = _random_matrix(field, rows, cols, rng)
            kappa = m.kruskal_rank()
            if m.rank() < n:
                with pytest.raises(ValueError):
                    m.gamma_rank(n)
                assert any(m.lambda_rank(i) is None for i in range(n))
                continue
            gamma = m.gamma_rank(n)
            assert (kappa == n) == (gamma == n)
            lams = [m.lambda_rank(i) for i in range(n)]
            assert all(lam is not None for lam in lams)
            assert gamma == max(lams)


@pytest.mark.parametrize("metric, args", [("kruskal_rank", ()), ("gamma_rank", (1,)),
                                          ("lambda_rank", (0,))],
                         ids=["kruskal_rank", "gamma_rank", "lambda_rank"])
def test_row_cap_enforced(metric, args):
    too_tall = FfMatrix(F2, [[1]] * (SUBSET_ROW_CAP + 1))
    with pytest.raises(ValueError, match=f"capped at {SUBSET_ROW_CAP} rows"):
        getattr(too_tall, metric)(*args)


def test_dump_load_roundtrip():
    text = EXAMPLE_A.dump()
    m = load_matrix(text)
    assert m == EXAMPLE_A
    assert m.field.order == 4
    commented = "# header comment\n\n" + text
    assert load_matrix(commented) == EXAMPLE_A


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 5)])
def test_dump_load_roundtrip_keeps_every_shape(rows, cols):
    m = _random_block(F16, rows, cols, random.Random(rows * 7 + cols))
    assert load_matrix(m.dump()) == m


BAD_MATRIX_TEXT = [
    ("4 -1 -2\n1 1\n", "rows and cols must be non-negative, got -1 -2"),
    ("4 -1 3\n", "rows and cols must be non-negative, got -1 3"),
    ("4 2 -1\n", "rows and cols must be non-negative, got 2 -1"),
    ("# no header\n4 2\n", "matrix text needs a 'q rows cols' header"),
    ("4 2 2\n1 0\n3\n", "expected 4 entries, got 3"),
]


@pytest.mark.parametrize("text, message", BAD_MATRIX_TEXT, ids=[t for t, _ in BAD_MATRIX_TEXT])
def test_load_matrix_rejects_negative_dimensions(text, message):
    with pytest.raises(ValueError) as exc:
        load_matrix(text)
    assert str(exc.value) == message


def test_load_matrix_rejects_bad_field():
    # q=3 is not a power of two; every bad header q gets the CLI's --q message
    for q in (0, 1, 3, 6, 1 << 17):
        with pytest.raises(ValueError) as exc:
            load_matrix(f"{q} 1 1\n0\n")
        assert str(exc.value) == f"q must be a power of two with 2 <= q <= 2**16, got {q}"


def test_row_submatrix_and_transpose():
    sub = EXAMPLE_A.row_submatrix([2, 3])
    assert sub.to_lists() == [[3, 2], [2, 3]]
    assert EXAMPLE_A.transpose().to_lists() == [[1, 0, 3, 2], [0, 1, 2, 3]]


def test_batch_rank_leaves_reduced_row_echelon_form():
    rng = np.random.default_rng(5)
    for field in (F2, F4, F16):
        for rows, cols in ((1, 1), (3, 5), (6, 3), (5, 5)):
            mats = rng.integers(0, field.order, size=(60, rows, cols)).astype(np.int32)
            mats[::3, rows // 2] = 0              # an all-zero row
            mats[1::3, -1] = mats[1::3, 0]        # a duplicate row
            orig = mats.copy()
            ranks = batch_rank(mats, field)
            spans = unit_spans(mats)
            assert spans.shape == (60, cols)
            for a, red, r, spanned in zip(orig, mats, ranks, spans):
                assert r == FfMatrix(field, a).rank()
                for j in range(cols):
                    unit = np.eye(cols, dtype=np.int64)[j:j + 1]
                    with_unit = FfMatrix(field, np.vstack([a, unit])).rank()
                    assert spanned[j] == (with_unit == r)
                pivots = []
                for row in red:
                    nz = np.flatnonzero(row)
                    if len(nz):
                        # a pivot 1 whose column is zero in every other row
                        assert row[nz[0]] == 1 and np.count_nonzero(red[:, nz[0]]) == 1
                        pivots.append(int(nz[0]))
                assert len(pivots) == r and pivots == sorted(pivots)
                assert not red[r:].any()
                assert FfMatrix(field, np.vstack([a, red])).rank() == r  # same span


def _reference_batch_rank(mats, field):
    """batch_rank as first written: every matrix with a pivot in column c
    is gathered, and whole rows are eliminated.  The reference for the
    kernel's column-c-on row operations."""
    log_t, exp2_t, inv_t = field.np_tables()
    nb, nr, nc = mats.shape
    rk = np.zeros(nb, dtype=np.int64)
    rowidx = np.arange(nr)[None, :]
    for c in range(nc):
        cand = (mats[:, :, c] != 0) & (rowidx >= rk[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        src = cand[b].argmax(axis=1)
        dst = rk[b]
        tmp = mats[b, src, :].copy()
        mats[b, src, :] = mats[b, dst, :]
        mats[b, dst, :] = tmp
        prow = exp2_t[log_t[tmp] + log_t[inv_t[tmp[:, c]]][:, None]]
        mats[b, dst, :] = prow
        fac = mats[b, :, c].copy()
        fac[np.arange(len(b)), dst] = 0
        mats[b] ^= exp2_t[log_t[fac][:, :, None] + log_t[prow][:, None, :]]
        rk[b] += 1
    return rk


def _mixed_stack(field, nb, rows, cols, rng):
    """Random matrices where, column by column, some have a pivot candidate
    and some do not: zeroed columns, zeroed rows, repeated rows, all-zero
    matrices, and a share of dense ones."""
    mats = rng.integers(0, field.order, size=(nb, rows, cols))
    for i, kind in enumerate(rng.integers(0, 5, size=nb)):
        if kind == 0 and cols:
            mats[i, :, rng.integers(cols)] = 0
        elif kind == 1 and rows:
            mats[i, rng.integers(rows)] = 0
        elif kind == 2 and rows > 1:
            mats[i, -1] = mats[i, 0]
        elif kind == 3:
            mats[i] = 0
    return mats.astype(np.int32)


@pytest.mark.parametrize("ell", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("nb, rows, cols", [(40, 3, 6), (40, 7, 4), (40, 5, 5), (1, 4, 4),
                                            (1, 2, 5), (1, 6, 3)])
def test_batch_rank_matches_the_reference_kernel_on_mixed_stacks(ell, nb, rows, cols):
    field = field_new(ell)
    rng = np.random.default_rng(ell * 1000 + nb * 100 + rows * 10 + cols)
    for mats in (_mixed_stack(field, nb, rows, cols, rng),
                 rng.integers(1, field.order, size=(nb, rows, cols)).astype(np.int32)):
        want = mats.copy()
        want_ranks = _reference_batch_rank(want, field)
        orig = mats.copy()
        ranks = batch_rank(mats, field)
        assert ranks.dtype == np.int64 and np.array_equal(ranks, want_ranks)
        assert np.array_equal(mats, want)  # the same reduced row-echelon form
        assert ranks.tolist() == [FfMatrix(field, a).rank() for a in orig]


def test_batch_rank_reduces_in_place_where_every_matrix_pivots():
    # invertible matrices have a pivot in every column, rank-2 ones in the
    # first two columns only, so some columns gather the whole stack
    rng = random.Random(3)
    full = [_random_invertible(F16, 4, rng).to_array() for _ in range(20)]
    low = [(_random_matrix(F16, 4, 2, rng) @ _random_matrix(F16, 2, 4, rng)).to_array()
           for _ in range(20)]
    for stack in (full, full + low, low + full):
        mats = np.array(stack, dtype=np.int32)
        want = mats.copy()
        assert np.array_equal(batch_rank(mats, F16), _reference_batch_rank(want, F16))
        assert np.array_equal(mats, want)


@pytest.mark.parametrize("ell", [1, 2, 4, 8, 9, 13, 14, 16])
@pytest.mark.parametrize("nb, rows, cols", [(60, 4, 6), (60, 7, 3), (1, 5, 5), (1, 3, 6)])
def test_batch_rank_reduces_alike_in_every_width_that_holds_q(ell, nb, rows, cols):
    """A stack reduces in its own integer type: uint8 (up to GF(256)), uint16
    and int32 copies of one stack, with rank-deficient matrices and zero
    rows, give the same ranks, unit spans and reduced entries."""
    field = field_new(ell)
    rng = np.random.default_rng(ell * 100 + rows * 10 + cols)
    base = _mixed_stack(field, nb, rows, cols, rng)
    widths = [t for t in (np.uint8, np.uint16, np.int32) if np.iinfo(t).max >= field.order - 1]
    assert field.dtype == widths[0] and field.dtype == np.min_scalar_type(field.order - 1)
    results = []
    for t in widths:
        mats = base.astype(t)
        ranks = batch_rank(mats, field)
        assert mats.dtype == t  # reduced in place, never widened
        results.append((ranks, unit_spans(mats), mats.astype(np.int64)))
    for ranks, spans, reduced in results[1:]:
        assert np.array_equal(ranks, results[0][0])
        assert np.array_equal(spans, results[0][1])
        assert np.array_equal(reduced, results[0][2])
    assert results[0][0].tolist() == [FfMatrix(field, a).rank() for a in base]


@pytest.mark.parametrize("ell, dtype", [(9, np.uint8), (16, np.int8), (2, np.float64)])
def test_batch_rank_refuses_a_type_that_cannot_hold_q(ell, dtype):
    field = field_new(ell)
    with pytest.raises(ValueError, match=re.escape(
            f"a GF({field.order}) stack needs an integer type holding {field.order - 1}, "
            f"got {np.dtype(dtype)}")):
        batch_rank(np.zeros((1, 2, 2), dtype=dtype), field)


@pytest.mark.parametrize("ell", [1, 2, 4, 8, 9])
def test_solve_and_levels_match_an_int32_field(ell):
    """solve, solve_any and every subset level read the same over a field
    whose stacks are narrow (field.dtype) as over one whose stacks are
    int32, the width they were built in before."""
    narrow = field_new(ell)
    wide = Field(ell)
    wide.dtype = np.dtype(np.int32)
    rng = random.Random(ell)
    for _ in range(25):
        rows, n, k = rng.randrange(1, 6), rng.randrange(1, 5), rng.randrange(1, 3)
        a = _random_block(narrow, rows, n, rng).to_array()
        b = _random_block(narrow, rows, k, rng).to_array()
        if rng.random() < 0.5:  # consistent by construction
            b = (FfMatrix(narrow, a) @ _random_block(narrow, n, k, rng)).to_array()
        got = [FfMatrix(narrow, a), FfMatrix(narrow, b)]
        want = [FfMatrix(wide, a), FfMatrix(wide, b)]
        for solve in ("solve", "solve_any"):
            x, y = getattr(got[0], solve)(got[1]), getattr(want[0], solve)(want[1])
            assert (x is None) == (y is None)
            if x is not None:
                assert np.array_equal(x.to_array(), y.to_array())
        for size in range(1, rows + 1):
            assert got[0]._level(size) == want[0]._level(size)


@pytest.mark.parametrize("shape", [(0, 3, 4), (5, 0, 4), (0, 0, 4), (5, 3, 0), (0, 0, 0)])
def test_batch_rank_of_empty_shapes_is_zero(shape):
    mats = np.zeros(shape, dtype=np.int32)
    ranks = batch_rank(mats, F16)
    assert ranks.shape == shape[:1] and ranks.dtype == np.int64 and not ranks.any()
    assert unit_spans(mats).shape == (shape[0], shape[2])


# -- scalar reference for the batched subset metrics ---------------------------
# One FfMatrix per row subset, ranked by the scalar elimination; span
# membership by comparing ranks with and without the unit row appended.


def _ref_spans_unit(m, rows, i):
    sub = m.row_submatrix(rows)
    unit = [0] * m.cols
    unit[i] = 1
    return sub.vstack(FfMatrix(m.field, [unit])).rank() == sub.rank()


def _ref_kruskal(m):
    limit = min(m.rows, m.cols)
    for r in range(1, limit + 1):
        for idx in combinations(range(m.rows), r):
            if m.row_submatrix(idx).rank() < r:
                return r - 1
    return limit


def _ref_gamma(m, i):
    """gamma_rank(i), or None where it must raise (full rank below i)."""
    if m.rank() < i:
        return None
    for g in range(i, m.rows + 1):
        if all(m.row_submatrix(idx).rank() >= i
               for idx in combinations(range(m.rows), g)):
            return g


def _ref_lambda(m, i):
    if not _ref_spans_unit(m, range(m.rows), i):
        return None
    for lam in range(1, m.rows + 1):
        if all(_ref_spans_unit(m, idx, i) for idx in combinations(range(m.rows), lam)):
            return lam


def _ref_every_n_full_rank(m, n):
    return all(m.row_submatrix(idx).rank() == n
               for idx in combinations(range(m.rows), n))


def _check_metrics(m):
    assert m.kruskal_rank() == _ref_kruskal(m)
    for i in range(1, min(m.rows, m.cols) + 1):
        want = _ref_gamma(m, i)
        if want is None:
            with pytest.raises(ValueError, match="rank below"):
                m.gamma_rank(i)
        else:
            assert m.gamma_rank(i) == want
    for j in range(m.cols):
        assert m.lambda_rank(j) == _ref_lambda(m, j)


@st.composite
def _matrices(draw):
    """Random matrices: rank-deficient when the inner dimension is below
    cols, and with up to two rows zeroed and up to two copied from another
    row.  Hypothesis picks the shape; a drawn seed fills in the entries."""
    field = draw(st.sampled_from((F2, F4, F16)))
    rows, cols = draw(st.sampled_from(range(1, 11))), draw(st.sampled_from(range(1, 7)))
    inner = draw(st.sampled_from((cols, cols, cols, *range(1, cols))))
    zeroed, copied = draw(st.sampled_from((0, 0, 0, 1, 2))), draw(st.sampled_from((0, 0, 1, 2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = (_random_matrix(field, rows, inner, rng)
         @ _random_matrix(field, inner, cols, rng)).to_lists()
    for _ in range(copied):
        a[rng.randrange(rows)] = list(a[rng.randrange(rows)])
    for _ in range(zeroed):
        a[rng.randrange(rows)] = [0] * cols
    return FfMatrix(field, a)


# derandomized: a fixed example sequence, as deterministic as the other tests
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_matrices())
def test_batched_subset_metrics_match_scalar_reference(m):
    _check_metrics(m)
    n = m.cols
    code = build_explicit(FfMatrix.identity(m.field, n).vstack(m))
    assert mds_check(code) == _ref_every_n_full_rank(code.matrix, n)


def test_batched_metrics_on_certified_codes():
    # every certified shape up to N = M = 6: few enough to check them all
    for build in (build_cauchy, build_vandermonde):
        for n in range(1, 7):
            for m in range(1, 7):
                code = build(n, m, F16)
                assert mds_check(code) and _ref_every_n_full_rank(code.matrix, n)
                assert code.matrix.kruskal_rank() == n
                _check_metrics(code.matrix)


def _every_level(m):
    """size -> (least rank, [every subset spans e_j for each j]) over every
    row subset of every size, each subset ranked by FfMatrix.rank."""
    levels = {}
    for size in range(1, m.rows + 1):
        subsets = list(combinations(range(m.rows), size))
        levels[size] = (min(m.row_submatrix(idx).rank() for idx in subsets),
                        [all(_ref_spans_unit(m, idx, j) for idx in subsets)
                         for j in range(m.cols)])
    return levels


def _mostly_non_mds_matrices(field, rng):
    """Matrices with a zero row, a repeated row, rows < cols, a low-rank
    product, and random codes: most have a Kruskal rank below
    min(rows, cols), some of them at 2 or more."""
    for _ in range(3):
        rows, cols = rng.randrange(2, 7), rng.randrange(1, 5)
        a = _random_matrix(field, rows, cols, rng).to_lists()
        a[rng.randrange(rows)] = [0] * cols
        yield FfMatrix(field, a)
        a = _random_matrix(field, rows, cols, rng).to_lists()
        a[0] = list(a[-1])
        yield FfMatrix(field, a)
        yield _random_matrix(field, rng.randrange(1, 4), rng.randrange(4, 6), rng)
        inner = rng.randrange(1, 3)
        yield _random_matrix(field, 6, inner, rng) @ _random_matrix(field, inner, 4, rng)
    for seed in range(6):
        n, m = rng.randrange(2, 5), rng.randrange(1, 4)
        yield build_random(n, m, field, seed).matrix


@pytest.mark.parametrize("field", [F2, F4, F16], ids=["q2", "q4", "q16"])
def test_gamma_and_lambda_match_a_scan_of_every_level(field):
    rng = random.Random(field.order)
    shortcut = scanned = short_of_mds = 0
    for m in _mostly_non_mds_matrices(field, rng):
        levels = _every_level(m)
        kappa = m.kruskal_rank()
        short_of_mds += 2 <= kappa < min(m.rows, m.cols)
        for i in range(1, min(m.rows, m.cols) + 1):
            want = next((g for g in levels if levels[g][0] >= i), None)
            if want is None:
                with pytest.raises(ValueError, match="rank below"):
                    m.gamma_rank(i)
            else:
                assert m.gamma_rank(i) == want, (m.to_lists(), i)
            shortcut += i <= kappa
            scanned += i > kappa and want is not None
        for j in range(m.cols):
            want = next((lam for lam in levels if levels[lam][1][j]), None)
            assert m.lambda_rank(j) == want, (m.to_lists(), j)
    # both sides of the kruskal bound are exercised, with lambda's scan
    # starting past level 1 on matrices that are not MDS
    assert shortcut and scanned and short_of_mds


def test_each_subset_level_is_ranked_once(monkeypatch):
    ranked, inverted = [], []

    def counting_batch_rank(mats, field):
        if mats.shape == (1, 6, 12):  # a V_6 inverse, as [V_6 | I]
            inverted.append(len(mats))
        else:
            ranked.append(len(mats))
        return batch_rank(mats, field)

    monkeypatch.setattr(ffmat, "batch_rank", counting_batch_rank)
    a = build_vandermonde(6, 6, F16).matrix
    assert inverted == []  # the Lagrange form builds the code with no elimination
    assert sum(ranked) == 0  # certification reads the relay block's minors
    assert a.gamma_rank(6) == 6
    assert sum(ranked) == 0  # ... and gamma_rank(6) reads its record back
    assert [a.lambda_rank(j) for j in range(6)] == [6] * 6
    # kruskal_rank 6 puts every lambda at level 6 or above: levels 1..5 unranked
    assert sum(ranked) == 0
    assert a.kruskal_rank() == 6
    assert [a.gamma_rank(i) for i in range(1, 7)] == list(range(1, 7))
    assert [a.lambda_rank(j) for j in range(6)] == [6] * 6
    assert sum(ranked) == 0


def test_gamma_ranks_no_level_below_its_own(monkeypatch):
    # a code short of MDS: gamma_rank(6) scans up from level 6, and the
    # levels 1..5 that kruskal_rank() would rank are left alone
    sizes = []

    def recording_batch_rank(mats, field):
        sizes.append(mats.shape[1])
        return batch_rank(mats, field)

    monkeypatch.setattr(ffmat, "batch_rank", recording_batch_rank)
    a = build_random(6, 6, F16, 1).matrix
    assert a.gamma_rank(6) == 8
    assert sizes == [6, 7, 8]


@pytest.mark.parametrize("field", [F2, F4, F16], ids=["q2", "q4", "q16"])
def test_every_minor_nonzero_iff_every_n_rows_of_the_code_are_independent(field):
    # every shape up to 4 x 4, so M != N and M or N = 1 are all covered;
    # a third of the blocks may hold zero entries
    rng = random.Random(field.order + 19)
    verdicts = []
    for m in range(1, 5):
        for n in range(1, 5):
            for trial in range(4):
                low = 0 if trial % 3 == 0 else 1
                block = np.array([[rng.randrange(low, field.order) for _ in range(n)]
                                  for _ in range(m)], dtype=np.int64)
                code = FfMatrix(field, np.vstack([np.eye(n, dtype=np.int64), block]))
                want = _ref_every_n_full_rank(code, n)
                assert ffmat._every_minor_nonzero(block, field) == want, block.tolist()
                verdicts.append(want)
    assert True in verdicts and False in verdicts


def _one_minor_short(code):
    """code's matrix with one relay entry changed so that a minor of the
    relay block vanishes: R[1, 1] = R[0, 1] R[1, 0] / R[0, 0], or R[0, 0] = 0
    when N or M is 1."""
    f, n = code.field, code.n_sources
    a = code.matrix.to_lists()
    r = code.relay_block.to_lists()
    if min(code.n_sources, code.n_relays) == 1:
        a[n][0] = 0
    else:
        a[n + 1][1] = f.mul(f.mul(r[0][1], r[1][0]), f.inv(r[0][0]))
    return FfMatrix(f, a)


@pytest.mark.parametrize("build, n, m, field", [
    (build_vandermonde, 1, 1, F2), (build_cauchy, 1, 2, F4), (build_vandermonde, 2, 1, F4),
    (build_cauchy, 3, 3, F16), (build_vandermonde, 2, 4, F16), (build_cauchy, 4, 2, F16),
], ids=["v1x1q2", "c1x2q4", "v2x1q4", "c3x3q16", "v2x4q16", "c4x2q16"])
def test_metrics_of_mds_and_one_minor_short_codes_match_every_level(build, n, m, field):
    code = build(n, m, field)
    mds = FfMatrix(field, code.matrix.to_array())  # a fresh record, not the builder's
    for a, is_mds in ((mds, True), (_one_minor_short(code), False)):
        levels = _every_level(a)
        # gamma and lambda first, so they reach level n before kruskal_rank does
        for i in range(1, n + 1):
            assert a.gamma_rank(i) == next(g for g in levels if levels[g][0] >= i)
        for j in range(n):
            assert a.lambda_rank(j) == next((lam for lam in levels if levels[lam][1][j]), None)
        want = next((r - 1 for r in range(1, n + 1) if levels[r][0] < r), n)
        assert a.kruskal_rank() == want
        assert (want == n) == is_mds


@pytest.mark.parametrize("build, n, m, field", [
    (build_cauchy, 1, 2, F4), (build_vandermonde, 6, 6, F16), (build_cauchy, 7, 6, F16),
    (build_vandermonde, 12, 12, F32),
], ids=["c1x2q4", "v6x6q16", "c7x6q16", "v12x12q32"])
def test_mds_check_refuses_a_code_one_minor_short_ranking_nothing(build, n, m, field,
                                                                  monkeypatch):
    calls = []

    def counting_batch_rank(mats, fld):
        calls.append(len(mats))
        return batch_rank(mats, fld)

    short = build_explicit(_one_minor_short(build(n, m, field)))
    monkeypatch.setattr(ffmat, "batch_rank", counting_batch_rank)
    assert not mds_check(short)
    assert calls == [] and short.matrix._levels == {}


def test_certification_at_the_row_cap_is_fast_and_small():
    # 24 rows: C(24, 12) = 2,704,156 subsets to rank, or the 2,704,155
    # minors of the 12 x 12 relay block, built in blocks
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert build_cauchy(12, 12, F32).matrix.kruskal_rank() == 12
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 30
    assert peak < 32 * 2**20


def test_pickled_matrix_is_equal_read_only_and_gives_the_same_metrics():
    a = build_vandermonde(3, 3, F16).matrix
    b = pickle.loads(pickle.dumps(a))
    assert b == a and not b.to_array().flags.writeable
    assert b.kruskal_rank() == a.kruskal_rank() == 3
    assert b.gamma_rank(3) == a.gamma_rank(3)
    assert [b.lambda_rank(j) for j in range(3)] == [a.lambda_rank(j) for j in range(3)]
