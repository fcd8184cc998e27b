"""Field arithmetic: table construction, axioms, and frozen products."""

import pickle
import random

import numpy as np
import pytest

from coopcode.gf import DEFAULT_PRIM_POLY, MAX_ELL, Field, field_ell, field_new


def test_field_new_basics():
    f = field_new(2)
    assert f.order == 4
    assert f.prim_poly == 0b111  # the only primitive degree-2 polynomial
    f = field_new(4)
    assert f.order == 16
    assert f.prim_poly == 0b10011


def test_field_new_rejects_bad_ell():
    for ell in (0, -1, 17):
        with pytest.raises(ValueError):
            field_new(ell)


def test_default_polys_cover_every_ell_and_are_primitive():
    for ell in range(1, MAX_ELL + 1):
        f = field_new(ell)
        # x (or 1 for ell=1) must enumerate the whole multiplicative group
        seen = set()
        v = 1
        for _ in range(f.order - 1):
            seen.add(v)
            v = f.mul(v, f.generator)
        assert v == 1
        assert len(seen) == f.order - 1


def test_gf4_products_match_hand_table():
    # GF(4) with x^2+x+1: elements 0,1,x=2,x+1=3
    f = field_new(2)
    assert f.add(2, 1) == 3          # x + 1
    assert f.add(2, 2) == 0          # characteristic 2
    assert f.mul(2, 2) == 3          # x^2 = x+1
    assert f.mul(2, 3) == 1          # x(x+1) = x^2+x = 1
    assert f.mul(3, 3) == 2          # (x+1)^2 = x^2+1 = x
    assert f.inv(2) == 3
    assert f.inv(3) == 2


def test_gf16_shift_and_reduce_spot_values():
    # GF(16) with x^4+x+1: x * x^3 = x^4 = x+1 -> 2*8 == 3
    f = field_new(4)
    assert f.mul(2, 8) == 3
    assert f.pow(2, 3) == 8
    assert f.pow(2, 15) == 1
    # GF(256) with x^8+x^4+x^3+x^2+1: x^8 = 0b00011101 = 29
    f = field_new(8)
    assert f.pow(2, 8) == 29


def test_pow_conventions():
    f = field_new(3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(5, 0) == 1
    assert f.pow(5, 1) == 5
    assert f.mul(f.pow(3, -1), 3) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_zero_division_errors():
    f = field_new(2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def _check_axioms(f: Field, triples) -> None:
    for a, b, c in triples:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, a) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_field_axioms_exhaustive_small(ell):
    f = field_new(ell)
    q = f.order
    _check_axioms(f, ((a, b, c) for a in range(q) for b in range(q) for c in range(q)))


@pytest.mark.parametrize("ell", [8, 12, 16])
def test_field_axioms_random_large(ell):
    f = field_new(ell)
    rng = random.Random(1000 + ell)
    q = f.order
    _check_axioms(
        f,
        ((rng.randrange(q), rng.randrange(q), rng.randrange(q)) for _ in range(2000)),
    )


def test_np_tables_reproduce_scalar_mul():
    for ell in (2, 4, 8):
        f = field_new(ell)
        log, exp2, inv = f.np_tables()
        q = f.order
        rng = np.random.default_rng(ell)
        a = rng.integers(0, q, 300)
        b = rng.integers(0, q, 300)
        prod = exp2[log[a] + log[b]]
        assert all(int(p) == f.mul(int(x), int(y)) for p, x, y in zip(prod, a, b))
        nz = np.arange(1, q)
        assert all(f.mul(int(v), int(inv[v])) == 1 for v in nz)


def _loop_np_tables(f):
    """The per-element loop np_tables once was: the reference for the numpy build."""
    q = f.order
    sentinel = 2 * (q - 1)
    log = np.empty(q, dtype=np.int32)
    log[0] = sentinel
    for v in range(1, q):
        log[v] = f._log[v]
    exp2 = np.zeros(2 * sentinel + 1, dtype=np.int32)
    for i in range(sentinel):
        exp2[i] = f._exp[i % (q - 1)]
    inv = np.zeros(q, dtype=np.int32)
    for v in range(1, q):
        inv[v] = f.inv(v)
    return log, exp2, inv


@pytest.mark.parametrize("ell", range(1, MAX_ELL + 1))
def test_np_tables_match_the_loop_reference(ell):
    """The one numpy set, in the field's widths: exp2 and inv in f.dtype,
    log in int16 while 4*(q-1) fits one (q <= 8192), else int32.  Built
    with the field, shared and read-only."""
    f = field_new(ell)
    tables = f.np_tables()
    log_type = np.int16 if ell <= 13 else np.int32
    assert [t.dtype for t in tables] == [log_type, f.dtype, f.dtype]
    assert 4 * (f.order - 1) <= np.iinfo(log_type).max
    for got, want in zip(tables, _loop_np_tables(f)):
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert f.np_tables() is tables


def _loop_tables(ell, prim_poly):
    """An independent per-power loop: the reference for _build_tables.
    Asserts that x^0 .. x^(q-2) are distinct and that x^(q-1)
    closes the cycle, i.e. that prim_poly is primitive."""
    q = 1 << ell
    exp, log, seen = [0] * (q - 1), [0] * q, [False] * q
    acc = 1
    for i in range(q - 1):
        assert not seen[acc], f"0b{prim_poly:b} is not primitive over GF(2)"
        seen[acc] = True
        exp[i] = acc
        log[acc] = i
        acc <<= 1
        if acc & q:
            acc ^= prim_poly
    assert acc == 1, f"0b{prim_poly:b} is not primitive over GF(2)"
    return exp, log


@pytest.mark.parametrize("ell", range(1, MAX_ELL + 1))
def test_tables_match_the_loop_reference(ell):
    f = field_new(ell)
    assert (f._exp, f._log) == _loop_tables(ell, DEFAULT_PRIM_POLY[ell])
    assert all(type(v) is int for v in f._exp + f._log)


def test_field_equality_and_pickle():
    f = field_new(5)
    assert f == Field(5)
    assert f != field_new(6)
    assert hash(f) == hash(Field(5))
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    assert g.mul(7, 9) == f.mul(7, 9)
    # unpickling hands back this process's field, tables already built
    for ell in (1, 5, 16):
        assert pickle.loads(pickle.dumps(field_new(ell))) is field_new(ell)
    assert pickle.loads(pickle.dumps(Field(5))) is f


def test_field_new_is_cached():
    assert field_new(3) is field_new(3)


def test_default_poly_table_sane():
    assert set(DEFAULT_PRIM_POLY) == set(range(1, MAX_ELL + 1))
    for ell, poly in DEFAULT_PRIM_POLY.items():
        assert poly >> ell == 1  # degree exactly ell


def test_field_ell_accepts_exactly_the_supported_field_sizes():
    assert [field_ell(1 << ell) for ell in range(1, MAX_ELL + 1)] == list(range(1, MAX_ELL + 1))
    for q in (-4, 0, 1, 3, 6, 1 << (MAX_ELL + 1)):
        with pytest.raises(ValueError, match=f"2 <= q <= 2\\*\\*{MAX_ELL}, got {q}$"):
            field_ell(q)
