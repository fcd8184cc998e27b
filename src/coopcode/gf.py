"""Arithmetic in the binary extension fields GF(2^l), 1 <= l <= 16.

Field elements are plain ints in [0, 2^l).  The integer's bits are the
coefficients of the element written as a polynomial in the generator x,
high bit first: in GF(4) the value 2 is x and 3 is x + 1.  Addition is
XOR; multiplication and inversion go through log/antilog tables built
once per field, as Python lists for the scalar ops and as the one numpy
set every vectorized consumer reads, np_tables, in widths the field
decides.  So a Field instance is cheap to use and safe to share (treat it
as immutable).  Each q names one field: GF(2^l) is always taken
modulo DEFAULT_PRIM_POLY[l], so q alone fixes every product, and a matrix
written as q and its entries reads back as the same matrix.
"""

from functools import lru_cache

import numpy as np

MAX_ELL = 16

# The modulus per degree: primitive polynomials, so that x (value 2)
# generates the whole multiplicative group.  Pinned by the tests, which
# build every table again by a loop and check the cycle closes.
DEFAULT_PRIM_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class Field:
    """GF(2^ell) with table-based multiply/invert/power.  `dtype` is the
    narrowest unsigned numpy type that holds every element, np.min_scalar_type(q - 1)."""

    def __init__(self, ell: int):
        if not 1 <= ell <= MAX_ELL:
            raise ValueError(f"ell must be in [1, {MAX_ELL}], got {ell}")
        self.ell = ell
        self.order = 1 << ell
        self.prim_poly = DEFAULT_PRIM_POLY[ell]
        self.dtype = np.min_scalar_type(self.order - 1)
        self._build_tables()

    def _times_x(self, v):
        """v * x modulo prim_poly, elementwise over an int64 array."""
        v = v << 1
        return v ^ ((v >> self.ell) & 1) * self.prim_poly

    def _build_tables(self):
        # powers[i] = x^i mod prim_poly for i in [0, q).  Doubling: the
        # block x^L .. x^(2L-1) is x^0 .. x^(L-1) times the constant x^L,
        # multiplied shift-and-add over the constant's bits.
        q = self.order
        powers = np.ones(1, dtype=np.int64)
        for _ in range(self.ell):
            x_l = int(self._times_x(powers[-1:])[0])  # x^L, L = len(powers)
            block, shifted = np.zeros_like(powers), powers
            for b in range(x_l.bit_length()):
                if x_l >> b & 1:
                    block ^= shifted
                shifted = self._times_x(shifted)
            powers = np.concatenate([powers, block])
        exp = powers[:q - 1]
        log = np.zeros(q, dtype=np.int64)  # log[0] unused
        log[exp] = np.arange(q - 1)
        self._exp = exp.tolist()  # exp[i] = x^i
        self._log = log.tolist()  # log[v] = i with x^i == v
        sentinel = 2 * (q - 1)
        log_t = log.astype(np.int16 if 2 * sentinel <= np.iinfo(np.int16).max else np.int32)
        log_t[0] = sentinel
        exp2 = np.zeros(2 * sentinel + 1, dtype=self.dtype)
        exp2[:sentinel] = np.tile(exp, 2)
        inv = np.zeros(q, dtype=self.dtype)
        inv[1:] = exp[-log[1:] % (q - 1)]
        for t in (log_t, exp2, inv):
            t.setflags(write=False)
        self._np = (log_t, exp2, inv)

    # -- scalar ops --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        """a**e with the convention 0**0 == 1; negative e inverts (a != 0)."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    @property
    def generator(self) -> int:
        """An element of multiplicative order q-1 (x itself, or 1 in GF(2))."""
        return 2 if self.ell > 1 else 1

    # -- numpy tables -------------------------------------------------------

    def np_tables(self):
        """The read-only (log, exp2, inv) arrays for vectorized arithmetic,
        built with the field: products, minors, Lagrange bases, batch_rank.

        log[0] is a sentinel 2*(q-1) and exp2 is zero-padded past 2*(q-1),
        so exp2[log[a] + log[b]] is a*b including the zero cases.  exp2 and
        inv are in self.dtype.  log is int16 while a sum of two logs (at
        most 4*(q-1)) fits one, q <= 8192, else int32; longer sums need a
        wider type, which their caller names.
        """
        return self._np

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.ell == other.ell

    def __hash__(self):
        return hash(self.ell)

    def __reduce__(self):
        # unpickle to this process's cached field, so tables are built once
        return (field_new, (self.ell,))

    def __repr__(self):
        return f"Field(ell={self.ell})"


def field_ell(q: int) -> int:
    """log2(q); ValueError unless q is a supported field size."""
    ell = q.bit_length() - 1
    if q < 2 or q != 1 << ell or ell > MAX_ELL:
        raise ValueError(f"q must be a power of two with 2 <= q <= 2**{MAX_ELL}, got {q}")
    return ell


@lru_cache(maxsize=None)
def field_new(ell: int) -> Field:
    """GF(2^ell), one shared instance per ell."""
    return Field(ell)
