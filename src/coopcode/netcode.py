"""Systematic network codes for N-source, M-relay cooperation.

A code is an (N+M) x N matrix A over GF(2^l) whose top block is the
identity: row k < N is source k's own packet, row N+i is the linear
combination relay i forwards.  Decodability at a receiver that collected
a subset of rows reduces to rank (all packets) or row-span membership
(one packet).  Full diversity means every N rows of A are independent,
i.e. kruskal_rank(A) == N; the Cauchy and Vandermonde builders below
guarantee that by construction.  For A = [I_N; R] that holds exactly when
every square submatrix of the relay block R is nonsingular (Roth &
Seroussi 1985), which is how kruskal_full decides it, both ways, ranking no
row subset.  certified_kappa is set only where that check ran and passed,
up to SUBSET_ROW_CAP = 24 rows.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .gf import Field, field_new
from .ffmat import SUBSET_ROW_CAP, FfMatrix, load_matrix

MAX_CODEWORDS = 1 << 20  # min_distance enumerates at most this many codewords
_CODEWORD_BLOCK = 1 << 12  # messages multiplied per FfMatrix product, bounding memory


class FieldTooSmallError(ValueError):
    pass


def bits_to_symbols(bits, ell: int):
    """Group bits (MSB first per symbol) into field-element ints."""
    if len(bits) % ell:
        raise ValueError(f"bit count {len(bits)} is not a multiple of {ell}")
    out = []
    for off in range(0, len(bits), ell):
        v = 0
        for b in bits[off:off + ell]:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            v = (v << 1) | b
        out.append(v)
    return out


def symbols_to_bits(symbols, ell: int):
    out = []
    for s in symbols:
        if not 0 <= s < (1 << ell):
            raise ValueError(f"symbol {s} out of range for {ell} bits")
        out.extend((s >> (ell - 1 - t)) & 1 for t in range(ell))
    return out


@dataclass(frozen=True)
class NetworkCode:
    n_sources: int
    n_relays: int
    field: Field
    matrix: FfMatrix           # (N+M) x N, top block I_N
    construction: str          # cauchy | vandermonde | random | explicit
    certified_kappa: int | None  # N where kruskal_full proved it, else None

    def __post_init__(self):
        n, m = self.n_sources, self.n_relays
        if n < 1 or m < 0:
            raise ValueError("need n_sources >= 1 and n_relays >= 0")
        if self.construction not in ("cauchy", "vandermonde", "random", "explicit"):
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.matrix.shape != (n + m, n):
            raise ValueError(
                f"matrix must be {(n + m, n)}, got {self.matrix.shape}"
            )
        if self.matrix.field != self.field:
            raise ValueError("matrix field mismatch")
        eye = FfMatrix.identity(self.field, n)
        if self.matrix.row_submatrix(range(n)) != eye:
            raise ValueError("top block must be the identity")

    @property
    def relay_block(self) -> FfMatrix:
        """The M x N block of relay combination coefficients."""
        n = self.n_sources
        return self.matrix.row_submatrix(range(n, n + self.n_relays))


def _proven_kappa(matrix: FfMatrix) -> int | None:
    """N for an (N+M) x N code matrix that kruskal_full proves MDS; None
    where it is not MDS or has more than SUBSET_ROW_CAP rows."""
    return matrix.cols if matrix.rows <= SUBSET_ROW_CAP and matrix.kruskal_full() else None


def _stack_code(field, n, m, relay_rows, construction):
    a = FfMatrix.identity(field, n).vstack(FfMatrix(field, relay_rows))
    certify = construction in ("cauchy", "vandermonde")
    kappa = _proven_kappa(a) if certify else None
    if certify and kappa is None and a.rows <= SUBSET_ROW_CAP:
        raise AssertionError(f"{construction} construction lost full diversity")
    return NetworkCode(n, m, field, a, construction, kappa)


def build_cauchy(n: int, m: int, field: Field) -> NetworkCode:
    """Relay coefficients from a generalized Cauchy matrix.

    Row i of the relay block is u_i * v_j / (x_i + y_j) with
    x_i = g^(n+m-1-i) and y_j = g^(n-1-j) for the field generator g.
    All n+m powers must be distinct, which needs q >= n+m+1; smaller
    fields produce a zero denominator and are rejected.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    q = field.order
    if q < n + m:
        raise FieldTooSmallError(f"q={q} < N+M={n + m}")
    g = field.generator
    total = n + m
    xs = [field.pow(g, total - 1 - i) for i in range(m)]
    ys = [field.pow(g, total - 1 - m - j) for j in range(n)]
    if len(set(xs) | set(ys)) != total:
        raise FieldTooSmallError(
            f"q={q} gives repeated points and zero denominators; need q >= {total + 1}"
        )
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
    rows = [
        [field.mul(field.mul(us[i], vs[j]), field.inv(xs[i] ^ ys[j]))
         for j in range(n)]
        for i in range(m)
    ]
    return _stack_code(field, n, m, rows, "cauchy")


def build_vandermonde(n: int, m: int, field: Field) -> NetworkCode:
    """Relay coefficients V_m @ inverse(V_n) from stacked Vandermonde rows.

    The generating points are the first n+m field elements in integer
    order 0, 1, 2, ..., with the convention 0**0 == 1, so the same (n, m, q)
    always yields the same code.  V_n's rows sit on the points 0..n-1, so
    row i of V_m V_n^-1 holds the Lagrange basis on those points evaluated
    at t = n+i, and it is built in that closed form, with no inverse:
    alpha[i][j] = prod_{l != j} (t + l) / (j + l), + being XOR.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    q = field.order
    if q < n + m:
        raise FieldTooSmallError(f"q={q} < N+M={n + m}")
    mul = field.mul
    inv_den = []  # 1 / prod_{l != j} (j + l), shared by every row
    for j in range(n):
        den = 1
        for l in range(n):
            if l != j:
                den = mul(den, j ^ l)
        inv_den.append(field.inv(den))
    rows = []
    for t in range(n, n + m):
        row = []
        for j in range(n):
            num = 1
            for l in range(n):
                if l != j:
                    num = mul(num, t ^ l)
            row.append(mul(num, inv_den[j]))
        rows.append(row)
    return _stack_code(field, n, m, rows, "vandermonde")


def build_random(n: int, m: int, field: Field, seed: int) -> NetworkCode:
    """Uniform i.i.d. relay coefficients (zeros allowed), reproducible by seed."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, field.order, size=(m, n)).tolist()
    return _stack_code(field, n, m, rows, "random")


def build_explicit(matrix: FfMatrix, n_sources: int) -> NetworkCode:
    m = matrix.rows - n_sources
    return NetworkCode(n_sources, m, matrix.field, matrix, "explicit", None)


def encode(code: NetworkCode, packets: FfMatrix) -> FfMatrix:
    """All N+M transmissions for an N x K packet matrix (one row per source)."""
    if packets.rows != code.n_sources:
        raise ValueError(f"packets must have {code.n_sources} rows")
    return code.matrix @ packets


def recover(code: NetworkCode, received_rows, observations: FfMatrix,
            mode: str = "multicast", dest: int | None = None) -> FfMatrix | None:
    """Decode from a subset of transmissions.

    ``received_rows`` are 0-based row indices of ``code.matrix``;
    ``observations`` holds the matching received symbol rows.  Multicast
    returns the full N x K packet matrix when those rows have rank N;
    unicast returns destination ``dest``'s 1 x K packet row when e_dest
    lies in their row span.  Returns None when undecodable.
    """
    rows = list(received_rows)
    if observations.rows != len(rows):
        raise ValueError("observations must have one row per received index")
    sub = code.matrix.row_submatrix(rows)
    if mode == "multicast":
        return sub.solve(observations)
    if mode == "unicast":
        if dest is None or not 0 <= dest < code.n_sources:
            raise ValueError("unicast needs a destination index in [0, N)")
        unit = FfMatrix.zeros(code.field, code.n_sources, 1).to_lists()
        unit[dest][0] = 1
        x = sub.transpose().solve_any(FfMatrix(code.field, unit))
        if x is None:
            return None
        return x.transpose() @ observations
    raise ValueError(f"unknown mode {mode!r}")


def mds_check(code: NetworkCode) -> bool:
    """True iff every N rows of A are independent, i.e. every square minor
    of the relay block is nonzero.  Raises ValueError above SUBSET_ROW_CAP
    rows."""
    return code.matrix.kruskal_full()


def min_distance(code: NetworkCode) -> int:
    """Minimum weight of the length-(N+M) code with parity rows A^T.

    Enumerates all q^M codewords (c = (B y, y) with B the relay block
    transposed), _CODEWORD_BLOCK messages y at a time, so it is only usable
    for small M and q.  Full diversity is equivalent to min_distance == N + 1.
    """
    q = code.field.order
    m = code.n_relays
    if m < 1:
        raise ValueError("code has no relay rows")
    if q ** m > MAX_CODEWORDS:
        raise ValueError(f"q^M = {q ** m} codewords exceeds cap {MAX_CODEWORDS}")
    relay, place = code.relay_block, q ** np.arange(m)
    best = code.n_sources + m
    for start in range(1, q ** m, _CODEWORD_BLOCK):
        # the nonzero messages from `start` on, as rows of base-q digits
        ys = np.arange(start, min(start + _CODEWORD_BLOCK, q ** m))[:, None] // place % q
        xs = (FfMatrix(code.field, ys) @ relay).to_array()
        best = min(best, int(((xs != 0).sum(axis=1) + (ys != 0).sum(axis=1)).min()))
    return best


# -- serialization --------------------------------------------------------------


def dump_code(code: NetworkCode) -> str:
    meta = {
        "construction": code.construction,
        "n": code.n_sources,
        "m": code.n_relays,
        "q": code.field.order,
        "certified_kappa": code.certified_kappa,
    }
    return f"# {json.dumps(meta)}\n" + code.matrix.dump()


def load_code(text: str) -> NetworkCode:
    """Parse dump_code's format.  The first ``#`` line that is JSON is the
    header; other ``#`` lines are comments.  Raises ValueError where the
    header is not an object, where its n, m or q are not ints matching the
    matrix, or its construction or certified_kappa is not one a code can
    carry.  The header's kappa is only a claim: it is kept where
    _proven_kappa confirms it, so never for an explicit code."""
    meta = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            try:
                meta = json.loads(line[1:].strip())
            except json.JSONDecodeError:
                continue
            break
    if not isinstance(meta, dict):
        raise ValueError(f"code header must be a JSON object, got {meta!r}")
    mat = load_matrix(text)
    n, m, q = (meta.get(key, default) for key, default in
               (("n", mat.cols), ("m", mat.rows - mat.cols), ("q", mat.field.order)))
    kappa = meta.get("certified_kappa")
    if not all(type(v) is int for v in (n, m, q)) or not (kappa is None or type(kappa) is int):
        raise ValueError(f"header n, m, q must be ints and certified_kappa an int or null: {meta}")
    if n + m != mat.rows or q != mat.field.order:
        raise ValueError(f"header n={n}, m={m}, q={q} contradicts a {mat.rows}-row "
                         f"matrix over GF({mat.field.order})")
    construction = meta.get("construction", "explicit")
    code = NetworkCode(n, m, mat.field, mat, construction, None)  # checked before any proof
    if construction != "explicit" and kappa == n:
        code = replace(code, certified_kappa=_proven_kappa(mat))
    return code
