"""Systematic network codes for N-source, M-relay cooperation.

A code is an (N+M) x N matrix A over GF(2^l) whose top block is the
identity: row k < N is source k's own packet, row N+i is the linear
combination relay i forwards.  Decodability at a receiver that collected
a subset of rows reduces to rank (all packets) or row-span membership
(one packet).  Full diversity means every N rows of A are independent,
i.e. kruskal_rank(A) == N.  For A = [I_N; R] that holds exactly when
every square submatrix of the relay block R is nonsingular (Roth &
Seroussi 1985), which is how kruskal_full decides it, both ways, ranking no
row subset.  The Cauchy and Vandermonde builders below guarantee it by
construction: each relay block is the Lagrange basis on one point set
evaluated at the other (_lagrange; Cauchy's on the relay points, at the
source points, transposed, and Vandermonde's the other way round), which
makes it a generalized Cauchy matrix.  certified_kappa is set only where
that check ran and passed, up to SUBSET_ROW_CAP = 24 rows.  A NetworkCode
reads N, M and its field off its matrix (one field per q, see gf), so a
code file's q and matrix are the whole code: its header is only checked.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .gf import Field
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
    """The (N+M) x N code matrix [I_N; R] over GF(q); N is its column count,
    M its rows past N and the field its field.  The top block is checked
    against I_N on the matrix's entry array, building no other matrix."""
    matrix: FfMatrix           # (N+M) x N, top block I_N
    construction: str          # cauchy | vandermonde | random | explicit
    certified_kappa: int | None  # N where kruskal_full proved it, else None

    def __post_init__(self):
        if self.n_sources < 1 or self.n_relays < 0:
            raise ValueError("need n_sources >= 1 and n_relays >= 0")
        if self.construction not in ("cauchy", "vandermonde", "random", "explicit"):
            raise ValueError(f"unknown construction {self.construction!r}")
        n = self.n_sources
        if not np.array_equal(self.matrix.to_array()[:n], np.eye(n, dtype=np.int64)):
            raise ValueError("top block must be the identity")

    @property
    def n_sources(self) -> int:
        return self.matrix.cols

    @property
    def n_relays(self) -> int:
        return self.matrix.rows - self.matrix.cols

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def relay_block(self) -> FfMatrix:
        """The M x N block of relay combination coefficients."""
        return self.matrix.row_submatrix(range(self.n_sources, self.matrix.rows))


def _proven_kappa(matrix: FfMatrix) -> int | None:
    """N for an (N+M) x N code matrix that kruskal_full proves MDS; None
    where it is not MDS or has more than SUBSET_ROW_CAP rows."""
    return matrix.cols if matrix.rows <= SUBSET_ROW_CAP and matrix.kruskal_full() else None


def _stack_code(field, n, relay, construction):
    """The code [I_N; relay] of a builder, certified where its construction
    promises full diversity.  The entries are stacked as one array and
    validated once, by the one FfMatrix they make."""
    a = FfMatrix(field, np.concatenate((np.eye(n, dtype=np.int64), relay)))
    certify = construction in ("cauchy", "vandermonde")
    kappa = _proven_kappa(a) if certify else None
    if certify and kappa is None and a.rows <= SUBSET_ROW_CAP:
        raise AssertionError(f"{construction} construction lost full diversity")
    return NetworkCode(a, construction, kappa)


def _check_shape(n: int, m: int, field: Field) -> None:
    """The shape both MDS builders need: n, m >= 1 and q >= n+m points."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if field.order < n + m:
        raise FieldTooSmallError(f"q={field.order} < N+M={n + m}")


def _lagrange(field: Field, nodes, points) -> np.ndarray:
    """The Lagrange basis on `nodes` evaluated at `points`, as the
    (len(points), len(nodes)) array L[a, k] = prod_{l != k}
    (points[a] + nodes[l]) / (nodes[k] + nodes[l]), + being XOR.

    The nodes must be distinct and no point may be a node; then every
    factor is nonzero and each entry is a sum of logs mod q-1.  Such an L
    is a generalized Cauchy matrix, so every square submatrix of it is
    nonsingular (Roth & Seroussi 1985)."""
    log_t, exp2_t, _ = field.np_tables()
    nodes, points = np.asarray(nodes), np.asarray(points)
    num = log_t[points[:, None] ^ nodes]  # num[a, l] = log(points[a] + nodes[l])
    den = log_t[nodes[:, None] ^ nodes]
    np.fill_diagonal(den, 0)  # the l = k factor, left out of both products
    # a sum of up to N+M-1 logs can pass log's own type, int16
    logs = num.sum(axis=1, keepdims=True, dtype=np.int64) - num - den.sum(axis=1, dtype=np.int64)
    return exp2_t[logs % (field.order - 1)]


def build_cauchy(n: int, m: int, field: Field) -> NetworkCode:
    """Relay coefficients from a generalized Cauchy matrix.

    The points are x_i = g^(n+m-1-i) for relay i and y_j = g^(n-1-j) for
    source j, g the field generator.  Entry (i, j) of the relay block is
    u_i v_j / (x_i + y_j) with u_i = 1 / prod_{l != i} (x_i + x_l) and
    v_j = prod_l (y_j + x_l), which is the Lagrange basis on the relay
    points evaluated at the source points: l_i(y_j).  All n+m powers must
    be distinct, which needs q >= n+m+1; smaller fields produce a zero
    denominator and are rejected.
    """
    _check_shape(n, m, field)
    g, total = field.generator, n + m
    xs = [field.pow(g, total - 1 - i) for i in range(m)]
    ys = [field.pow(g, n - 1 - j) for j in range(n)]
    if len(set(xs) | set(ys)) != total:
        raise FieldTooSmallError(f"q={field.order} gives repeated points and zero "
                                 f"denominators; need q >= {total + 1}")
    return _stack_code(field, n, _lagrange(field, xs, ys).T, "cauchy")


def build_vandermonde(n: int, m: int, field: Field) -> NetworkCode:
    """Relay coefficients V_m @ inverse(V_n) from stacked Vandermonde rows.

    The generating points are the first n+m field elements in integer
    order 0, 1, 2, ..., with the convention 0**0 == 1, so the same (n, m, q)
    always yields the same code.  V_n's rows sit on the source points
    0..n-1, so row i of V_m V_n^-1 is the Lagrange basis on them evaluated
    at the relay point n+i, and it is built in that closed form, with no
    inverse: the Cauchy construction with the two point sets' roles
    swapped, and a generalized Cauchy matrix too.
    """
    _check_shape(n, m, field)
    return _stack_code(field, n, _lagrange(field, range(n), range(n, n + m)), "vandermonde")


def build_random(n: int, m: int, field: Field, seed: int) -> NetworkCode:
    """Uniform i.i.d. relay coefficients (zeros allowed), reproducible by seed."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    return _stack_code(field, n, rng.integers(0, field.order, size=(m, n)), "random")


def build_explicit(matrix: FfMatrix) -> NetworkCode:
    return NetworkCode(matrix, "explicit", None)


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
        unit = FfMatrix.identity(code.field, code.n_sources).row_submatrix([dest]).transpose()
        x = sub.transpose().solve_any(unit)
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
    if (n, m, q) != (mat.cols, mat.rows - mat.cols, mat.field.order):
        raise ValueError(f"header n={n}, m={m}, q={q} contradicts a {mat.rows}-row "
                         f"matrix over GF({mat.field.order})")
    construction = meta.get("construction", "explicit")
    code = NetworkCode(mat, construction, None)  # checked before any proof
    if construction != "explicit" and kappa == n:
        code = replace(code, certified_kappa=_proven_kappa(mat))
    return code
