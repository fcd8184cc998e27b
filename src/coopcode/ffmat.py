"""Dense matrices over GF(2^l): elimination, solving, and subset-rank metrics.

Everything here is exact arithmetic (Gauss-Jordan elimination with
deterministic pivoting: first nonzero entry, lowest row index).  Stacks of
matrices are reduced at once in numpy by batch_rank, which leaves each one
in reduced row-echelon form; the simulator's decide uses it too, and so do
solve, solve_any and invert, as a one-matrix stack.  batch_rank takes any
integer stack wide enough for q and works in that width; the stacks built
here and in the simulator are in the field's own width, field.dtype.
Products (@) sum in field.dtype and the MDS minors keep logs in the log
table's type: all three read the field's one numpy set, Field.np_tables.
FfMatrix.rank is the one pure-Python elimination: the scalar reference the
batched paths are tested against.

The subset metrics kruskal_rank / gamma_rank / lambda_rank read one
record per subset size (level): the least rank of the level's row subsets
and the unit vectors every one of them spans.  A level is found by
enumerating its row subsets, ranked by batch_rank in blocks of
SUBSET_BLOCK, with unit_spans reading off the reduced rows which e_j each
subset spans.  kruskal_full, netcode's one MDS decision, ranks no subset
on a systematic [I_N; R]: _every_minor_nonzero decides it both ways from
the minors of R, built level by level by Laplace expansion.  A matrix
finds each level at most once and keeps its record.  Certification and
the metrics share one cap, SUBSET_ROW_CAP = 24 rows.

gamma and lambda start from the Kruskal rank k, so a certified code, whose
level N its certification recorded, ranks no further level.  gamma_rank(i) is i for
i <= k.  lambda_rank(j) is at least k, because for l < k some l rows miss
e_j: take k independent rows T; the spans of the sets T - {a} meet only
in {0}, so e_j misses one of them, and every l-subset of that one.

Matrices serialize to a plain text block: a header line ``q rows cols``
followed by row-major integer entries; blank lines and ``#`` comments are
ignored on load.
"""

from functools import cache
from itertools import combinations, islice

import numpy as np

from .gf import Field, field_ell, field_new

SUBSET_ROW_CAP = 24  # rows at most, for certification and the subset metrics
SUBSET_BLOCK = 1024  # row subsets ranked per batch_rank call, bounding memory
_MINOR_BLOCK = 1 << 18  # products per block of minors, bounding memory


def batch_rank(mats: np.ndarray, field: Field) -> np.ndarray:
    """Rank of each matrix in a (B, R, C) stack of field elements.

    The stack may be of any integer type that holds q - 1; it is reduced
    in that type, so a stack built in field.dtype (uint8 up to GF(256),
    uint16 above) is never widened.  Products go through field.np_tables(),
    in its widths.  A type too narrow for q raises ValueError.

    Runs Gauss-Jordan elimination in place on every matrix at once, with
    the same pivoting as the scalar FfMatrix.rank (first nonzero entry at
    or below the current row).  Pivots are normalised to 1 and cleared
    from every other row, so on return each matrix of `mats` is in reduced
    row-echelon form: the first rank rows carry pivot 1s in increasing
    columns, each pivot column is zero in every other row, and the
    remaining rows are zero.  Returns the (B,) int64 ranks.

    Column c's row operations start at column c: the rows at or below the
    current rank are zero to its left.  The matrices with a pivot in
    column c are gathered, reduced and scattered back.
    """
    if mats.dtype.kind not in "iu" or np.iinfo(mats.dtype).max < field.order - 1:
        raise ValueError(f"a GF({field.order}) stack needs an integer type holding "
                         f"{field.order - 1}, got {mats.dtype}")
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
        work, cand = mats[b], cand[b]
        k = np.arange(len(b))
        src, dst = cand.argmax(axis=1), rk[b]
        # swap the pivot row up, normalised to 1 in column c
        prow = work[k, src, c:]
        work[k, src, c:] = work[k, dst, c:]
        prow = exp2_t[log_t[prow] + log_t[inv_t[prow[:, 0]]][:, None]]
        work[k, dst, c:] = prow
        # eliminate column c from every other row
        fac = work[:, :, c].copy()
        fac[k, dst] = 0
        work[:, :, c:] ^= np.take(exp2_t, log_t[fac][:, :, None] + log_t[prow][:, None, :])
        mats[b] = work
        rk[b] += 1
    return rk


def unit_spans(reduced: np.ndarray) -> np.ndarray:
    """(B, C) flags of a (B, R, C) stack that batch_rank has reduced: [b, j]
    says whether e_j is in matrix b's row span, i.e. one of its rows is e_j."""
    return ((reduced == 1) & ((reduced != 0).sum(axis=2) == 1)[:, :, None]).any(axis=1)


@cache
def _subsets(n, k):
    """The k-subsets of range(n) in combinations order, as an (S, k) array of
    members, and drop[s, t]: the index of subset s without its t-th member
    among the (k-1)-subsets, in the same order."""
    members = list(combinations(range(n), k))
    index = {sub: i for i, sub in enumerate(combinations(range(n), k - 1))}
    drop = [[index[sub[:t] + sub[t + 1:]] for t in range(k)] for sub in members]
    return np.array(members, dtype=np.intp), np.array(drop, dtype=np.intp)


def _every_minor_nonzero(block: np.ndarray, field: Field) -> bool:
    """Whether every square submatrix of an (M, N) block is nonsingular.

    The minors are built level by level, k = 1..min(M, N), each k x k minor
    by Laplace expansion along its last row.  In characteristic 2 the signs
    drop out: det R[I, J] is the XOR over c in J of R[max I, c] times
    det R[I - {max I}, J - {c}].  A level is kept as the logs of its minors
    (every one is nonzero once the level has passed), in the log table's
    type, indexed by row subset and column subset.  Its row subsets are
    expanded in blocks of at most _MINOR_BLOCK products, which bounds
    memory.  Returns False at the first level with a zero minor.
    """
    log_t, exp2_t, _ = field.np_tables()
    if not block.all():
        return False
    prev = log_t[block]  # level 1: row i, column c
    for k in range(2, min(block.shape) + 1):
        rows, row_drop = _subsets(block.shape[0], k)
        cols, col_drop = _subsets(block.shape[1], k)
        level = np.empty((len(rows), len(cols)), dtype=log_t.dtype)
        step = max(1, _MINOR_BLOCK // (len(cols) * k))
        for lo in range(0, len(rows), step):
            last = log_t[block[rows[lo:lo + step, -1]]]  # each row subset's last row
            rest = prev[row_drop[lo:lo + step, -1]]      # minors of the rows above it
            det = np.bitwise_xor.reduce(exp2_t[last[:, cols] + rest[:, col_drop]], axis=2)
            if not det.all():
                return False
            level[lo:lo + step] = log_t[det]
        prev = level
    return True


class FfMatrix:
    """An immutable rows x cols matrix with entries in a Field."""

    __slots__ = ("field", "_a", "_levels")

    def __init__(self, field: Field, entries):
        a = np.asarray(entries)
        if a.size and a.dtype.kind not in "iu":  # a float, string or object would be cast
            raise ValueError(f"entries must be integers, got dtype {a.dtype}")
        a = a.astype(np.int64)
        if a.ndim != 2:
            raise ValueError("entries must be two-dimensional")
        if a.size and (a.min() < 0 or a.max() >= field.order):
            raise ValueError(f"entries must lie in [0, {field.order})")
        a.setflags(write=False)
        self.field = field
        self._a = a
        self._levels = {}  # subset size -> _level record; entries never change

    def __reduce__(self):
        # rebuild through __init__, so the entries come back read-only
        return (FfMatrix, (self.field, self._a))

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "FfMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FfMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    # -- basics --------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    def to_lists(self):
        return self._a.tolist()

    def to_array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._a

    def row_submatrix(self, indices) -> "FfMatrix":
        return FfMatrix(self.field, self._a[list(indices), :])

    def transpose(self) -> "FfMatrix":
        return FfMatrix(self.field, self._a.T)

    def vstack(self, other: "FfMatrix") -> "FfMatrix":
        if other.field != self.field or other.cols != self.cols:
            raise ValueError("vstack needs matching field and width")
        return FfMatrix(self.field, np.vstack([self._a, other._a]))

    def __eq__(self, other):
        return (
            isinstance(other, FfMatrix)
            and self.field == other.field
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __repr__(self):
        return f"FfMatrix(q={self.field.order}, {self.rows}x{self.cols})"

    def __matmul__(self, other: "FfMatrix") -> "FfMatrix":
        if not isinstance(other, FfMatrix):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("mixed fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        log_t, exp2_t, _ = self.field.np_tables()
        left, right = log_t[self._a], log_t[other._a]
        out = np.zeros((self.rows, other.cols), dtype=self.field.dtype)
        for k in range(self.cols):  # one inner index at a time: memory stays rows x cols
            out ^= exp2_t[left[:, k, None] + right[k]]
        return FfMatrix(self.field, out)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        """Rank by Gauss-Jordan elimination in pure Python: the scalar
        reference that batch_rank and the simulator are tested against."""
        f = self.field
        mul, inv = f.mul, f.inv
        work = self.to_lists()
        nrows, ncols = self.rows, self.cols
        r = 0
        for c in range(ncols):
            pr = None
            for i in range(r, nrows):
                if work[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            pv = inv(work[r][c])
            if pv != 1:
                row = work[r]
                for j in range(c, ncols):
                    if row[j]:
                        row[j] = mul(pv, row[j])
            prow = work[r]
            for i in range(nrows):
                if i != r and work[i][c]:
                    fac = work[i][c]
                    row = work[i]
                    for j in range(c, ncols):
                        if prow[j]:
                            row[j] ^= mul(fac, prow[j])
            r += 1
            if r == nrows:
                break
        return r

    def solve(self, b: "FfMatrix") -> "FfMatrix | None":
        """Unique X with self @ X == b, or None (inconsistent/underdetermined)."""
        return self._solve(b, require_unique=True)

    def solve_any(self, b: "FfMatrix") -> "FfMatrix | None":
        """A particular X with self @ X == b (free unknowns 0), or None."""
        return self._solve(b, require_unique=False)

    def _solve(self, b, require_unique):
        if not isinstance(b, FfMatrix) or b.field != self.field:
            raise ValueError("rhs must be an FfMatrix over the same field")
        if b.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        n = self.cols
        work = np.hstack([self._a, b._a]).astype(self.field.dtype)[None]
        rank = int(batch_rank(work, self.field)[0])
        rows = work[0, :rank]  # reduced [A | b]: pivot 1s in increasing columns
        pivots = [int(np.flatnonzero(row)[0]) for row in rows]
        if (pivots and pivots[-1] >= n) or (require_unique and rank < n):
            return None  # a pivot in b's columns: inconsistent; rank < n: not unique
        x = np.zeros((n, b.cols), dtype=np.int64)
        x[pivots] = rows[:, n:]
        return FfMatrix(self.field, x)

    def invert(self) -> "FfMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        x = self.solve(FfMatrix.identity(self.field, self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x

    # -- subset-rank metrics ---------------------------------------------------

    def _level(self, size):
        """``(least rank, spans)`` over every `size`-row subset: spans[j]
        says whether every such subset spans e_j.  Ranked once per matrix,
        SUBSET_BLOCK subsets per batch_rank call, then read from the record.
        Only reached through kruskal_full, which enforces SUBSET_ROW_CAP."""
        if size not in self._levels:
            a = self._a.astype(self.field.dtype)
            subsets = combinations(range(self.rows), size)
            least, spans = size, np.ones(self.cols, dtype=bool)
            while chunk := list(islice(subsets, SUBSET_BLOCK)):
                mats = a[np.array(chunk, dtype=np.intp)]
                least = min(least, int(batch_rank(mats, self.field).min()))
                spans &= unit_spans(mats).all(axis=0)
            self._levels[size] = (least, tuple(spans.tolist()))
        return self._levels[size]

    def kruskal_full(self) -> bool:
        """kruskal_rank() == min(rows, cols), read off that one level alone:
        every smaller row set sits inside a set of that size.  On a code
        [I_N; R] this is the MDS property.  Raises ValueError above
        SUBSET_ROW_CAP rows.

        A systematic matrix [I_N; R] ranks no subset; the minors of R
        decide, by this lemma: N rows made of the identity rows e_k, k in
        D, and the relay rows I are independent iff R[I, [N] - D] is
        nonsingular.  (The rows e_k span exactly the vectors supported on
        D, so the N rows are independent iff R's rows I, restricted to the
        |I| = N - |D| columns outside D, are.)  Each square submatrix of R
        arises so, with D the complement of its columns; hence every N rows
        are independent iff every square minor of R is nonzero (Roth &
        Seroussi 1985).  A pass is recorded as level N = (N, all True); a
        vanishing minor answers False and records nothing.
        """
        if self.rows > SUBSET_ROW_CAP:
            raise ValueError(f"MDS checks and subset metrics are capped at {SUBSET_ROW_CAP} rows")
        top, n = min(self.rows, self.cols), self.cols
        if top not in self._levels and np.array_equal(self._a[:n], np.eye(n)):
            if not _every_minor_nonzero(self._a[n:], self.field):
                return False
            self._levels[n] = (n, (True,) * n)
        return self._level(top)[0] == top

    def kruskal_rank(self) -> int:
        """Largest r such that every set of r rows is linearly independent."""
        limit = min(self.rows, self.cols)
        if self.kruskal_full():
            return limit
        for r in range(1, limit):
            if self._level(r)[0] < r:
                return r - 1
        return limit - 1

    def gamma_rank(self, i: int) -> int:
        """Smallest g such that every set of g rows has rank at least i.

        That is i whenever i <= kruskal_rank(), as every i rows are then
        independent.  Only kruskal_rank()'s top level, min(rows, cols), is
        read for it: when that level is not full, the scan from level i
        needs none of the lower levels kruskal_rank() would go on to rank.
        Raises ValueError when no such g exists (the full matrix has rank
        below i) or when i is out of range.
        """
        top = min(self.rows, self.cols)
        if not 1 <= i <= top:
            raise ValueError(f"i must be in [1, {top}]")
        if self.kruskal_full():  # kruskal_rank() == top >= i
            return i
        for g in range(i, self.rows + 1):
            if self._level(g)[0] >= i:
                return g
        raise ValueError(f"undefined: full row set has rank below {i}")

    def lambda_rank(self, i: int) -> int | None:
        """Smallest l such that every set of l rows spans unit vector e_i.

        The scan starts at k = kruskal_rank(): the spans of the
        (k-1)-subsets of k independent rows meet only in {0}, so one of
        them, and each of its subsets, misses e_i.  Returns None when even
        the full row set does not span e_i.
        """
        if not 0 <= i < self.cols:
            raise ValueError(f"column index must be in [0, {self.cols})")
        for lam in range(max(1, self.kruskal_rank()), self.rows + 1):
            if self._level(lam)[1][i]:
                return lam
        return None

    # -- serialization -----------------------------------------------------------

    def dump(self) -> str:
        lines = [f"{self.field.order} {self.rows} {self.cols}"]
        for row in self.to_lists():
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def load_matrix(text: str) -> FfMatrix:
    """Parse the ``q rows cols`` + entries format produced by dump()."""
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(line.split())
    if len(tokens) < 3:
        raise ValueError("matrix text needs a 'q rows cols' header")
    q, rows, cols = (int(t) for t in tokens[:3])
    field = field_new(field_ell(q))
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must be non-negative, got {rows} {cols}")
    body = tokens[3:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
    return FfMatrix(field, np.array([int(t) for t in body], dtype=np.int64).reshape(rows, cols))
