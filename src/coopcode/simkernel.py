"""Monte Carlo outage simulation for network-coded cooperative relaying.

Channel model: every ordered link (source->relay, source->destination,
relay->destination) draws an independent exponential power gain, and a
link carries a packet iff log2(1 + gain*rho) exceeds the per-packet rate
r0, i.e. gain > tau = (2**r0 - 1)/rho.  One trial is a two-stage round:

  stage 1  relays listen to the N source broadcasts and decide what to
           forward (strategy A: only if all N packets decoded; strategy
           B: a partial combination with the missed coefficients zeroed);
  stage 2  each destination collects whatever rows arrived and checks
           decodability (multicast: all N packets, i.e. rank N; unicast:
           its own packet, i.e. e_i in the row span).

Reproducibility: trials are processed in fixed-size chunks and the chunk
(grid point g, chunk index c) draws from Philox keyed by the scenario
seed with spawn key (g, c).  Counts are integers, so results are
bit-identical no matter how chunks are ordered or spread over workers.
The key holds no scheme, so schemes with one seed already see identical
gains (common random numbers); run_sweep over several scenarios of one
rate draws and thresholds each chunk once and decides every scenario on
it, with exactly the counts separate sweeps would give.

Two implementations coexist on purpose: a scalar per-trial reference
(run_trial*) used by the tests, and a vectorized engine used by
run_sweep.  For dncc, rncc and selection the engine decides exactly, for
any code.  ncc runs on it as selection with k=1 and strategy A over the
XOR code (all-ones relay rows over GF(2)): e_j is in the span iff the
direct row arrived, or the XOR row did with every other direct row.
Whether destination j decodes depends only on which rows reached it, so
each (trial, j) is packed into an integer pattern key (the
direct rows that arrived and the entries of every delivered relay row
after strategy-B masking: one bit per code entry, or the l-bit rncc
coefficient).  Each chunk decides its distinct keys once, and each
(trial, j) reads its outcome off the result: rank N in multicast, e_j in
the span in unicast.  Only the relay rows are eliminated
(ffmat.batch_rank, ffmat.unit_spans): the held direct rows e_k are
accounted for by zeroing their columns k, and distinct keys are taken
after clearing those columns' relay entries.  A relay row left with one
nonzero entry, in column k, then covers column k as well, so it is
peeled into direct bit k until no row peels; equivalent patterns share
one key.  Keys wider than KEY_BITS are decided per (trial, j).  A
(trial, j) pair *settled* by its direct rows (e_j in unicast, all N in
multicast) decodes whatever relay rows reach it.  Outside the outcome
tables below, such a pair reads success and is neither deduplicated nor
ranked: its packed key is dropped before the dedupe, and a pattern too
wide to pack never has its rows gathered.  The key
layout, its peel tables and, when there are at most 2**TABLE_BITS keys,
the outcome of every key are built once per sweep, by _plan; those
table-regime keys are packed as uint16, the others as int64.  The relay
stacks the patterns unpack to are built in the field's own width,
field.dtype (uint8 up to GF(256), uint16 above), slot by slot with no
int64 intermediate, and reduced in that width.

The decide reads only link states, and _decide maps the states (and
rncc's coefficients) to failure flags.  draw_chunk has two call forms:
draw_chunk(scn, rng, count) returns the float64 gains, which the scalar
run_trial* reference reads trial by trial; run_sweep's
draw_chunk(scn, rng, count, tau, bottleneck) draws each link block in
slices of at most DRAW_SLICE values and compares each slice with tau as
it is drawn, so it keeps only the bool link states and never holds a
chunk's gains.  When a scenario selects, the same slices fold each
relay's bottleneck gain (_fold_bottleneck), which selection ranks.
_plan holds a scenario's decide state (ncc as selection, its pattern
key, its link-state table); a chunk decided per trial runs the threshold
form, _selected_links and _decide with that key, the one batched path,
which the tests check against run_trial* on the same stream's gains.
Selection is applied as links taken down: _selected_links clears the
source->relay links of the relays it drops, and a relay that heard
nothing never transmits, just as an unselected one.  So when the
L = NM + N^2 + MN links fit TABLE_BITS (N=1 with M <= 5, N=2 with
M <= 2), run_sweep decides every one of the 2**L states once per
scenario and ships that table with the chunk tasks; a chunk then packs
each trial's link states into a uint16 key, once for every tabled
scenario, and each scenario's counts are its key histogram times its
table.  Selection (ncc too) clears the source->relay bits of the relays
it drops from those shared keys, one mask per relay.  rncc, whose relay
rows vary per trial, and wider networks are decided per trial.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .gf import Field, field_new
from .ffmat import FfMatrix, batch_rank, unit_spans
from .netcode import NetworkCode, build_explicit
from .analytic import (CODE_SCHEMES, COOP_SCHEMES, SCHEMES, check_integers, check_positive,
                       check_rate, tau_for)

CHUNK_TRIALS = 1 << 14  # fixed chunk size; part of the reproducibility contract
TABLE_BITS = 12    # pattern keys and link states this narrow are decided by enumerating them all
KEY_BITS = 62      # widest pattern key packed into an int64
RANK_BLOCK = 4096  # matrices per batch_rank call; bounds the decide's memory
CDF_CHUNK = 1 << 18  # trials per Philox stream of selected_link_gain_cdf; pins its numbers
DRAW_SLICE = 1 << 14  # gains drawn and compared at a time (128 KiB); results do not depend on it


@dataclass(frozen=True)
class PerLinkBeta:
    """Per-link exponential rates; arrays shaped (N,M), (N,N), (M,N).  A
    Scenario keeps them as tuples of float tuples."""

    sr: tuple
    sd: tuple
    rd: tuple

    @classmethod
    def uniform(cls, n, m, beta):
        return cls(
            tuple((beta,) * m for _ in range(n)),
            tuple((beta,) * n for _ in range(n)),
            tuple((beta,) * n for _ in range(m)),
        )


def _check_run(n, m, trials, seed):
    """Scenario's checks of N, M, trials and seed, which selected_link_gain_cdf shares."""
    if n < 1 or m < 1:
        raise ValueError("need n_sources >= 1 and n_relays >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    check_integers(n_sources=n, n_relays=m, trials=trials)


# Scenario's optional settings: each one's default and the schemes that read it
_SETTINGS = {"code": (None, CODE_SCHEMES), "field": (None, ("rncc",)),
             "k_select": (None, ("selection",)), "strategy": ("A", COOP_SCHEMES)}


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration over a grid of SNR points.

    A scheme takes only the settings it reads: dncc a code, rncc a field
    (its coefficients are drawn per trial), selection a code and k_select,
    and all three a strategy; ncc and cc read none of the four.  A setting
    the scheme does not read must keep its default (None, strategy "A"),
    or construction raises a ValueError that names it.  beta (each entry of
    a PerLinkBeta) and rate_r0 pass analytic.check_positive, and N, M,
    trials and k_select analytic.check_integers, the rules LinkParams
    applies."""

    scheme: str
    n_sources: int
    n_relays: int
    snr_grid: tuple          # linear SNR values, strictly increasing
    trials: int
    seed: int = 0
    code: NetworkCode | None = None
    field: Field | None = None     # field for rncc per-trial coefficients
    strategy: str = "A"
    traffic: str = "multicast"
    beta: "float | PerLinkBeta" = 1.0
    rate_r0: float = 1.0
    k_select: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_run(self.n_sources, self.n_relays, self.trials, self.seed)
        grid = tuple(float(r) for r in self.snr_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid must be non-empty and strictly increasing")
        if any(r <= 0 for r in grid):
            raise ValueError("snr values must be positive")
        if not all(map(math.isfinite, grid)):
            raise ValueError("snr values must be finite")
        object.__setattr__(self, "snr_grid", grid)
        if self.strategy not in ("A", "B"):
            raise ValueError("strategy must be 'A' or 'B'")
        if self.traffic not in ("multicast", "unicast"):
            raise ValueError("traffic must be 'multicast' or 'unicast'")
        for name, (default, readers) in _SETTINGS.items():
            if self.scheme not in readers and getattr(self, name) != default:
                raise ValueError(f"{self.scheme} reads no {name}; leave it at {default!r}")
        check_positive("rate_r0", self.rate_r0)
        check_rate(self.rate_r0)
        if isinstance(self.beta, PerLinkBeta):
            n, m = self.n_sources, self.n_relays
            tables = []
            for name, shape in (("sr", (n, m)), ("sd", (n, n)), ("rd", (m, n))):
                table = np.asarray(getattr(self.beta, name), dtype=float)
                if table.shape != shape:
                    raise ValueError(f"beta.{name} must have shape {shape}, got {table.shape}")
                check_positive(f"beta.{name}", table)
                tables.append(tuple(map(tuple, table.tolist())))
            # tuples of floats, so scenarios compare (and share a sweep) by value
            object.__setattr__(self, "beta", PerLinkBeta(*tables))
        else:  # one float: float() refuses a list or an array of several
            check_positive("beta", float(self.beta))
        if self.scheme in CODE_SCHEMES:
            if self.code is None:
                raise ValueError(f"{self.scheme} needs a code")
            if (self.code.n_sources, self.code.n_relays) != (self.n_sources, self.n_relays):
                raise ValueError("code dimensions do not match scenario")
        if self.scheme == "rncc" and self.field is None:
            raise ValueError("rncc draws per-trial coefficients and needs a field")
        if self.scheme == "selection":
            if self.k_select is None or not 1 <= self.k_select <= self.n_relays:
                raise ValueError("selection needs k_select in [1, M]")
            check_integers(k_select=self.k_select)
        if self.scheme in ("ncc", "cc") and self.traffic != "unicast":
            raise ValueError(f"{self.scheme} supports unicast traffic only")


@dataclass(frozen=True)
class TrialDraw:
    """Channel gains for one trial; coeffs only used by rncc."""

    gsr: np.ndarray   # (N, M) source k -> relay i
    gsd: np.ndarray   # (N, N) source k -> destination j
    grd: np.ndarray   # (M, N) relay i -> destination j
    coeffs: np.ndarray | None = None  # (M, N) ints for rncc


@dataclass(frozen=True)
class SweepPoint:
    rho: float
    dest_errors: tuple
    system_errors: int
    trials: int

    def __post_init__(self):
        if self.system_errors < max(self.dest_errors, default=0):
            raise ValueError("system errors cannot be below any per-destination count")
        if self.system_errors > self.trials:
            raise ValueError("more errors than trials")

    @property
    def dest_rates(self):
        return tuple(e / self.trials for e in self.dest_errors)

    @property
    def avg_outage(self) -> float:
        return sum(self.dest_errors) / (len(self.dest_errors) * self.trials)

    @property
    def system_rate(self) -> float:
        return self.system_errors / self.trials

    @property
    def ci95_avg(self) -> float:
        """Conservative binomial 95% radius for avg_outage."""
        p = self.avg_outage
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)


@dataclass(frozen=True)
class OutageReport:
    scenario: Scenario
    points: tuple  # of SweepPoint, one per snr_grid entry


# -- scalar reference implementation ------------------------------------------


def select_relays(scn: Scenario, draw: TrialDraw, k: int):
    """Indices of the k best relays by bottleneck gain (min over the 2N
    adjacent links); ties broken toward the lower index."""
    m = scn.n_relays
    if not 1 <= k <= m:
        raise ValueError("k must be in [1, M]")
    h = [min(float(draw.gsr[:, i].min()), float(draw.grd[i, :].min()))
         for i in range(m)]
    order = sorted(range(m), key=lambda i: (-h[i], i))
    return order[:k]


def _trial_links(scn: Scenario, rho: float, draw: TrialDraw):
    """(ok_sr, ok_sd, ok_rd) of one trial at SNR rho: gain > tau, computed
    here rather than by the batched engine, so the oracles stay independent."""
    tau = tau_for(rho, scn.rate_r0)
    return tuple(np.asarray(g) > tau for g in (draw.gsr, draw.gsd, draw.grd))


def _relay_coeff_rows(scn: Scenario, draw: TrialDraw):
    if scn.scheme == "rncc":
        if draw.coeffs is None:
            raise ValueError("rncc trial needs draw.coeffs")
        return np.asarray(draw.coeffs), scn.field
    return scn.code.relay_block.to_array(), scn.code.field

def run_trial(scn: Scenario, rho: float, draw: TrialDraw):
    """One two-stage round for the dncc/rncc/selection family.

    Returns a tuple of N booleans: per-destination success under the
    scenario's traffic mode.
    """
    if scn.scheme not in COOP_SCHEMES:
        raise ValueError("run_trial handles dncc/rncc/selection; "
                         "use run_trial_ncc or run_trial_cc")
    n, m = scn.n_sources, scn.n_relays
    ok_sr, ok_sd, ok_rd = _trial_links(scn, rho, draw)

    coeff_rows, fld = _relay_coeff_rows(scn, draw)
    active = (set(select_relays(scn, draw, scn.k_select))
              if scn.scheme == "selection" else set(range(m)))

    relay_rows = {}
    for i in active:
        decoded = [k for k in range(n) if ok_sr[k, i]]
        if scn.strategy == "A":
            if len(decoded) == n:
                relay_rows[i] = [int(v) for v in coeff_rows[i]]
        else:
            if decoded:
                relay_rows[i] = [int(coeff_rows[i][k]) if k in decoded else 0
                                 for k in range(n)]

    flags = []
    for j in range(n):
        rows = []
        for k in range(n):
            if ok_sd[k, j]:
                row = [0] * n
                row[k] = 1
                rows.append(row)
        for i, row in relay_rows.items():
            if ok_rd[i, j]:
                rows.append(row)
        if scn.traffic == "multicast":
            got = bool(rows) and FfMatrix(fld, rows).rank() == n
        else:
            unit = [0] * n
            unit[j] = 1
            sub = FfMatrix(fld, rows + [unit])
            base = FfMatrix(fld, rows).rank() if rows else 0
            got = sub.rank() == base
        flags.append(got)
    return tuple(flags)


def run_trial_ncc(scn: Scenario, rho: float, draw: TrialDraw):
    """Best-relay XOR forwarding.  Destination j succeeds iff its direct
    link is up, or the selected relay decoded everything, reaches j, and
    j overheard all the other N-1 sources directly."""
    n, m = scn.n_sources, scn.n_relays
    ok_sr, ok_sd, ok_rd = _trial_links(scn, rho, draw)
    best = select_relays(scn, draw, 1)[0]
    relay_decoded = all(ok_sr[k, best] for k in range(n))
    flags = []
    for j in range(n):
        direct = ok_sd[j, j]
        cross = all(ok_sd[k, j] for k in range(n) if k != j)
        flags.append(bool(direct or (relay_decoded and ok_rd[best, j] and cross)))
    return tuple(flags)


def run_trial_cc(scn: Scenario, rho: float, draw: TrialDraw):
    """Repetition relaying: destination j succeeds iff its direct link is
    up or some relay both decoded source j and reaches destination j."""
    n, m = scn.n_sources, scn.n_relays
    ok_sr, ok_sd, ok_rd = _trial_links(scn, rho, draw)
    flags = []
    for j in range(n):
        relayed = any(ok_sr[j, i] and ok_rd[i, j] for i in range(m))
        flags.append(bool(ok_sd[j, j] or relayed))
    return tuple(flags)


# -- batched engine -------------------------------------------------------------


def _betas(scn: Scenario):
    """The rates the sr, sd and rd gains are divided by: per-link arrays, or
    the scalar beta itself, which divides exactly as its broadcast would."""
    if isinstance(scn.beta, PerLinkBeta):
        return (np.asarray(scn.beta.sr, dtype=float),
                np.asarray(scn.beta.sd, dtype=float),
                np.asarray(scn.beta.rd, dtype=float))
    b = float(scn.beta)
    return b, b, b


def chunk_rng(seed: int, grid_index: int, chunk_index: int) -> np.random.Generator:
    """Counter-based stream for one (grid point, chunk) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(grid_index, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def draw_chunk(scn: Scenario, rng: np.random.Generator, count: int, tau=None,
               bottleneck=False):
    """Draw all randomness for `count` trials in the fixed order the
    reproducibility contract pins down: the sr, sd and rd gains, then
    rncc's coefficients (None for the other schemes).  Two call forms:

      draw_chunk(scn, rng, count) -> (gsr, gsd, grd, coeffs), the float64
          gains shaped (count, N, M), (count, N, N) and (count, M, N);
      draw_chunk(scn, rng, count, tau, bottleneck) -> (ok_sr, ok_sd, ok_rd,
          coeffs, h), the link states gain > tau in the same shapes, and
          when `bottleneck` the (M, count) bottleneck gains h of
          _fold_bottleneck, else None.

    The second form draws each link block in slices of whole trials, at
    most DRAW_SLICE values each unless one trial holds more, and compares
    (and folds) each slice as it is drawn, so the gains are never held
    whole.  Consecutive draws continue one stream, so both forms read the
    same values: the first form is what run_trial* reads, the second what
    the sweep decides."""
    n, m = scn.n_sources, scn.n_relays
    shapes = ((count, n, m), (count, n, n), (count, m, n))
    blocks = [np.empty(shape, dtype=float if tau is None else bool) for shape in shapes]
    h = np.full((m, count), np.inf) if bottleneck else None
    buf = None if tau is None else np.empty(max(DRAW_SLICE, n * max(n, m)))
    for b, (block, beta) in enumerate(zip(blocks, _betas(scn))):
        per, scale = block[0].size, np.any(beta != 1.0)  # x / 1.0 == x exactly
        step = max(1, count if buf is None else DRAW_SLICE // per)
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            if buf is None:  # the gains themselves, scaled in place
                g = block[lo:hi]
            else:
                g = buf[:(hi - lo) * per].reshape((hi - lo,) + block.shape[1:])
            rng.standard_exponential(out=g)
            if scale:
                g /= beta
            if buf is not None:
                np.greater(g, tau, out=block[lo:hi])
            if h is not None and b != 1:  # sd links are adjacent to no relay
                _fold_bottleneck(h[:, lo:hi], g if b == 0 else g.transpose(0, 2, 1))
    coeffs = None
    if scn.scheme == "rncc":
        coeffs = rng.integers(0, scn.field.order, size=(count, m, n),
                              dtype=np.int64)
    return (*blocks, coeffs) if tau is None else (*blocks, coeffs, h)


def _unit_table(cols, width):
    """unit[r] for every relay row r of len(cols) slots, `width` bits each,
    slot s in column cols[s]: the direct bit e_k when r has exactly one
    nonzero slot and it lies in column k, else 0."""
    syms = (np.arange(1 << width * len(cols))[:, None] >> (width * np.arange(len(cols)))) \
        & ((1 << width) - 1)
    nonzero = syms != 0
    col = np.asarray(cols, dtype=np.int64)[nonzero.argmax(axis=1)]
    return np.where(nonzero.sum(axis=1) == 1, np.int64(1) << col, 0)


class _PatternKey:
    """Bit layout that packs one arrival pattern (the rows one destination
    holds in one trial) into an integer key: uint16 in the "table" regime,
    else int64.

    Bits [0, N) flag the direct rows e_k that arrived.  Then come the relay
    *slots*, `width` bits each: slot (i, k) holds the symbol of entry k of
    relay i's row as delivered, zero when the row did not arrive.  An entry
    is symbol * scale[i, k]; entries whose scale is 0 never vary and get
    no slot.  Both traffic modes share the layout.  A held direct row e_k
    makes the slots of column k irrelevant: drop_covered clears them, and
    canonical also peels relay rows left with one nonzero entry.

    A layout of at most TABLE_BITS bits is in the "table" regime, whatever
    the chunk size: it carries `outcomes`, the fails() flags of all its
    2**bits keys, decided here once (at most 2**TABLE_BITS = 4096);
    otherwise `outcomes` is None.
    """

    def __init__(self, field, scale, width, unicast):
        m, n = scale.shape
        self.n, self.m, self.width, self.unicast = n, m, width, unicast
        self.field, self.scale = field, scale
        self.slot_i, self.slot_k = np.nonzero(scale)  # row-major: a relay's slots are adjacent
        self.shifts = n + width * np.arange(len(self.slot_i), dtype=np.int64)
        self.bits = n + width * len(self.slot_i)
        self.span = 1 << self.bits  # keys lie in [0, span)
        self.col_bits = [sum(((1 << width) - 1) << int(s) for s in self.shifts[self.slot_k == k])
                         for k in range(n)]  # column k's relay slots, as a mask
        self.relays = [(int(i), tuple(self.slot_k[self.slot_i == i].tolist()),
                        tuple(self.shifts[self.slot_i == i].tolist()))
                       for i in np.unique(self.slot_i)]  # (i, slot columns, slot shifts)
        self.peel = []  # (shift, mask, _unit_table) per relay whose slots fit TABLE_BITS
        units = {}      # relays with the same slot columns share one table
        for _, cols, shifts in self.relays:
            row_bits = width * len(cols)
            if row_bits > TABLE_BITS:
                continue
            if cols not in units:
                units[cols] = _unit_table(cols, width)
            self.peel.append((shifts[0], (1 << row_bits) - 1, units[cols]))
        self.outcomes = None
        if self.regime == "table":
            every = np.arange(self.span, dtype=np.int64)
            self.outcomes = _blockwise(self.span,
                                       lambda lo, hi: self.fails(*self.unpack(every[lo:hi])))

    @property
    def regime(self):
        """How a chunk's patterns are decided, by the layout's width alone:
        "table" enumerates every key, "unique" ranks the distinct ones,
        "wide" ranks each."""
        if self.bits > KEY_BITS:
            return "wide"
        return "table" if self.bits <= TABLE_BITS else "unique"

    def pack(self, ok_sd, heard, ok_rd, sym):
        """(B, N) keys of the patterns B trials deliver: link states
        ok_sd[b, k, j] and ok_rd[b, i, j], heard[i, b] when relay i sends,
        and the (B, M, N) relay row symbols sym[b, i, k].  A layout
        of at most TABLE_BITS bits (the "table" regime) packs uint16 keys,
        as _state_keys does; the wider ones pack int64 keys, which
        drop_covered and canonical work on.  Keys are built one contiguous
        row per destination, which beats ops along the short N axis."""
        dtype = np.int64 if self.outcomes is None else np.uint16
        if sym.dtype != bool:  # rncc coefficients, below 2**width
            sym = sym.astype(dtype, copy=False)
        nb, n = ok_sd.shape[0], self.n
        keys = np.zeros((n, nb), dtype=dtype)
        for j in range(n):
            for k in range(n):
                keys[j] += ok_sd[:, k, j] * dtype(1 << k)
        for i, cols, shifts in self.relays:
            row = np.zeros(nb, dtype=dtype)     # relay i's slots, as sent
            for k, shift in zip(cols, shifts):
                row += sym[:, i, k] * dtype(1 << shift)
            row *= heard[i]
            for j in range(n):
                keys[j] += ok_rd[:, i, j] * row
        return keys.T

    def unpack(self, keys):
        """(direct, relay) arrays of the patterns, as fails() takes them: the
        (P, N) direct bits and the (P, M, N) relay rows in field.dtype, each
        slot shifted out of the keys and written into its entry."""
        n, mask = self.n, (1 << self.width) - 1
        direct = (keys[:, None] >> np.arange(n)) & 1
        relay = np.zeros((len(keys), self.m, n), dtype=self.field.dtype)
        for i, k, shift in zip(self.slot_i, self.slot_k, self.shifts):
            entry = relay[:, i, k]
            np.bitwise_and(keys >> shift, mask, out=entry, casting="unsafe")
            if self.scale[i, k] != 1:  # a code entry times its 1-bit symbol
                entry *= self.field.dtype.type(self.scale[i, k])
        return direct, relay

    def drop_covered(self, keys):
        """The keys with every relay slot of a column k cleared whose direct
        row e_k is held (col_bits[k] are the bits of column k's slots).
        fails() ignores those entries, so equivalent patterns share a key.
        Column k ANDs in ~col_bits[k] where bit k is set and all ones
        elsewhere, (bit k - 1) | ~col_bits[k], built in one temporary."""
        out = keys.copy()
        for k, bits in enumerate(self.col_bits):
            if bits:
                held = keys >> k
                held &= 1
                held -= 1
                held |= ~keys.dtype.type(bits)
                out &= held
        return out

    def canonical(self, keys):
        """drop_covered(keys) at its fixpoint under peeling.  Once covered
        columns are cleared, a relay row with one nonzero entry, in column k,
        is c*e_k modulo the held rows, so it covers column k as a held e_k
        would: set direct bit k and clear column k's slots, until no row
        peels (at most N rounds).  The span is unchanged, so rank and every
        unit span are too.  Rows wider than TABLE_BITS are left as they
        are, which keeps the span as well.  A key that no row peels in one
        round is at its fixpoint, so each round carries only the keys the
        last one moved."""
        keys = self.drop_covered(keys)
        live, moving = np.arange(len(keys)), keys
        while self.peel and len(live):
            unit = np.zeros_like(moving)
            for shift, mask, table in self.peel:
                unit |= table[(moving >> shift) & mask]
            moved = np.flatnonzero(unit)
            live, moving = live[moved], self.drop_covered(moving[moved] | unit[moved])
            keys[live] = moving
        return keys

    def fails(self, direct, relay):
        """(P, N) flags: [p, j] says destination j fails when it holds the
        direct rows e_k with direct[p, k] set plus the relay rows relay[p]
        (an all-zero row is one that did not arrive).

        `relay` is a (P, M, N) integer stack, in field.dtype as unpack
        builds it; fails zeroes its held columns and reduces it, in place.

        Only the relay rows are eliminated.  The held rows E_D span the
        kernel of the projection that zeroes the columns D, so the pattern
        has rank |D| + rank(relay'), where relay' is relay with those
        columns zeroed, and it spans e_j iff j is in D or relay' spans e_j.
        """
        held = direct != 0
        np.copyto(relay, 0, where=held[:, None, :])
        rank = batch_rank(relay, self.field)  # leaves relay reduced for unit_spans
        if self.unicast:
            return ~(held | unit_spans(relay))
        short = rank + held.sum(axis=1) < self.n
        return np.broadcast_to(short[:, None], held.shape)


def _pattern_key(scn: Scenario) -> _PatternKey:
    """The key layout of a dncc/rncc/selection scenario.  A relay row entry
    is a per-trial rncc coefficient (an l-bit symbol), or a fixed code entry
    that is in the row or not (a 1-bit symbol)."""
    n, m = scn.n_sources, scn.n_relays
    unicast = scn.traffic == "unicast"
    if scn.scheme == "rncc":
        return _PatternKey(scn.field, np.ones((m, n), dtype=np.int64),
                           scn.field.ell, unicast)
    return _PatternKey(scn.code.field, scn.code.relay_block.to_array().astype(np.int64),
                       1, unicast)


def _blockwise(count, fails_of):
    """Concatenate fails_of(lo, hi) over [0, count) in RANK_BLOCK slices,
    which bounds the size of the matrix stacks in flight."""
    return np.concatenate([fails_of(lo, min(lo + RANK_BLOCK, count))
                           for lo in range(0, count, RANK_BLOCK)])


def _fold_bottleneck(h, g):
    """Fold one gain block g of B trials, shaped (B, L, M) with L links per
    relay, into the (M, B) bottleneck rows h, in place: h[i] becomes the
    minimum of h[i] and g[:, :, i].  An sr block (B, N, M) folds as it is, an
    rd block (B, M, N) as its view g.transpose(0, 2, 1).  From h = inf,
    folding both blocks gives each relay's bottleneck gain, the min over its
    2N adjacent links.  Folding one contiguous row per relay beats a
    reduction along the short source axis."""
    for i, row in enumerate(h):
        for k in range(g.shape[1]):
            np.minimum(row, g[:, k, i], out=row)


def _kept_relays(h, k):
    """(M, B) bool: keep[i, b] says selection keeps relay i in trial b.
    It keeps the k best relays by bottleneck gain h[i, b] (min over the 2N
    adjacent links), ties toward the lower index: a relay is kept iff fewer
    than k relays rank ahead of it.  For k = 1 that is argmax's rule, the
    first relay of the largest gain."""
    m = h.shape[0]
    keep = np.empty(h.shape, dtype=bool)
    for i in range(m):
        ahead = np.zeros(h.shape[1], dtype=np.intp)
        for t in range(m):  # t ranks ahead on a higher gain, or on a tie at t < i
            if t != i:
                ahead += h[t] >= h[i] if t < i else h[t] > h[i]
        np.less(ahead, k, out=keep[i])
    return keep


def _selected_links(scn, ok_sr, h):
    """ok_sr with the source->relay links of every relay that selection
    drops (_kept_relays on the bottleneck gains h) taken down.  A relay that
    heard no source never transmits, under strategy A and B alike, so
    _decide then treats a dropped relay as an unselected one.  ok_sr itself
    for other schemes, which need no h."""
    if scn.scheme != "selection":
        return ok_sr
    return ok_sr & _kept_relays(h, scn.k_select).T[:, None, :]


def _decide(scn, ok_sr, ok_sd, ok_rd, coeffs, key):
    """(B, N) boolean failure flags of B trials from their link states.

    `scn` and `key` are a _plan's: the scenario as decided (ncc as
    _ncc_as_selection(scn)) and its _pattern_key, None for cc, which needs
    none.  `coeffs` are rncc's (B, M, N) coefficients; the other schemes
    ignore them.  Selection reaches the decide as its dropped relays'
    source->relay links taken down (_selected_links).
    """
    n, m = scn.n_sources, scn.n_relays
    nb = ok_sr.shape[0]
    if scn.scheme == "cc":
        # repetition: j needs its direct link, or a relay that decoded
        # source j and reaches j; an OR-fold over the relays beats .any()
        fails = np.empty((nb, n), dtype=bool)
        for j in range(n):
            relayed = ok_sr[:, j, 0] & ok_rd[:, 0, j]
            for i in range(1, m):
                relayed |= ok_sr[:, j, i] & ok_rd[:, i, j]
            fails[:, j] = ~(ok_sd[:, j, j] | relayed)
        return fails

    # a relay sends once it decoded all N sources (A) or any (B); one
    # contiguous row per relay, folded over the short source axis, beats
    # ops whose inner axis is that short axis
    merge = np.logical_and if scn.strategy == "A" else np.logical_or
    heard = np.empty((m, nb), dtype=bool)       # heard[i, b]
    for i in range(m):
        heard[i] = ok_sr[:, 0, i]
        for k in range(1, n):
            merge(heard[i], ok_sr[:, k, i], out=heard[i])
    if scn.strategy == "A":
        keep = np.broadcast_to(True, (nb, m, n))
    else:
        keep = ok_sr.transpose(0, 2, 1)         # keep[b, i, k] = relay i decoded k

    # decide each distinct arrival pattern once: read narrow keys off the
    # layout's outcome table ("table"), else rank the chunk's distinct
    # canonical keys ("unique"); patterns too wide for an int64 are ranked
    # one by one ("wide").  Outside the table, a (trial, j) pair settled by
    # its direct rows (e_j in unicast, all N in multicast) reads success, so
    # only the open pairs are deduped and ranked, or gathered and ranked.
    if scn.scheme != "rncc":
        sym = keep
    else:  # under A every relay that sends sends its whole row
        sym = coeffs if scn.strategy == "A" else np.where(keep, coeffs, 0)
    if key.bits > KEY_BITS:
        if key.unicast:
            settled = np.diagonal(ok_sd, axis1=1, axis2=2)  # ok_sd[b, j, j]
        else:
            settled = ok_sd.all(axis=1)
        flat_b, flat_j = np.nonzero(~settled)
        fails = np.zeros((nb, n), dtype=bool)
        if len(flat_b):
            relay = np.empty((nb, m, n), dtype=key.field.dtype)
            np.multiply(sym, key.scale, out=relay, casting="unsafe")
            deliver = heard.T[:, :, None] & ok_rd  # deliver[b, i, j]

            def fails_of(lo, hi):
                b, j = flat_b[lo:hi], flat_j[lo:hi]
                rows = np.where(deliver[b, :, j][:, :, None], relay[b], 0)
                return key.fails(ok_sd[b, :, j], rows)[np.arange(hi - lo), j]

            fails[flat_b, flat_j] = _blockwise(len(flat_b), fails_of)
        return fails

    keys = key.pack(ok_sd, heard, ok_rd, sym).T  # (N, B): one contiguous row per j
    fails = np.zeros((n, nb), dtype=bool)
    if key.outcomes is not None:
        # one 1-D gather per destination beats a 2-D one, and take reads a
        # uint16 index faster than [] does
        for j in range(n):
            key.outcomes[:, j].take(keys[j], out=fails[j])
        return fails.T
    # the direct bits that settle (trial, j), read off the keys
    need = (1 << np.arange(n) if key.unicast else np.full(n, (1 << n) - 1))[:, None]
    at = np.flatnonzero((keys & need) != need)  # open pairs' flat (j, b) positions, j-major
    if not len(at):
        return fails.T
    # drop_covered is cheap on every open key, peeling only on the distinct ones
    distinct, index = np.unique(key.drop_covered(keys.ravel()[at]), return_inverse=True)
    distinct, canon = np.unique(key.canonical(distinct), return_inverse=True)
    table = _blockwise(len(distinct),
                       lambda lo, hi: key.fails(*key.unpack(distinct[lo:hi])))
    index = canon[index]
    bounds = np.searchsorted(at, np.arange(n + 1) * nb)
    flat = fails.ravel()  # a view of the (N, B) flags
    for j in range(n):
        lo, hi = bounds[j], bounds[j + 1]
        flat[at[lo:hi]] = table[:, j].take(index[lo:hi])
    return fails.T


def _failure_table(scn, key):
    """The outcome of every link state of a scenario whose L = NM + N^2 + MN
    links fit TABLE_BITS, as a (2**L, N + 1) bool array: row s holds the
    failure flags of state s (link l up iff bit l of s is set, links in
    _state_keys order), then whether any destination fails, decided with
    _plan's key.  A selection scenario looks up its states after
    _selected_links has taken its dropped relays' links down.  None for rncc, whose relay rows vary per trial, and for wider
    networks: those are decided per trial."""
    n, m = scn.n_sources, scn.n_relays
    links = n * m + n * n + m * n
    if scn.scheme == "rncc" or links > TABLE_BITS:
        return None
    up = ((np.arange(1 << links)[:, None] >> np.arange(links)) & 1).astype(bool)
    ok_sr, ok_sd, ok_rd = np.split(up, [n * m, n * m + n * n], axis=1)
    fails = _decide(scn, ok_sr.reshape(-1, n, m), ok_sd.reshape(-1, n, n),
                    ok_rd.reshape(-1, m, n), None, key)
    return np.column_stack([fails, fails.any(axis=1)])


def _state_keys(ok_sr, ok_sd, ok_rd):
    """Each trial's link states as a uint16 key (TABLE_BITS <= 16): bit l is
    link l of the flattened ok_sr (k, i), then ok_sd (k, j), then ok_rd (i, j)."""
    nb = ok_sr.shape[0]
    keys = np.zeros(nb, dtype=np.uint16)
    bit = 0
    for ok in (ok_sr, ok_sd, ok_rd):
        for col in ok.reshape(nb, -1).T:  # column by column beats packbits
            keys += col * np.uint16(1 << bit)
            bit += 1
    return keys


def _drop_relay_states(keys, keep, n_sources):
    """_state_keys `keys` with the source->relay bits (k, i), bit k*M + i,
    of every relay i that keep[i] drops cleared: the keys of the states
    _selected_links gives, from one mask per relay."""
    m = keep.shape[0]
    out = keys.copy()
    for i in range(m):
        mask = np.uint16(sum(1 << (k * m + i) for k in range(n_sources)))
        out &= ~mask | keep[i] * mask
    return out


def _fail_counts(fails):
    """(per-destination failures, trials where any destination fails) of
    (B, N) flags; per-column counts and an OR-fold beat sum/any along the
    short axis."""
    n = fails.shape[1]
    any_fail = fails[:, 0].copy()
    for j in range(1, n):
        any_fail |= fails[:, j]
    return [np.count_nonzero(fails[:, j]) for j in range(n)], np.count_nonzero(any_fail)


def _ncc_as_selection(scn: Scenario) -> Scenario:
    """The selection scenario that decides exactly as ncc does: the best
    relay (k=1) forwards the XOR of all N packets once it decoded them all
    (strategy A).  It draws the same gains and no coefficients."""
    n, gf2 = scn.n_sources, field_new(1)
    xor = FfMatrix.identity(gf2, n).vstack(FfMatrix(gf2, [[1] * n] * scn.n_relays))
    return replace(scn, scheme="selection", code=build_explicit(xor), k_select=1)


def _chunk_counts(plans, grid_index: int, chunk_index: int, count: int):
    """Per-scenario (dest, system) error counts of one chunk; `plans` are
    the scenarios' _plan triples.  The chunk is drawn once
    for all scenarios; the draw is an rncc scenario's when there is one, so
    its coefficients continue the stream exactly as a lone rncc sweep's
    would, and the other schemes never read them.  The scenarios share one
    rate, so the draw thresholds the links once, slice by slice, and folds
    the relays' bottleneck gains when a scenario selects.  A scenario with
    a table counts the chunk's link-state keys, packed once for all of them
    (selection clears its dropped relays' bits from them), and reads its
    counts off the table; the others decide every trial."""
    drawer = next((s for s, *_ in plans if s.scheme == "rncc"), plans[0][0])
    rng = chunk_rng(drawer.seed, grid_index, chunk_index)
    tau = tau_for(drawer.snr_grid[grid_index], drawer.rate_r0)
    selects = any(s.scheme == "selection" for s, *_ in plans)
    ok_sr, ok_sd, ok_rd, coeffs, h = draw_chunk(drawer, rng, count, tau, selects)
    keys, counts = None, []
    for scn, table, key in plans:
        if table is None:
            sr = _selected_links(scn, ok_sr, h)
            counts.append(_fail_counts(_decide(scn, sr, ok_sd, ok_rd, coeffs, key)))
            continue
        if keys is None:
            keys = _state_keys(ok_sr, ok_sd, ok_rd)
        states = keys
        if scn.scheme == "selection":  # its dropped relays' links taken down
            states = _drop_relay_states(keys, _kept_relays(h, scn.k_select), scn.n_sources)
        dest_sys = np.bincount(states, minlength=len(table)) @ table
        counts.append((dest_sys[:-1], int(dest_sys[-1])))
    return counts


def _plan(scn):
    """(scn, table, key): a scenario's decide state, built once per sweep
    and shipped with every chunk task.  `scn` is the scenario as decided
    (ncc as _ncc_as_selection(scn)), `key` its _pattern_key (None for cc)
    and `table` its _failure_table, decided with that key (None where the
    links do not fit one)."""
    if scn.scheme == "ncc":
        scn = _ncc_as_selection(scn)
    key = None if scn.scheme == "cc" else _pattern_key(scn)
    return scn, _failure_table(scn, key), key


def _sweep_task(args):
    plans, grid_index, chunk_index, count = args
    return grid_index, _chunk_counts(plans, grid_index, chunk_index, count)


def _check_shared(scenarios) -> None:
    """Scenarios of one sweep must draw and threshold identical chunks."""
    if not scenarios:
        raise ValueError("run_sweep needs at least one scenario")
    first = scenarios[0]
    for name in ("seed", "n_sources", "n_relays", "snr_grid", "trials", "beta", "rate_r0"):
        if any(getattr(s, name) != getattr(first, name) for s in scenarios):
            raise ValueError(f"scenarios of one sweep must share {name}")
    if len({s.field.order for s in scenarios if s.scheme == "rncc"}) > 1:
        raise ValueError("rncc scenarios of one sweep must share field order")


def run_sweep(scn, workers: int = 1):
    """Simulate every grid point; deterministic in (scenario, CHUNK_TRIALS)
    and independent of `workers`, which caps the worker processes: no more
    start than there are (grid point, chunk) tasks or CPUs this process
    may run on, as a pool starts all of them at once.

    `scn` is one Scenario, which gives one OutageReport, or a sequence of
    them, which gives a tuple of OutageReports in the same order.  The
    scenarios of one call share each chunk's draw (common random numbers,
    as RNG contract v1 already implies for equal seeds) and threshold, so
    they must agree on seed, sizes, grid, trials, beta and rate, and rncc
    ones on field order; every report equals the one a separate call gives."""
    check_integers(workers=workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    single = isinstance(scn, Scenario)
    scenarios = (scn,) if single else tuple(scn)
    _check_shared(scenarios)
    first = scenarios[0]
    grid, trials = first.snr_grid, first.trials
    plans = tuple(map(_plan, scenarios))  # travels with each task
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    tasks = [(plans, g, c, min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS))
             for g in range(len(grid)) for c in range(n_chunks)]
    dest_tot = np.zeros((len(scenarios), len(grid), first.n_sources), dtype=np.int64)
    sys_tot = np.zeros((len(scenarios), len(grid)), dtype=np.int64)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(tasks), cpus)
    if workers == 1:
        results = list(map(_sweep_task, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks,
                                    chunksize=max(1, len(tasks) // (workers * 4))))
    for g, counts in results:
        for s, (dest, system) in enumerate(counts):
            dest_tot[s, g] += dest
            sys_tot[s, g] += system
    reports = tuple(
        OutageReport(scenario, tuple(
            SweepPoint(grid[g], tuple(int(v) for v in dest_tot[s, g]),
                       int(sys_tot[s, g]), trials)
            for g in range(len(grid))))
        for s, scenario in enumerate(scenarios))
    return reports[0] if single else reports


# -- selection-rule sampling ---------------------------------------------------


def selected_link_gain_cdf(n: int, m: int, beta: float, taus, trials: int,
                           seed: int = 0) -> np.ndarray:
    """Empirical P(g <= tau) where g is one adjacent-link gain of the relay
    with the best bottleneck (min over its 2N adjacent links).

    Vectorized sampling oracle for selection_cdf_approx in analytic.  Each
    chunk of at most CDF_CHUNK trials draws its (B, M, 2N) gains from its
    own Philox stream and picks the relay by the sweep's rule:
    _fold_bottleneck, then _kept_relays with k = 1, which keeps the first
    relay of the best bottleneck on a tie.  g is that relay's first gain.
    Raises ValueError on the inputs a Scenario rejects and on a nan in
    `taus`; an infinite or negative tau is a CDF point (1 or 0).
    """
    _check_run(n, m, trials, seed)
    check_positive("beta", float(beta))
    taus = np.asarray(taus, dtype=float)
    if np.isnan(taus).any():  # g <= nan is false: it would read as P = 0
        raise ValueError("taus must not hold nan")
    counts = np.zeros(taus.shape, dtype=np.int64)
    done = 0
    ci = 0
    while done < trials:
        nb = min(CDF_CHUNK, trials - done)
        rng = chunk_rng(seed, 0, ci)
        gains = rng.standard_exponential((nb, m, 2 * n))
        if beta != 1.0:
            gains /= beta
        h = np.full((m, nb), np.inf)
        _fold_bottleneck(h, gains.transpose(0, 2, 1))
        g = gains[:, :, 0][_kept_relays(h, 1).T]
        counts += (g[None, :] <= taus[..., None]).sum(axis=-1)
        done += nb
        ci += 1
    return counts / trials
