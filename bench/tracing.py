"""Span tracing from outside the package, and the per-layer metrics it yields.

`Tracer.install()` replaces public module and class attributes of coopcode
with timing wrappers; `uninstall()` puts the originals back.  A span is
``[name, start, end, parent, leaf_s]``: `parent` indexes the enclosing span
(-1 at the root) and `leaf_s` is the time spent in leaf calls made directly
from it.  `Field.mul` is a leaf: it runs about 730 000 times per
code_analyze round, so it is counted and timed but gets no span record of
its own.  Spans stay in memory until the caller writes them out.
"""

from collections import Counter
from time import perf_counter

SUBSET_METRICS = ("ffmat.kruskal_rank", "ffmat.gamma_rank", "ffmat.lambda_rank")
BUILDS = ("netcode.build_cauchy", "netcode.build_vandermonde",
          "netcode.build_random", "netcode.build_explicit")
BOUNDS = ("analytic.outage_bounds_multicast", "analytic.outage_bounds_unicast")
DECIDE = "simkernel.decide"  # derived span, see decide_spans()


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.draw_bytes = 0
        self._saved = []

    # -- wrappers -------------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        return orig

    def wrap(self, owner, attr, name, on_result=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        orig = None

        def wrapper(*args, **kwargs):
            counts[name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        orig = self._replace(owner, attr, wrapper)

    def wrap_leaf(self, owner, attr, name):
        spans, stack, counts = self.spans, self.stack, self.counts
        orig = None

        def wrapper(*args):
            t0 = perf_counter()
            result = orig(*args)
            dt = perf_counter() - t0
            counts[name] += 1
            if stack:
                spans[stack[-1]][4] += dt
            return result

        orig = self._replace(owner, attr, wrapper)

    def _count_draw(self, arrays):
        self.draw_bytes += sum(a.nbytes for a in arrays if a is not None)

    def install(self):
        from coopcode import analytic, cli, netcode, simkernel
        from coopcode.ffmat import FfMatrix
        from coopcode.gf import Field

        self.wrap(cli, "main", "cli.main")
        self.wrap(simkernel, "run_sweep", "simkernel.run_sweep")
        self.wrap(simkernel, "chunk_rng", "simkernel.chunk_rng")
        self.wrap(simkernel, "draw_chunk", "simkernel.draw_chunk",
                  on_result=self._count_draw)
        for attr in ("rank", "kruskal_rank", "gamma_rank", "lambda_rank"):
            self.wrap(FfMatrix, attr, "ffmat." + attr)
        for name in BUILDS:
            self.wrap(netcode, name.split(".")[1], name)
        for name in BOUNDS:
            self.wrap(analytic, name.split(".")[1], name)
        self.wrap_leaf(Field, "mul", "gf.mul")

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def take(self):
        """Return (spans, counts, draw_bytes) recorded so far and reset."""
        if self.stack:
            raise RuntimeError("take() while spans are open")
        out = (self.spans[:], Counter(self.counts), self.draw_bytes)
        self.spans.clear()
        self.counts.clear()
        self.draw_bytes = 0
        return out


# -- analysis -------------------------------------------------------------------


def decide_spans(spans):
    """Add one derived `simkernel.decide` span per chunk, in place.

    At one worker run_sweep handles chunks in order, so a chunk's decide
    stage is the gap from the end of its draw_chunk to the next chunk's
    chunk_rng, or to the end of run_sweep for the last chunk.  Real spans
    that fall inside a gap are re-parented under its decide span.
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    for i, s in enumerate(list(spans)):
        if s[0] != "simkernel.run_sweep":
            continue
        kids = sorted(children.get(i, []), key=lambda k: spans[k][1])
        starts = [spans[k][1] for k in kids if spans[k][0] == "simkernel.chunk_rng"]
        starts.append(s[2])
        draws = [k for k in kids if spans[k][0] == "simkernel.draw_chunk"]
        for k, end in zip(draws, starts[1:]):
            d = len(spans)
            spans.append([DECIDE, spans[k][2], end, i, 0.0])
            for c in kids:
                if spans[c][0] not in ("simkernel.chunk_rng", "simkernel.draw_chunk") \
                        and spans[k][2] <= spans[c][1] and spans[c][2] <= end:
                    spans[c][3] = d
    return spans


def self_times(spans):
    """Per-span self time: duration minus child spans and leaf calls."""
    own = [s[2] - s[1] - s[4] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans, names):
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def check_partition(spans, own, rel=1e-9):
    """Within each run_sweep span, the self times of the span and all its
    descendants (leaf time included) must add up to its duration, and none
    may be negative (which would mean overlapping children)."""
    depth = []
    for s in spans:
        d, p = 0, s[3]
        while p >= 0:
            d, p = d + 1, spans[p][3]
        depth.append(d)
    subtree = [s[4] + o for s, o in zip(spans, own)]
    for i in sorted(range(len(spans)), key=depth.__getitem__, reverse=True):
        if spans[i][3] >= 0:
            subtree[spans[i][3]] += subtree[i]
    tol = rel * max((s[2] - s[1] for s in spans), default=0.0)
    return all(o >= -tol for o in own) and all(
        abs(subtree[i] - (s[2] - s[1])) <= tol
        for i, s in enumerate(spans) if s[0] == "simkernel.run_sweep"
    )


def round_layers(spans, counts, draw_bytes):
    """The per-layer numbers of one traced round."""
    decide_spans(spans)
    own = self_times(spans)

    def self_sum(name):
        return sum(o for s, o in zip(spans, own) if s[0] == name)

    def durs(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    draw = []
    for i, s in enumerate(spans):
        if s[0] == "simkernel.chunk_rng":
            nxt = [t for t in spans[i + 1:i + 3] if t[0] == "simkernel.draw_chunk"]
            if nxt:
                draw.append(nxt[0][2] - s[1])
    sweep_s = sum(durs("simkernel.run_sweep"))
    return {
        "gf.mul_calls": counts["gf.mul"],
        "ffmat.rank_calls": counts["ffmat.rank"],
        "ffmat.rank_s": self_sum("ffmat.rank"),
        "ffmat.subset_metric_s": _outermost(spans, SUBSET_METRICS),
        "netcode.build_s": _outermost(spans, BUILDS),
        "analytic.bounds_s": _outermost(spans, BOUNDS),
        "simkernel.chunks": counts["simkernel.chunk_rng"],
        "simkernel.draw_mb": draw_bytes / 1e6,
        "simkernel.reduce_s": self_sum("simkernel.run_sweep"),
        "simkernel.sweep_s": sweep_s,
        "simkernel.draw_s": sum(draw),
        "cli.self_s": self_sum("cli.main"),
        "draw_ms": [d * 1e3 for d in draw],
        "decide_ms": [d * 1e3 for d in durs(DECIDE)],
        "partition_ok": check_partition(spans, own),
    }
