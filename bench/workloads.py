"""The benchmark's workloads: fixed CLI command mixes built from a seed.

Each workload is a list of `Cmd`s.  One *round* runs every command of the
list once, in order, through ``coopcode.cli.main``.  The trial budgets and
grids are constants of the benchmark (not of the program), so a change to
``CHUNK_TRIALS`` or any other program constant cannot silently change how
much work a round does.
"""

from dataclasses import dataclass

DEFAULT_SEED = 1  # the seed the committed digests in digests.json belong to


@dataclass(frozen=True)
class Cmd:
    """One ``coopcode`` invocation; `opts` maps flag names to values."""

    command: str
    opts: tuple  # ((flag, value), ...) in argv order

    @property
    def o(self) -> dict:
        return dict(self.opts)

    def argv(self) -> list:
        out = [self.command]
        for key, val in self.opts:
            out += ["--" + key.replace("_", "-"), str(val)]
        return out

    @property
    def label(self) -> str:
        return " ".join(self.argv())

    # -- simulate-only views -------------------------------------------------

    @property
    def is_sweep(self) -> bool:
        return self.command == "simulate"

    def grid_db(self) -> list:
        o = self.o
        start, stop, step = o["snr_start_db"], o["snr_stop_db"], o["snr_step_db"]
        return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]

    def schemes(self) -> list:
        return self.o["scheme"].split(",")

    def trial_points(self) -> int:
        """Trial x SNR-point pairs one run of this command simulates."""
        if not self.is_sweep:
            return 0
        return len(self.schemes()) * len(self.grid_db()) * self.o["trials"]


def _cmd(command, **opts):
    return Cmd(command, tuple(opts.items()))


def _sweep(seed, *, scheme, traffic, n, m, q, strategy, trials, grid):
    start, stop, step = grid
    return _cmd("simulate", scheme=scheme, traffic=traffic, n=n, m=m, q=q,
                strategy=strategy, trials=trials, seed=seed,
                snr_start_db=start, snr_stop_db=stop, snr_step_db=step)


FULL_GRID = (5, 25, 5)     # 5 points, the README's 5-25 dB comparison range
COARSE_GRID = (5, 25, 10)  # 3 points, for the expensive large-code sweeps


def sweep_counting(seed):
    # Certified code + strategy A: every dncc chunk takes the counting fast
    # path and ncc/cc are cheap baselines, so the draw is ~half of a chunk.
    small = dict(n=2, m=2, q=4, strategy="A", trials=32768, grid=FULL_GRID)
    return [
        _sweep(seed, scheme="dncc,ncc,cc", traffic="unicast", **small),
        _sweep(seed, scheme="dncc", traffic="multicast", **small),
    ]


def sweep_elim_small(seed):
    # General batched elimination (_batch_rank) on a tiny pattern space.
    small = dict(n=2, m=2, q=4, trials=16384, grid=FULL_GRID)
    return [
        _sweep(seed, scheme="dncc", traffic="unicast", strategy="B", **small),
        _sweep(seed, scheme="dncc", traffic="multicast", strategy="B", **small),
        _sweep(seed, scheme="rncc", traffic="multicast", strategy="A", **small),
    ]


def sweep_elim_large(seed):
    # The same elimination path on a huge pattern space: 12-row, 6-column
    # GF(16) stacks under strategy B, and per-trial random GF(16) codes.
    return [
        _sweep(seed, scheme="dncc", traffic="multicast", n=6, m=6, q=16,
               strategy="B", trials=4096, grid=COARSE_GRID),
        _sweep(seed, scheme="rncc", traffic="unicast", n=3, m=3, q=16,
               strategy="A", trials=8192, grid=COARSE_GRID),
    ]


def code_analyze(seed):
    # Pure-Python gf/ffmat path: constructions with exhaustive certification
    # and the subset-rank metrics behind the closed-form brackets.  The seed
    # picks the random code and shifts the analyze grid; neither changes the
    # amount of work.
    cmds = []
    for n in (4, 6):
        for kind in ("vandermonde", "cauchy"):
            cmds.append(_cmd("construct", kind=kind, n=n, m=n, q=16))
    cmds.append(_cmd("construct", kind="random", n=6, m=6, q=16, seed=seed))
    start = seed % 5
    for n in (4, 6):
        for traffic in ("multicast", "unicast"):
            cmds.append(_cmd("analyze", traffic=traffic, n=n, m=n, q=16,
                             snr_start_db=start, snr_stop_db=start + 30,
                             snr_step_db=1))
    cmds.append(_cmd("dmt", scheme="dncc,rncc,selection,ncc,cc", n=2, m=2,
                     k_select=2, r_points=101))
    return cmds


WORKLOADS = {
    "sweep_counting": sweep_counting,
    "sweep_elim_small": sweep_elim_small,
    "sweep_elim_large": sweep_elim_large,
    "code_analyze": code_analyze,
}


def setup_spec(cmds) -> dict:
    """What a user pays before the first trial or command of this workload:
    the fields every command needs, the numpy tables the simulator uses,
    and the certified codes the dncc sweeps construct."""
    fields, np_fields, codes = set(), set(), set()
    for c in cmds:
        o = c.o
        if "q" in o:
            fields.add(o["q"])
        if c.is_sweep:
            np_fields.add(o["q"])
            if "dncc" in c.schemes():
                codes.add(("vandermonde", o["n"], o["m"], o["q"]))
    return {"fields": sorted(fields), "np_fields": sorted(np_fields),
            "codes": sorted(codes)}
