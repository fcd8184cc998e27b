"""Command-line batch driver.

Four subcommands cover the full experiment surface:

  construct   build a relay coefficient matrix and print/serialize it
  analyze     closed-form outage bounds over an SNR sweep (CSV)
  simulate    Monte Carlo outage sweeps for any scheme mix (CSV)
  dmt         diversity-multiplexing tradeoff curves on an r grid (CSV)

Conventions: SNR is given in dB and converted internally to linear
rho = 10**(dB/10).  Rates can be given per packet (--r0) or as the
system rate (--rate) of the N+M-slot dncc/rncc schedule; every scheme of
a command then runs at r0 = rate*(N+M)/N, also those with other
schedules.  A flat ``key=value`` config file can seed any flag; explicit
flags win.  All CSV output is deterministic for a fixed configuration,
including across --workers settings.  Every input error exits with
status 2, and a message naming the violated bound, before any field,
code, row, curve or trial is built.
"""

import argparse
import functools
import math
import sys

import numpy as np

from . import analytic, netcode
from .ffmat import SUBSET_ROW_CAP
from .gf import MAX_ELL, field_ell, field_new

KIND_CHOICES = ("vandermonde", "cauchy", "random")
FMT = "{:.10g}"
MAX_GRID_POINTS = 10 ** 6  # SNR and r grids are refused beyond this many points
GRID_BLOCK = 4096  # grid points per array evaluation in analyze and dmt; bounds their memory


def _die(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(lines: list, out: str | None) -> None:
    """_emit the lines, each ended by a newline.  The list is emptied once
    the text is joined, so a long grid's rows are never held together with
    both the text and the bytes it is written as."""
    lines.append("")
    text = "\n".join(lines)
    lines.clear()
    _emit(text, out)


def _read_config(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv.  --config entries go into this call's namespace (never
    into a parser), where flags override them and defaults fill the rest;
    unrecognized arguments are reported after the config file is checked."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if getattr(args, "config", None):
        sub = parser.commands[args.command]
        given = argparse.Namespace(command=args.command)
        for key, val in _read_config(args.config).items():
            if key not in sub.flags:
                raise ValueError(f"unknown config key {key!r}")
            act = sub.flags[key]
            try:
                parsed = act.type(val) if act.type else val
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
            if act.choices and parsed not in act.choices:
                raise ValueError(
                    f"config key {key!r}: {val!r} not one of {', '.join(map(str, act.choices))}"
                )
            setattr(given, key, parsed)
        args, _ = sub.parse_known_args(argv[argv.index(args.command) + 1:], given)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _field_for(q: int | None, n: int, m: int):
    """GF(q) for the run; defaults to the smallest field that admits every
    construction for (N, M), i.e. 2**ell >= N+M+1."""
    if q is None:
        q = 1 << max(1, math.ceil(math.log2(n + m + 1)))
    return field_new(field_ell(q))


def _build_code(kind: str | None, n: int, m: int, field, seed: int | None):
    """The --kind code; vandermonde when --kind is not given (None), and a
    random code's seed is 0 when --seed is not given (None)."""
    if kind == "cauchy":
        return netcode.build_cauchy(n, m, field)
    if kind == "random":
        return netcode.build_random(n, m, field, seed or 0)
    return netcode.build_vandermonde(n, m, field)


def _power(base: float, exponent: float, flag: str) -> float:
    """base**exponent, or a ValueError naming `flag` where it overflows a
    float: above about 3082.5 dB for an SNR, from r0 = 1024 on for 2**r0."""
    try:
        return base ** exponent
    except OverflowError:
        raise ValueError(f"--{flag} is too large: {base:g}**{exponent:g} overflows a float") from None


def _inputs(args) -> tuple:
    """Check every input of the command before any work, and return what
    the checks derive: the scheme list, the per-packet rate r0 (of --r0,
    or of --rate as rate*(N+M)/N) and the SNR grid in dB and linear, each
    None where the command has none.

    A ValueError names the first input at fault, in this order: --q,
    --seed, --workers, --n, the rate, --m, --trials, --beta, the schemes,
    --k-select, --r-points and dmt's --gamma; the SNR grid in dB; analyze's
    --gamma or --lam, --m and 24-row cap; where a field is built, N+M
    against the largest default field, and --q where a code is built; the
    grid in linear SNR; a scheme the traffic mode does not
    support; 2**r0; and last a flag the command would not read (a config
    entry counts as given), so that an error in an input it reads keeps
    its message."""
    cmd, n, m = args.command, args.n, args.m
    sweep = cmd in ("analyze", "simulate")

    def at_least(flag, low=1):
        if getattr(args, flag) < low:
            raise ValueError(f"--{flag} must be >= {low}, got {getattr(args, flag)}")

    q = getattr(args, "q", None)
    if q is not None:
        try:
            field_ell(q)
        except ValueError:
            raise ValueError(f"--q must be a power of two with 2 <= q <= 2**{MAX_ELL}, "
                             f"got {q}") from None
    if (getattr(args, "seed", None) or 0) < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if cmd == "simulate":
        at_least("workers")
    at_least("n")
    schemes = r0 = grid_db = grid_rho = None
    if sweep:
        if args.r0 is not None and args.rate is not None:
            raise ValueError("give either --r0 or --rate, not both")
        flag, value = ("rate", args.rate) if args.rate is not None else ("r0", args.r0)
        r0 = 1.0
        if value is not None:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"--{flag} must be finite and positive, got {value:g}")
            r0 = value * (n + m) / n if flag == "rate" else value
            if not math.isfinite(r0):
                raise ValueError(f"--rate {value:g} gives a per-packet rate r0 = rate*(N+M)/N "
                                 f"that overflows a float")
    if cmd != "analyze":  # analyze's --m bound depends on its threshold flags, below
        at_least("m")
    if cmd == "simulate":
        at_least("trials")
    if sweep and not (math.isfinite(args.beta) and args.beta > 0):
        raise ValueError(f"--beta must be finite and positive, got {args.beta:g}")

    if cmd != "construct":
        schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
        if not schemes:
            raise ValueError(f"--scheme must name at least one of "
                             f"{', '.join(analytic.SCHEMES)}, got {args.scheme!r}")
        for s in schemes:
            if s not in analytic.SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {', '.join(analytic.SCHEMES)}")
    if cmd == "analyze":
        for s in schemes:
            if s not in ("dncc", "rncc"):
                raise ValueError(f"analyze covers the coded schemes dncc/rncc, not {s!r}")
    elif cmd != "construct":  # --k-select: given exactly where selection reads it, in [1, M]
        k = args.k_select
        if "selection" not in schemes:
            if k is not None:
                raise ValueError("--k-select applies only to scheme selection, "
                                 "which is not in --scheme")
        elif k is None:
            raise ValueError("--k-select must be given for scheme selection")
        elif not 1 <= k <= m:
            raise ValueError(f"--k-select must be in [1, M] = [1, {m}], got {k}")
    if cmd == "dmt":
        if args.r_points < 2:
            raise ValueError(f"--r-points must be >= 2, got {args.r_points}")
        if args.r_points > MAX_GRID_POINTS:
            raise ValueError(f"--r-points must be <= {MAX_GRID_POINTS}, got {args.r_points}")
        if args.gamma is not None and {"dncc", "rncc"} & set(schemes):
            if not n <= args.gamma <= n + m:
                raise ValueError(f"--gamma must be in [{n}, {n + m}], got {args.gamma}")

    if sweep:
        start, stop, step = args.snr_start_db, args.snr_stop_db, args.snr_step_db
        if stop is None:
            stop = start
        for flag, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"--snr-{flag}-db must be finite, got {value}")
        if step <= 0:
            raise ValueError(f"--snr-step-db must be positive, got {step:g}")
        if stop < start:
            raise ValueError(f"--snr-stop-db must be >= --snr-start-db = {start:g}, got {stop:g}")
        if (stop - start + 1e-9) / step >= MAX_GRID_POINTS:
            raise ValueError(f"--snr-step-db gives more than {MAX_GRID_POINTS} grid points "
                             f"from {start} to {stop} dB")
        grid_db = []
        i = 0
        while (db := start + i * step) <= stop + 1e-9:
            grid_db.append(db)
            i += 1

    builds_code = cmd == "construct"
    if cmd == "simulate":
        builds_code = bool({"dncc", "selection"} & set(schemes))
    if cmd == "analyze":
        threshold, stray = ("gamma", "lam") if args.traffic == "multicast" else ("lam", "gamma")
        given = getattr(args, threshold)
        if getattr(args, stray) is not None:
            raise ValueError(f"--{stray} does not apply to {args.traffic} traffic")
        at_least("m", 0 if given is not None else 1)
        if given is not None:
            low, low_name = (n, "N") if threshold == "gamma" else (1, "1")
            if not low <= given <= n + m:
                raise ValueError(f"--{threshold} must be in [{low_name}, N+M] = [{low}, {n + m}], "
                                 f"got {given}")
        elif n + m > SUBSET_ROW_CAP:
            raise ValueError(f"--n + --m must be <= {SUBSET_ROW_CAP} where analyze builds a code "
                             f"(give --gamma or --lam), got {n + m}")
        builds_code = given is None
    builds_field = builds_code or (cmd == "simulate" and "rncc" in schemes)
    # the default q, 2**ceil(log2(N+M+1)), must not pass the largest field
    if builds_field and q is None and n + m >= 1 << MAX_ELL:
        raise ValueError(f"--n + --m must be <= {(1 << MAX_ELL) - 1} where a field is built "
                         f"without --q, got {n + m}")
    # vandermonde needs N+M distinct points, cauchy N+M nonzero ones, and a
    # random code takes any field; the default --q admits both
    if builds_code and q is not None and args.kind != "random":
        need, bound = (n + m + 1, "N+M+1") if args.kind == "cauchy" else (n + m, "N+M")
        if q < need:
            raise ValueError(f"--q must be >= {bound} = {need} for a "
                             f"{args.kind or 'vandermonde'} code, got {q}")

    if sweep:
        # rho must be a positive float at every point and strictly increase:
        # below about -3233 dB it underflows to 0, and in the subnormal range
        # just above, close grid points round to one float
        flag = "snr-start-db" if args.snr_stop_db is None else "snr-stop-db"
        grid_rho = [_power(10.0, db / 10.0, flag) for db in grid_db]
        if not grid_rho[0] > 0.0:
            raise ValueError(f"--snr-start-db is too small: 10**{grid_db[0] / 10.0:g} "
                             f"underflows a float to 0")
        for i in range(1, len(grid_rho)):
            if not grid_rho[i] > grid_rho[i - 1]:
                raise ValueError(f"--snr-start-db and --snr-stop-db give grid points "
                                 f"{grid_db[i - 1]!r} and {grid_db[i]!r} dB whose linear SNRs "
                                 f"are one float, {grid_rho[i]:g}")
    if cmd == "simulate" and args.traffic != "unicast":
        for s in schemes:
            if s in ("ncc", "cc"):
                raise ValueError(f"{s} supports unicast traffic only")
    if sweep:  # every threshold tau is (2**r0 - 1)/rho
        _power(2.0, r0, "r0" if args.rate is None else "rate")

    unread = {}  # flag: where the command reads it
    if cmd == "analyze" and not builds_code:
        unread = dict.fromkeys(("q", "kind", "seed"), f"where a code is built, and analyze "
                               f"builds none when --{threshold} is given")
    elif cmd in ("construct", "analyze") and args.kind != "random":
        unread["seed"] = "to --kind random"
    if cmd == "simulate":
        if not builds_code:
            unread["kind"] = "to schemes dncc and selection, neither of which is in --scheme"
        if not builds_field:
            unread["q"] = "to schemes dncc, selection and rncc, none of which is in --scheme"
        if not set(analytic.COOP_SCHEMES) & set(schemes):
            unread["strategy"] = ("to schemes dncc, rncc and selection, none of which is in "
                                  "--scheme")
    if cmd == "dmt" and not {"dncc", "rncc"} & set(schemes):
        unread["gamma"] = "to schemes dncc and rncc, neither of which is in --scheme"
    for flag, where in unread.items():
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies only {where}")
    return schemes, r0, grid_db, grid_rho


# -- subcommands ----------------------------------------------------------------


def cmd_construct(args, *_) -> int:
    code = _build_code(args.kind, args.n, args.m, _field_for(args.q, args.n, args.m), args.seed)
    _emit(netcode.dump_code(code), args.out)
    return 0


def cmd_analyze(args, schemes, r0, grid_db, grid_rho) -> int:
    n, m = args.n, args.m
    if args.traffic == "multicast":
        bound, given = analytic.outage_bounds_multicast, args.gamma
    else:
        bound, given = analytic.outage_bounds_unicast, args.lam
    if given is not None:
        thresholds = [given] * n
    else:
        code = _build_code(args.kind, n, m, _field_for(args.q, n, m), args.seed)
        if args.traffic == "multicast":
            thresholds = [code.matrix.gamma_rank(n)] * n
        else:
            thresholds = [code.matrix.lambda_rank(j) for j in range(n)]

    lines = ["snr_db,scheme,traffic,p0,p_low,p_up,p_system_low,p_system_up"]
    row = ",".join([FMT, "{}", args.traffic] + [FMT] * 5)  # snr_db, scheme, ..., p_system_up
    for lo in range(0, len(grid_rho), GRID_BLOCK):
        lp = analytic.LinkParams(beta=args.beta, rho=np.array(grid_rho[lo:lo + GRID_BLOCK]),
                                 rate_r0=r0, n_sources=n, n_relays=m)
        per = {t: bound(lp, t) for t in set(thresholds)}
        lows = [per[t].lower for t in thresholds]
        ups = [per[t].upper for t in thresholds]
        # sum() adds the per-destination arrays left to right, as it added floats
        columns = (analytic.p0(lp), sum(lows) / n, sum(ups) / n,
                   analytic.system_outage(lows), analytic.system_outage(ups))
        for db, *values in zip(grid_db[lo:lo + GRID_BLOCK], *(c.tolist() for c in columns)):
            lines.extend(row.format(db, s, *values) for s in schemes)
    _emit_csv(lines, args.out)
    return 0


def cmd_simulate(args, schemes, r0, grid_db, grid_rho) -> int:
    n, m = args.n, args.m
    # one field and one code per command, shared by every scheme that uses it
    field = code = None
    if {"dncc", "selection", "rncc"} & set(schemes):
        field = _field_for(args.q, n, m)
    if {"dncc", "selection"} & set(schemes):
        code = _build_code(args.kind, n, m, field, args.seed)
    from . import simkernel  # the one command that sweeps imports the simulator
    scenarios = [simkernel.Scenario(
        scheme=s,
        n_sources=n,
        n_relays=m,
        snr_grid=tuple(grid_rho),
        trials=args.trials,
        seed=args.seed or 0,
        code=code if s in ("dncc", "selection") else None,
        field=field if s == "rncc" else None,
        strategy=(args.strategy or "A") if s in analytic.COOP_SCHEMES else "A",
        traffic=args.traffic,
        beta=args.beta,
        rate_r0=r0,
        k_select=args.k_select if s == "selection" else None,
    ) for s in schemes]
    reports = simkernel.run_sweep(scenarios, workers=args.workers)

    dest_cols = ",".join(f"dest{j}_rate" for j in range(n))
    lines = [f"snr_db,scheme,strategy,traffic,trials,{dest_cols},avg_outage,system_rate,ci95"]
    for s, scn, report in zip(schemes, scenarios, reports):
        for db, pt in zip(grid_db, report.points):
            cells = [FMT.format(db), s, scn.strategy, scn.traffic, str(pt.trials)]
            cells += [FMT.format(r) for r in pt.dest_rates]
            cells += [
                FMT.format(pt.avg_outage),
                FMT.format(pt.system_rate),
                FMT.format(pt.ci95_avg),
            ]
            lines.append(",".join(cells))
    _emit_csv(lines, args.out)
    return 0


def cmd_dmt(args, schemes, *_) -> int:
    lines = ["r,scheme,d"]
    for s in schemes:
        curve = analytic.dmt_curve(
            s, args.n, args.m, gamma_n=args.gamma, k_select=args.k_select
        )
        row = f"{FMT},{s},{FMT}"
        grid = np.linspace(0.0, curve.r_max, args.r_points)
        for lo in range(0, len(grid), GRID_BLOCK):
            block = grid[lo:lo + GRID_BLOCK]
            lines.extend(map(row.format, block.tolist(), curve.at(block).tolist()))
    _emit_csv(lines, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps its own record of what it was built
    from, for --config: `flags` maps each destination to the Action that
    add_argument returned, `commands` each subcommand name to its parser."""

    def __init__(self, *args, **kwargs):
        self.flags, self.commands = {}, {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


def _add_common(p, *, code=False, grid=False, sim=False):
    p.add_argument("--n", type=int, default=2, help="number of sources/destinations N")
    p.add_argument("--m", type=int, default=2, help="number of relays M")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="key=value file; flags override it")
    if code:
        p.add_argument("--q", type=int, default=None,
                       help="field size (power of two); default: smallest admitting N+M+1 points")
        p.add_argument("--seed", type=int, default=None,
                       help="seed of a --kind random code and of simulate's draws (default 0)")
        p.add_argument("--kind", choices=KIND_CHOICES, default=None,
                       help="code construction (default: vandermonde)")
    if grid:
        p.add_argument("--beta", type=float, default=1.0,
                       help="exponential rate of every link gain")
        p.add_argument("--r0", type=float, default=None, help="per-packet rate (bpcu)")
        p.add_argument("--rate", type=float, default=None,
                       help="system rate R (bpcu) of the N+M-slot dncc/rncc schedule: every "
                            "scheme in --scheme runs at r0 = R*(N+M)/N, so selection, ncc "
                            "and cc run at another system rate")
        p.add_argument("--snr-start-db", type=float, default=0.0)
        p.add_argument("--snr-stop-db", type=float, default=None,
                       help="default: same as start (single point)")
        p.add_argument("--snr-step-db", type=float, default=1.0)
    if sim:
        p.add_argument("--strategy", choices=("A", "B"), default=None,
                       help="relay forwards only after decoding all N (A) or any subset (B)")
        p.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials per point")
        p.add_argument("--workers", type=int, default=1, help="worker processes")
        p.add_argument("--k-select", type=int, default=None,
                       help="relays kept by selection (scheme=selection)")


@functools.cache  # one parser per process, built on first use
def build_parser() -> _Parser:
    ap = _Parser(
        prog="coopcode",
        description="Construct relay codes, evaluate outage bounds, and run Monte Carlo sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help_text):
        ap.commands[name] = sub.add_parser(name, help=help_text)
        return ap.commands[name]

    p = command("construct", "build and serialize a relay coefficient matrix")
    _add_common(p, code=True)
    p.set_defaults(fn=cmd_construct)

    p = command("analyze", "closed-form outage bounds over an SNR sweep")
    _add_common(p, code=True, grid=True)
    p.add_argument("--scheme", default="dncc", help="comma-separated scheme labels")
    p.add_argument("--traffic", choices=("multicast", "unicast"), default="multicast")
    p.add_argument("--gamma", type=int, default=None,
                   help="decoding threshold: every gamma received rows give full rank")
    p.add_argument("--lam", type=int, default=None,
                   help="per-destination threshold: every lam rows span the wanted unit vector")
    p.set_defaults(fn=cmd_analyze)

    p = command("simulate", "Monte Carlo outage sweep")
    _add_common(p, code=True, grid=True, sim=True)
    p.add_argument("--scheme", default="dncc", help="comma-separated subset of "
                   + ",".join(analytic.SCHEMES))
    p.add_argument("--traffic", choices=("multicast", "unicast"), default="multicast")
    p.set_defaults(fn=cmd_simulate)

    p = command("dmt", "diversity-multiplexing tradeoff curves")
    _add_common(p)
    p.add_argument("--scheme", default="dncc", help="comma-separated subset of "
                   + ",".join(analytic.SCHEMES))
    p.add_argument("--gamma", type=int, default=None,
                   help="decoding threshold for dncc/rncc (default N, the ideal code)")
    p.add_argument("--k-select", type=int, default=None,
                   help="relays kept by selection (scheme=selection)")
    p.add_argument("--r-points", type=int, default=101,
                   help="samples per scheme from r=0 to that scheme's maximum r")
    p.set_defaults(fn=cmd_dmt)
    return ap


def main(argv=None) -> int:
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        return args.fn(args, *_inputs(args))
    except (ValueError, OSError) as exc:
        return _die(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
