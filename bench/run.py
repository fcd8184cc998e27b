"""coopcode benchmark: one workload, timed from outside the package.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (the directory holding src/coopcode).
Every command of the workload goes through ``coopcode.cli.main`` in this
process, with ``--out`` pointing into bench/out/.  See bench/README.md for
the workloads, the metrics and how to read the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record, with the environment, goes to bench/out/<...>.json.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_PROBES = {0: 7, 1: 3}  # fresh-interpreter set-ups per run, by --trace
MIN_ROUNDS = 3
ORACLE_SAMPLE = 64           # trials per grid point rechecked against run_trial*


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """Runs a workload's commands, times them and keeps the operation tally."""

    def __init__(self, cmds, tmpdir):
        from coopcode import cli
        self.cli = cli
        self.cmds = cmds
        self.path = os.path.join(tmpdir, "out.csv")
        self.ref = [None] * len(cmds)  # first output of each command
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (operation, message)

    def _fail(self, what, message):
        self.failed += 1
        self.problems.append((what, message))

    def check(self, what, problems):
        """Count one checking operation; record its problems."""
        self.attempted += 1
        if problems:
            self._fail(what, "; ".join(problems))

    def run_cmd(self, i, workers=1):
        """Run command i; return its wall time and output (None on failure)."""
        cmd = self.cmds[i]
        argv = cmd.argv() + ["--out", self.path]
        if cmd.is_sweep:
            argv += ["--workers", str(workers)]
        self.attempted += 1
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crashing command is a failed operation
            self._fail(cmd.label, f"raised {exc!r}")
            return perf_counter() - t0, None
        dt = perf_counter() - t0
        if rc != 0:
            self._fail(cmd.label, f"exit status {rc}")
            return dt, None
        with open(self.path, "rb") as fh:
            data = fh.read()
        if self.ref[i] is None:
            self.ref[i] = data
        elif data != self.ref[i]:
            self._fail(cmd.label, f"output differs from the first run (workers={workers})")
        return dt, data

    def round(self, scale, workers=1):
        """Run every command once; return the summed command wall times,
        raw and passed through `scale` command by command."""
        raw = norm = 0.0
        for i in range(len(self.cmds)):
            dt = self.run_cmd(i, workers)[0]
            raw += dt
            norm += scale(dt)
        return raw, norm


def setup_probe(spec):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    from coopcode import simkernel
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "coopcode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "rng_contract": {
            "chunk_trials": simkernel.CHUNK_TRIALS,
            "stream": "Philox(SeedSequence(entropy=seed, spawn_key=(grid_index, "
                      "chunk_index))); gains drawn before coefficients",
        },
    }


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_commit():
    """HEAD of ROOT when ROOT is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


# -- host speed ----------------------------------------------------------------
#
# On a shared host the same round can take 1.7x longer for tens of seconds
# at a time, in process CPU time as much as in wall time, so no statistic
# over one run's rounds separates the program's speed from the host's.  A
# fixed kernel that never calls coopcode is timed between every two
# commands: GF(16) products by log/antilog tables in pure Python (the
# interpreter work of gf and ffmat) plus table gathers and XORs on a
# (1024, 13, 6) int32 stack (the numpy work of the simulator's elimination).
# Each command's time is scaled by TICK_REF_S over the mean of the ticks on
# either side: the time it would take on a host whose tick is TICK_REF_S.



def _gf16_tables():
    exp, log, acc = [0] * 30, [0] * 16, 1
    for i in range(15):
        exp[i] = exp[i + 15] = acc
        log[acc] = i
        acc <<= 1
        if acc & 16:
            acc ^= 0b10011
    return exp, log


_EXP, _LOG = _gf16_tables()
_ROWS = [[(i * 7 + j * 3) % 15 + 1 for j in range(6)] for i in range(12)]
_NP_EXP = np.array(_EXP + [0] * 34, dtype=np.int32)
_NP_LOG = np.array(_LOG, dtype=np.int32)
_STACK = np.random.Generator(np.random.Philox(7)).integers(
    1, 16, size=(1024, 13, 6)).astype(np.int32)
TICK_REF_S = 0.006  # median tick on an idle 2-vCPU Intel Xeon host, Python 3.11, numpy 2.4


def host_tick() -> float:
    exp, log = _EXP, _LOG
    t0 = perf_counter()
    x = 0
    for _ in range(150):
        for row in _ROWS:
            for a in row:
                for b in row:
                    x ^= exp[log[a] + log[b]]
    a = _STACK.copy()
    for c in range(6):
        a ^= _NP_EXP[_NP_LOG[a[:, :, c]][:, :, None] + _NP_LOG[a[:, c, :]][:, None, :]]
    return perf_counter() - t0


# -- the two kinds of run -------------------------------------------------------


def measure(spec, seconds, n_probes, kinds):
    """Run the rounds of `kinds` in turn, rotating the order every pass,
    until `seconds` have passed and MIN_ROUNDS passes are done, with
    `n_probes` set-up probes spread evenly over that time.

    A kind maps a name to a function that takes the scale function and
    returns the raw and the scaled round time (see Bench.round).  Returns
    the scaled times per kind, the probes (set-up time scaled the same
    way) and a record of everything raw."""
    names = list(kinds)
    norm = {k: [] for k in names}
    raw = {k: [] for k in names}
    probes = []
    ticks = [host_tick()]

    def scaled(dt):
        ticks.append(host_tick())
        return dt * TICK_REF_S / ((ticks[-2] + ticks[-1]) / 2)

    def probe():
        p = setup_probe(spec)
        probes.append(dict(p, setup_s=scaled(p["setup_s"]), raw_setup_s=p["setup_s"]))

    t0 = perf_counter()
    passes = 0
    while True:
        elapsed = perf_counter() - t0
        if len(probes) < n_probes and elapsed >= len(probes) * seconds / n_probes:
            probe()
            continue
        if elapsed >= seconds and passes >= MIN_ROUNDS:
            break
        k = passes % len(names)
        for name in names[k:] + names[:k]:
            dt, dt_norm = kinds[name](scaled)
            raw[name].append(dt)
            norm[name].append(dt_norm)
        passes += 1
    while len(probes) < n_probes:
        probe()
    record = {"round_s": raw, "round_s_normalised": norm, "host_tick_s": ticks,
              "setup_probes": probes}
    return norm, probes, record


def run_untraced(bench, cmds, spec, seconds):
    norm, probes, detail = measure(spec, seconds, SETUP_PROBES[0], {"w1": bench.round})
    for i, cmd in enumerate(cmds):  # byte-identical output at 2 workers
        if cmd.is_sweep:
            bench.run_cmd(i, workers=2)
    metrics = {
        "setup_s": (_median([p["setup_s"] for p in probes]), "s"),
        "cmds_per_s": (len(cmds) / _median(norm["w1"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = detail["round_s"]["w1"]
    detail["wall_cmds_per_s"] = len(cmds) / _median(raw)
    detail["wall_round_s_p50_p90"] = [_median(raw), _p90(raw)]
    return metrics, detail


def run_traced(bench, cmds, spec, seconds, spans_path):
    tracer = tracing.Tracer()
    rounds, all_spans = [], []

    def traced_round(scale):
        tracer.install()
        try:
            dt = bench.round(scale)
        finally:
            tracer.uninstall()
        spans, counts, draw_bytes = tracer.take()
        all_spans.append(spans)
        rounds.append(tracing.round_layers(spans, counts, draw_bytes))
        return dt

    kinds = {"plain": bench.round, "traced": traced_round}
    if any(c.is_sweep for c in cmds):
        kinds["w2"] = lambda scale: bench.round(scale, workers=2)
    norm, probes, detail = measure(spec, seconds, SETUP_PROBES[1], kinds)
    plain, traced, w2 = norm["plain"], norm["traced"], norm.get("w2", [])

    for cmd in cmds:
        if cmd.is_sweep:
            bench.check(f"oracle: {cmd.label}", checks.check_oracle(cmd, ORACLE_SAMPLE))

    with gzip.open(spans_path, "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "leaf_s"],
                   "rounds": all_spans}, fh)

    first = rounds[0]
    exact = ("gf.mul_calls", "ffmat.rank_calls", "simkernel.chunks", "simkernel.draw_mb")
    repeat = all(r[k] == first[k] for r in rounds for k in exact)
    draw_ms = [d for r in rounds for d in r["draw_ms"]]
    decide_ms = [d for r in rounds for d in r["decide_ms"]]
    sweep_s = sum(r["simkernel.sweep_s"] for r in rounds)
    trial_points = sum(c.trial_points() for c in cmds)

    def med(key):
        return _median([r[key] for r in rounds])

    metrics = {
        "gf.mul_calls": (first["gf.mul_calls"], "count"),
        "gf.np_tables_s": (_median([p["np_tables_s"] for p in probes]), "s"),
        "ffmat.rank_calls": (first["ffmat.rank_calls"], "count"),
        "ffmat.rank_s": (med("ffmat.rank_s"), "s"),
        "ffmat.subset_metric_s": (med("ffmat.subset_metric_s"), "s"),
        "netcode.build_s": (med("netcode.build_s"), "s"),
        "analytic.bounds_s": (med("analytic.bounds_s"), "s"),
        "simkernel.chunks": (first["simkernel.chunks"], "count"),
        "simkernel.draw_ms_p50": (_median(draw_ms), "ms"),
        "simkernel.draw_ms_p90": (_p90(draw_ms), "ms"),
        "simkernel.decide_ms_p50": (_median(decide_ms), "ms"),
        "simkernel.decide_ms_p90": (_p90(decide_ms), "ms"),
        "simkernel.draw_share": (
            sum(r["simkernel.draw_s"] for r in rounds) / sweep_s if sweep_s else 0.0, "frac"),
        "simkernel.draw_mb": (first["simkernel.draw_mb"], "MB"),
        "simkernel.reduce_s": (med("simkernel.reduce_s"), "s"),
        "simkernel.pool_excess_s": (
            _median(w2) - _median(plain) / 2 if w2 else 0.0, "s"),
        "sweep.trials_per_s": (trial_points / _median(plain), "1/s"),
        "sweep.trials_per_s_w2": (trial_points / _median(w2) if w2 else 0.0, "1/s"),
        "cli.self_s": (med("cli.self_s"), "s"),
        "cli.import_s": (_median([p["import_s"] for p in probes]), "s"),
        "trace.overhead_frac": (_median(traced) / _median(plain) - 1.0, "frac"),
    }
    detail.update({
        "samples": {"draw_ms": len(draw_ms), "decide_ms": len(decide_ms),
                    "traced_rounds": len(rounds)},
        "exact_counts_repeat": repeat,
        "self_times_partition_run_sweep": all(r["partition_ok"] for r in rounds),
        "spans_file": os.path.relpath(spans_path, ROOT),
    })
    return metrics, detail


# -- entry ------------------------------------------------------------------------


def _first_round_checks(bench, cmds, compare_digests):
    """Run each command once (untimed), check its output and, if asked,
    compare its digest with the committed one."""
    for i, cmd in enumerate(cmds):
        _, data = bench.run_cmd(i)
        if data is not None:
            bench.check(f"output: {cmd.label}", checks.check_output(cmd, data))
            if cmd.command == "construct" and cmd.o["kind"] != "random":
                bench.check(f"code metrics: {cmd.label}", checks.check_code_metrics(cmd, data))
    digests = [None if d is None else _sha(d) for d in bench.ref]
    if compare_digests:
        with open(DIGESTS) as fh:
            want = json.load(fh)
        for cmd, got in zip(cmds, digests):
            expected = want.get(cmd.label)
            bench.check(f"digest: {cmd.label}",
                        [] if got == expected else
                        [f"sha256 {got} != committed {expected}"])
    return digests


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="write this workload's output digests for the default "
                         "seed into bench/digests.json, then stop")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coopcode", "__init__.py")):
        print(f"error: no coopcode package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import coopcode
    if os.path.dirname(os.path.dirname(os.path.realpath(coopcode.__file__))) \
            != os.path.realpath(SRC):
        print(f"error: imported coopcode from {coopcode.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    load_start = _loadavg()
    cmds = wl.WORKLOADS[args.workload](args.seed)
    spec = wl.setup_spec(cmds)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    tmpdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        bench = Bench(cmds, tmpdir)
        digests = _first_round_checks(
            bench, cmds, args.seed == wl.DEFAULT_SEED and not args.record_digests)
        if args.record_digests:
            if args.seed != wl.DEFAULT_SEED or bench.failed:
                print("error: record digests from a clean run at the default seed",
                      file=sys.stderr)
                return 2
            table = {}
            if os.path.exists(DIGESTS):
                with open(DIGESTS) as fh:
                    table = json.load(fh)
            table.update({c.label: d for c, d in zip(cmds, digests)})
            with open(DIGESTS, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {len(cmds)} digests for {args.workload}")
            return 0
        if args.trace:
            metrics, detail = run_traced(bench, cmds, spec, args.seconds,
                                         os.path.join(OUT_DIR, stem + ".spans.json.gz"))
        else:
            metrics, detail = run_untraced(bench, cmds, spec, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failed = bench.failed
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failed_frac=failed / bench.attempted,
                  problems=bench.problems,
                  commands=[c.label for c in cmds], output_sha256=digests,
                  trial_points_per_round=sum(c.trial_points() for c in cmds),
                  environment=dict(environment(), loadavg_start=load_start,
                                   loadavg_end=_loadavg()),
                  detail=detail)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for what, msg in bench.problems[:20]:
        print(f"FAIL {what}: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:26s} {value:14.6g} {unit}")
    if "wall_cmds_per_s" in detail:
        print(f"{args.workload:18s} {'(wall, not normalised)':26s} "
              f"{detail['wall_cmds_per_s']:14.6g} 1/s; median host tick "
              f"{_median(detail['host_tick_s']) * 1e3:.2f} ms (reference "
              f"{TICK_REF_S * 1e3:.2f} ms)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
