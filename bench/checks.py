"""Output checks.  Each returns a list of problems; an empty list passes.

- `check_output`: the CSV or code text one command wrote is well formed
  and self-consistent (cheap; run on the first output of every command).
- `check_code_metrics`: for a certified construction, kappa == N and
  gamma_rank(N) == max_j lambda_rank(j) == N, recomputed from the file.
- `check_oracle`: the batched simulator agrees exactly with the scalar
  per-trial reference (run_trial, run_trial_ncc, run_trial_cc) on the same
  Philox draws, for a sample of trials at every grid point.
"""

import csv
import io


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _sweep_problems(cmd, text):
    o = cmd.o
    rows = _rows(text)
    want = [(s, db) for s in cmd.schemes() for db in cmd.grid_db()]
    if len(rows) != len(want):
        return [f"{len(rows)} rows, expected {len(want)}"]
    bad = []
    for row, (scheme, db) in zip(rows, want):
        where = f"{scheme}@{db}dB"
        if row["scheme"] != scheme or abs(float(row["snr_db"]) - db) > 1e-9:
            bad.append(f"{where}: row is {row['scheme']}@{row['snr_db']}")
        if int(row["trials"]) != o["trials"] or row["strategy"] != o["strategy"] \
                or row["traffic"] != o["traffic"]:
            bad.append(f"{where}: wrong trials/strategy/traffic")
        dest = [float(row[f"dest{j}_rate"]) for j in range(o["n"])]
        system = float(row["system_rate"])
        for r in dest + [system]:
            if not 0.0 <= r <= 1.0 or abs(r * o["trials"] - round(r * o["trials"])) > 1e-3:
                bad.append(f"{where}: rate {r} is not a count over {o['trials']}")
        if system < max(dest) - 1e-12:
            bad.append(f"{where}: system rate below a destination rate")
        if abs(float(row["avg_outage"]) - sum(dest) / len(dest)) > 1e-9:
            bad.append(f"{where}: avg_outage is not the mean of the destinations")
    return bad


def _analyze_problems(cmd, text):
    rows = _rows(text)
    if len(rows) != len(cmd.grid_db()):
        return [f"{len(rows)} rows, expected {len(cmd.grid_db())}"]
    bad = []
    for row in rows:
        p = {k: float(row[k]) for k in ("p0", "p_low", "p_up", "p_system_low", "p_system_up")}
        if not all(0.0 <= v <= 1.0 for v in p.values()):
            bad.append(f"{row['snr_db']} dB: probability outside [0, 1]")
        if p["p_low"] > p["p_up"] + 1e-12 or p["p_system_low"] > p["p_system_up"] + 1e-12:
            bad.append(f"{row['snr_db']} dB: lower bound above upper bound")
    return bad


def _dmt_problems(cmd, text):
    o = cmd.o
    rows = _rows(text)
    schemes = o["scheme"].split(",")
    if len(rows) != len(schemes) * o["r_points"]:
        return [f"{len(rows)} rows, expected {len(schemes) * o['r_points']}"]
    return [f"r={row['r']}: negative diversity" for row in rows if float(row["d"]) < 0]


def _construct_problems(cmd, text):
    from coopcode import netcode
    o = cmd.o
    code = netcode.load_code(text)  # validates shape and the identity top block
    bad = []
    if (code.n_sources, code.n_relays, code.field.order) != (o["n"], o["m"], o["q"]):
        bad.append("code dimensions differ from the command")
    if code.construction != o["kind"]:
        bad.append(f"construction {code.construction!r}, expected {o['kind']!r}")
    if o["kind"] != "random" and code.certified_kappa != o["n"]:
        bad.append(f"certified_kappa {code.certified_kappa}, expected {o['n']}")
    return bad


_CHECKS = {"simulate": _sweep_problems, "analyze": _analyze_problems,
           "dmt": _dmt_problems, "construct": _construct_problems}


def check_output(cmd, data: bytes):
    try:
        return _CHECKS[cmd.command](cmd, data.decode())
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc!r}"]


def check_code_metrics(cmd, data: bytes):
    """Exhaustive subset metrics of a certified construction."""
    from coopcode import netcode
    code = netcode.load_code(data.decode())
    a, n = code.matrix, code.n_sources
    kappa = a.kruskal_rank()
    gamma = a.gamma_rank(n)
    lams = [a.lambda_rank(j) for j in range(n)]
    if kappa == n and gamma == n and max(lams) == n:
        return []
    return [f"kappa={kappa} gamma={gamma} lambda={lams}, expected all {n}"]


def _scenario(cmd, scheme, trials):
    from coopcode import field_new, netcode, simkernel
    o = cmd.o
    field = field_new(o["q"].bit_length() - 1)
    code = netcode.build_vandermonde(o["n"], o["m"], field) if scheme == "dncc" else None
    return simkernel.Scenario(
        scheme=scheme, n_sources=o["n"], n_relays=o["m"],
        snr_grid=tuple(10.0 ** (db / 10.0) for db in cmd.grid_db()),
        trials=trials, seed=o["seed"], code=code,
        field=field if scheme == "rncc" else None,
        strategy=o["strategy"], traffic=o["traffic"])


def check_oracle(cmd, sample: int):
    """Batched run_sweep counts equal the scalar reference on `sample`
    trials per grid point (the first chunk's first `sample` draws)."""
    from coopcode import simkernel as sk
    scalar = {"ncc": sk.run_trial_ncc, "cc": sk.run_trial_cc}
    bad = []
    for scheme in cmd.schemes():
        scn = _scenario(cmd, scheme, sample)
        report = sk.run_sweep(scn, workers=1)
        trial = scalar.get(scheme, sk.run_trial)
        for g, (rho, pt) in enumerate(zip(scn.snr_grid, report.points)):
            gsr, gsd, grd, coeffs = sk.draw_chunk(scn, sk.chunk_rng(scn.seed, g, 0), sample)
            dest = [0] * scn.n_sources
            system = 0
            for t in range(sample):
                draw = sk.TrialDraw(gsr[t], gsd[t], grd[t],
                                    None if coeffs is None else coeffs[t])
                fails = [not ok for ok in trial(scn, rho, draw)]
                dest = [d + f for d, f in zip(dest, fails)]
                system += any(fails)
            if (tuple(dest), system) != (pt.dest_errors, pt.system_errors):
                bad.append(f"{scheme} point {g}: batched {pt.dest_errors}/{pt.system_errors}"
                           f" vs scalar {tuple(dest)}/{system}")
    return bad
