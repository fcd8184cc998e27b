"""Command-line driver: flags, config files, CSV shapes, and determinism."""

import os
import subprocess
import sys

import pytest

from coopcode import analytic, cli, ffmat, netcode, simkernel
from coopcode.cli import main
from coopcode.gf import field_new
from coopcode.netcode import build_random, load_code


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_construct_worked_example(capsys):
    code, out, _ = _run(capsys, "construct", "--n", "2", "--m", "2", "--q", "4",
                        "--kind", "vandermonde")
    assert code == 0
    loaded = load_code(out)
    assert loaded.matrix.to_lists() == [[1, 0], [0, 1], [3, 2], [2, 3]]
    assert loaded.certified_kappa == 2


def test_construct_at_thirteen_rows_is_certified_by_a_proof_that_ran(capsys, monkeypatch):
    blocks, every_minor_nonzero = [], ffmat._every_minor_nonzero

    def counting(block, field):
        blocks.append(block.shape)
        return every_minor_nonzero(block, field)

    monkeypatch.setattr(ffmat, "_every_minor_nonzero", counting)
    code, out, _ = _run(capsys, "construct", "--n", "7", "--m", "6", "--kind", "cauchy")
    assert code == 0 and '"certified_kappa": 7' in out
    assert blocks == [(6, 7)]  # the relay block's minors, checked once


def test_construct_field_too_small(capsys):
    code, _, err = _run(capsys, "construct", "--q", "4", "--n", "3", "--m", "2")
    assert code == 2
    assert err == "error: --q must be >= N+M = 5 for a vandermonde code, got 4\n"


def test_construct_random_is_deterministic(capsys):
    a = _run(capsys, "construct", "--kind", "random", "--seed", "7")
    b = _run(capsys, "construct", "--kind", "random", "--seed", "7")
    assert a == b and a[0] == 0


def test_construct_writes_file(tmp_path, capsys):
    out = tmp_path / "code.txt"
    code, stdout, _ = _run(capsys, "construct", "--q", "8", "--out", str(out))
    assert code == 0 and stdout == ""
    assert load_code(out.read_text()).matrix.rows == 4


def test_analyze_single_point(capsys):
    code, out, _ = _run(capsys, "analyze", "--n", "2", "--m", "2", "--q", "4",
                        "--snr-start-db", "10", "--r0", "1")
    assert code == 0
    header, rows = _rows(out)
    assert header == ["snr_db", "scheme", "traffic", "p0", "p_low", "p_up",
                      "p_system_low", "p_system_up"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["p_low"]) <= float(row["p_up"])
    assert float(row["p_system_low"]) <= float(row["p_system_up"])


def test_analyze_sweep_monotone(capsys):
    code, out, _ = _run(capsys, "analyze", "--n", "2", "--m", "2", "--q", "4",
                        "--snr-start-db", "0", "--snr-stop-db", "30",
                        "--snr-step-db", "1")
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 31
    ups = [float(r[5]) for r in rows]
    assert all(b <= a for a, b in zip(ups, ups[1:]))


def test_analyze_gamma_out_of_range(capsys):
    code, _, err = _run(capsys, "analyze", "--n", "2", "--m", "2", "--gamma", "5",
                        "--snr-start-db", "10")
    assert code == 2
    assert "gamma" in err


def test_analyze_unicast_with_lambda_flag(capsys):
    code, out, _ = _run(capsys, "analyze", "--n", "2", "--m", "2", "--traffic",
                        "unicast", "--lam", "2", "--snr-start-db", "20")
    assert code == 0
    header, rows = _rows(out)
    row = dict(zip(header, rows[0]))
    assert float(row["p_up"]) <= float(row["p0"])  # direct-link factor


def test_analyze_unicast_uses_each_destinations_lambda(capsys):
    argv = ["--n", "3", "--m", "2", "--q", "2", "--kind", "random", "--seed", "6"]
    lams = [build_random(3, 2, field_new(1), 6).matrix.lambda_rank(j) for j in range(3)]
    assert lams == [5, 3, 4]
    code, out, _ = _run(capsys, "analyze", *argv, "--traffic", "unicast",
                        "--snr-start-db", "0", "--snr-stop-db", "30", "--snr-step-db", "10")
    assert code == 0
    header, rows = _rows(out)
    assert len(rows) == 4
    for db, cells in zip((0, 10, 20, 30), rows):
        row = dict(zip(header, cells))
        lp = analytic.LinkParams(
            beta=1.0, rho=10.0 ** (db / 10.0), rate_r0=1.0, n_sources=3, n_relays=2
        )
        per = [analytic.outage_bounds_unicast(lp, lam) for lam in lams]
        lows, ups = [b.lower for b in per], [b.upper for b in per]
        assert row["p_low"] == cli.FMT.format(sum(lows) / 3)
        assert row["p_up"] == cli.FMT.format(sum(ups) / 3)
        assert row["p_system_low"] == cli.FMT.format(analytic.system_outage(lows))
        assert row["p_system_up"] == cli.FMT.format(analytic.system_outage(ups))


def test_analyze_rejects_uncoded_schemes(capsys):
    code, _, err = _run(capsys, "analyze", "--scheme", "ncc",
                        "--snr-start-db", "10")
    assert code == 2 and "analyze" in err


def test_simulate_single_trial(capsys):
    code, out, _ = _run(capsys, "simulate", "--n", "2", "--m", "2", "--q", "4",
                        "--trials", "1", "--snr-start-db", "10")
    assert code == 0
    header, rows = _rows(out)
    assert header[:5] == ["snr_db", "scheme", "strategy", "traffic", "trials"]
    row = dict(zip(header, rows[0]))
    assert row["trials"] == "1"
    assert float(row["dest0_rate"]) in (0.0, 1.0)
    assert float(row["dest1_rate"]) in (0.0, 1.0)


def test_simulate_byte_identical_across_workers(tmp_path, capsys):
    outs = []
    for w in ("1", "4"):
        path = tmp_path / f"w{w}.csv"
        code, _, _ = _run(capsys, "simulate", "--n", "2", "--m", "2", "--q", "4",
                          "--scheme", "dncc,cc", "--traffic", "unicast",
                          "--trials", "20000", "--seed", "3",
                          "--snr-start-db", "10", "--snr-stop-db", "15",
                          "--snr-step-db", "5", "--workers", w,
                          "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_rejects_multicast_for_ncc(capsys):
    code, _, err = _run(capsys, "simulate", "--scheme", "ncc",
                        "--traffic", "multicast", "--snr-start-db", "10")
    assert code == 2 and "unicast" in err


def test_simulate_rejects_a_bad_scheme_mix_before_drawing(monkeypatch, capsys):
    draws = []
    draw_chunk = simkernel.draw_chunk
    monkeypatch.setattr(simkernel, "draw_chunk",
                        lambda *a: draws.append(1) or draw_chunk(*a))
    code, out, err = _run(capsys, "simulate", "--scheme", "dncc,ncc",
                          "--traffic", "multicast", "--trials", "40000",
                          "--snr-start-db", "10")
    assert (code, out) == (2, "")
    assert "ncc supports unicast traffic only" in err
    assert draws == []


@pytest.mark.parametrize("kind, builder", [("vandermonde", "build_vandermonde"),
                                           ("random", "build_random")])
def test_simulate_builds_one_code_for_every_scheme(monkeypatch, capsys, kind, builder):
    argv = ["simulate", "--kind", kind, "--q", "8", "--seed", "5",
            "--traffic", "unicast", "--trials", "3000", "--snr-start-db", "5",
            "--snr-stop-db", "15", "--snr-step-db", "10"]
    separate = []
    for scheme in (("dncc",), ("selection", "--k-select", "1")):
        code, out, _ = _run(capsys, *argv, "--scheme", *scheme)
        assert code == 0
        separate.append(out)
    calls = []
    build = getattr(netcode, builder)
    monkeypatch.setattr(netcode, builder, lambda *a: calls.append(a) or build(*a))
    code, out, _ = _run(capsys, *argv, "--scheme", "dncc,selection", "--k-select", "1")
    assert code == 0 and len(calls) == 1
    header = separate[0].splitlines()[0]
    assert out == header + "\n" + "".join(s.split("\n", 1)[1] for s in separate)


def test_simulate_unknown_scheme(capsys):
    code, _, err = _run(capsys, "simulate", "--scheme", "dncc,xyz",
                        "--snr-start-db", "10")
    assert code == 2 and "xyz" in err


def test_scheme_names_are_the_simulators(capsys):
    """--scheme accepts exactly simkernel.SCHEMES, and every scheme's
    sweep reads the same at --workers 2 as at --workers 1."""
    assert _run(capsys, "simulate", "--scheme", "xyz", "--trials", "10")[2] == (
        f"error: unknown scheme 'xyz'; choose from {', '.join(simkernel.SCHEMES)}\n")
    outs = []
    for w in ("1", "2"):
        code, out, err = _run(capsys, "simulate", "--scheme", ",".join(simkernel.SCHEMES),
                              "--traffic", "unicast", "--k-select", "1", "--trials", "50",
                              "--snr-start-db", "0", "--snr-stop-db", "10",
                              "--snr-step-db", "10", "--workers", w)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert [row[1] for row in _rows(outs[0])[1][::2]] == list(simkernel.SCHEMES)


def test_dmt_csv_spot_values(capsys):
    code, out, _ = _run(capsys, "dmt", "--scheme", "dncc,ncc,cc,selection",
                        "--n", "2", "--m", "2", "--k-select", "2",
                        "--r-points", "3")
    assert code == 0
    _, rows = _rows(out)
    table = {(r[1], float(r[0])): float(r[2]) for r in rows}
    assert table[("dncc", 0.0)] == 3.0
    assert table[("dncc", 0.5)] == 0.0
    assert table[("cc", 0.5)] == 0.0
    assert table[("selection", 0.0)] == 4.0
    ncc_rs = sorted(r for s, r in table if s == "ncc")
    assert ncc_rs[-1] == pytest.approx(2 / 3)
    assert table[("ncc", ncc_rs[0])] == 2.0


def test_rate_flags_mutually_exclusive(capsys):
    code, _, err = _run(capsys, "analyze", "--r0", "1", "--rate", "0.5",
                        "--snr-start-db", "10")
    assert code == 2 and "either" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "n = 2\n"
        "m = 2\n"
        "q = 4\n"
        "trials = 5000\n"
        "snr-start-db = 10\n"
        "traffic = unicast\n"
    )
    code, out, _ = _run(capsys, "simulate", "--config", str(cfg),
                        "--trials", "7")
    assert code == 0
    _, rows = _rows(out)
    assert rows[0][4] == "7"          # flag beats config
    assert rows[0][3] == "unicast"    # config beats built-in default


def test_config_rejects_unknown_key(tmp_path, capsys):
    # help and config are the parser's own entries, but no value a file
    # could set: -h's action and the file itself
    cfg = tmp_path / "bad.cfg"
    for key, val in (("bogus", "1"), ("help", "1"), ("config", "/nonexistent")):
        cfg.write_text(f"{key} = {val}\n")
        for argv in (("simulate", "--snr-start-db", "10"), ("dmt",)):
            code, out, err = _run(capsys, argv[0], "--config", str(cfg), *argv[1:])
            assert (code, out, err) == (2, "", f"error: unknown config key {key!r}\n"), argv


def test_config_rejects_a_line_without_equals(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text("n = 2\nbogus line\n")
    code, out, err = _run(capsys, "simulate", "--config", "cfg.txt", "--snr-start-db", "10")
    assert (code, out) == (2, "")
    assert err == "error: cfg.txt:2: expected key=value, got 'bogus line\\n'\n"


def test_config_rejects_bad_choice(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("traffic = sideways\n")
    code, _, err = _run(capsys, "simulate", "--config", str(cfg),
                        "--snr-start-db", "10")
    assert code == 2 and "sideways" in err


def test_config_unknown_key_message(tmp_path, capsys):
    # a flag of another subcommand is not a key of this one
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trials = 10\n")
    code, out, err = _run(capsys, "construct", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: unknown config key 'trials'\n"


def test_config_bad_choice_message(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind = hexagonal\n")
    code, out, err = _run(capsys, "construct", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == ("error: config key 'kind': 'hexagonal' not one of "
                   "vandermonde, cauchy, random\n")


@pytest.mark.parametrize("key, value, message", [
    ("n", "two", "invalid literal for int() with base 10: 'two'"),
    ("beta", "x", "could not convert string to float: 'x'"),
])
def test_config_bad_value_names_the_key(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = _run(capsys, "analyze", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: config key '{key}': {message}\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--scheme", "dncc", "--k-select", "99", "--trials", "10"),
    ("simulate", "--scheme", "ncc,cc", "--traffic", "unicast", "--k-select", "1"),
    ("dmt", "--scheme", "dncc", "--k-select", "99", "--r-points", "2"),
])
def test_k_select_without_a_selection_scheme_is_rejected(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: --k-select applies only to scheme selection, "
                   "which is not in --scheme\n")


@pytest.mark.parametrize("argv", [
    ("analyze", "--gamma", "2", "--kind", "random", "--seed", "-1"),
    ("construct", "--kind", "vandermonde", "--seed", "-1"),
    ("simulate", "--scheme", "cc", "--traffic", "unicast", "--seed", "-1"),
])
def test_a_negative_seed_fails_where_nothing_is_drawn(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --seed must be a non-negative integer, got {argv[-1]}\n"


@pytest.mark.parametrize("flag", ["--q", "--seed"])
def test_dmt_takes_no_field_or_seed(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["dmt", flag, "4" if flag == "--q" else "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = tmp_path / "dmt.cfg"
    cfg.write_text(f"{flag[2:]} = 4\n")
    code, out, err = _run(capsys, "dmt", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: unknown config key '{flag[2:]}'\n"


@pytest.mark.parametrize("command", ["construct", "analyze"])
def test_random_code_rejects_a_negative_seed(capsys, command):
    code, out, err = _run(capsys, command, "--kind", "random", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_bad_snr_grid(capsys):
    code, _, err = _run(capsys, "analyze", "--snr-start-db", "10",
                        "--snr-stop-db", "5")
    assert code == 2 and "snr" in err.lower()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--snr-start-db", "--snr-stop-db", "--snr-step-db"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_non_finite_snr_grid_is_rejected(capsys, command, flag, value):
    code, out, err = _run(capsys, command, f"{flag}={value}")
    assert (code, out) == (2, "")
    assert f"{flag} must be finite" in err


@pytest.mark.parametrize("argv, name", [
    (("simulate", "--beta", "nan"), "beta"),
    (("simulate", "--beta", "inf"), "beta"),
    (("simulate", "--r0", "nan"), "--r0"),
    (("simulate", "--rate", "inf"), "--rate"),
    (("analyze", "--beta", "nan"), "beta"),
    (("analyze", "--r0", "inf"), "--r0"),
])
def test_non_finite_beta_and_rate_are_rejected(capsys, argv, name):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{name} must be finite and positive" in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("argv, message", [
    (("--r0", "-2"), "--r0 must be finite and positive, got -2"),
    (("--r0", "0"), "--r0 must be finite and positive, got 0"),
    (("--rate", "0"), "--rate must be finite and positive, got 0"),
    (("--rate", "-0.5"), "--rate must be finite and positive, got -0.5"),
    (("--rate", "1e308", "--n", "1", "--m", "5"),
     "--rate 1e+308 gives a per-packet rate r0 = rate*(N+M)/N that overflows a float"),
])
def test_rate_range_errors_name_the_flag_and_the_value_given(capsys, command, argv, message):
    code, out, err = _run(capsys, command, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--beta", "0"), "--beta must be finite and positive, got 0"),
    (("simulate", "--beta", "0"), "--beta must be finite and positive, got 0"),
    (("analyze", "--beta", "-2.5"), "--beta must be finite and positive, got -2.5"),
    (("simulate", "--beta", "-2.5"), "--beta must be finite and positive, got -2.5"),
    (("simulate", "--trials", "0"), "--trials must be >= 1, got 0"),
    (("simulate", "--trials", "-3"), "--trials must be >= 1, got -3"),
    (("construct", "--m", "0"), "--m must be >= 1, got 0"),
    (("construct", "--n", "1", "--m", "-5"), "--m must be >= 1, got -5"),
    (("analyze", "--m", "0"), "--m must be >= 1, got 0"),
    (("simulate", "--m", "0"), "--m must be >= 1, got 0"),
    (("simulate", "--m", "0", "--scheme", "cc", "--traffic", "unicast"),
     "--m must be >= 1, got 0"),
    (("dmt", "--m", "0"), "--m must be >= 1, got 0"),
    (("analyze", "--m", "-1", "--gamma", "2"), "--m must be >= 0, got -1"),
    (("analyze", "--n", "1", "--m", "-1", "--gamma", "2"), "--m must be >= 0, got -1"),
    (("analyze", "--m", "-3", "--lam", "1", "--traffic", "unicast"), "--m must be >= 0, got -3"),
    (("simulate", "--scheme", "selection", "--k-select", "0"),
     "--k-select must be in [1, M] = [1, 2], got 0"),
    (("simulate", "--scheme", "dncc,selection", "--m", "3", "--k-select", "4"),
     "--k-select must be in [1, M] = [1, 3], got 4"),
    (("simulate", "--scheme", "selection"), "--k-select must be given for scheme selection"),
    (("dmt", "--scheme", "selection", "--k-select", "0"),
     "--k-select must be in [1, M] = [1, 2], got 0"),
    (("dmt", "--scheme", "selection", "--k-select", "3"),
     "--k-select must be in [1, M] = [1, 2], got 3"),
    (("dmt", "--scheme", "selection"), "--k-select must be given for scheme selection"),
    (("dmt", "--r-points", "1"), "--r-points must be >= 2, got 1"),
    (("dmt", "--r-points", "-4"), "--r-points must be >= 2, got -4"),
])
def test_beta_trials_and_m_range_errors_name_the_flag_and_the_value_given(capsys, argv,
                                                                          message):
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_analyze_without_relays_runs_where_no_code_is_built(capsys):
    code, out, err = _run(capsys, "analyze", "--m", "0", "--gamma", "2")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_rejects_workers_below_one(capsys, workers):
    code, out, err = _run(capsys, "simulate", "--workers", workers)
    assert (code, out) == (2, "")
    assert f"--workers must be >= 1, got {workers}" in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_zero_sources_with_a_system_rate_is_rejected(capsys, command):
    code, out, err = _run(capsys, command, "--n", "0", "--rate", "1")
    assert (code, out, err) == (2, "", "error: --n must be >= 1, got 0\n")


@pytest.mark.parametrize("command", ["analyze", "simulate", "construct"])
def test_field_size_below_two_is_rejected(capsys, command):
    code, out, err = _run(capsys, command, "--q", "0")
    assert (code, out) == (2, "")
    assert err == "error: --q must be a power of two with 2 <= q <= 2**16, got 0\n"


@pytest.mark.parametrize("argv, flag", [
    (("--traffic", "unicast", "--gamma", "3"), "--gamma"),
    (("--traffic", "multicast", "--lam", "2"), "--lam"),
])
def test_analyze_rejects_the_other_traffic_modes_threshold(capsys, argv, flag):
    code, out, err = _run(capsys, "analyze", "--n", "2", "--m", "2", "--q", "4", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} does not apply to {argv[1]} traffic\n"


@pytest.mark.parametrize("argv, q", [
    (("analyze", "--gamma", "2", "--q", "3"), 3),
    (("analyze", "--traffic", "unicast", "--lam", "2", "--q", "6"), 6),
    (("simulate", "--scheme", "ncc", "--traffic", "unicast", "--q", "5"), 5),
    (("simulate", "--scheme", "cc", "--traffic", "unicast", "--q", str(1 << 17)), 1 << 17),
])
def test_a_bad_field_size_fails_where_no_field_is_built(capsys, argv, q):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --q must be a power of two with 2 <= q <= 2**16, got {q}\n"


def test_dmt_gamma_without_a_coded_scheme_is_rejected(capsys):
    code, out, err = _run(capsys, "dmt", "--scheme", "ncc,cc", "--gamma", "99", "--r-points", "2")
    assert (code, out) == (2, "")
    assert err == ("error: --gamma applies only to schemes dncc and rncc, "
                   "neither of which is in --scheme\n")


def test_dmt_gamma_with_a_coded_scheme_shapes_only_that_curve(capsys):
    code, out, err = _run(capsys, "dmt", "--scheme", "dncc,ncc", "--gamma", "2", "--r-points", "2")
    assert (code, err) == (0, "")
    _, rows = _rows(out)
    assert rows == [["0", "dncc", "3"], ["0.5", "dncc", "0"],
                    ["0", "ncc", "2"], ["0.6666666667", "ncc", "0"]]


_NO_CODE = "where a code is built, and analyze builds none when"
_NO_CODE_SCHEME = "to schemes dncc and selection, neither of which is in --scheme"
_NO_FIELD_SCHEME = "to schemes dncc, selection and rncc, none of which is in --scheme"


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--gamma", "2", "--kind", "random", "--q", "8"),
     f"--q applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--gamma", "2", "--kind", "random"),
     f"--kind applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--gamma", "2", "--kind", "vandermonde"),
     f"--kind applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--traffic", "unicast", "--lam", "2", "--q", "4"),
     f"--q applies only {_NO_CODE} --lam is given"),
    (("simulate", "--scheme", "cc", "--traffic", "unicast", "--kind", "random"),
     f"--kind applies only {_NO_CODE_SCHEME}"),
    (("simulate", "--scheme", "rncc", "--kind", "cauchy"),
     f"--kind applies only {_NO_CODE_SCHEME}"),
    (("simulate", "--scheme", "cc", "--traffic", "unicast", "--q", "8"),
     f"--q applies only {_NO_FIELD_SCHEME}"),
    (("simulate", "--scheme", "ncc,cc", "--traffic", "unicast", "--q", "4"),
     f"--q applies only {_NO_FIELD_SCHEME}"),
])
def test_kind_and_q_without_a_reader_are_rejected(capsys, argv, message):
    code, out, err = _run(capsys, *argv, *(("--trials", "10") if argv[0] == "simulate" else ()))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, argv", [
    ("analyze", ("--gamma", "2")),
    ("simulate", ("--scheme", "cc", "--traffic", "unicast", "--trials", "10")),
])
def test_a_config_file_kind_counts_as_given(tmp_path, capsys, command, argv):
    cfg = tmp_path / "kind.cfg"
    cfg.write_text("kind = vandermonde\n")
    code, out, err = _run(capsys, command, "--config", str(cfg), *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --kind applies only ")


def test_rncc_alone_reads_q(capsys):
    code, out, err = _run(capsys, "simulate", "--scheme", "rncc", "--q", "8", "--trials", "10")
    assert code == 0 and out and err == ""


def test_kind_defaults_to_vandermonde_where_it_is_read(capsys):
    outs = [_run(capsys, "construct", "--q", "8", *kind)[1] for kind in ((), ("--kind", "vandermonde"))]
    assert outs[0] == outs[1] and '"construction": "vandermonde"' in outs[0]


@pytest.mark.parametrize("argv, message", [
    # a threshold out of range is reported before the unread --kind
    (("analyze", "--gamma", "9", "--kind", "random"), "--gamma must be in [N, N+M] = [2, 4], got 9"),
    # so is a scheme that the traffic mode does not support
    (("simulate", "--scheme", "cc", "--traffic", "multicast", "--kind", "random"),
     "cc supports unicast traffic only"),
])
def test_an_earlier_input_error_keeps_its_message(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("dmt", "--gamma", "1"), "--gamma must be in [2, 4], got 1"),
    (("dmt", "--scheme", "cc,rncc", "--gamma", "5"), "--gamma must be in [2, 4], got 5"),
    (("analyze", "--gamma", "0"), "--gamma must be in [N, N+M] = [2, 4], got 0"),
    (("analyze", "--lam", "0", "--traffic", "unicast"),
     "--lam must be in [1, N+M] = [1, 4], got 0"),
    (("analyze", "--lam", "5", "--traffic", "unicast"),
     "--lam must be in [1, N+M] = [1, 4], got 5"),
    (("simulate", "--snr-step-db", "0", "--trials", "10"),
     "--snr-step-db must be positive, got 0"),
    (("simulate", "--snr-step-db", "-0.5", "--trials", "10"),
     "--snr-step-db must be positive, got -0.5"),
])
def test_range_errors_name_the_flag_and_the_value_given(capsys, argv, message):
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--snr-start-db", "5", "--snr-stop-db", "3"),
     "--snr-stop-db must be >= --snr-start-db = 5, got 3"),
    (("simulate", "--scheme", ""),
     "--scheme must name at least one of dncc, rncc, selection, ncc, cc, got ''"),
    (("construct", "--kind", "random", "--seed", "-1"),
     "--seed must be a non-negative integer, got -1"),
    (("construct", "--q", "6"), "--q must be a power of two with 2 <= q <= 2**16, got 6"),
    (("construct", "--n", "3", "--m", "3", "--q", "4"),
     "--q must be >= N+M = 6 for a vandermonde code, got 4"),
    (("construct", "--n", "3", "--m", "3", "--q", "4", "--kind", "cauchy"),
     "--q must be >= N+M+1 = 7 for a cauchy code, got 4"),
    (("construct", "--n", "3", "--m", "5", "--q", "8", "--kind", "cauchy"),
     "--q must be >= N+M+1 = 9 for a cauchy code, got 8"),
    (("analyze", "--n", "3", "--m", "3", "--q", "4"),
     "--q must be >= N+M = 6 for a vandermonde code, got 4"),
    (("simulate", "--n", "3", "--m", "3", "--q", "4", "--trials", "10"),
     "--q must be >= N+M = 6 for a vandermonde code, got 4"),
    (("construct", "--n", "0"), "--n must be >= 1, got 0"),
    (("dmt", "--n", "0"), "--n must be >= 1, got 0"),
    (("analyze", "--n", "0"), "--n must be >= 1, got 0"),
    (("simulate", "--workers", "0"), "--workers must be >= 1, got 0"),
    (("analyze", "--r0", "1", "--rate", "0.5"), "give either --r0 or --rate, not both"),
    (("analyze", "--scheme", "ncc"), "analyze covers the coded schemes dncc/rncc, not 'ncc'"),
    (("analyze", "--snr-start-db", "nan"), "--snr-start-db must be finite, got nan"),
])
def test_input_errors_name_the_flag_and_the_value_given(capsys, argv, message):
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_field_size_bounds_are_the_constructions_own(capsys):
    """The --q bound is N+M for vandermonde and N+M+1 for cauchy, and a
    random code takes any field."""
    assert _run(capsys, "construct", "--n", "3", "--m", "5", "--q", "8")[0] == 0
    assert _run(capsys, "construct", "--n", "3", "--m", "4", "--q", "8", "--kind", "cauchy")[0] == 0
    assert _run(capsys, "construct", "--n", "3", "--m", "3", "--q", "2", "--kind", "random")[0] == 0


def test_analyze_states_its_row_cap_in_flags(capsys):
    """analyze's thresholds need the subset metrics, which stop at 24 rows;
    construct prints a wider code, uncertified, and --gamma needs no code."""
    argv = ("--n", "13", "--m", "12", "--q", "32")
    assert _run(capsys, "analyze", *argv) == (
        2, "", "error: --n + --m must be <= 24 where analyze builds a code "
               "(give --gamma or --lam), got 25\n")
    code, out, err = _run(capsys, "construct", *argv)
    assert (code, err) == (0, "") and load_code(out).certified_kappa is None
    code, out, err = _run(capsys, "analyze", "--n", "13", "--m", "12", "--gamma", "13")
    assert (code, err) == (0, "") and out.startswith("snr_db,")
    code, out, err = _run(capsys, "analyze", "--n", "12", "--m", "12", "--q", "32",
                          "--traffic", "unicast", "--kind", "cauchy")
    assert (code, err) == (0, "") and out.startswith("snr_db,")


_NO_SEED_KIND = "--seed applies only to --kind random"


@pytest.mark.parametrize("argv, message", [
    (("construct", "--kind", "cauchy", "--q", "8", "--seed", "5"), _NO_SEED_KIND),
    (("construct", "--q", "8", "--seed", "5"), _NO_SEED_KIND),
    (("analyze", "--q", "8", "--seed", "5"), _NO_SEED_KIND),
    (("analyze", "--traffic", "unicast", "--kind", "vandermonde", "--seed", "0"), _NO_SEED_KIND),
    (("analyze", "--gamma", "2", "--seed", "5"), f"--seed applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--traffic", "unicast", "--lam", "2", "--seed", "5"),
     f"--seed applies only {_NO_CODE} --lam is given"),
])
def test_seed_without_a_random_code_is_rejected(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    # a field too small for the code, and the --q / --kind rejections, come first
    (("construct", "--kind", "cauchy", "--q", "4", "--n", "3", "--m", "2", "--seed", "5"),
     "--q must be >= N+M+1 = 6 for a cauchy code, got 4"),
    (("analyze", "--gamma", "2", "--kind", "random", "--seed", "5"),
     f"--kind applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--gamma", "2", "--q", "8", "--seed", "5"),
     f"--q applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--gamma", "9", "--seed", "5"), "--gamma must be in [N, N+M] = [2, 4], got 9"),
])
def test_an_earlier_input_error_comes_before_an_unread_seed(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_config_file_seed_counts_as_given(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 5\n")
    assert _run(capsys, "construct", "--config", str(cfg)) == (2, "", f"error: {_NO_SEED_KIND}\n")
    code, out, err = _run(capsys, "construct", "--config", str(cfg), "--kind", "random")
    assert (code, err) == (0, "") and out == _run(capsys, "construct", "--kind", "random",
                                                  "--seed", "5")[1]


@pytest.mark.parametrize("argv", [
    ("construct", "--kind", "random"),
    ("analyze", "--kind", "random"),
    ("simulate", "--scheme", "dncc,rncc", "--kind", "random", "--trials", "100"),
    ("simulate", "--scheme", "cc", "--traffic", "unicast", "--trials", "100"),
])
def test_seed_defaults_to_zero_where_it_is_read(capsys, argv):
    default, explicit = _run(capsys, *argv), _run(capsys, *argv, "--seed", "0")
    assert default == explicit and default[0] == 0 and default[1]


# The grid-cap tests patch the cap down to 5 points, or keep numpy from
# building the r grid, so that a missing check fails them without allocating.


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_an_snr_grid_beyond_the_cap_is_rejected_before_it_is_built(monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
    code, out, err = _run(capsys, command, "--snr-stop-db", "2.5", "--snr-step-db", "0.5")
    assert (code, out) == (2, "")
    assert err == "error: --snr-step-db gives more than 5 grid points from 0.0 to 2.5 dB\n"


def test_dmt_r_points_beyond_the_cap_are_rejected_before_any_array(monkeypatch, capsys):
    def no_linspace(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    code, out, err = _run(capsys, "dmt", "--r-points", "1000000000000")
    assert (code, out) == (2, "")
    assert err == f"error: --r-points must be <= {10 ** 6}, got 1000000000000\n"


def test_grids_at_the_cap_are_built(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
    code, out, _ = _run(capsys, "analyze", "--snr-stop-db", "2", "--snr-step-db", "0.5")
    assert code == 0 and len(_rows(out)[1]) == 5
    code, out, _ = _run(capsys, "dmt", "--r-points", "5")
    assert code == 0 and len(_rows(out)[1]) == 5
    code, out, err = _run(capsys, "dmt", "--r-points", "6")
    assert (code, out, err) == (2, "", "error: --r-points must be <= 5, got 6\n")


# One parser serves every call of a process: a config file's values live in
# the namespace of the call that read it.


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_command_is_parsed_by_its_own_parser_alone(tmp_path, monkeypatch, capsys):
    parser, calls = cli.build_parser(), []

    def recorded(self, *args, _fn=cli._Parser.parse_known_args, **kwargs):
        calls.append(self)
        return _fn(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", recorded)
    dmt = parser.commands["dmt"]
    assert _run(capsys, "dmt", "--r-points", "2")[0] == 0
    assert calls == [dmt]
    cfg = tmp_path / "dmt.cfg"
    cfg.write_text("r-points = 3\n")
    calls.clear()
    assert _run(capsys, "dmt", "--config", str(cfg))[0] == 0
    assert calls == [dmt, dmt]  # one parse finds the file, one reads argv over its entries


_USAGE = "usage: coopcode [-h] {construct,analyze,simulate,dmt} ...\n"
_HELP = _USAGE + """
Construct relay codes, evaluate outage bounds, and run Monte Carlo sweeps.

positional arguments:
  {construct,analyze,simulate,dmt}
    construct           build and serialize a relay coefficient matrix
    analyze             closed-form outage bounds over an SNR sweep
    simulate            Monte Carlo outage sweep
    dmt                 diversity-multiplexing tradeoff curves

options:
  -h, --help            show this help message and exit
"""
_SIMULATE_HELP = """\
usage: coopcode simulate [-h] [--n N] [--m M] [--out OUT] [--config CONFIG]
                         [--q Q] [--seed SEED]
                         [--kind {vandermonde,cauchy,random}] [--beta BETA]
                         [--r0 R0] [--rate RATE] [--snr-start-db SNR_START_DB]
                         [--snr-stop-db SNR_STOP_DB]
                         [--snr-step-db SNR_STEP_DB] [--strategy {A,B}]
                         [--trials TRIALS] [--workers WORKERS]
                         [--k-select K_SELECT] [--scheme SCHEME]
                         [--traffic {multicast,unicast}]

options:
  -h, --help            show this help message and exit
  --n N                 number of sources/destinations N
  --m M                 number of relays M
  --out OUT             output path (default: stdout)
  --config CONFIG       key=value file; flags override it
  --q Q                 field size (power of two); default: smallest admitting
                        N+M+1 points
  --seed SEED           seed of a --kind random code and of simulate's draws
                        (default 0)
  --kind {vandermonde,cauchy,random}
                        code construction (default: vandermonde)
  --beta BETA           exponential rate of every link gain
  --r0 R0               per-packet rate (bpcu)
  --rate RATE           system rate R (bpcu) of the N+M-slot dncc/rncc
                        schedule: every scheme in --scheme runs at r0 =
                        R*(N+M)/N, so selection, ncc and cc run at another
                        system rate
  --snr-start-db SNR_START_DB
  --snr-stop-db SNR_STOP_DB
                        default: same as start (single point)
  --snr-step-db SNR_STEP_DB
  --strategy {A,B}      relay forwards only after decoding all N (A) or any
                        subset (B)
  --trials TRIALS       Monte Carlo trials per point
  --workers WORKERS     worker processes
  --k-select K_SELECT   relays kept by selection (scheme=selection)
  --scheme SCHEME       comma-separated subset of dncc,rncc,selection,ncc,cc
  --traffic {multicast,unicast}
"""
_UNRECOGNIZED = _USAGE + "coopcode: error: unrecognized arguments: --nope 3\n"


@pytest.mark.parametrize("argv, status, out, err", [
    ((), 2, "", _USAGE + "coopcode: error: the following arguments are required: command\n"),
    (("bogus",), 2, "", _USAGE + "coopcode: error: argument command: invalid choice: 'bogus' "
                                 "(choose from 'construct', 'analyze', 'simulate', 'dmt')\n"),
    (("-h",), 0, _HELP, ""),
    (("simulate", "-h"), 0, _SIMULATE_HELP, ""),
    (("simulate", "--nope", "3"), 2, "", _UNRECOGNIZED),
    (("simulate", "--config", "CFG", "--nope", "3"), 2, "", _UNRECOGNIZED),
])
def test_the_parsers_reports_are_pinned(tmp_path, monkeypatch, capsys, argv, status, out, err):
    """argparse's usage, help and error text, byte for byte, as CPython 3.11
    lays it out at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal's width
    cfg = tmp_path / "good.cfg"
    cfg.write_text("trials = 10\n")
    with pytest.raises(SystemExit) as exc:
        main([str(cfg) if a == "CFG" else a for a in argv])
    assert exc.value.code == status
    assert capsys.readouterr() == (out, err)


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment defaults\nn = 2\nm = 2\nq = 4\ntrials = 5000\n"
                   "snr-start-db = 10\ntraffic = unicast\n")
    other = tmp_path / "other.cfg"
    other.write_text("n = 3\nm = 3\nq = 8\ntrials = 300\nscheme = dncc,rncc\n"
                     "strategy = B\nseed = 4\nsnr-stop-db = 5\nsnr-step-db = 5\n")
    calls = [("simulate", "--config", str(cfg), "--trials", "7"),
             ("simulate", "--trials", "7"),
             ("simulate", "--config", str(other)),
             ("simulate", "--config", str(cfg), "--trials", "7")]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_run(capsys, *argv))
    parser = cli.build_parser()
    assert [_run(capsys, *argv) for argv in calls] == alone
    assert cli.build_parser() is parser
    assert [a[0] for a in alone] == [0] * 4 and len({a[1] for a in alone}) == 3


def test_a_bad_config_file_is_reported_before_unrecognized_arguments(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert _run(capsys, "simulate", "--config", str(bad), "--nope", "3") == (
        2, "", "error: unknown config key 'bogus'\n")
    good = tmp_path / "good.cfg"
    good.write_text("trials = 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(good), "--nope", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coopcode [-h]")
    assert err.endswith("coopcode: error: unrecognized arguments: --nope 3\n")


_STRATEGY_ARGV = ("simulate", "--traffic", "unicast", "--trials", "2000", "--snr-start-db", "10")


def test_ncc_and_cc_rows_are_labelled_with_the_strategy_that_ran(capsys):
    mixed = _run(capsys, *_STRATEGY_ARGV, "--scheme", "dncc,ncc,cc", "--strategy", "B")
    under_a = _run(capsys, *_STRATEGY_ARGV, "--scheme", "dncc,ncc,cc", "--strategy", "A")
    dncc_b = _run(capsys, *_STRATEGY_ARGV, "--scheme", "dncc", "--strategy", "B")
    assert mixed[0] == under_a[0] == dncc_b[0] == 0
    rows, rows_a = _rows(mixed[1])[1], _rows(under_a[1])[1]
    assert [r[1:3] for r in rows] == [["dncc", "B"], ["ncc", "A"], ["cc", "A"]]
    assert rows[1:] == rows_a[1:]
    assert rows[0] == _rows(dncc_b[1])[1][0]


def test_strategy_defaults_to_a(capsys):
    default = _run(capsys, *_STRATEGY_ARGV, "--scheme", "dncc,ncc,cc")
    assert default == _run(capsys, *_STRATEGY_ARGV, "--scheme", "dncc,ncc,cc", "--strategy", "A")
    assert [r[2] for r in _rows(default[1])[1]] == ["A"] * 3


_NO_STRATEGY = ("error: --strategy applies only to schemes dncc, rncc and selection, "
                "none of which is in --scheme\n")


@pytest.mark.parametrize("strategy", ["A", "B"])
def test_strategy_without_a_scheme_that_reads_it_is_rejected(tmp_path, capsys, strategy):
    argv = (*_STRATEGY_ARGV, "--scheme", "ncc,cc")
    assert _run(capsys, *argv, "--strategy", strategy) == (2, "", _NO_STRATEGY)
    cfg = tmp_path / "strategy.cfg"
    cfg.write_text(f"strategy = {strategy}\n")
    assert _run(capsys, *argv, "--config", str(cfg)) == (2, "", _NO_STRATEGY)


_NO_DEFAULT_FIELD = "--n + --m must be <= 65535 where a field is built without --q, got 80000"
_BINOMIAL_CAP = ("--n + --m must be <= 1029 where analyze builds no code, so that every "
                 "binomial C(N+M, j) is a float, got {}")


def _assert_rejected_before_any_work(monkeypatch, capsys, argv, message):
    """main exits 2 with `message` and calls no code builder, bracket, DMT
    line or draw on the way."""
    work = []
    for module, name in ((simkernel, "draw_chunk"), (analytic, "outage_bounds_multicast"),
                         (analytic, "outage_bounds_unicast"), (analytic, "dmt_curve"),
                         (netcode, "build_vandermonde"), (netcode, "build_cauchy"),
                         (netcode, "build_random")):
        def recorded(*a, _fn=getattr(module, name), **kw):
            work.append(1)
            return _fn(*a, **kw)

        monkeypatch.setattr(module, name, recorded)
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert work == []


@pytest.mark.parametrize("argv, message", [
    (("construct", "--n", "12", "--m", "12", "--q", "32", "--seed", "5"), _NO_SEED_KIND),
    (("analyze", "--q", "8", "--seed", "5"), _NO_SEED_KIND),
    (("analyze", "--gamma", "2", "--q", "8"), f"--q applies only {_NO_CODE} --gamma is given"),
    (("analyze", "--traffic", "unicast", "--lam", "2", "--kind", "random"),
     f"--kind applies only {_NO_CODE} --lam is given"),
    (("dmt", "--scheme", "ncc,cc", "--gamma", "3"),
     "--gamma applies only to schemes dncc and rncc, neither of which is in --scheme"),
    (("simulate", "--scheme", "dncc,cc", "--traffic", "multicast"),
     "cc supports unicast traffic only"),
    (("construct", "--n", "40000", "--m", "40000"), _NO_DEFAULT_FIELD),
    (("construct", "--n", "40000", "--m", "40000", "--seed", "3"), _NO_DEFAULT_FIELD),
    (("simulate", "--scheme", "rncc", "--n", "40000", "--m", "40000"), _NO_DEFAULT_FIELD),
    (("analyze", "--n", "1", "--m", "1100", "--gamma", "1"), _BINOMIAL_CAP.format(1101)),
    (("analyze", "--n", "1029", "--m", "1", "--gamma", "1029"), _BINOMIAL_CAP.format(1030)),
    (("analyze", "--n", "1", "--m", "1029", "--gamma", "1"), _BINOMIAL_CAP.format(1030)),
    (("analyze", "--n", "1100", "--m", "1", "--traffic", "unicast", "--lam", "1"),
     _BINOMIAL_CAP.format(1101)),
])
def test_an_input_error_is_rejected_before_any_work(monkeypatch, capsys, argv, message):
    _assert_rejected_before_any_work(monkeypatch, capsys, argv, message)


@pytest.mark.parametrize("argv, out", [
    (("--n", "1", "--m", "1028", "--gamma", "1"),
     "0,dncc,multicast,0.6321205588,0,7.590567082e-66,0,0\n"),
    (("--n", "1028", "--m", "1", "--gamma", "1028", "--snr-stop-db", "40", "--snr-step-db", "20"),
     "0,dncc,multicast,0.6321205588,0,1,0,1\n"
     "20,dncc,multicast,0.009950166251,1.177359442e-13,0.9999656754,1.209787825e-10,1\n"
     "40,dncc,multicast,9.999500017e-05,8.141586753e-09,0.01400125596,8.369516176e-06,"
     "0.9999994931\n"),
    (("--n", "1000", "--m", "29", "--traffic", "unicast", "--lam", "515", "--snr-stop-db", "30",
      "--snr-step-db", "10"),
     "0,dncc,unicast,0.6321205588,0,0.6321205588,0,1\n"
     "10,dncc,unicast,0.09516258196,0,0,0,0\n"
     "20,dncc,unicast,0.009950166251,0,0,0,0\n"
     "30,dncc,unicast,0.0009995001666,0,0,0,0\n"),
])
def test_analyze_at_the_binomial_cap_prints_what_it_did(capsys, argv, out):
    """N+M = MAX_TOTAL is the widest bracket analyze evaluates, with the
    rows it took at one relay, at one source and at a mid threshold."""
    header = "snr_db,scheme,traffic,p0,p_low,p_up,p_system_low,p_system_up\n"
    assert _run(capsys, "analyze", *argv) == (0, header + out, "")


def test_the_largest_default_field_is_still_built(capsys):
    code, out, err = _run(capsys, "construct", "--n", "1", "--m", "65534")
    assert (code, err) == (0, "")
    assert load_code(out).field.order == 65536


def _link_params_of(monkeypatch, capsys, *argv):
    """The LinkParams that analyze hands the bracket, one per call, each
    holding a block of grid points as its rho array."""
    seen = []
    for name in ("outage_bounds_multicast", "outage_bounds_unicast"):
        def recorded(lp, t, _fn=getattr(analytic, name)):
            seen.append(lp)
            return _fn(lp, t)

        monkeypatch.setattr(analytic, name, recorded)
    code, out, err = _run(capsys, "analyze", *argv)
    assert (code, err) == (0, "")
    return seen, _rows(out)[1]


@pytest.mark.parametrize("traffic", ["multicast", "unicast"])
def test_analyze_thresholds_at_the_r0_it_was_given(monkeypatch, capsys, traffic):
    seen, _ = _link_params_of(monkeypatch, capsys, "--n", "1", "--m", "2", "--r0", "1.8",
                              "--traffic", traffic, "--snr-stop-db", "40", "--snr-step-db", "5")
    rhos = sorted({rho for lp in seen for rho in lp.rho.tolist()})
    assert rhos == [10.0 ** (db / 10.0) for db in range(0, 41, 5)]
    for lp in seen:
        assert lp.rate_r0 == 1.8
        for rho, tau in zip(lp.rho.tolist(), lp.tau.tolist(), strict=True):
            assert tau == analytic.tau_for(rho, 1.8)  # simulate's tau, bit for bit


# a certified code (one gamma_N for all destinations), and a random one whose
# destinations have three distinct lambdas, [5, 3, 4]
_CERTIFIED = ("--n", "4", "--m", "4", "--q", "16")
_THREE_LAMBDAS = ("--n", "3", "--m", "2", "--q", "2", "--kind", "random", "--seed", "6",
                  "--traffic", "unicast")


@pytest.mark.parametrize("argv", [
    ("analyze", *_CERTIFIED, "--snr-stop-db", "30"),
    ("analyze", *_THREE_LAMBDAS, "--scheme", "dncc,rncc", "--snr-start-db", "-1000",
     "--snr-stop-db", "2000", "--snr-step-db", "97.3"),
    ("dmt", "--scheme", "dncc,rncc,selection,ncc,cc", "--k-select", "2", "--r-points", "101"),
])
def test_grid_blocks_leave_every_byte_as_it_is(monkeypatch, capsys, argv):
    outputs = []
    for block in (cli.GRID_BLOCK, 1, 7):
        monkeypatch.setattr(cli, "GRID_BLOCK", block)
        outputs.append(_run(capsys, *argv))
    assert outputs[0][0] == 0 and len(_rows(outputs[0][1])[1]) > 7
    assert outputs == [outputs[0]] * 3


@pytest.mark.parametrize("argv, thresholds", [(_CERTIFIED, 1), (_THREE_LAMBDAS, 3)])
@pytest.mark.parametrize("block", [None, 1, 7])
def test_analyze_calls_the_bound_once_per_threshold_per_block(monkeypatch, capsys, argv,
                                                              thresholds, block):
    block = block or cli.GRID_BLOCK
    monkeypatch.setattr(cli, "GRID_BLOCK", block)
    seen, rows = _link_params_of(monkeypatch, capsys, *argv, "--snr-stop-db", "30")
    assert len(rows) == 31
    assert len(seen) == thresholds * -(-31 // block)
    assert all(len(lp.rho) <= block for lp in seen)
    rhos = [rho for lp in seen for rho in lp.rho.tolist()]
    assert sorted(rhos) == sorted([10.0 ** (db / 10.0) for db in range(31)] * thresholds)


def test_analyze_at_the_smallest_positive_rate_runs_as_simulate_does(monkeypatch, capsys):
    seen, rows = _link_params_of(monkeypatch, capsys, "--r0", "5e-324")
    assert [lp.tau.tolist() for lp in seen] == [[0.0]]  # 2**r0 rounds to 1
    assert rows == [["0", "dncc", "multicast", "0", "0", "0", "0", "0"]]
    code, out, err = _run(capsys, "simulate", "--r0", "5e-324", "--trials", "10")
    assert (code, err) == (0, "")
    assert _rows(out)[1][0][5:] == ["0"] * 5  # never in outage


@pytest.mark.parametrize("argv, message", [
    (("--snr-start-db", "4000"), "--snr-start-db is too large: 10**400 overflows a float"),
    (("--snr-stop-db", "4000", "--snr-step-db", "1000"),
     "--snr-stop-db is too large: 10**400 overflows a float"),
    (("--r0", "2000"), "--r0 is too large: 2**2000 overflows a float"),
    (("--rate", "600"), "--rate is too large: 2**1200 overflows a float"),
    # a step of 1 dB rounds back to 1e16 and 1e18: each grid's second point ties the first
    (("--snr-start-db", "1e16"), "--snr-start-db is too large: 10**1e+15 overflows a float"),
    (("--snr-start-db", "1e18"), "--snr-start-db is too large: 10**1e+17 overflows a float"),
])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_an_overflowing_snr_or_rate_is_rejected_before_any_work(monkeypatch, capsys, command,
                                                                argv, message):
    _assert_rejected_before_any_work(monkeypatch, capsys, (command, *argv), message)


_UNDERFLOW = "--snr-start-db is too small: 10**-400 underflows a float to 0"


@pytest.mark.parametrize("argv, message", [
    (("--snr-start-db", "-4000"), _UNDERFLOW),
    (("--snr-start-db", "-4000", "--snr-stop-db", "-3990"), _UNDERFLOW),
    (("--snr-start-db", "-3233", "--snr-stop-db", "-3232", "--snr-step-db", "0.5"),
     "--snr-start-db and --snr-stop-db give grid points -3233.0 and -3232.5 dB "
     "whose linear SNRs are one float, 4.94066e-324"),
    (("--snr-start-db", "1000", "--snr-step-db", "1e-14"),  # below the float spacing at 1000
     "--snr-start-db and --snr-stop-db give grid points 1000.0 and 1000.0 dB "
     "whose linear SNRs are one float, 1e+100"),
])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_an_snr_whose_linear_grid_underflows_is_rejected_before_any_work(
        monkeypatch, capsys, command, argv, message):
    _assert_rejected_before_any_work(monkeypatch, capsys, (command, *argv), message)


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_subnormal_snr_points_that_stay_apart_run(capsys, command):
    extra = ("--trials", "10") if command == "simulate" else ()
    code, out, err = _run(capsys, command, "--snr-start-db", "-3230", "--snr-stop-db", "-3220",
                          "--snr-step-db", "5", *extra)
    assert (code, err) == (0, "") and len(_rows(out)[1]) == 3


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_snr_and_rate_just_below_the_overflow_run(capsys, command):
    extra = ("--trials", "10") if command == "simulate" else ()
    for argv in (("--snr-start-db", "3082.5"), ("--r0", "1023.5")):
        code, out, err = _run(capsys, command, *argv, *extra)
        assert (code, err) == (0, "") and len(_rows(out)[1]) == 1


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_AS_LIMIT = 1_500_000_000  # bytes of address space for the bounded run below


def _bounded_main(*argv):
    """main(argv) in a fresh interpreter whose address space is capped at
    _AS_LIMIT and which is given 60 s, so that a grid that does not end
    fails the test, by MemoryError or timeout, instead of stalling it.
    One BLAS thread keeps numpy's own reservations far below the cap on a
    host with many cores."""
    probe = ("import resource, sys\n"
             "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
             f"cap = {_AS_LIMIT} if hard == resource.RLIM_INFINITY else min({_AS_LIMIT}, hard)\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
             "from coopcode.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1"),
                          timeout=60)


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--gamma", "2", "--snr-start-db", "1e25"),
     "--snr-start-db is too large: 10**1e+24 overflows a float"),
    (("simulate", "--snr-start-db", "1e25"),
     "--snr-start-db is too large: 10**1e+24 overflows a float"),
    (("analyze", "--snr-start-db", "1e25", "--snr-stop-db", "1e25"),
     "--snr-stop-db is too large: 10**1e+24 overflows a float"),
    (("simulate", "--snr-start-db=-1e25"),
     "--snr-start-db is too small: 10**-1e+24 underflows a float to 0"),
])
def test_a_step_below_the_float_spacing_ends_the_snr_grid(argv, message):
    """At 1e25 dB, start + i*step rounds back to start for about 1e9 steps
    of 1 dB: the grid stops at its first point that does not rise."""
    proc = _bounded_main(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
