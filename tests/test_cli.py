import csv
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from clgcd import cli
from clgcd.cli import run
from clgcd.constants import m_table
from clgcd.errors import ConsistencyError, DomainError
from clgcd.experiments import (COST_KEYS, LADDER_PAIRS, conjecture_check,
                               dirichlet_check, slope_estimate,
                               worstcase_scan)
from clgcd.spectral import solve_operator

TRACE_31_75 = """\
run on (31, 75), canonical convention
i  a_i  shifted  remainder  shifted_2  remainder_2  v(sh)  v(rem)  v(gcd)
0    -       75         31    1001011        11111      0       0       0
1    1       62         13     111110         1101      1       0       0
2    2       52         10     110100         1010      2       1       1
3    2       40         12     101000         1100      3       2       2
4    1       24         16      11000        10000      3       4       3
5    0       16          8      10000         1000      4       3       3
6    0        8          8       1000         1000      3       3       3
7    0        8          0       1000            0      3     inf       3
K = 7, S = 6, terminal = (0, 8), odd gcd = 1  [final step rewritten (a) -> (a-1, 0)]
"""

CONSTANTS = """\
E = 2.600460
D = 0.976936
A = 1.623524
B_conj = 0.283789
H_conj = 1.339735
2/H = 1.492833

per-step mean growth M(c):
sigma = 0.976936
q = 2.600460
rho = 1.260725
r = 1.339735
q2 = 1.260725
"""

DIRICHLET = """\
partial sum S(2) over q <= 10000 = 1.1106265323
zeta(3)/zeta(4) = 1.1106265353
deviation = -3.040e-09 (tail scale N^(2-2s) = 1.0e-08)
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_reference_output(capsys):
    code, out, _ = invoke(capsys, "trace", "31", "75")
    assert code == 0
    assert out == TRACE_31_75


def test_trace_greedy(capsys):
    code, out, _ = invoke(capsys, "trace", "31", "75", "--convention", "greedy")
    assert code == 0
    assert out.splitlines()[0] == "run on (31, 75), greedy convention"
    assert out.splitlines()[-1] == "K = 6, S = 7, terminal = (0, 16), odd gcd = 1"
    assert "rewritten" not in out


def test_trace_json(capsys):
    code, out, _ = invoke(capsys, "trace", "31", "75", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["K"] == 7 and d["S"] == 6
    assert d["rows"][1]["a_i"] == 1
    assert d["rows"][-1]["val_remainder"] is None


def test_expand(capsys):
    code, out, _ = invoke(capsys, "expand", "--rational", "31/75")
    assert code == 0
    assert out == "1,2,2,1,0,0,0\nK = 7, S = 6\n"
    _, out, _ = invoke(capsys, "expand", "--rational", "31/75",
                       "--convention", "greedy")
    assert out == "1,2,2,1,0,1\nK = 6, S = 7\n"
    _, out, _ = invoke(capsys, "expand", "--rational", "31/75", "--depth", "3")
    assert out.splitlines()[0] == "1,2,2"


def test_expand_json(capsys):
    # --depth cuts the digits printed, not the run: K and S stay the
    # whole run's
    code, out, _ = invoke(capsys, "expand", "--rational", "31/75", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 31, "q": 75, "convention": "canonical",
                               "digits": [1, 2, 2, 1, 0, 0, 0],
                               "K": 7, "S": 6}
    code, out, _ = invoke(capsys, "expand", "--rational", "31/75",
                          "--depth", "3", "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["digits"], d["K"], d["S"]) == ([1, 2, 2], 7, 6)


def test_expand_bad_rational(capsys):
    code, _, err = invoke(capsys, "expand", "--rational", "31:75")
    assert code == 1
    assert err.startswith("error:")


def test_eval_example(capsys):
    code, out, _ = invoke(capsys, "eval", "--exponents", "1,2")
    assert code == 0
    assert out == "2/5 (P=4, Q=10, g=2, R=5)\n"


def test_eval_json(capsys):
    code, out, _ = invoke(capsys, "eval", "--exponents", "1,2,2,1,0,0,0",
                          "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["numerator"], d["denominator"]) == (31, 75)
    assert d["value"] == "31/75"


def test_constants_output(capsys):
    code, out, _ = invoke(capsys, "constants")
    assert code == 0
    assert out == CONSTANTS


def test_constants_json(capsys):
    code, out, _ = invoke(capsys, "constants", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["E"] == pytest.approx(2.600460, abs=1e-6)
    assert set(d["mean_costs"]) == {"sigma", "q", "rho", "r", "q2"}


def test_eigen(capsys):
    code, out, _ = invoke(capsys, "eigen", "--t", "1", "--v", "0",
                          "--grid", "32")
    assert code == 0
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(1.0, abs=1e-8)
    code, out, _ = invoke(capsys, "eigen", "--t", "1", "--v", "0",
                          "--grid", "32", "--json", "--eigenfunction")
    d = json.loads(out)
    assert len(d["eigenfunction"]) == 32


def test_eigen_text_names_the_tail_bound(capsys):
    code, out, _ = invoke(capsys, "eigen", "--t", "1.1", "--v", "0.1",
                          "--grid", "32")
    assert code == 0
    res = solve_operator(1.1, 0.1, n=32)
    assert out.splitlines()[1] == (
        f"grid = 32, branches = {res.a_max}, tail_tol = 1e-14, "
        f"iterations = {res.iterations}")


def test_eigen_json_names_the_tail_bound(capsys):
    res = solve_operator(1.1, 0.1, n=32)
    keys = ["t", "v", "grid_size", "a_max", "eigenvalue", "residual",
            "iterations", "tail_tol"]
    for extra in ((), ("--eigenfunction",)):
        code, out, _ = invoke(capsys, "eigen", "--t", "1.1", "--v", "0.1",
                              "--grid", "32", "--json", *extra)
        assert code == 0
        d = json.loads(out)
        assert list(d) == keys + ["eigenfunction"] * len(extra)
        assert d["tail_tol"] == res.tail_tol == 1e-14
        # a_max, iterations and residual included
        assert d == res.to_json_dict(include_eigenfunction=bool(extra))


def test_eigen_outside_box(capsys):
    code, _, err = invoke(capsys, "eigen", "--t", "0.5", "--v", "0")
    assert code == 1
    assert err.startswith("error:")


def test_taylor_json(capsys):
    code, out, _ = invoke(capsys, "taylor", "--grid", "32", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["A_estimate"] == pytest.approx(d["A_closed"], abs=1e-5)
    assert d["D_estimate"] == pytest.approx(d["D_closed"], abs=1e-5)


def test_taylor_text(capsys):
    code, out, _ = invoke(capsys, "taylor", "--grid", "32")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("-dlambda/dt = 1.623524 (closed form A = 1.623524")
    assert lines[1].startswith(" dlambda/dv = 0.976936 (closed form D = 0.976936")
    assert lines[2].startswith("grid = 32, branches = ")
    name, value = lines[3].split(" = ")
    assert name == "residual" and float(value) < 1e-10


def test_experiment_exhaustive_with_csv(capsys, tmp_path):
    out_file = tmp_path / "costs.csv"
    code, out, _ = invoke(capsys, "experiment", "--nmax", "60",
                          "--exhaustive", "--out", str(out_file))
    assert code == 0
    assert out.splitlines()[0].startswith(
        "mean costs over Omega_N: N = 60, exhaustive,")
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "N,mode,samples,cost,mean,stderr,ratio_to_K,theory,deviation"
    assert len(lines) == 8


def test_experiment_json(capsys):
    code, out, _ = invoke(capsys, "experiment", "--nmax", "60",
                          "--exhaustive", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["mode"] == "exhaustive"
    assert set(d["means"]) == {"K", "S", "sigma", "q", "rho", "r", "q2"}


def test_experiment_names_an_all_pairs_run(capsys):
    args = ("experiment", "--nmax", "20", "--exhaustive")
    for extra, coprime in (((), True), (("--all-pairs",), False)):
        _, text, _ = invoke(capsys, *args, *extra)
        head = text.splitlines()[0]
        assert ("exhaustive, all pairs," in head) is not coprime
        _, out, _ = invoke(capsys, *args, *extra, "--json")
        assert json.loads(out)["coprime_only"] is coprime


def test_experiment_byte_identical(capsys):
    args = ("experiment", "--nmax", "2000", "--samples", "400")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


_SLOPE_ARGV = ("experiment", "--slope", "--nmax", "65536", "--samples",
               "500", "--seed", "3")


def test_experiment_slope_text(capsys):
    code, out, _ = invoke(capsys, *_SLOPE_ARGV)
    assert code == 0
    rep = slope_estimate(65536, 500, seed=3)
    lines = out.splitlines()
    assert lines[0] == ("slope ladder N = 4096 -> 65536, "
                        "500 pairs per rung, seed = 3")
    assert lines[1].split() == ["cost", "slope", "stderr", "ratio",
                                "ratio_se", "target"]
    assert [line.split() for line in lines[2:-1]] == [
        [key] + [f"{table[key]:.6f}" for table in (
            rep.slopes, rep.slope_stderrs, rep.ratios, rep.ratio_stderrs,
            rep.targets)]
        for key in COST_KEYS]
    assert lines[-1] == ("targets: limit slope for K, "
                         "limit slope ratios otherwise")


def test_experiment_slope_csv_holds_both_rungs(capsys, tmp_path):
    # one header, then the 7 cost rows of the lower rung and of the upper
    out_file = tmp_path / "ladder.csv"
    code, _, _ = invoke(capsys, *_SLOPE_ARGV, "--out", str(out_file))
    assert code == 0
    lo, hi = slope_estimate(65536, 500, seed=3).rungs
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 15
    assert rows == [[str(cell) for cell in row]
                    for row in lo.to_csv_rows() + hi.to_csv_rows()[1:]]


def test_experiment_slope_rejects_exhaustive(capsys):
    code, _, err = invoke(capsys, "experiment", "--nmax", "65536",
                          "--slope", "--exhaustive")
    assert code == 1
    assert "slope ladder" in err


def test_experiment_exhaustive_rejects_samples(capsys):
    # the exhaustive run took every pair and dropped the count unread
    code, out, err = invoke(capsys, "experiment", "--nmax", "60",
                            "--exhaustive", "--samples", "7")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--samples" in err


def test_experiment_exhaustive_rejects_seed(capsys):
    # the exhaustive run draws nothing, so a typed seed went unused
    code, out, err = invoke(capsys, "experiment", "--nmax", "60",
                            "--exhaustive", "--seed", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--seed" in err


def test_exhaustive_report_names_no_seed(capsys):
    args = ("experiment", "--nmax", "60", "--exhaustive")
    _, text, _ = invoke(capsys, *args)
    assert text.splitlines()[0] == (
        "mean costs over Omega_N: N = 60, exhaustive, 1101 pairs, canonical")
    _, out, _ = invoke(capsys, *args, "--json")
    assert json.loads(out)["seed"] is None
    _, out, _ = invoke(capsys, "experiment", "--nmax", "60", "--samples",
                       "50", "--seed", "3", "--json")
    assert json.loads(out)["seed"] == 3


def test_eigen_text_rejects_eigenfunction(capsys):
    # the text report has no eigenfunction; the flag was dropped unread
    code, out, err = invoke(capsys, "eigen", "--t", "1", "--v", "0",
                            "--grid", "16", "--eigenfunction")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--json" in err


def test_experiment_slope_rejects_all_pairs(capsys):
    code, out, err = invoke(capsys, "experiment", "--nmax", "65536",
                            "--samples", "200", "--slope", "--all-pairs")
    assert code == 1
    assert out == ""
    assert "slope ladder" in err and "--all-pairs" in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_experiment_rejects_threads_below_one(capsys, threads):
    code, out, err = invoke(capsys, "experiment", "--nmax", "1000",
                            "--samples", "100", "--threads", threads)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "threads" in err


def test_dirichlet_output(capsys):
    code, out, _ = invoke(capsys, "dirichlet")
    assert code == 0
    assert out == DIRICHLET


@pytest.mark.parametrize("s", ["1e200", "1e308"])
def test_dirichlet_at_huge_s_prints_the_limit(capsys, s):
    # zeta(2s - 1) and zeta(2s) are both 1.0 here, as at s = 200; the
    # Euler-Maclaurin tail must not turn them into inf * 0 = nan
    code, out, err = invoke(capsys, "dirichlet", "--s", s)
    assert code == 0 and err == ""
    assert "nan" not in out
    lines = out.splitlines()
    assert lines[1].endswith(" = 1.0000000000")
    assert lines[2].startswith("deviation = +0.000e+00 ")


def test_worstcase_output(capsys, tmp_path):
    out_file = tmp_path / "family.csv"
    code, out, _ = invoke(capsys, "worstcase", "--nmax", "8",
                          "--out", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "worst-case family (1, 2^n - 1), n = 2..8"
    assert lines[-2] == "greedy: K ~ 2.000000*n -2.000000, S ~ 0.500000*n^2 + O(n)"
    assert lines[-1] == "canonical: K ~ 2.000000*n -1.000000, S ~ 0.500000*n^2 + O(n)"
    assert len(out_file.read_text().strip().splitlines()) == 8


_OUT_ARGV = [
    ("worstcase", "--nmax", "8"),
    ("experiment", "--nmax", "100", "--exhaustive"),
    ("experiment", "--nmax", "65536", "--samples", "100", "--slope"),
]


def _refuse_runs(monkeypatch, exc):
    # every run behind an --out command raises ``exc`` if it is called
    def refuse(*args, **kwargs):
        raise exc

    for name in ("worstcase_scan", "mean_costs", "slope_estimate"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("argv", _OUT_ARGV)
@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_exits_1(monkeypatch, capsys, tmp_path, argv, target):
    # a missing directory or a directory as the file was a traceback, and
    # then an error only after the whole run; it now fails before the run
    _refuse_runs(monkeypatch, AssertionError("run started before --out"))
    path = tmp_path / target
    reason = ("Is a directory" if path.is_dir()
              else f"no directory {path.parent}")
    code, out, err = invoke(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {path}: {reason}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", _OUT_ARGV)
def test_out_check_neither_creates_nor_truncates(monkeypatch, capsys,
                                                 tmp_path, argv):
    # a writable --out passes the check untouched: a new file is not made
    # and an old one keeps its text when the run then fails
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("keep\n")
    _refuse_runs(monkeypatch, DomainError("run refused"))
    for path in (new, old):
        code, _, err = invoke(capsys, *argv, "--out", str(path))
        assert (code, err) == (1, "error: run refused\n")
    assert not new.exists() and old.read_text() == "keep\n"


def test_out_that_fails_at_write_time_exits_1(capsys, tmp_path):
    # a name too long for the file system passes the check before the run
    # and fails at the write, which reports it the same way
    path = tmp_path / ("x" * 300 + ".csv")
    code, out, err = invoke(capsys, "worstcase", "--nmax", "8", "--out",
                            str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_worstcase_json(capsys):
    code, out, _ = invoke(capsys, "worstcase", "--nmax", "6", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["rows"][0] == [2, 2, 2, 3, 1]
    assert set(d["fits"]) == {"greedy", "canonical"}


def test_conjecture_smoke(capsys):
    args = ("conjecture", "--bits", "16", "--samples", "64",
            "--nmax", "65536", "--pair-samples", "1000")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conjectured B + D = 1.260725"
    assert lines[-1].startswith("verdict: ")
    code, out, _ = invoke(capsys, *args, "--json")
    assert code == 0
    d = json.loads(out)
    assert d["birkhoff"]["bits"] == 16
    assert d["slope"]["N_max"] == 65536
    assert d["target"] == pytest.approx(1.260725, abs=1e-6)


@pytest.mark.parametrize("argv, report", [
    (("constants",), m_table),
    (("dirichlet", "--s", "2.5", "--nmax", "500"),
     lambda: dirichlet_check(2.5, 500)),
    (("worstcase", "--nmax", "9"), lambda: worstcase_scan(9)),
    (("experiment", "--slope", "--nmax", "65536", "--samples", "500",
      "--seed", "3"), lambda: slope_estimate(65536, 500, seed=3)),
    (("conjecture", "--bits", "16", "--samples", "64", "--nmax", "65536",
      "--pair-samples", "500", "--seed", "3"),
     lambda: conjecture_check(bits=16, trajectory_samples=64, N_max=65536,
                              pair_samples=500, seed=3)),
], ids=["constants", "dirichlet", "worstcase", "experiment-slope",
        "conjecture"])
def test_json_prints_the_report_unpatched(capsys, argv, report):
    # --json prints the library report's own dict, with no key added
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(report().to_json_dict(), indent=2) + "\n"


class _Called(Exception):
    """Ends a run at the library entry point it reached."""


# every library function and class the subcommands call with options
_ENTRY_POINTS = ("cl_run", "cf_eval", "m_table", "solve_operator",
                 "taylor_estimates", "OmegaSpec", "mean_costs",
                 "slope_estimate", "dirichlet_check", "worstcase_scan",
                 "conjecture_check")


def _record_calls(monkeypatch):
    """Replace each entry point in the CLI's namespace by a recorder of
    the arguments it is given, by the real signature's parameter names;
    a name the signature lacks fails the bind.  The recorded OmegaSpec
    returns "spec"; every other recorder ends the run."""
    calls = []

    def recorder(name, real):
        def record(*args, **kwargs):
            calls.append((name, dict(
                inspect.signature(real).bind(*args, **kwargs).arguments)))
            if name != "OmegaSpec":
                raise _Called
            return "spec"
        return record

    for name in _ENTRY_POINTS:
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
    return calls


_EXP = ("experiment", "--nmax", "65536")

# each subcommand with its required arguments only: no option is passed
_REQUIRED = [
    (("trace", "31", "75"), [("cl_run", {"p": 31, "q": 75})]),
    (("expand", "--rational", "31/75"), [("cl_run", {"p": 31, "q": 75})]),
    (("eval", "--exponents", "1,2"), [("cf_eval", {"exponents": (1, 2)})]),
    (("constants",), [("m_table", {})]),
    (("eigen", "--t", "1", "--v", "0"),
     [("solve_operator", {"t": 1.0, "v": 0.0})]),
    (("taylor",), [("taylor_estimates", {})]),
    (_EXP, [("OmegaSpec", {"N": 65536}), ("mean_costs", {"spec": "spec"})]),
    ((*_EXP, "--slope"), [("slope_estimate", {"N_max": 65536})]),
    (("dirichlet",), [("dirichlet_check", {})]),
    (("worstcase",), [("worstcase_scan", {})]),
    (("conjecture",), [("conjecture_check", {})]),
]

# each subcommand with every option it has: each typed value arrives
# under the parameter's own name
_EVERY_OPTION = [
    (("trace", "31", "75", "--convention", "greedy", "--json"),
     [("cl_run", {"p": 31, "q": 75, "convention": "greedy"})]),
    (("expand", "--rational", "31/75", "--depth", "2", "--convention",
      "greedy", "--json"),
     [("cl_run", {"p": 31, "q": 75, "convention": "greedy"})]),
    (("eval", "--exponents", "1,2", "--json"),
     [("cf_eval", {"exponents": (1, 2)})]),
    (("constants", "--json"), [("m_table", {})]),
    (("eigen", "--t", "1.1", "--v", "0.1", "--grid", "32", "--eigenfunction",
      "--json"),
     [("solve_operator", {"t": 1.1, "v": 0.1, "n": 32})]),
    (("taylor", "--grid", "32", "--json"), [("taylor_estimates", {"n": 32})]),
    ((*_EXP, "--samples", "500", "--all-pairs", "--seed", "3", "--threads",
      "2", "--out", "OUT", "--json"),
     [("OmegaSpec", {"N": 65536, "sample_count": 500, "seed": 3,
                     "coprime_only": False}),
      ("mean_costs", {"spec": "spec", "threads": 2})]),
    ((*_EXP, "--exhaustive", "--all-pairs", "--threads", "2", "--out", "OUT",
      "--json"),
     [("OmegaSpec", {"N": 65536, "mode": "exhaustive",
                     "coprime_only": False}),
      ("mean_costs", {"spec": "spec", "threads": 2})]),
    ((*_EXP, "--slope", "--samples", "500", "--seed", "3", "--threads", "2",
      "--out", "OUT", "--json"),
     [("slope_estimate", {"N_max": 65536, "sample_count": 500, "seed": 3,
                          "threads": 2})]),
    (("dirichlet", "--s", "2.5", "--nmax", "500", "--json"),
     [("dirichlet_check", {"s": 2.5, "N": 500})]),
    (("worstcase", "--nmax", "9", "--out", "OUT", "--json"),
     [("worstcase_scan", {"n_max": 9})]),
    (("conjecture", "--bits", "16", "--samples", "64", "--nmax", "65536",
      "--pair-samples", "500", "--seed", "3", "--threads", "2", "--json"),
     [("conjecture_check", {"bits": 16, "trajectory_samples": 64,
                            "N_max": 65536, "pair_samples": 500, "seed": 3,
                            "threads": 2})]),
]


def _ids(cases, suffix=""):
    return [argv[0] + "".join(f" {flag}" for flag in ("--slope", "--exhaustive")
                              if flag in argv) + suffix
            for argv, _ in cases]


@pytest.mark.parametrize("argv, want", _REQUIRED + _EVERY_OPTION,
                         ids=_ids(_REQUIRED) + _ids(_EVERY_OPTION, " (all)"))
def test_cli_forwards_only_typed_options(monkeypatch, tmp_path, argv, want):
    calls = _record_calls(monkeypatch)
    out = str(tmp_path / "x.csv")
    with pytest.raises(_Called):
        run([out if arg == "OUT" else arg for arg in argv])
    assert calls == want
    assert os.listdir(tmp_path) == []


def test_every_option_is_forwarded_in_a_case():
    # a new option must join _EVERY_OPTION above
    sub = next(action for action in cli._build_parser()._actions
               if action.dest == "command")
    typed = {}
    for argv, _ in _EVERY_OPTION:
        typed.setdefault(argv[0], set()).update(argv)
    for name, parser in sub.choices.items():
        for action in parser._actions:
            for flag in action.option_strings:
                assert flag in typed[name] or flag in ("-h", "--help"), (
                    name, flag)


def test_experiment_slope_draws_the_library_ladder(monkeypatch):
    # without --samples the ladder draws slope_estimate's own 10^6 pairs
    # per rung, as c07 and conjecture_check do; the CLI drew 10^5
    calls = _record_calls(monkeypatch)
    with pytest.raises(_Called):
        run([*_EXP, "--slope"])
    bound = inspect.signature(slope_estimate).bind(**calls[0][1])
    bound.apply_defaults()
    assert bound.arguments["sample_count"] == LADDER_PAIRS == 10 ** 6
    pair_samples = inspect.signature(conjecture_check).parameters[
        "pair_samples"]
    assert pair_samples.default == LADDER_PAIRS


def test_domain_error_exits_1(capsys):
    code, _, err = invoke(capsys, "trace", "75", "31")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("dirichlet", "--s", "nan"),
    ("dirichlet", "--s", "inf"),
    ("eval", "--exponents", "1,x"),
    ("expand", "--rational", "31/75", "--depth", "0"),
    ("eigen", "--t", "1", "--v", "0", "--grid", "1"),
    ("taylor", "--grid", "1"),
    ("experiment", "--nmax", "1"),
    ("experiment", "--nmax", "100", "--samples", "1"),
    ("experiment", "--nmax", "20000", "--exhaustive"),
    ("experiment", "--nmax", "1000", "--slope"),
    ("dirichlet", "--nmax", "1"),
    ("worstcase", "--nmax", "3"),
    ("conjecture", "--bits", "8"),
    ("conjecture", "--samples", "1"),
    ("conjecture", "--nmax", "1000", "--samples", "200000"),
    ("conjecture", "--pair-samples", "1"),
    ("experiment", "--slope", "--nmax", "65536", "--samples", "2",
     "--seed", "26"),
    ("worstcase", "--nmax", "4", "--out", ""),
    ("experiment", "--nmax", "50", "--exhaustive", "--out", ""),
])
def test_out_of_range_floats_and_terms_exit_1(capsys, argv):
    # non-finite exponents, sizes and counts out of their ranges, a ladder
    # whose slope(K) is 0 and an empty --out are domain errors, not
    # tracebacks, nan output or a file silently left unwritten
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("eigen", "--t", "1", "--v", "0", "--grid", "1025"),
    ("taylor", "--grid", "1025"),
])
def test_oversized_grid_exits_1_before_allocating(capsys, argv):
    # the n x n matrices of a 1025-point grid would take 8 MB each; the
    # grid is refused before any of them is built
    tracemalloc.start()
    try:
        code, out, err = invoke(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "1024" in err
    assert peak < 1 << 20


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["bogus"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        run(["expand"])                      # missing required --rational
    assert exc_info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc_info:
        run(["constants", "--terms", "7"])   # the series length is fixed
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --terms 7" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        run(["eigen", "--t", "1", "--v", "0", "--tail-tol", "1e-10"])
    assert exc_info.value.code == 2          # the tail bound is fixed
    assert ("unrecognized arguments: --tail-tol 1e-10"
            in capsys.readouterr().err)


def test_assertion_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConsistencyError("forced")

    monkeypatch.setattr("clgcd.cli.cl_run", boom)
    code, _, err = invoke(capsys, "trace", "31", "75")
    assert code == 3
    assert err.startswith("assertion failed:")
    # eval checks its continuant pair against the direct evaluation
    real = cli.continuants
    monkeypatch.setattr(cli, "continuants", lambda exponents: real((2,)))
    code, out, err = invoke(capsys, "eval", "--exponents", "1,2")
    assert (code, out) == (3, "")
    assert err == ("assertion failed: continuants disagree with direct "
                   "evaluation\n")


def test_closed_stdout_exits_141_quietly():
    # the reader of the pipe is gone before the child writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clgcd", "experiment", "--nmax", "20",
             "--exhaustive"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


ROOT = Path(__file__).resolve().parents[1]

# each demo with the output that pins what it computes; a demo missing
# here fails its run below
DEMOS = {
    "conjecture_two_routes": ("target B + D = 1.260725",),
    "constants_and_spectrum": ("-d lambda/dt = 1.623523678",
                               "d lambda/dv = 0.976936081"),
    "cost_identities": ("(79089, 339566): digits (2, 3, 0, 1, 2, 1, 0, 0, 4, "
                        "1, 0, 4, 1, 3, 2, 0, 1, 2, 0)",
                        "h(0) = 79089/339566, h'(0) = -1/14759048749568, "
                        "det weight d = 2^27"),
    "invariant_density": ("integral of psi over [0, 1] = 1.000000000000001",),
    "mean_value_experiment": ("N = 2000: 1216587 coprime pairs (all), "
                              "log N = 7.601",),
    "trace_walkthrough": ("K = 7, S = 6, terminal = (0, 8), odd gcd = 1",),
}


def test_readme_quickstart():
    # the README's Python block runs as printed and gives every value its
    # comments state
    text = (ROOT / "README.md").read_text()
    ns = {}
    exec(text.split("```python\n", 1)[1].split("```", 1)[0], ns)
    run = ns["run"]
    assert run.exponents == (1, 2, 2, 1, 0, 0, 0)
    assert (run.steps, run.shifts, run.odd_gcd) == (7, 6, 1)
    assert ns["cf_eval"](run.exponents) == Fraction(31, 75)
    cp = ns["cp"]
    assert (cp.P, cp.Q, cp.g, cp.R) == (248, 600, 8, 75)
    assert ns["orbit"](Fraction(31, 75)).branches() == (1, 2, 2, 1, 0, 1)
    assert str(ns["table"].D).startswith("0.97693608")
    assert abs(ns["pair"].eigenvalue - 1.0) <= 1e-12


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(name):
    assert name in DEMOS, "pin a line of the new demo's output in DEMOS"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for line in DEMOS[name]:
        assert line in proc.stdout
