"""Command-line front end: traces, expansions, constants, spectral runs,
experiments, and the conjecture test.

Every subcommand prints aligned text by default and JSON under ``--json``.
An option reaches its handler or library function under the parameter's
own name, and only when typed, so every default is the function's own; the
text names what the report says ran.  Output is a pure function of argv,
so identical invocations are byte-identical.  Exit codes:
0 success, 1 domain error or unwritable --out, 2 usage error, 3 failed hard
assertion, 141 (128 + SIGPIPE, silent) when stdout's reader has gone.  An
--out that is empty, is a directory or lies in a missing directory is
refused before the run; any other failure to write it is reported after.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from .algorithm import CANONICAL, GREEDY, cf_eval, cl_run, continuants
from .constants import m_table
from .errors import (ConsistencyError, ConvergenceError, DomainError,
                     PoleError, require_int)
from .experiments import (
    COST_KEYS,
    OmegaSpec,
    conjecture_check,
    dirichlet_check,
    mean_costs,
    slope_estimate,
    worstcase_scan,
)
from .spectral import solve_operator, taylor_estimates


def _table(rows) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _val(x) -> str:
    if x == math.inf:
        return "inf"
    return str(int(x))


def _json_out(obj) -> str:
    return json.dumps(obj, indent=2)


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before the run, which
    may be long; the file itself is neither created nor truncated here."""
    if not path:
        raise DomainError("cannot write '': empty path")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise DomainError(f"cannot write {path}: Is a directory")
    if not os.path.isdir(parent):
        raise DomainError(f"cannot write {path}: no directory {parent}")


def _write_csv(path: str, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------- trace

def _cmd_trace(p, q, as_json=False, **kw) -> str:
    trace = cl_run(p, q, **kw)
    if as_json:
        return _json_out(trace.to_json_dict())
    rows = [["i", "a_i", "shifted", "remainder", "shifted_2",
             "remainder_2", "v(sh)", "v(rem)", "v(gcd)"]]
    for r in trace.table_rows():
        rows.append([
            str(r.index),
            "-" if r.exponent is None else str(r.exponent),
            str(r.shifted),
            str(r.remainder),
            format(r.shifted, "b"),
            format(r.remainder, "b") if r.remainder else "0",
            _val(r.val_shifted),
            _val(r.val_remainder),
            _val(r.val_gcd),
        ])
    tail = (f"K = {trace.steps}, S = {trace.shifts}, "
            f"terminal = (0, {trace.terminal[1]}), odd gcd = {trace.odd_gcd}")
    if trace.convention == CANONICAL:
        tail += "  [final step rewritten (a) -> (a-1, 0)]"
    return "\n".join([
        f"run on ({trace.p}, {trace.q}), {trace.convention} convention",
        _table(rows),
        tail,
    ])


# ------------------------------------------------------- expand / eval

def _parse_rational(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split("/")
        p, q = int(p_str), int(q_str)
    except ValueError:
        raise DomainError(f"expected p/q with integers, got {text!r}") from None
    return p, q


def _cmd_expand(rational, depth=None, as_json=False, **kw) -> str:
    p, q = _parse_rational(rational)
    trace = cl_run(p, q, **kw)
    digits = trace.exponents
    if depth is not None:
        digits = digits[: require_int("depth", depth, 1)]
    if as_json:
        return _json_out({
            "p": p,
            "q": q,
            "convention": trace.convention,
            "digits": list(digits),
            "K": trace.steps,
            "S": trace.shifts,
        })
    return "\n".join([
        ",".join(str(a) for a in digits),
        f"K = {trace.steps}, S = {trace.shifts}",
    ])


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(
            f"expected comma-separated integers, got {text!r}") from None


def _cmd_eval(exponents, as_json=False) -> str:
    exponents = _parse_exponents(exponents)
    value = cf_eval(exponents)
    pair = continuants(exponents)
    if Fraction(pair.P, pair.Q) != value:
        raise ConsistencyError("continuants disagree with direct evaluation")
    if as_json:
        return _json_out({
            "exponents": list(exponents),
            "value": str(value),
            "numerator": value.numerator,
            "denominator": value.denominator,
            "P": pair.P,
            "Q": pair.Q,
            "g": pair.g,
            "R": pair.R,
        })
    return f"{value} (P={pair.P}, Q={pair.Q}, g={pair.g}, R={pair.R})"


# ------------------------------------------------------------ constants

def _cmd_constants(as_json=False) -> str:
    table = m_table()
    if as_json:
        return _json_out(table.to_json_dict())
    lines = [
        f"E = {table.E:.6f}",
        f"D = {table.D:.6f}",
        f"A = {table.A:.6f}",
        f"B_conj = {table.B_conj:.6f}",
        f"H_conj = {table.H_conj:.6f}",
        f"2/H = {table.two_over_H:.6f}",
        "",
        "per-step mean growth M(c):",
    ]
    lines.extend(f"{key} = {val:.6f}" for key, val in table.mean_costs.items())
    return "\n".join(lines)


# --------------------------------------------------------- eigen / taylor

def _cmd_eigen(eigenfunction=False, as_json=False, **kw) -> str:
    if eigenfunction and not as_json:
        raise DomainError("the eigenfunction is printed in JSON only; "
                          "add --json")
    res = solve_operator(**kw)
    if as_json:
        return _json_out(res.to_json_dict(include_eigenfunction=eigenfunction))
    return "\n".join([
        f"lambda({res.t:g}, {res.v:g}) = {res.eigenvalue:.12f}",
        f"grid = {res.grid_size}, branches = {res.a_max}, "
        f"tail_tol = {res.tail_tol:g}, iterations = {res.iterations}",
        f"residual = {res.residual:.3e}",
    ])


def _cmd_taylor(as_json=False, **kw) -> str:
    est = taylor_estimates(**kw)
    table = m_table()
    if as_json:
        out = est.to_json_dict()
        out["A_closed"] = table.A
        out["D_closed"] = table.D
        return _json_out(out)
    return "\n".join([
        f"-dlambda/dt = {est.entropy_slope:.6f} "
        f"(closed form A = {table.A:.6f}, diff {est.entropy_slope - table.A:+.2e})",
        f" dlambda/dv = {est.shift_slope:.6f} "
        f"(closed form D = {table.D:.6f}, diff {est.shift_slope - table.D:+.2e})",
        f"grid = {est.grid_size}, branches = {est.a_max}, "
        f"iterations = {est.iterations[0]} (right), {est.iterations[1]} (left)",
        f"residual = {est.residual:.3e}",
    ])


# ----------------------------------------------------------- experiment

def _mean_text(rep) -> str:
    mode = rep.spec.mode + ("" if rep.spec.coprime_only else ", all pairs")
    seed = "" if rep.seed is None else f"seed = {rep.seed}, "
    head = (f"mean costs over Omega_N: N = {rep.spec.N}, {mode}, "
            f"{rep.samples} pairs, {seed}{rep.convention}")
    rows = [["cost", "mean", "stderr", "ratio_to_K", "theory", "deviation"]]
    dev = rep.deviations()
    for key in COST_KEYS:
        rows.append([
            key,
            f"{rep.means[key]:.6f}",
            f"{rep.stderrs[key]:.6f}",
            f"{rep.ratios_to_k[key]:.6f}",
            f"{rep.theory[key]:.6f}",
            f"{dev[key]:+.6f}",
        ])
    return head + "\n" + _table(rows)


def _slope_text(rep) -> str:
    head = (f"slope ladder N = {rep.N_max // 16} -> {rep.N_max}, "
            f"{rep.sample_count} pairs per rung, seed = {rep.seed}")
    rows = [["cost", "slope", "stderr", "ratio", "ratio_se", "target"]]
    for key in COST_KEYS:
        rows.append([
            key,
            f"{rep.slopes[key]:.6f}",
            f"{rep.slope_stderrs[key]:.6f}",
            f"{rep.ratios[key]:.6f}",
            f"{rep.ratio_stderrs[key]:.6f}",
            f"{rep.targets[key]:.6f}",
        ])
    note = "targets: limit slope for K, limit slope ratios otherwise"
    return "\n".join([head, _table(rows), note])


def _cmd_experiment(N, slope=False, out=None, as_json=False, **kw) -> str:
    # --exhaustive and --all-pairs arrive as OmegaSpec's mode and coprime_only
    if out is not None:
        _check_out(out)
    if slope:
        if "mode" in kw:
            raise DomainError("the slope ladder samples; drop --exhaustive")
        if "coprime_only" in kw:
            raise DomainError("the slope ladder draws coprime pairs only; "
                              "drop --all-pairs")
        rep = slope_estimate(N, **kw)
        if out is not None:
            rows = rep.rungs[0].to_csv_rows() + rep.rungs[1].to_csv_rows()[1:]
            _write_csv(out, rows)
        return _json_out(rep.to_json_dict()) if as_json else _slope_text(rep)
    if "mode" in kw:
        for key, flag in (("sample_count", "--samples"), ("seed", "--seed")):
            if key in kw:
                raise DomainError("the exhaustive run takes every pair; "
                                  f"drop {flag}")
    threads = {"threads": kw.pop("threads")} if "threads" in kw else {}
    rep = mean_costs(OmegaSpec(N, **kw), **threads)
    if out is not None:
        _write_csv(out, rep.to_csv_rows())
    return _json_out(rep.to_json_dict()) if as_json else _mean_text(rep)


# ---------------------------------------------- dirichlet / worstcase

def _cmd_dirichlet(as_json=False, **kw) -> str:
    rep = dirichlet_check(**kw)
    if as_json:
        return _json_out(rep.to_json_dict())
    z = 2.0 * rep.s
    return "\n".join([
        f"partial sum S({rep.s:g}) over q <= {rep.N} = {rep.partial_sum:.10f}",
        f"zeta({z - 1:g})/zeta({z:g}) = {rep.zeta_ratio:.10f}",
        f"deviation = {rep.deviation:+.3e} (tail scale N^(2-2s) = {rep.tail_scale:.1e})",
    ])


def _cmd_worstcase(out=None, as_json=False, **kw) -> str:
    if out is not None:
        _check_out(out)
    rep = worstcase_scan(**kw)
    if out is not None:
        _write_csv(out, rep.to_csv_rows())
    if as_json:
        return _json_out(rep.to_json_dict())
    rows = [[str(x) for x in row] for row in rep.to_csv_rows()]
    lines = [f"worst-case family (1, 2^n - 1), n = 2..{rep.n_max}", _table(rows)]
    for conv in ("greedy", "canonical"):
        fit = rep.fits[conv]
        lines.append(
            f"{conv}: K ~ {fit['alpha']:.6f}*n {fit['beta']:+.6f}, "
            f"S ~ {fit['gamma']:.6f}*n^2 + O(n)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------- conjecture

def _cmd_conjecture(as_json=False, **kw) -> str:
    rep = conjecture_check(**kw)
    if as_json:
        return _json_out(rep.to_json_dict())
    tol = 0.05 * rep.target
    ok = (abs(rep.e2_estimate - rep.target) <= tol
          and abs(rep.ratio_estimate - rep.target) <= tol
          and abs(rep.z_score) <= 3.0)
    verdict = ("consistent with D - B = log 2" if ok
               else "in tension with D - B = log 2")
    imp = rep.implied_d_minus_b
    return "\n".join([
        f"conjectured B + D = {rep.target:.6f}",
        f"trajectory e2 = {rep.e2_estimate:.6f} +- {rep.e2_stderr:.6f} "
        f"({rep.birkhoff.bits}-bit, {rep.birkhoff.samples} orbits, "
        f"finite-size scale {rep.e2_systematic:.6f})",
        f"slope(rho)/slope(K) = {rep.ratio_estimate:.6f} +- {rep.ratio_stderr:.6f} "
        f"(N = {rep.slope.N_max}, {rep.slope.sample_count} pairs per rung)",
        f"difference = {rep.difference:+.6f} +- {rep.combined_stderr:.6f} "
        f"(z = {rep.z_score:+.2f})",
        f"implied D - B: trajectory {imp['trajectory']:.6f}, "
        f"ensemble {imp['ensemble']:.6f}, log 2 = {rep.log2:.6f}",
        f"verdict: {verdict}",
    ])


# -------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clgcd",
        description="shift-and-subtract gcd: traces, cost algebra, "
                    "spectral constants, and mean-value experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text,
                            argument_default=argparse.SUPPRESS)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", dest="as_json",
                        help="emit JSON instead of text")
        return sp

    sp = add("trace", _cmd_trace, "full run table for one pair")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--convention", choices=(GREEDY, CANONICAL))

    sp = add("expand", _cmd_expand, "continued-logarithm digits of p/q")
    sp.add_argument("--rational", required=True, metavar="P/Q")
    sp.add_argument("--depth", type=int,
                    help="print only the first k digits")
    sp.add_argument("--convention", choices=(GREEDY, CANONICAL))

    sp = add("eval", _cmd_eval, "rational value of a digit sequence")
    sp.add_argument("--exponents", required=True, metavar="A1,A2,...")

    add("constants", _cmd_constants, "closed-form analysis constants")

    sp = add("eigen", _cmd_eigen, "dominant eigenvalue of the transfer operator")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--grid", type=int, dest="n")
    sp.add_argument("--eigenfunction", action="store_true",
                    help="include eigenfunction samples in JSON output")

    sp = add("taylor", _cmd_taylor,
             "eigenvector-perturbation eigenvalue slopes vs A, D")
    sp.add_argument("--grid", type=int, dest="n")

    sp = add("experiment", _cmd_experiment, "mean costs or slopes over Omega_N")
    sp.add_argument("--nmax", type=int, required=True, dest="N")
    sp.add_argument("--samples", type=int, dest="sample_count")
    sp.add_argument("--exhaustive", action="store_const", const="exhaustive",
                    dest="mode")
    sp.add_argument("--slope", action="store_true",
                    help="two-rung slope ladder nmax/16 -> nmax")
    sp.add_argument("--all-pairs", action="store_false", dest="coprime_only",
                    help="drop the coprimality filter (exploration only)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--out", metavar="FILE.CSV")

    sp = add("dirichlet", _cmd_dirichlet, "pair series against the zeta ratio")
    sp.add_argument("--s", type=float)
    sp.add_argument("--nmax", type=int, dest="N")

    sp = add("worstcase", _cmd_worstcase, "extremal family scan and fits")
    sp.add_argument("--nmax", type=int, dest="n_max")
    sp.add_argument("--out", metavar="FILE.CSV")

    sp = add("conjecture", _cmd_conjecture, "two-estimator test of D - B = log 2")
    sp.add_argument("--bits", type=int)
    sp.add_argument("--samples", type=int, dest="trajectory_samples",
                    help="trajectory count for the Birkhoff estimator")
    sp.add_argument("--nmax", type=int, dest="N_max")
    sp.add_argument("--pair-samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threads", type=int)

    return parser


def run(argv=None) -> int:
    opts = vars(_build_parser().parse_args(argv))
    del opts["command"]
    handler = opts.pop("handler")
    try:
        output = handler(**opts)
    except (DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, ConvergenceError) as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # the exit flush would raise again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
