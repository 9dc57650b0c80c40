"""Per-layer metrics derived from the traced replay's spans and probes.

Naming: ``<module>.<function>.<quantity>``.  ``*_per_call`` and
``us_per_pair`` are inclusive span durations per call; ``share`` is a
function's inclusive time over the ops' traced time; ``unattributed_share``
is the self time of the op's top-level function (plus the op root's own
glue) over the ops' traced time.  A layer a workload does not exercise, or
that no longer exists in the package, reads 0.
"""
from __future__ import annotations

from tracing import NAME, PARENT, ROOT

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
UNITS = {
    "experiments.omega_iter.us_per_pair": "us",
    "experiments.check_worstcase_bounds.us_per_call": "us",
    "experiments.mean_costs.unattributed_share": "1",
    "algorithm.exponent_run.us_per_pair": "us",
    "algorithm.exponent_run.ns_per_step": "ns",
    "algorithm.cl_run.us_per_pair": "us",
    "algorithm.cf_eval.us_per_call": "us",
    "algorithm.cost_vector.us_per_call": "us",
    "algorithm.cost_vector.share": "1",
    "algorithm.continuants.us_per_call": "us",
    "dyadic.lft_derivative_at.us_per_call": "us",
    "dyadic.g2.us_per_call": "us",
    "algorithm.steps_per_pair": "steps",
    "dynamics.birkhoff.unattributed_share": "1",
    "dynamics.transfer_apply.ms_per_call": "ms",
    "parallel.map_chunks.pool_overhead_ms": "ms",
    "parallel.speedup": "1",
    "spectral.build_matrix.ms_per_call": "ms",
    "spectral.build_matrix.share": "1",
    "spectral.build_matrix.computed_flops": "flop",
    "spectral.dominant_eigen.ms_per_call": "ms",
    "spectral.dominant_eigen.iterations": "count",
    "spectral.truncation_depth.a_max": "count",
    "spectral.taylor_estimates.ms_per_call": "ms",
    "spectral.taylor_estimates.solves": "count",
    "spectral.const_abs_err": "1",
    "constants.m_table.us_per_call": "us",
    "trace_overhead_share": "1",
}

_SCALE = {"us": 1e-3, "ms": 1e-6, "ns": 1.0}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _descendants_named(spans, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    hits = 0
    for rec in spans:
        if rec[NAME] != name:
            continue
        up = rec[PARENT]
        while up >= 0:
            if spans[up][NAME] == ancestor:
                hits += 1
                break
            up = spans[up][PARENT]
    return hits


def derive(totals, spans, top, probes: dict) -> dict:
    """Every per-layer metric from span totals, raw spans and probe values.

    ``top`` is the span name of the workload's top-level package function,
    whose self time counts as unattributed, or None.
    """
    def t(name):
        return totals.get(name)

    def per_call(name, unit):
        s = t(name)
        return _ratio(s.inclusive_ns * _SCALE[unit], s.calls) if s else 0.0

    def per_count(name, unit, j=0):
        s = t(name)
        return _ratio(s.inclusive_ns * _SCALE[unit], s.counts[j]) if s and s.counts else 0.0

    def mean_count(name, j=0):
        s = t(name)
        return _ratio(s.counts[j], s.calls) if s and s.counts else 0.0

    op_ns = t(ROOT).inclusive_ns if t(ROOT) else 0

    def share(name):
        s = t(name)
        return _ratio(s.inclusive_ns, op_ns) if s else 0.0

    def unattributed(name):
        if top != name or not t(name):
            return 0.0
        return _ratio(t(name).self_ns + t(ROOT).self_ns, op_ns)

    steps = calls = 0
    for name in ("algorithm.exponent_run", "algorithm.cl_run"):
        s = t(name)
        if s and s.counts:
            steps += s.counts[0]
            calls += s.calls
    taylor = t("spectral.taylor_estimates")

    out = {
        "experiments.omega_iter.us_per_pair":
            per_count("experiments.omega_iter", "us"),
        "experiments.check_worstcase_bounds.us_per_call":
            per_call("experiments.check_worstcase_bounds", "us"),
        "experiments.mean_costs.unattributed_share":
            unattributed("experiments.mean_costs"),
        "algorithm.exponent_run.us_per_pair":
            per_call("algorithm.exponent_run", "us"),
        "algorithm.exponent_run.ns_per_step":
            per_count("algorithm.exponent_run", "ns"),
        "algorithm.cl_run.us_per_pair": per_call("algorithm.cl_run", "us"),
        "algorithm.cf_eval.us_per_call": per_call("algorithm.cf_eval", "us"),
        "algorithm.cost_vector.us_per_call":
            per_call("algorithm.cost_vector", "us"),
        "algorithm.cost_vector.share": share("algorithm.cost_vector"),
        "algorithm.continuants.us_per_call":
            per_call("algorithm.continuants", "us"),
        "dyadic.lft_derivative_at.us_per_call":
            per_call("dyadic.lft_derivative_at", "us"),
        "dyadic.g2.us_per_call": per_call("dyadic.g2", "us"),
        "algorithm.steps_per_pair": _ratio(steps, calls),
        "dynamics.birkhoff.unattributed_share":
            unattributed("dynamics.birkhoff_estimates"),
        "dynamics.transfer_apply.ms_per_call":
            per_call("dynamics.transfer_apply", "ms"),
        "parallel.map_chunks.pool_overhead_ms":
            probes.get("pool_overhead_ms", 0.0),
        "parallel.speedup": probes.get("speedup", 0.0),
        "spectral.build_matrix.ms_per_call":
            per_call("spectral.build_matrix", "ms"),
        "spectral.build_matrix.share": share("spectral.build_matrix"),
        "spectral.build_matrix.computed_flops":
            mean_count("spectral.solve_operator", 1),
        "spectral.dominant_eigen.ms_per_call":
            per_call("spectral.dominant_eigen", "ms"),
        "spectral.dominant_eigen.iterations":
            mean_count("spectral.dominant_eigen"),
        "spectral.truncation_depth.a_max":
            mean_count("spectral.solve_operator"),
        "spectral.taylor_estimates.ms_per_call":
            per_call("spectral.taylor_estimates", "ms"),
        "spectral.taylor_estimates.solves": _ratio(
            _descendants_named(spans, "spectral.taylor_estimates",
                               "spectral.solve_operator"),
            taylor.calls if taylor else 0),
        "spectral.const_abs_err": probes.get("const_abs_err", 0.0),
        "constants.m_table.us_per_call": probes.get("m_table_us", 0.0),
        "trace_overhead_share": probes.get("trace_overhead_share", 0.0),
    }
    return out


def breakdown(totals, top) -> dict:
    """Self time per layer (module), plus the unattributed part, in ns.

    The values add up to the ops' traced time exactly.
    """
    out = {"unattributed": 0}
    for name, s in totals.items():
        if name in (ROOT, top):
            out["unattributed"] += s.self_ns
        else:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + s.self_ns
    return out
