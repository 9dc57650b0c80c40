"""The four benchmark workloads: seeded inputs, ops, output checks, spans.

An op is one call into a workload's top-level function.  Ops call package
functions through their module attribute (``experiments.mean_costs(...)``,
not a name imported into this file), so the traced replay can interpose on
exactly the calls the pipeline makes.  Every input comes from the run's
seed; the package only ever receives the generated inputs.

Why these four (README.md has the layer map):

- ``ensemble`` is one slope-ladder rung of sampled ``mean_costs`` cut into
  whole 4096-pair chunks: the cost layer does nearly all of the work.
- ``oracle`` replays the acceptance oracle's per-pair checks: the trace
  kernel does the work and the cost layer none.
- ``birkhoff`` runs the step kernel on 256-bit integers through the process
  pool and the chunk merge, the only workload that does.
- ``spectral`` is NumPy floating point only: operator solves over the
  admissible (t, v) box, the Taylor estimate and the fixed-point check.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from clgcd import algorithm, constants, dynamics, experiments, parallel, spectral
from clgcd.dyadic import dyadic_valuation

from tracing import Target


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def op_seed(seed: int, label: str, index: int) -> int:
    """Seed of op ``index``; the benchmark's own derivation, not the package's."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _steps(_args, out):
    return (len(out[0]),)


@dataclass
class Op:
    index: int
    kind: str
    items: int                          # items completed when the op succeeds
    call: Callable[[], object]          # the timed call
    key: Callable[[object], object]     # comparable digest of the result
    serial: Callable[[], object] = None  # same inputs at one thread, if threaded

    def __post_init__(self):
        if self.serial is None:
            self.serial = self.call


class Workload:
    """Defaults shared by the workloads; each subclass documents its op."""

    name = item = ""
    top = None            # span name of the top-level package function
    replay_ops = 0        # ops replayed in a traced run
    CHECK_EVERY = 0       # > 0: a seeded 1/CHECK_EVERY of ops gets a late check
    reference = "python"  # reference kernel that sets the host's speed

    def __init__(self, threads: int):
        self.threads = 1

    def check(self, op: Op, result) -> None:
        """Per-op output check, run right after the op, outside its timing."""

    def keeps(self, seed: int, index: int) -> bool:
        """Whether op ``index`` gets the expensive check after the timed phase.

        A seeded subset that always includes op 0.
        """
        return self.CHECK_EVERY > 0 and (
            index == 0
            or op_seed(seed, "check", index) % self.CHECK_EVERY == 0)

    def late_check(self, op: Op, result) -> None:
        """Expensive check of a kept op, after the timed phase."""

    def run_metrics(self) -> dict:
        """Workload-specific figures gathered by the checks."""
        return {}


# ----------------------------------------------------------------- ensemble

class Ensemble(Workload):
    """Sampled mean costs over coprime pairs at N = 10^6, one chunk per op."""

    name = "ensemble"
    item = "pairs"
    top = "experiments.mean_costs"
    N = 10 ** 6
    CHUNK = 4096                        # pairs per chunk of the sampled path
    PAIRS = CHUNK
    CHECK_EVERY = 16
    replay_ops = 4

    def input_size(self) -> dict:
        return {"N": self.N, "pairs_per_op": self.PAIRS,
                "chunks_per_op": self.PAIRS // self.CHUNK,
                "convention": "canonical", "threads": self.threads}

    def _spec(self, seed: int, count: int):
        return experiments.OmegaSpec(N=self.N, mode="sampled",
                                     sample_count=count, seed=seed)

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            spec = self._spec(op_seed(seed, self.name, i), self.PAIRS)
            yield Op(i, "mean_costs", self.PAIRS,
                     lambda spec=spec: experiments.mean_costs(spec, threads=1),
                     lambda r: r.to_json_dict())
            i += 1

    def check(self, op, report) -> None:
        _require(report.samples == self.PAIRS, "sample count")
        _require(all(math.isfinite(v) for v in report.means.values()),
                 "finite means")

    def late_check(self, op, report) -> None:
        """Means of K, S, rho and q2 and the sample count equal an exact
        recomputation through omega_iter, cl_run and continuants; q and r
        agree to 1e-12 relative."""
        want_n, want = exact_means(report.spec)
        _require(report.samples == want_n, "sample count vs omega_iter")
        for key in ("K", "S", "rho", "q2"):
            _require(report.means[key] == want[key], f"mean {key} not exact")
        for key in ("q", "r"):
            _require(math.isclose(report.means[key], want[key], rel_tol=1e-12,
                                  abs_tol=0.0), f"mean {key} off by > 1e-12")

    def warm_up(self) -> None:
        experiments.mean_costs(self._spec(0, 64), threads=1)

    def trace_targets(self) -> list:
        return [
            Target(experiments, "mean_costs", "experiments.mean_costs"),
            Target(experiments, "_chunk_pairs", "experiments.omega_iter",
                   lambda _a, out: (len(out),)),
            Target(experiments, "_exponent_run", "algorithm.exponent_run",
                   _steps),
            Target(experiments, "check_worstcase_bounds",
                   "experiments.check_worstcase_bounds"),
            Target(experiments, "cost_vector", "algorithm.cost_vector"),
            Target(algorithm, "continuants", "algorithm.continuants"),
            Target(algorithm, "lft_derivative_at", "dyadic.lft_derivative_at"),
            Target(algorithm, "g2", "dyadic.g2"),
            Target(experiments, "m_table", "constants.m_table"),
        ]


def exact_means(spec) -> tuple[int, dict]:
    """Reference means of one sampled spec from the exact scalar routes."""
    ln2 = math.log(2.0)
    n = k_sum = s_sum = g_sum = v_sum = 0
    ln_q = ln_r = 0.0
    for p, q in experiments.omega_iter(spec):
        run = algorithm.cl_run(p, q)
        cp = algorithm.continuants(run.exponents)
        n += 1
        k_sum += run.steps
        s_sum += run.shifts
        g_sum += dyadic_valuation(cp.g)
        v_sum += dyadic_valuation(cp.Q)
        ln_q += math.log(cp.Q)
        ln_r += math.log(cp.R)
    return n, {
        "K": k_sum / n,
        "S": s_sum / n,
        "rho": 2.0 * ln2 * (g_sum / n),
        "q2": 2.0 * ln2 * (v_sum / n),
        "q": 2.0 * (ln_q / n),
        "r": 2.0 * (ln_r / n),
    }


# ------------------------------------------------------------------- oracle

#: cl_run(31, 75) as (i, a_i, shifted, remainder, v(sh), v(rem), v(gcd))
REFERENCE_TRACE = (
    (0, None, 75, 31, 0, 0, 0),
    (1, 1, 62, 13, 1, 0, 0),
    (2, 2, 52, 10, 2, 1, 1),
    (3, 2, 40, 12, 3, 2, 2),
    (4, 1, 24, 16, 3, 4, 3),
    (5, 0, 16, 8, 4, 3, 3),
    (6, 0, 8, 8, 3, 3, 3),
    (7, 0, 8, 0, 3, math.inf, 3),
)


def coprime_pairs(rng: random.Random, count: int, q_max: int) -> list:
    """Uniform draws from the coprime pairs 0 < p < q <= q_max.

    Rejection from the uniform triangle, so q is weighted like the
    exhaustive oracle's sweep, which visits every coprime pair once.
    """
    out = []
    while len(out) < count:
        a, b = rng.randint(1, q_max), rng.randint(1, q_max)
        p, q = min(a, b), max(a, b)
        if p < q and math.gcd(p, q) == 1:
            out.append((p, q))
    return out


def oracle_batch(pairs, greedy_q_max: int) -> int:
    """The oracle's per-pair checks; returns the step count of the batch."""
    steps = 0
    for p, q in pairs:
        run = algorithm.cl_run(p, q)
        _require(run.odd_gcd == 1, f"odd gcd of ({p}, {q})")
        _require(algorithm.cf_eval(run.exponents) == Fraction(p, q),
                 f"re-evaluation of ({p}, {q})")
        experiments.check_worstcase_bounds(p, q, run.steps, run.shifts)
        steps += run.steps
        if q <= greedy_q_max:
            run = algorithm.cl_run(p, q, "greedy")
            experiments.check_worstcase_bounds(p, q, run.steps, run.shifts)
    return steps


def reference_trace_check() -> None:
    """The (31, 75) run table, every numeric column exact."""
    run = algorithm.cl_run(31, 75)
    got = tuple((r.index, r.exponent, r.shifted, r.remainder, r.val_shifted,
                 r.val_remainder, r.val_gcd) for r in run.table_rows())
    _require(got == REFERENCE_TRACE, "reference trace (31, 75)")
    _require(run.exponents == (1, 2, 2, 1, 0, 0, 0), "reference exponents")


class Oracle(Workload):
    """Seeded coprime pairs q <= 2000 through cl_run and cf_eval."""

    name = "oracle"
    item = "pairs"
    Q_MAX = 2000
    GREEDY_Q_MAX = 400
    PAIRS = 2048
    replay_ops = 6

    def input_size(self) -> dict:
        return {"q_max": self.Q_MAX, "greedy_q_max": self.GREEDY_Q_MAX,
                "pairs_per_op": self.PAIRS, "chunks_per_op": 1,
                "threads": self.threads}

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            rng = random.Random(op_seed(seed, self.name, i))
            pairs = coprime_pairs(rng, self.PAIRS, self.Q_MAX)
            yield Op(i, "oracle_batch", self.PAIRS,
                     lambda pairs=pairs: oracle_batch(pairs, self.GREEDY_Q_MAX),
                     lambda steps: steps)
            i += 1

    def check(self, op, _steps) -> None:
        if op.index == 0:
            reference_trace_check()

    def warm_up(self) -> None:
        oracle_batch(coprime_pairs(random.Random(0), 32, self.Q_MAX),
                     self.GREEDY_Q_MAX)

    def trace_targets(self) -> list:
        return [
            Target(algorithm, "cl_run", "algorithm.cl_run",
                   lambda _a, out: (out.steps,)),
            Target(algorithm, "cf_eval", "algorithm.cf_eval"),
            Target(experiments, "check_worstcase_bounds",
                   "experiments.check_worstcase_bounds"),
        ]


# ----------------------------------------------------------------- birkhoff

def trivial_chunk(task):
    """Stand-in chunk worker for timing the pool alone."""
    return task[-1]


class Birkhoff(Workload):
    """Birkhoff orbit averages on 256-bit pairs through the process pool."""

    name = "birkhoff"
    item = "orbits"
    top = "dynamics.birkhoff_estimates"
    BITS = 256
    ORBITS = 4096
    CHECK_EVERY = 32
    replay_ops = 4

    def __init__(self, threads: int):
        self.threads = threads

    @property
    def chunk_orbits(self) -> int:
        return getattr(dynamics, "_BIRKHOFF_CHUNK", 128)

    def chunks_per_op(self) -> int:
        return -(-self.ORBITS // self.chunk_orbits)

    def input_size(self) -> dict:
        return {"bits": self.BITS, "orbits_per_op": self.ORBITS,
                "chunks_per_op": self.chunks_per_op(),
                "threads": self.threads}

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            s = op_seed(seed, self.name, i)
            yield Op(i, "birkhoff_estimates", self.ORBITS,
                     lambda s=s: dynamics.birkhoff_estimates(
                         self.BITS, self.ORBITS, s, self.threads),
                     lambda r: r.to_json_dict(),
                     serial=lambda s=s: dynamics.birkhoff_estimates(
                         self.BITS, self.ORBITS, s, 1))
            i += 1

    def check(self, op, report) -> None:
        _require(report.samples == self.ORBITS, "orbit count")
        _require(all(math.isfinite(v) for v in report.estimates().values()),
                 "finite estimates")

    def late_check(self, op, report) -> None:
        """The threaded report is bit-identical to the one-thread report."""
        _require(op.key(op.serial()) == op.key(report),
                 "threaded report differs from the one-thread report")

    def warm_up(self) -> None:
        dynamics.birkhoff_estimates(self.BITS, 2 * self.chunk_orbits, 0,
                                    self.threads)

    def pool_overhead_ms(self, reps: int = 5) -> float:
        """Median of (trivial chunk list at ``threads``) - (at one thread)."""
        chunks = [(self.BITS, 0, "birkhoff", i, self.chunk_orbits)
                  for i in range(self.chunks_per_op())]
        diffs = []
        for _ in range(reps):
            t = []
            for threads in (self.threads, 1):
                t0 = time.perf_counter()
                parallel.map_chunks(trivial_chunk, chunks, threads)
                t.append(time.perf_counter() - t0)
            diffs.append(t[0] - t[1])
        return 1e3 * sorted(diffs)[len(diffs) // 2]

    def trace_targets(self) -> list:
        return [
            Target(dynamics, "birkhoff_estimates",
                   "dynamics.birkhoff_estimates"),
            Target(dynamics, "_exponent_run", "algorithm.exponent_run",
                   _steps),
        ]


# ----------------------------------------------------------------- spectral

def build_flops(a_max: int, n: int) -> int:
    """Floating-point operations of one collocation matrix, computed.

    Per branch: the n points (3n), the n x n cardinal matrix (difference,
    ratio, row sum, normalisation: 4n^2) and the weighted accumulation
    (2n^2); then the final row scaling (n^2 + n).
    """
    return (a_max + 1) * (6 * n * n + 3 * n) + n * n + n


def fixed_point_check() -> tuple[float, float]:
    """The invariant density's fixed-point residual and its integral."""
    grid = spectral.CollocationGrid(64)
    image = dynamics.transfer_apply(dynamics.psi, t=1.0, v=0.0, grid=grid)
    residual = float(np.max(np.abs(image - dynamics.psi(grid.nodes))))
    mass = dynamics.quad_gl(dynamics.psi, 0.0, 1.0)
    return residual, mass


def spectral_sweep(plan: list, taylor_n: int) -> list:
    """Run one sweep plan: solves, the Taylor estimate, the fixed point."""
    out = []
    for step in plan:
        if step[0] == "solve":
            _, t, v, n = step
            out.append(spectral.solve_operator(t, v, n=n))
        elif step[0] == "taylor":
            out.append(spectral.taylor_estimates(n=taylor_n))
        else:
            out.append(fixed_point_check())
    return out


class Spectral(Workload):
    """One op is a sweep: every point of a (t, v) lattice over the admissible
    box solved at every grid size, the Taylor estimate and the fixed-point
    check, in a seeded order.  The lattice is fixed and the seed only
    jitters it slightly, so every seed asks for the same amount of work.
    Each solve, estimate and check counts as one item.
    """

    name = "spectral"
    item = "solves"
    reference = "numpy"
    GRIDS = (32, 48, 64)
    LATTICE = 5                         # points per axis; odd, so (1, 0) is one
    JITTER = 0.01
    GAP_MARGIN = 0.05                   # keep t - v this far above MIN_GAP
    TAYLOR_N = 48
    replay_ops = 6

    def __init__(self, threads: int):
        super().__init__(threads)
        self.points = self._lattice()
        table = constants.m_table()
        self.A, self.D = table.A, table.D
        self.const_abs_err = 0.0

    def _lattice(self) -> list:
        lo_t, hi_t = spectral.T_RANGE
        lo_v, hi_v = spectral.V_RANGE
        ts = np.linspace(lo_t, hi_t, self.LATTICE)
        vs = np.linspace(lo_v, hi_v, self.LATTICE)
        points = [(float(t), float(v)) for t in ts for v in vs
                  if t - v >= spectral.MIN_GAP + self.GAP_MARGIN + self.JITTER]
        if (1.0, 0.0) not in points:    # the c05 gates are checked there
            raise ValueError("the (t, v) lattice must contain (1, 0)")
        return points

    @property
    def items_per_op(self) -> int:
        return len(self.points) * len(self.GRIDS) + 2

    def input_size(self) -> dict:
        return {"lattice_points": len(self.points), "grids": list(self.GRIDS),
                "taylor_n": self.TAYLOR_N, "items_per_op": self.items_per_op,
                "chunks_per_op": 1, "threads": self.threads}

    def _plan(self, rng: random.Random) -> list:
        lo_t, hi_t = spectral.T_RANGE
        lo_v, hi_v = spectral.V_RANGE
        plan = [("taylor",), ("fixed_point",)]
        for t, v in self.points:
            if (t, v) != (1.0, 0.0):    # the reference point stays exact
                t = min(hi_t, max(lo_t, t + rng.uniform(-self.JITTER, self.JITTER)))
                v = min(hi_v, max(lo_v, v + rng.uniform(-self.JITTER, self.JITTER)))
            plan += [("solve", t, v, n) for n in self.GRIDS]
        rng.shuffle(plan)
        return plan

    def ops(self, seed: int) -> Iterator[Op]:
        i = 0
        while True:
            plan = self._plan(random.Random(op_seed(seed, self.name, i)))
            yield Op(i, "sweep", len(plan),
                     lambda plan=plan: spectral_sweep(plan, self.TAYLOR_N),
                     self._key)
            i += 1

    @staticmethod
    def _key(results) -> list:
        out = []
        for r in results:
            if isinstance(r, spectral.SpectralResult):
                out.append((r.eigenvalue, r.iterations, r.a_max))
            elif isinstance(r, spectral.TaylorEstimates):
                out.append(r.to_json_dict())
            else:
                out.append(r)
        return out

    def check(self, op, results) -> None:
        """The acceptance gates for the spectral solves (c05) and the
        invariant density (c06), applied to every result of the sweep."""
        lam = {}
        for r in results:
            if isinstance(r, spectral.SpectralResult):
                self._check_solve(r)
                lam.setdefault((r.t, r.v), {})[r.grid_size] = r.eigenvalue
            elif isinstance(r, spectral.TaylorEstimates):
                err = max(abs(r.entropy_slope - self.A),
                          abs(r.shift_slope - self.D))
                _require(err < 1e-3, "Taylor estimates of A and D")
                self.const_abs_err = max(self.const_abs_err, err)
            else:
                residual, mass = r
                _require(residual < 1e-8, "fixed-point residual")
                _require(abs(mass - 1.0) < 1e-10, "density integrates to 1")
        for by_grid in lam.values():
            _require(abs(by_grid[self.GRIDS[0]] - by_grid[self.GRIDS[-1]])
                     < 1e-9, "grid doubling")

    def _check_solve(self, res) -> None:
        _require(math.isfinite(res.eigenvalue) and res.eigenvalue > 0,
                 "positive eigenvalue")
        _require(res.residual < 1e-8 * max(1.0, res.eigenvalue), "residual")
        if (res.t, res.v) != (1.0, 0.0):
            return
        err = abs(res.eigenvalue - 1.0)
        _require(err < 1e-8, "lambda(1, 0) = 1")
        self.const_abs_err = max(self.const_abs_err, err)
        if res.grid_size == self.TAYLOR_N:
            grid = spectral.CollocationGrid(res.grid_size)
            sup = float(np.max(np.abs(res.eigenfunction
                                      - dynamics.psi(grid.nodes))))
            _require(sup < 1e-6, "eigenfunction at (1, 0) is psi")

    def run_metrics(self) -> dict:
        """max(|A_est - A|, |D_est - D|, |lambda(1, 0) - 1|) over the run."""
        return {"const_abs_err": self.const_abs_err}

    def warm_up(self) -> None:
        spectral.solve_operator(1.0, 0.0, n=self.GRIDS[0])

    def trace_targets(self) -> list:
        return [
            Target(spectral, "taylor_estimates", "spectral.taylor_estimates"),
            Target(spectral, "solve_operator", "spectral.solve_operator",
                   lambda _a, out: (out.a_max,
                                    build_flops(out.a_max, out.grid_size))),
            Target(spectral, "build_matrix", "spectral.build_matrix"),
            Target(spectral, "dominant_eigen", "spectral.dominant_eigen",
                   lambda _a, out: (out.iterations,)),
            Target(dynamics, "transfer_apply", "dynamics.transfer_apply"),
            Target(dynamics, "quad_gl", "dynamics.quad_gl"),
        ]


WORKLOADS = {cls.name: cls for cls in (Ensemble, Oracle, Birkhoff, Spectral)}
