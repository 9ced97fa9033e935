"""Per-layer metrics of one traced pass, computed from the runner's spans.

A span's self time is its duration minus the time its child spans cover.
Every span name maps to exactly one `*_ms` self-time metric, so the self
times of a pass, plus `cli.startup_ms` (invocation wall time outside
`cli.main`), add up to the traced pass's wall time; `trace.unaccounted_ms`
reports the remainder. All values are sums over one pass.
"""

from __future__ import annotations

import re

from tracer import TARGETS, span_name

# span name -> self-time metric
SELF_MS = {
    "cli.main": "cli.self_ms",
    "cli.write_grid_csv": "cli.write_grid_csv_ms",
    "volume._quadrature_factor": "volume.quadrature_ms",
    "volume.bh_factor_quadrature": "volume.quadrature_ms",
    "volume.bh_factor_closed_matsumoto": "volume.quadrature_ms",
    "translation.kl_polys": "translation.kl_polys_ms",
    "translation.compatibility_check": "translation.compatibility_check_ms",
    "translation.kl_ratio_derivative": "translation.kl_ratio_derivative_ms",
    "translation.lambda_mu": "translation.residual_ms",
    "translation.translation_residual": "translation.residual_ms",
    "jet.area_integrand_grad": "jet.closed_ms",
    "jet.area_integrand_hess": "jet.closed_ms",
    "jet.area_integrand_grad_dual": "jet.dual_oracle_ms",
    "jet.area_integrand_hess_dual": "jet.dual_oracle_ms",
    "jet.area_integrand_grad_central": "jet.central_oracle_ms",
    "jet.area_integrand_hess_central": "jet.central_oracle_ms",
    "dual.hessian": "dual.hessian_ms",
    "dual.gradient": "dual.gradient_ms",
    "dual.central_hessian": "dual.central_ms",
    "dual.central_gradient": "dual.central_ms",
    "graph_pde.mean_curvature_type_bound": "graph_pde.bound_sampler_ms",
    "graph_pde.random_rotations": "graph_pde.random_rotations_ms",
    "graph_pde.graph_residual": "graph_pde.graph_residual_ms",
    "solver.solve_minimal_graph": "solver.self_ms",
    "solver.assemble_residual": "solver.residual_ms",
    "solver.planarity_deviation": "solver.planarity_ms",
    **{span_name("scipy.sparse.linalg", n): "solver.sparse_solve_ms" for n in TARGETS["scipy.sparse.linalg"]},
}
SPARSE_SPANS = {span_name("scipy.sparse.linalg", n) for n in TARGETS["scipy.sparse.linalg"]}

# span name -> count metric (calls)
CALLS = {
    "volume._quadrature_factor": "volume.quadrature_calls",
    "translation.kl_polys": "translation.kl_polys_calls",
    "dual.hessian": "dual.hessian_calls",
    "graph_pde.mean_curvature_type_bound": "graph_pde.bound_sampler_calls",
    "solver.assemble_residual": "solver.residual_calls",
    **{name: "solver.sparse_solve_calls" for name in SPARSE_SPANS},
}
# span name -> count metric summed from the span's note
NOTES = {
    "graph_pde.mean_curvature_type_bound": "graph_pde.bound_points",
    "solver.solve_minimal_graph": "solver.unknowns",
}

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "cli.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.self_ms": "ms",
    "cli.write_grid_csv_ms": "ms",
    "cli.grid_bytes": "bytes",
    "volume.quadrature_ms": "ms",
    "volume.quadrature_calls": "count",
    "volume.nodes": "count",
    "translation.kl_polys_ms": "ms",
    "translation.kl_polys_calls": "count",
    "translation.kl_polys_useful_ratio": "1",
    "translation.compatibility_check_ms": "ms",
    "translation.kl_ratio_derivative_ms": "ms",
    "translation.residual_ms": "ms",
    "jet.closed_ms": "ms",
    "jet.dual_oracle_ms": "ms",
    "jet.central_oracle_ms": "ms",
    "jet.calls": "count",
    "dual.hessian_ms": "ms",
    "dual.hessian_calls": "count",
    "dual.gradient_ms": "ms",
    "dual.central_ms": "ms",
    "graph_pde.bound_sampler_ms": "ms",
    "graph_pde.bound_sampler_calls": "count",
    "graph_pde.bound_points": "count",
    "graph_pde.random_rotations_ms": "ms",
    "graph_pde.graph_residual_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.self_ms": "ms",
    "solver.residual_ms": "ms",
    "solver.residual_calls": "count",
    "solver.sparse_solve_ms": "ms",
    "solver.sparse_solve_calls": "count",
    "solver.newton_iters": "count",
    "solver.backtracks": "count",
    "solver.unknowns": "count",
    "solver.planarity_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_ms": "ms",
}


def pass_metrics(invocations) -> dict[str, float]:
    """Per-layer sums over one traced pass.

    Each invocation carries `wall_s`, `extras` (counts read off its output)
    and `trace` (the runner's span file, or None if the runner died before
    writing it). `cli.import_scipy_ms`, `trace.overhead_s` and
    `trace.wall_s` need more than one pass and are filled in by the caller.
    """
    m = dict.fromkeys(UNITS, 0.0)
    kl_useful = solves = 0
    for inv in invocations:
        for key, value in inv.extras.items():
            m[key] += value
        if inv.trace is None:
            m["cli.startup_ms"] += inv.wall_s * 1e3
            continue
        spans = inv.trace["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        in_main = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        m["cli.startup_ms"] += (inv.wall_s - in_main) * 1e3
        m["cli.import_ms"] += inv.trace["import_s"] * 1e3
        kl_args = set()
        for i, (name, start, end, parent, note) in enumerate(spans):
            m[SELF_MS[name]] += (end - start - covered[i]) * 1e3
            if name in CALLS:
                m[CALLS[name]] += 1
            if name in NOTES and note is not None:
                m[NOTES[name]] += note
            if name.startswith("jet."):
                m["jet.calls"] += 1
            if name == "solver.solve_minimal_graph":
                m["solver.solve_ms"] += (end - start) * 1e3
                solves += 1
            if name == "translation.kl_polys":
                kl_args.add(note)
        kl_useful += len(kl_args)
    if m["translation.kl_polys_calls"]:
        m["translation.kl_polys_useful_ratio"] = kl_useful / m["translation.kl_polys_calls"]
    m["solver.backtracks"] = m["solver.residual_calls"] - solves - m["solver.sparse_solve_calls"]
    self_ms = sum(m[key] for key in set(SELF_MS.values()))
    m["trace.unaccounted_ms"] = sum(inv.wall_s for inv in invocations) * 1e3 - m["cli.startup_ms"] - self_ms
    return m


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def scipy_import_ms(importtime_stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules in `-X importtime` output.

    The output lists each module after the modules it imported, indented
    by nesting depth; a scipy module counts only when no enclosing module
    is itself a scipy module.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            rows.append((len(match.group(3)), match.group(4), int(match.group(2))))
    total_us, stack = 0, []  # stack of (depth, inside scipy)
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outer = stack[-1][1] if stack else False
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not outer:
            total_us += cumulative
        stack.append((depth, outer or is_scipy))
    return total_us / 1e3
