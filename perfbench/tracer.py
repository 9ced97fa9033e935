"""Run one finmin CLI command in this interpreter, recording layer spans.

Usage (from the checkout root, with src on PYTHONPATH):

    python perfbench/tracer.py SPANS_JSON CMD_ID ARGV...

The runner times `import finmin.cli`, wraps the callables at each layer
boundary, calls `finmin.cli.main(ARGV)` and exits with its status. Spans
are kept in memory and written to SPANS_JSON at exit as
{"cmd": CMD_ID, "import_s": ..., "spans": [[name, start, end, parent, note], ...]}
with times in seconds from one perf_counter and parent the index of the
enclosing span (-1 for none).

A callable is wrapped in its defining module and in every finmin module
that bound the same object, so calls through an imported name and through
the module attribute both record a span. Modules imported later (a lazy
import inside a command) are wrapped when they finish loading. Class
constructors are not wrapped; their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from fractions import Fraction

_clock = time.perf_counter


def _bound_points(frame, b, config=None):
    # Quotient evaluations of one bound-sampler call: |t grid| * angle_nodes^2.
    if config is None:
        from finmin.graph_pde import SamplerConfig

        config = SamplerConfig()
    return len(config.t_grid()) * config.angle_nodes**2


# module -> {function name: note(*args, **kwargs) or None}. Besides what the
# CLI calls today, this lists entry points it may switch to (bh_factor_quadrature,
# splu, factorized, ...), so such a change is traced without editing the benchmark.
TARGETS = {
    "finmin.cli": {"main": None, "write_grid_csv": None},
    "finmin.volume": {"_quadrature_factor": None, "bh_factor_quadrature": None, "bh_factor_closed_matsumoto": None},
    "finmin.translation": {
        "kl_polys": lambda b2: str(Fraction(b2)),
        "compatibility_check": None,
        "kl_ratio_derivative": None,
        "lambda_mu": None,
        "translation_residual": None,
    },
    "finmin.jet": {
        name: None
        for name in (
            "area_integrand_grad",
            "area_integrand_hess",
            "area_integrand_grad_dual",
            "area_integrand_hess_dual",
            "area_integrand_grad_central",
            "area_integrand_hess_central",
        )
    },
    "finmin.dual": {"hessian": None, "gradient": None, "central_hessian": None, "central_gradient": None},
    "finmin.graph_pde": {"mean_curvature_type_bound": _bound_points, "random_rotations": None, "graph_residual": None},
    "finmin.solver": {
        "solve_minimal_graph": lambda problem, *a, **k: problem.nx * problem.ny,
        "assemble_residual": None,
        "planarity_deviation": None,
    },
    # Sparse entry points, as the solver reaches them through its `spla` alias.
    "scipy.sparse.linalg": {name: None for name in ("spsolve", "splu", "spilu", "factorized", "gmres")},
}


def span_name(module: str, name: str) -> str:
    """Span name of a wrapped callable: "<layer>.<function>"."""
    layer = "solver" if module == "scipy.sparse.linalg" else module.rsplit(".", 1)[-1]
    return f"{layer}.{name}"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._pairs = {}  # id(original) -> (original, wrapper)
        self._wrappers = set()

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, _clock(), 0.0, stack[-1] if stack else -1, None]
            if note is not None:
                try:
                    span[4] = note(*args, **kwargs)
                except (TypeError, AttributeError, ValueError):
                    span[4] = None
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()

        return traced

    def patch(self):
        """Wrap every target of the loaded modules and rebind it everywhere."""
        for module_name, names in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name, note in names.items():
                fn = getattr(module, name, None)
                if fn is None or id(fn) in self._pairs or id(fn) in self._wrappers:
                    continue
                wrapper = self._wrap(span_name(module_name, name), fn, note)
                self._pairs[id(fn)] = (fn, wrapper)
                self._wrappers.add(id(wrapper))
        pairs = list(self._pairs.values())
        for module_name in [m for m in sys.modules if m == "finmin" or m.startswith("finmin.")] + ["scipy.sparse.linalg"]:
            namespace = getattr(sys.modules.get(module_name), "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                for original, wrapped in pairs:
                    if value is original:
                        namespace[key] = wrapped


class _PatchAfterLoad(importlib.abc.MetaPathFinder):
    """Re-runs Tracer.patch after any target module finishes loading."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module, tracer = spec.loader.exec_module, self.tracer

        def exec_and_patch(module):
            exec_module(module)
            tracer.patch()

        spec.loader.exec_module = exec_and_patch
        return spec


def main(argv):
    spans_path, cmd_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, _PatchAfterLoad(tracer))
    t0 = _clock()
    import finmin.cli

    import_s = _clock() - t0
    tracer.patch()
    try:
        code = finmin.cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"cmd": cmd_id, "import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
