"""Batch command-line front end with machine-readable output.

Every command prints one JSON record to stdout; gridded results are
additionally written as CSV. Numbers serialize with Python's shortest
round-trip decimal representation (at most 17 significant digits), exact
rationals as "num/den" strings, so nothing loses precision across the
text boundary. Identical configuration and seed give byte-identical
output when --no-timestamp is passed.

Exit status: 0 success, 2 validation/usage error, 3 numerical
non-convergence, 4 property-check failure.

Grid files: first line "# minsurf-grid v1", then a "x,y,f" CSV header,
then one row per node in row-major order (x-index outer, y-index inner),
boundary included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

# Each command imports what it runs inside its handler, so a command loads
# only what it uses: numpy only where it computes on arrays (not
# residual-graph, residual-translation or check-translation), and of scipy
# only the compiled SuperLU module, only in `solve`.
from .errors import (
    DomainError,
    QuadratureConvergenceError,
    SolverError,
)
from .metric import MetricParams, PhiFamily

__all__ = ["RunConfig", "run", "main", "console_main", "write_grid_csv", "read_grid_csv"]

GRID_FORMAT_VERSION = "minsurf-grid v1"

COMMANDS = (
    "volume",
    "residual-graph",
    "residual-translation",
    "check-derivatives",
    "check-translation",
    "ellipticity",
    "solve",
)


@dataclass
class RunConfig:
    """Validated, typed invocation of one CLI command."""

    command: str
    b_values: list = field(default_factory=lambda: [0.0])
    family: PhiFamily = PhiFamily.MATSUMOTO
    n: int = 2
    b2_values: list = field(default_factory=list)
    p_values: list = field(default_factory=list)
    point: dict | None = None
    domain: tuple = (-1.0, 1.0, -1.0, 1.0)
    nx: int = 63
    ny: int = 63
    boundary: str = "zero"
    out: str | None = None
    tol: float = 1e-10
    max_iter: int = 30
    samples: int = 200
    seed: int = 0
    tmax: float = 1e3
    rtol_dual: float = 1e-9
    rtol_central: float = 1e-6
    timestamp: bool = True

    def validate(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if self.command in ("residual-graph", "residual-translation", "ellipticity", "solve"):
            family = PhiFamily.MATSUMOTO
        else:
            family = self.family
        for b in self.b_values:
            MetricParams(b, family)  # raises DomainError outside the range
        if self.command in ("check-derivatives", "ellipticity"):
            if self.samples < 1:
                raise DomainError(f"--samples {self.samples} must be >= 1")
            if self.seed < 0:
                raise DomainError(f"--seed {self.seed} must be >= 0")
        if self.command == "ellipticity":
            from .graph_pde import SamplerConfig

            SamplerConfig(t_max=self.tmax)  # raises DomainError on a bad horizon
        # A nan or infinite tolerance would switch its check off; comparisons
        # against nan are false, so the test also rejects nan.
        for name in ("tol", "rtol_dual", "rtol_central"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"--{name.replace('_', '-')} {value} must be positive and finite")


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    # A value can only be a numpy scalar if some command has loaded numpy.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(config: RunConfig, record: dict):
    record = {"command": config.command, **record}
    if config.timestamp:
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    json.dump(_jsonable(record), sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# grid file format


def write_grid_csv(path, xs, ys, f):
    """Write a nodal field with its coordinates; lossless float round trip."""
    import numpy as np

    xs = [repr(float(x)) for x in xs]
    ys = [repr(float(y)) for y in ys]
    with open(path, "w") as fh:
        fh.write(f"# {GRID_FORMAT_VERSION}\n")
        fh.write("x,y,f\n")
        for x, row in zip(xs, np.asarray(f, dtype=float).tolist()):
            fh.writelines(f"{x},{y},{v!r}\n" for y, v in zip(ys, row))


def read_grid_csv(path):
    """Read a grid file back into (xs, ys, f); values compare bit-equal."""
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip()
        if header != f"# {GRID_FORMAT_VERSION}":
            raise DomainError(f"unrecognized grid file version line: {header!r}")
        if fh.readline().strip() != "x,y,f":
            raise DomainError("missing x,y,f column header")
        xs, ys, vals = [], [], []
        for line in fh:
            sx, sy, sf = line.strip().split(",")
            xs.append(float(sx))
            ys.append(float(sy))
            vals.append(float(sf))
    ux = sorted(set(xs))
    uy = sorted(set(ys))
    f = np.empty((len(ux), len(uy)))
    xi = {x: i for i, x in enumerate(ux)}
    yi = {y: i for i, y in enumerate(uy)}
    for x, y, v in zip(xs, ys, vals):
        f[xi[x], yi[y]] = v
    return np.array(ux), np.array(uy), f


# ---------------------------------------------------------------------------
# command handlers


def _cmd_volume(config: RunConfig):
    from .volume import (
        QuadraturePolicy,
        VolumeFactorRequest,
        bh_factor_closed_matsumoto,
        bh_factor_quadrature,
    )

    results = []
    worst = 0.0
    for b in config.b_values:
        params = MetricParams(b, config.family)
        req = VolumeFactorRequest(params, n=config.n, quadrature=QuadraturePolicy())
        value, nodes = bh_factor_quadrature(req)
        entry = {
            "b": b,
            "euclidean_degeneration": params.euclidean_degeneration,
            "quadrature": value,
            "nodes": nodes,
        }
        if config.family is PhiFamily.MATSUMOTO and config.n == 2:
            closed = bh_factor_closed_matsumoto(b)
            entry["closed"] = closed
            entry["abs_diff"] = abs(value - closed)
            worst = max(worst, entry["abs_diff"])
        results.append(entry)
    record = {"family": config.family.value, "n": config.n, "results": results}
    code = 0
    if config.family is PhiFamily.MATSUMOTO and config.n == 2 and worst > config.tol:
        record["failure"] = f"quadrature/closed disagreement {worst} above tol {config.tol}"
        code = 4
    return record, code


def _cmd_residual_graph(config: RunConfig):
    from .graph_pde import GraphPoint, graph_residual

    gp = GraphPoint(**config.point)
    results = [
        {
            "b": b,
            "euclidean_degeneration": b == 0.0,
            "residual": graph_residual(gp, b),
        }
        for b in config.b_values
    ]
    return {"point": config.point, "results": results}, 0


def _cmd_residual_translation(config: RunConfig):
    from .translation import TranslationPoint, lambda_mu, translation_residual

    tp = TranslationPoint(**config.point)
    results = []
    for b in config.b_values:
        lam, mu = lambda_mu(tp.r, tp.s, b)
        results.append(
            {
                "b": b,
                "euclidean_degeneration": b == 0.0,
                "lambda": lam,
                "mu": mu,
                "residual": translation_residual(tp, b),
            }
        )
    return {"point": config.point, "results": results}, 0


def _matrix_rel_err(x, y):
    """max|x - y| / max|y| over each matrix, axes (0, 1); trailing axes are samples."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.max(np.abs(x - y), axis=(0, 1)) / np.maximum(np.max(np.abs(y), axis=(0, 1)), 1e-300)


def _random_jet(rng, min_det=0.25):
    from .jet import ImmersionJet1

    while True:
        z = rng.uniform(-1.5, 1.5, size=(3, 2))
        a = z.T @ z
        if a[0, 0] * a[1, 1] - a[0, 1] ** 2 >= min_det:
            return ImmersionJet1(z)


def _cmd_check_derivatives(config: RunConfig):
    import numpy as np

    from .jet import (
        area_integrand_grad,
        area_integrand_grad_central,
        area_integrand_grad_dual,
        area_integrand_hess,
        area_integrand_hess_central,
        area_integrand_hess_dual,
    )

    rng = np.random.default_rng(config.seed)
    jets = [_random_jet(rng) for _ in range(config.samples)]
    z = np.stack([j.z for j in jets], axis=-1)
    results = []
    failures = []
    for b in config.b_values:
        # closed forms one jet at a time (the code under test), oracles in one pass
        g = np.stack([area_integrand_grad(j, b) for j in jets], axis=-1)
        h = np.stack([area_integrand_hess(j, b) for j in jets], axis=-1)
        worst = {
            "grad_dual": float(_matrix_rel_err(g, area_integrand_grad_dual(z, b)).max()),
            "grad_central": float(_matrix_rel_err(g, area_integrand_grad_central(z, b)).max()),
            "hess_dual": float(_matrix_rel_err(h, area_integrand_hess_dual(z, b)).max()),
            "hess_central": float(_matrix_rel_err(h, area_integrand_hess_central(z, b)).max()),
        }
        nonfinite = [k for k, v in worst.items() if not math.isfinite(v)]
        ok = not nonfinite and (
            worst["grad_dual"] <= config.rtol_dual
            and worst["hess_dual"] <= config.rtol_dual
            and worst["grad_central"] <= config.rtol_central
            and worst["hess_central"] <= config.rtol_central
        )
        for k in nonfinite:
            # strict JSON has no nan/inf: the value is null, the failure names it
            failures.append(f"{k} relative error is {worst[k]} at b={b}")
            worst[k] = None
        results.append({"b": b, "max_rel_errors": worst, "pass": ok})
    record = {
        "samples": config.samples,
        "seed": config.seed,
        "rtol_dual": config.rtol_dual,
        "rtol_central": config.rtol_central,
        "results": results,
    }
    if failures:
        record["failure"] = "; ".join(failures)
    return record, 0 if all(r["pass"] for r in results) else 4


def _cmd_check_translation(config: RunConfig):
    from .translation import compatibility_check, kl_polys, kl_ratio_derivative

    b2_values = config.b2_values or [Fraction(0)]
    p_values = config.p_values or [Fraction(0), Fraction(1), Fraction(2), Fraction(5)]
    results = []
    pattern_ok = True
    zero_message = ""
    for b2 in b2_values:
        polys = kl_polys(b2)
        report = compatibility_check(b2)
        nodes = []
        for p in p_values:
            v = kl_ratio_derivative(b2, p)
            nodes.append({"p": p, "value": v, "abs_is_one": abs(v) == 1})
        all_one = all(n["value"] == 1 for n in nodes)
        any_unit = any(n["abs_is_one"] for n in nodes)
        if b2 == 0:
            pattern_ok &= all_one and report.admits_nonplanar
            zero_message = "(K/L)_p = 1 at all nodes; " if all_one else ""
        else:
            pattern_ok &= (not any_unit) and not report.admits_nonplanar
        results.append(
            {
                "b2": b2,
                "k_coeffs": list(polys.k_coeffs),
                "l_coeffs": list(polys.l_coeffs),
                "ratio_derivative": nodes,
                "separability_zero": report.separability_zero,
                "companion_zero": report.companion_zero,
                "admits_nonplanar": report.admits_nonplanar,
            }
        )
    if pattern_ok:
        message = zero_message + "rigidity criterion satisfied only at b=0"
    else:
        message = "rigidity pattern violated"
    return {"results": results, "message": message}, 0 if pattern_ok else 4


def _cmd_ellipticity(config: RunConfig):
    import numpy as np

    from .graph_pde import (
        SamplerConfig,
        TiltedFrame,
        ellipticity_quotients,
        mean_curvature_type_bound,
        random_rotations,
    )

    rng = np.random.default_rng(config.seed)
    results = []
    ok_all = True
    for b in config.b_values:
        n = config.samples
        f = rng.uniform(-3.0, 3.0, size=(n, 2))
        frames = random_rotations(rng, n)
        xi = rng.normal(size=(n, 2))
        ratio, divisor = ellipticity_quotients(f, frames[:, 2, :], xi, b)
        min_ratio = float(np.min(ratio))
        min_divisor = float(np.min(divisor))
        frame = TiltedFrame(random_rotations(rng, 1)[0])
        c_est = mean_curvature_type_bound(frame, b, SamplerConfig(t_max=config.tmax))
        ok = min_ratio >= 1.0 - 1e-12 and min_divisor > 0.0
        ok_all &= ok
        results.append(
            {
                "b": b,
                "euclidean_degeneration": b == 0.0,
                "samples": n,
                "min_quadform_ratio": min_ratio,
                "min_divisor": min_divisor,
                "mean_curvature_type_bound": c_est,
                "pass": ok,
            }
        )
    return {"seed": config.seed, "results": results}, 0 if ok_all else 4


def _boundary_callable(spec: str, domain):
    if spec == "zero":
        return lambda x, y: 0.0
    if spec.startswith("affine:"):
        try:
            c0, cx, cy = (float(v) for v in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise DomainError(f"bad affine boundary spec {spec!r}") from exc
        if not all(map(math.isfinite, (c0, cx, cy))):
            raise DomainError(f"affine boundary coefficients in {spec!r} must be finite")
        return lambda x, y: c0 + cx * x + cy * y
    if spec == "scherk":
        x0, x1, y0, y1 = domain
        lim = math.pi / 2
        if not (-lim < x0 and x1 < lim and -lim < y0 and y1 < lim):
            raise DomainError(
                "scherk boundary data requires the domain inside (-pi/2, pi/2)^2"
            )
        return lambda x, y: math.log(math.cos(x)) - math.log(math.cos(y))
    raise DomainError(f"unknown boundary spec {spec!r}")


def _check_writable(path):
    """DomainError unless a file can be created or replaced at path."""
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"there is no directory {folder!r}"
    elif not os.access(folder, os.W_OK):
        problem = f"directory {folder!r} is not writable"
    else:
        return
    raise DomainError(f"--out {path!r} cannot be written: {problem}")


def _cmd_solve(config: RunConfig):
    from .solver import GridProblem, planarity_deviation, solve_minimal_graph

    if len(config.b_values) != 1:
        raise DomainError("solve takes exactly one b value")
    if config.out:
        # checked before the solve, which may take seconds
        _check_writable(config.out)
    b = config.b_values[0]
    problem = GridProblem(
        domain=config.domain,
        nx=config.nx,
        ny=config.ny,
        b=b,
        boundary=_boundary_callable(config.boundary, config.domain),
    )
    sol = solve_minimal_graph(problem, tol=config.tol, max_iter=config.max_iter)
    record = {
        "b": b,
        "euclidean_degeneration": b == 0.0,
        "domain": list(config.domain),
        "nx": config.nx,
        "ny": config.ny,
        "boundary": config.boundary,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "planarity_deviation": planarity_deviation(sol),
        "out": config.out,
    }
    if config.out:
        try:
            write_grid_csv(config.out, problem.xs(), problem.ys(), sol.f)
        except OSError as exc:
            raise DomainError(f"--out {config.out!r} cannot be written: {exc.strerror}") from exc
    return record, 0


_HANDLERS = {
    "volume": _cmd_volume,
    "residual-graph": _cmd_residual_graph,
    "residual-translation": _cmd_residual_translation,
    "check-derivatives": _cmd_check_derivatives,
    "check-translation": _cmd_check_translation,
    "ellipticity": _cmd_ellipticity,
    "solve": _cmd_solve,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; print the JSON record; return status."""
    config.validate()
    record, code = _HANDLERS[config.command](config)
    _emit(config, record)
    return code


# ---------------------------------------------------------------------------
# argument parsing


def _parse_floats(text):
    return [float(v) for v in text.split(",")]


def _parse_fractions(text):
    # argparse turns a ValueError into a usage error (exit 2); Fraction
    # raises ZeroDivisionError on a zero denominator such as "1/0".
    try:
        return [Fraction(v) for v in text.split(",")]
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _parse_point(text, keys):
    out = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise DomainError(f"unknown point field {key!r}; expected {sorted(keys)}")
        out[key] = float(value)
    missing = set(keys) - set(out)
    if missing:
        raise DomainError(f"point is missing fields {sorted(missing)}")
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="finmin",
        description="Minimal-surface toolkit for the slope-metric Minkowski 3-space.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp field so identical runs are byte-identical",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub_parser = lambda name, **kw: sub.add_parser(name, parents=[common], **kw)

    p = sub_parser("volume", help="volume factor by quadrature and closed form")
    p.add_argument("--b", type=_parse_floats, default=[0.0], help="comma-separated sweep")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--family", choices=[f.value for f in PhiFamily], default="matsumoto")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub_parser("residual-graph", help="pointwise minimal-graph residual")
    p.add_argument("--b", type=_parse_floats, default=[0.0])
    p.add_argument("--point", required=True, help="f1=..,f2=..,h11=..,h12=..,h22=..")

    p = sub_parser("residual-translation", help="pointwise translation residual")
    p.add_argument("--b", type=_parse_floats, default=[0.0])
    p.add_argument("--point", required=True, help="fp=..,fpp=..,gp=..,gpp=..")

    p = sub_parser("check-derivatives", help="closed forms vs dual/central oracles")
    p.add_argument("--b", type=_parse_floats, default=[0.0, 0.2, 0.4])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rtol-dual", type=float, default=1e-9)
    p.add_argument("--rtol-central", type=float, default=1e-6)

    p = sub_parser("check-translation", help="exact rigidity report")
    p.add_argument("--b2", type=_parse_fractions, default=[Fraction(0)], help='e.g. "0,1/100,9/100"')
    p.add_argument("--p", type=_parse_fractions, default=[Fraction(0), Fraction(1), Fraction(2), Fraction(5)])

    p = sub_parser("ellipticity", help="coefficient lower bound and type constant")
    p.add_argument("--b", type=_parse_floats, default=[0.3])
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tmax", type=float, default=1e3)

    p = sub_parser("solve", help="Dirichlet solve of the minimal-graph equation")
    p.add_argument("--b", type=_parse_floats, default=[0.0])
    p.add_argument("--domain", type=_parse_floats, default=[-1.0, 1.0, -1.0, 1.0])
    p.add_argument("--nx", type=int, default=63, help="interior nodes per axis")
    p.add_argument("--ny", type=int, default=63)
    p.add_argument("--boundary", default="zero", help="zero | affine:c0,cx,cy | scherk")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=30)
    p.add_argument("--out", default=None, help="write the converged grid as CSV")

    return parser


_POINT_KEYS = {
    "residual-graph": {"f1", "f2", "h11", "h12", "h22"},
    "residual-translation": {"fp", "fpp", "gp", "gpp"},
}


def _config_from_args(args) -> RunConfig:
    config = RunConfig(command=args.command, timestamp=not args.no_timestamp)
    if hasattr(args, "b"):
        config.b_values = args.b
    if hasattr(args, "family"):
        config.family = PhiFamily(args.family)
    for name in ("n", "samples", "seed", "tmax", "nx", "ny", "boundary", "out", "max_iter", "tol"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if hasattr(args, "rtol_dual"):
        config.rtol_dual = args.rtol_dual
        config.rtol_central = args.rtol_central
    if hasattr(args, "b2"):
        config.b2_values = args.b2
        config.p_values = args.p
    if hasattr(args, "domain"):
        if len(args.domain) != 4:
            raise DomainError("--domain expects x0,x1,y0,y1")
        config.domain = tuple(args.domain)
    if args.command in _POINT_KEYS:
        config.point = _parse_point(args.point, _POINT_KEYS[args.command])
    return config


def main(argv=None) -> int:
    """Parse and run; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _config_from_args(args)
        return run(config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureConvergenceError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())
