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
from datetime import datetime, timezone

# Each command imports what it runs inside its handler, so a command loads
# only what it uses: numpy only where it computes on arrays (not
# residual-graph, residual-translation or check-translation), of scipy
# only the compiled SuperLU module, only in `solve`, and fractions only
# where rationals are parsed or computed.
from .errors import (
    DomainError,
    QuadratureConvergenceError,
    SolverError,
)
from .metric import PhiFamily, check_b

__all__ = ["main", "console_main", "write_grid_csv", "read_grid_csv"]

GRID_FORMAT_VERSION = "minsurf-grid v1"


def _json_default(value):
    """json.dump's hook for what it cannot encode itself: an exact rational
    as "num/den". Handlers build every other field from Python scalars."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _nonfinite(value, key=None, b=None):
    """(key, value, b) of the first nan or infinite float in a record, with
    the b of the innermost enclosing entry that has one; None if all finite."""
    if isinstance(value, dict):
        b = value.get("b", b)
        items = value.items()
    elif isinstance(value, list):
        items = ((key, v) for v in value)
    else:
        return (key, value, b) if isinstance(value, float) and not math.isfinite(value) else None
    for k, v in items:
        found = _nonfinite(v, k, b)
        if found:
            return found
    return None


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


def _cmd_volume(args):
    from .volume import bh_factor_closed_matsumoto, bh_factor_quadrature

    family = PhiFamily(args.family)
    closed_form = family is PhiFamily.MATSUMOTO and args.n == 2
    results = []
    worst = 0.0
    for b in args.b:
        value, nodes = bh_factor_quadrature(b, family, args.n)
        entry = {
            "b": b,
            "euclidean_degeneration": b == 0.0,
            "quadrature": value,
            "nodes": nodes,
        }
        if closed_form:
            closed = bh_factor_closed_matsumoto(b)
            entry["closed"] = closed
            entry["abs_diff"] = abs(value - closed)
            worst = max(worst, entry["abs_diff"])
        results.append(entry)
    record = {"family": family.value, "n": args.n, "results": results}
    code = 0
    if closed_form and worst > args.tol:
        record["failure"] = f"quadrature/closed disagreement {worst} above tol {args.tol}"
        code = 4
    return record, code


def _cmd_residual_graph(args):
    from .graph_pde import graph_residual

    point = _parse_point(args.point, ("f1", "f2", "h11", "h12", "h22"))
    results = [
        {
            "b": b,
            "euclidean_degeneration": b == 0.0,
            "residual": graph_residual(**point, b=b),
        }
        for b in args.b
    ]
    return {"point": point, "results": results}, 0


def _cmd_residual_translation(args):
    from .translation import lambda_mu, translation_residual

    point = _parse_point(args.point, ("fp", "fpp", "gp", "gpp"))
    results = []
    for b in args.b:
        lam, mu = lambda_mu(point["fp"] * point["fp"], point["gp"] * point["gp"], b)
        results.append(
            {
                "b": b,
                "euclidean_degeneration": b == 0.0,
                "lambda": lam,
                "mu": mu,
                "residual": translation_residual(**point, b=b),
            }
        )
    return {"point": point, "results": results}, 0


def _matrix_rel_err(x, y):
    """max|x - y| / max|y| over each matrix, axes (0, 1); trailing axes are samples."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.max(np.abs(x - y), axis=(0, 1)) / np.maximum(np.max(np.abs(y), axis=(0, 1)), 1e-300)


# Largest block of jets drawn at once; bounds the draw's memory at any --samples.
_JET_BLOCK = 1024


def _random_jets(rng, count, min_det=0.25):
    """count jets, (3, 2, count): entries uniform in [-1.5, 1.5), keeping
    the jets whose Gram determinant is at least min_det.

    Draws blocks of at most _JET_BLOCK jets. rng.uniform(size=(k, 3, 2))
    yields the stream of k draws of shape (3, 2), and a block never holds
    more jets than are still missing, so the jets are those of drawing and
    testing one at a time.
    """
    import numpy as np

    from .jet import _gram_det

    kept = []
    while count > 0:
        z = np.moveaxis(rng.uniform(-1.5, 1.5, size=(min(count, _JET_BLOCK), 3, 2)), 0, -1)
        z = z[..., _gram_det(z) >= min_det]
        kept.append(z)
        count -= z.shape[-1]
    return np.concatenate(kept, axis=-1)


def _cmd_check_derivatives(args):
    import numpy as np

    from .jet import (
        area_integrand_grad,
        area_integrand_grad_central,
        area_integrand_grad_dual,
        area_integrand_hess,
        area_integrand_hess_central,
        area_integrand_hess_dual,
    )

    z = _random_jets(np.random.default_rng(args.seed), args.samples)
    results = []
    failures = []
    for b in args.b:
        # the closed forms (the code under test) and each oracle in one pass over all samples
        g = area_integrand_grad(z, b)
        h = area_integrand_hess(z, b)
        worst = {
            "grad_dual": float(_matrix_rel_err(g, area_integrand_grad_dual(z, b)).max()),
            "grad_central": float(_matrix_rel_err(g, area_integrand_grad_central(z, b)).max()),
            "hess_dual": float(_matrix_rel_err(h, area_integrand_hess_dual(z, b)).max()),
            "hess_central": float(_matrix_rel_err(h, area_integrand_hess_central(z, b)).max()),
        }
        nonfinite = [k for k, v in worst.items() if not math.isfinite(v)]
        ok = not nonfinite and (
            worst["grad_dual"] <= args.rtol_dual
            and worst["hess_dual"] <= args.rtol_dual
            and worst["grad_central"] <= args.rtol_central
            and worst["hess_central"] <= args.rtol_central
        )
        for k in nonfinite:
            # strict JSON has no nan/inf: the value is null, the failure names it
            failures.append(f"{k} relative error is {worst[k]} at b={b}")
            worst[k] = None
        results.append({"b": b, "max_rel_errors": worst, "pass": ok})
    record = {
        "samples": args.samples,
        "seed": args.seed,
        "rtol_dual": args.rtol_dual,
        "rtol_central": args.rtol_central,
        "results": results,
    }
    if failures:
        record["failure"] = "; ".join(failures)
    return record, 0 if all(r["pass"] for r in results) else 4


def _cmd_check_translation(args):
    from .translation import compatibility_check, kl_polys, kl_ratio_derivative

    results = []
    pattern_ok = True
    zero_message = ""
    for b2 in args.b2:
        k, l = kl_polys(b2)
        separability, companion = compatibility_check(k, l)
        admits_nonplanar = not separability and not companion
        nodes = []
        for p in args.p:
            v = kl_ratio_derivative(k, l, p)
            nodes.append({"p": p, "value": v, "abs_is_one": abs(v) == 1})
        all_one = all(n["value"] == 1 for n in nodes)
        any_unit = any(n["abs_is_one"] for n in nodes)
        if b2 == 0:
            pattern_ok &= all_one and admits_nonplanar
            zero_message = "(K/L)_p = 1 at all nodes; " if all_one else ""
        else:
            pattern_ok &= (not any_unit) and not admits_nonplanar
        results.append(
            {
                "b2": b2,
                "k_coeffs": list(k),
                "l_coeffs": list(l),
                "ratio_derivative": nodes,
                "separability_zero": not separability,
                "companion_zero": not companion,
                "admits_nonplanar": admits_nonplanar,
            }
        )
    if pattern_ok:
        message = zero_message + "rigidity criterion satisfied only at b=0"
    else:
        message = "rigidity pattern violated"
    return {"results": results, "message": message}, 0 if pattern_ok else 4


def _cmd_ellipticity(args):
    import numpy as np

    from .graph_pde import ellipticity_quotients, mean_curvature_type_bound, random_rotations

    rng = np.random.default_rng(args.seed)
    results = []
    ok_all = True
    for b in args.b:
        n = args.samples
        f = rng.uniform(-3.0, 3.0, size=(n, 2))
        frames = random_rotations(rng, n)
        xi = rng.normal(size=(n, 2))
        ratio, divisor = ellipticity_quotients(f, frames[:, 2, :], xi, b)
        min_ratio = float(np.min(ratio))
        min_divisor = float(np.min(divisor))
        c_est = mean_curvature_type_bound(random_rotations(rng, 1)[0], b, t_max=args.tmax)
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
    return {"seed": args.seed, "results": results}, 0 if ok_all else 4


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


def _cmd_solve(args):
    from .solver import GridProblem, planarity_deviation, solve_minimal_graph

    if len(args.b) != 1:
        raise DomainError("solve takes exactly one b value")
    if args.out:
        # checked before the solve, which may take seconds
        _check_writable(args.out)
    b = args.b[0]
    problem = GridProblem(
        domain=args.domain,
        nx=args.nx,
        ny=args.ny,
        b=b,
        boundary=_boundary_callable(args.boundary, args.domain),
    )
    sol = solve_minimal_graph(problem, tol=args.tol, max_iter=args.max_iter)
    record = {
        "b": b,
        "euclidean_degeneration": b == 0.0,
        "domain": args.domain,
        "nx": args.nx,
        "ny": args.ny,
        "boundary": args.boundary,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "raw_residual_norm": sol.raw_residual_norm,
        "factorizations": sol.factorizations,
        "planarity_deviation": planarity_deviation(sol),
        "out": args.out,
    }
    if args.out:
        try:
            write_grid_csv(args.out, problem.xs(), problem.ys(), sol.f)
        except OSError as exc:
            raise DomainError(f"--out {args.out!r} cannot be written: {exc.strerror}") from exc
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


# ---------------------------------------------------------------------------
# argument parsing


def _parse_floats(text):
    return [float(v) for v in text.split(",")]


def _parse_fractions(text):
    # argparse turns a ValueError into a usage error (exit 2); Fraction
    # raises ZeroDivisionError on a zero denominator such as "1/0".
    from fractions import Fraction

    try:
        return [Fraction(v) for v in text.split(",")]
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _parse_point(text, keys):
    """--point "k1=v1,k2=v2,..." as a dict in the order given; DomainError
    unless each of keys appears exactly once with a finite number."""
    out = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise DomainError(f"unknown point field {key!r}; expected {sorted(keys)}")
        if key in out:
            raise DomainError(f"point field {key} is given twice")
        try:
            out[key] = float(value)
        except ValueError:
            raise DomainError(f"point field {key} needs a number: {item.strip()!r}") from None
        if not math.isfinite(out[key]):
            raise DomainError(f"{key} must be finite")
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
    # argparse runs a string default through `type`
    p.add_argument("--b2", type=_parse_fractions, default="0", help='e.g. "0,1/100,9/100"')
    p.add_argument("--p", type=_parse_fractions, default="0,1,2,5")

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


def _validate(args):
    """DomainError on arguments the parser accepts but no command can use."""
    # volume alone takes --family; the other commands use the slope metric
    family = PhiFamily(args.family) if args.command == "volume" else PhiFamily.MATSUMOTO
    for b in getattr(args, "b", ()):
        check_b(b, family)
    if args.command in ("check-derivatives", "ellipticity"):
        if args.samples < 1:
            raise DomainError(f"--samples {args.samples} must be >= 1")
        if args.seed < 0:
            raise DomainError(f"--seed {args.seed} must be >= 0")
    if args.command == "ellipticity":
        from .graph_pde import check_t_max

        check_t_max(args.tmax)
    # A nan or infinite tolerance would switch its check off; comparisons
    # against nan are false, so the test also rejects nan.
    for name in ("tol", "rtol_dual", "rtol_central"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < math.inf:
            raise DomainError(f"--{name.replace('_', '-')} {value} must be positive and finite")
    if args.command == "solve" and len(args.domain) != 4:
        raise DomainError("--domain expects x0,x1,y0,y1")


def main(argv=None) -> int:
    """Parse and run; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _validate(args)
        record, code = _HANDLERS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureConvergenceError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record = {"command": args.command, **record}
    # Finite inputs can still overflow; strict JSON has no nan or infinity.
    bad = _nonfinite(record)
    if bad:
        key, value, b = bad
        print(f"error: {key} is {value} at b={b}: the computation overflows double precision", file=sys.stderr)
        return 3
    if not args.no_timestamp:
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    json.dump(record, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")
    return code


def console_main():
    raise SystemExit(main())
