"""Independent checks of each CLI command's output.

The expected values come from the formulas in the package README and from
closed forms derived here, never from finmin itself: the horizontal
minimal-graph coefficients, the translation pair (lambda, mu) and its exact
K/L split, and the volume factor in closed form for every family and
dimension the workloads use. Grid files are parsed by this module's own
reader.

check() returns one of three verdicts:
  "ok"     exit 0 and the output is right;
  "failed" the command reported a numerical non-convergence (exit 3), the
           documented way to fail; it counts against the pass rate but is
           not a wrong answer;
  "wrong"  any other exit code, or an exit-0 output that fails its check.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

# Discretization error of the b=0 Scherk solve on (-1, 1)^2 is C*h^2 with
# C = 0.0122 measured at N = 31, 63, 127; twice that is the bound.
SCHERK_H2_CONSTANT = 0.025
PLANARITY_TOL = 1e-9


class CheckError(Exception):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _opt(argv: list[str], name: str, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _point(argv: list[str]) -> dict:
    return {k: float(v) for k, v in (item.split("=") for item in _opt(argv, "--point").split(","))}


def _close(value: float, expected: float, scale: float, rtol: float = 1e-12) -> bool:
    return abs(value - expected) <= rtol * max(scale, 1e-300)


# ---------------------------------------------------------------------------
# per-command checks; each raises CheckError with the first discrepancy


def _check_residual_graph(argv, record, root):
    pt = _point(argv)
    f1, f2, h11, h12, h22 = (pt[k] for k in ("f1", "f2", "h11", "h12", "h22"))
    results = record["results"]
    _expect([r["b"] for r in results] == _floats(_opt(argv, "--b")), "b values differ from the request")
    for r in results:
        b2 = r["b"] ** 2
        w2 = 1.0 + f1 * f1 + f2 * f2
        t = 2.0 * w2 + b2 * (w2 - 1.0)
        ffh = (f1 * f1 * h11 + 2.0 * f1 * f2 * h12 + f2 * f2 * h22) / w2
        iso = t * (t - 2.0 * b2) * (h11 + h22 - ffh)
        aniso = 2.0 * b2 * (t + 4.0 * b2) * ffh
        _expect(
            _close(r["residual"], iso + aniso, abs(iso) + abs(aniso)),
            f"b={r['b']}: residual {r['residual']!r} != README form {iso + aniso!r}",
        )


def _lambda_mu(r: Fraction, s: Fraction, b2: Fraction):
    p = r + s
    lam = (2 + (2 + b2) * p) * (2 * (1 - b2) + (2 + b2) * p) * (1 + s) + 2 * b2 * (2 + 4 * b2 + (2 + b2) * p) * r
    mu = (2 + (2 + b2) * p) * (2 * (1 - b2) + (2 + b2) * p) * (1 + r) + 2 * b2 * (2 + 4 * b2 + (2 + b2) * p) * s
    return lam, mu


def _check_residual_translation(argv, record, root):
    pt = {k: Fraction(v) for k, v in _point(argv).items()}
    results = record["results"]
    _expect([r["b"] for r in results] == _floats(_opt(argv, "--b")), "b values differ from the request")
    for r in results:
        lam, mu = _lambda_mu(pt["fp"] ** 2, pt["gp"] ** 2, Fraction(r["b"]) ** 2)
        _expect(_close(r["lambda"], float(lam), float(lam)), f"b={r['b']}: lambda {r['lambda']!r} != {float(lam)!r}")
        _expect(_close(r["mu"], float(mu), float(mu)), f"b={r['b']}: mu {r['mu']!r} != {float(mu)!r}")
        res = lam * pt["fpp"] + mu * pt["gpp"]
        scale = float(abs(lam * pt["fpp"]) + abs(mu * pt["gpp"]))
        _expect(_close(r["residual"], float(res), scale), f"b={r['b']}: residual {r['residual']!r} != {float(res)!r}")


def _volume_closed_form(family: str, n: int, b: float) -> float:
    # f(b) = int sin^(n-2) / int sin^(n-2) / phi(b cos t)^n over (0, pi).
    if family == "euclidean":
        return 1.0
    if family == "matsumoto" and n == 2:
        return 2.0 / (2.0 + b * b)
    if family == "matsumoto" and n == 3:
        return 1.0 / (1.0 + b * b)  # int (1 - b u)^3 du over (-1, 1) = 2 + 2 b^2
    if family == "randers" and n == 2:
        return (1.0 - b * b) ** 1.5  # int dt / (1 + b cos t)^2 = pi / (1 - b^2)^(3/2)
    raise CheckError(f"no closed form for family={family} n={n}")


def _check_volume(argv, record, root):
    family, n = _opt(argv, "--family", "matsumoto"), int(_opt(argv, "--n", "2"))
    tol = float(_opt(argv, "--tol", "1e-10"))
    results = record["results"]
    _expect([r["b"] for r in results] == _floats(_opt(argv, "--b")), "b values differ from the request")
    for r in results:
        expected = _volume_closed_form(family, n, r["b"])
        _expect(abs(r["quadrature"] - expected) <= tol, f"b={r['b']}: quadrature {r['quadrature']!r} != {expected!r}")
        if "abs_diff" in r:
            _expect(r["abs_diff"] <= tol, f"b={r['b']}: abs_diff {r['abs_diff']} above tol {tol}")
        _expect(r["nodes"] >= 64, f"b={r['b']}: {r['nodes']} quadrature nodes")


def _poly_eval(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _poly_deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _check_translation(argv, record, root):
    b2_values = [Fraction(v) for v in _opt(argv, "--b2").split(",")]
    p_values = [Fraction(v) for v in _opt(argv, "--p").split(",")]
    results = record["results"]
    _expect([Fraction(r["b2"]) for r in results] == b2_values, "b2 values differ from the request")
    for r in results:
        g = Fraction(r["b2"])
        k = [4 * (1 - g), 10 + 2 * g * g, 8 + 6 * g + g * g, (2 + g) ** 2 / 2]
        l = [2 * (1 - 2 * g - 2 * g * g), 4 - 2 * g - 2 * g * g, (2 + g) ** 2 / 2]
        _expect([Fraction(c) for c in r["k_coeffs"]] == k, f"b2={g}: K coefficients differ from the README")
        _expect([Fraction(c) for c in r["l_coeffs"]] == l, f"b2={g}: L coefficients differ from the README")
        nodes = r["ratio_derivative"]
        _expect([Fraction(nd["p"]) for nd in nodes] == p_values, f"b2={g}: p nodes differ from the request")
        for nd in nodes:
            p = Fraction(nd["p"])
            lp = _poly_eval(l, p)
            want = (_poly_eval(_poly_deriv(k), p) * lp - _poly_eval(k, p) * _poly_eval(_poly_deriv(l), p)) / lp**2
            _expect(Fraction(nd["value"]) == want, f"b2={g} p={p}: (K/L)' {nd['value']} != {want}")
            _expect(nd["abs_is_one"] == (abs(want) == 1), f"b2={g} p={p}: abs_is_one wrong")
        planar_only = g != 0
        for key in ("separability_zero", "companion_zero", "admits_nonplanar"):
            _expect(r[key] is not planar_only, f"b2={g}: {key} is {r[key]}")
    expected = "rigidity criterion satisfied only at b=0"
    if Fraction(0) in b2_values:
        expected = "(K/L)_p = 1 at all nodes; " + expected
    _expect(record["message"] == expected, f"rigidity message {record['message']!r}")


def _check_derivatives(argv, record, root):
    rtol_dual = float(_opt(argv, "--rtol-dual", "1e-9"))
    rtol_central = float(_opt(argv, "--rtol-central", "1e-6"))
    _expect(record["samples"] == int(_opt(argv, "--samples")), "sample count differs from the request")
    _expect(record["seed"] == int(_opt(argv, "--seed")), "seed differs from the request")
    results = record["results"]
    _expect([r["b"] for r in results] == _floats(_opt(argv, "--b")), "b values differ from the request")
    for r in results:
        err = r["max_rel_errors"]
        _expect(r["pass"] is True, f"b={r['b']}: pass is {r['pass']}")
        _expect(max(err["grad_dual"], err["hess_dual"]) <= rtol_dual, f"b={r['b']}: dual oracle off by {err}")
        _expect(max(err["grad_central"], err["hess_central"]) <= rtol_central, f"b={r['b']}: central oracle off by {err}")


def _check_ellipticity(argv, record, root):
    results = record["results"]
    _expect(record["seed"] == int(_opt(argv, "--seed")), "seed differs from the request")
    _expect([r["b"] for r in results] == _floats(_opt(argv, "--b")), "b values differ from the request")
    for r in results:
        _expect(r["pass"] is True, f"b={r['b']}: pass is {r['pass']}")
        _expect(r["min_quadform_ratio"] >= 1.0 - 1e-12, f"b={r['b']}: quadratic form below |xi|^2/W^2")
        _expect(r["min_divisor"] > 0.0, f"b={r['b']}: divisor {r['min_divisor']} not positive")
        c = r["mean_curvature_type_bound"]
        _expect(math.isfinite(c) and (c > 0.0 if r["b"] > 0 else c == 0.0), f"b={r['b']}: bound {c}")


def _read_grid(path: str):
    """The (x, y, f) rows of a `minsurf-grid v1` file."""
    with open(path) as fh:
        _expect(fh.readline() == "# minsurf-grid v1\n", f"{path}: bad version line")
        _expect(fh.readline() == "x,y,f\n", f"{path}: bad column header")
        return [tuple(float(v) for v in line.split(",")) for line in fh]


def _check_grid(path, boundary, b, n, domain):
    rows = _read_grid(path)
    _expect(len(rows) == (n + 2) ** 2, f"{path}: {len(rows)} rows for a {n + 2}^2 grid")
    x0, x1, y0, y1 = domain
    if boundary.startswith("affine:"):
        c0, cx, cy = (float(v) for v in boundary.split(":", 1)[1].split(","))
        worst = max(abs(f - (c0 + cx * x + cy * y)) for x, y, f in rows)
        _expect(worst <= 1e-12, f"{path}: affine solve off the plane by {worst}")
        return
    def exact(x, y):
        return math.log(math.cos(x)) - math.log(math.cos(y))

    ring = [(x, y, f) for x, y, f in rows if x in (x0, x1) or y in (y0, y1)]
    _expect(len(ring) == 4 * (n + 1), f"{path}: boundary ring has {len(ring)} nodes")
    worst_ring = max(abs(f - exact(x, y)) for x, y, f in ring)
    _expect(worst_ring <= 1e-14, f"{path}: Dirichlet data off by {worst_ring}")
    if b == 0.0:
        h = (x1 - x0) / (n + 1)
        worst = max(abs(f - exact(x, y)) for x, y, f in rows)
        _expect(worst <= SCHERK_H2_CONSTANT * h * h, f"{path}: Scherk error {worst} above {SCHERK_H2_CONSTANT}*h^2")


def _check_solve(argv, record, root):
    b = _floats(_opt(argv, "--b"))[0]
    n = int(_opt(argv, "--nx"))
    boundary = _opt(argv, "--boundary")
    domain = tuple(_floats(_opt(argv, "--domain", "-1,1,-1,1")))
    tol = float(_opt(argv, "--tol", "1e-10"))
    _expect((record["b"], record["nx"], record["ny"], record["boundary"]) == (b, n, int(_opt(argv, "--ny")), boundary),
            "solve record does not echo the request")
    _expect(record["residual_norm"] <= tol, f"residual {record['residual_norm']} above tol {tol}")
    if boundary.startswith("affine:"):
        _expect(record["planarity_deviation"] <= PLANARITY_TOL, f"planarity {record['planarity_deviation']} on affine data")
    out = _opt(argv, "--out")
    if out:
        _check_grid(os.path.join(root, out), boundary, b, n, domain)


_CHECKS = {
    "residual-graph": _check_residual_graph,
    "residual-translation": _check_residual_translation,
    "volume": _check_volume,
    "check-translation": _check_translation,
    "check-derivatives": _check_derivatives,
    "ellipticity": _check_ellipticity,
    "solve": _check_solve,
}


def check(argv: list[str], code: int, stdout: str, stderr: str, root: str):
    """(verdict, detail) for one invocation; see the module docstring."""
    if code == 3:
        if stdout == "" and stderr.startswith("error: "):
            return "failed", stderr.strip()
        return "wrong", f"exit 3 without a clean error report: {stderr.strip()[-300:]}"
    if code != 0:
        return "wrong", f"exit {code}: {stderr.strip()[-300:]}"
    try:
        record = json.loads(stdout)
        _expect(record.get("command") == argv[0], f"record is for command {record.get('command')!r}")
        _expect("timestamp" not in record, "timestamp present despite --no-timestamp")
        _CHECKS[argv[0]](argv, record, root)
    except (CheckError, ValueError, KeyError, TypeError, OSError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}"
    return "ok", ""


def extras(argv: list[str], code: int, stdout: str, root: str) -> dict:
    """Counts read off an invocation's output: volume nodes, Newton steps, grid bytes."""
    out = {}
    if code != 0:
        return out
    record = json.loads(stdout)
    if argv[0] == "volume":
        out["volume.nodes"] = sum(r["nodes"] for r in record["results"])
    elif argv[0] == "solve":
        out["solver.newton_iters"] = record["iterations"]
        path = _opt(argv, "--out")
        if path:
            out["cli.grid_bytes"] = os.path.getsize(os.path.join(root, path))
    return out
