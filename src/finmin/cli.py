"""Batch command-line front end with machine-readable output.

Every command prints one JSON record to stdout; gridded results are
additionally written as CSV. Numbers serialize with Python's shortest
round-trip decimal representation (at most 17 significant digits), exact
rationals as "num/den" strings, so nothing loses precision across the
text boundary. Identical configuration and seed give byte-identical
output when --no-timestamp is passed.

Exit status: 0 success, 2 validation/usage error or a record or help
text that cannot be written to stdout, 3 numerical non-convergence, 4
property-check failure, 5 out of memory (in `solve`, LU factors that do
not fit). A failure prints one `error:` line to stderr; a stderr that
cannot take it leaves the exit status as it is.

Garbage collection: console_main, the entry of `python -m finmin` and of
the `finmin` script, switches the cyclic collector off before main() and
freezes the heap (gc.freeze) after it returns. So neither the collections
during a command nor the full one at interpreter exit, over some 20k
objects once numpy is loaded, traverse anything. Reference counting frees
what a command allocates: the only cyclic garbage a run leaves is
argparse's parser, a few hundred objects whatever the command's size.
main() leaves the collector as it finds it, so in-process callers (tests,
library users) keep normal collection.

Grid files: first line "# minsurf-grid v1", then a "x,y,f" CSV header,
then one row per node in row-major order (x-index outer, y-index inner),
boundary included.
"""

import argparse
import errno
import gc
import importlib
import json
import math
import os
import sys

# Each command's handler lives in the module it drives, and main imports
# only that module (_HANDLERS), so a command compiles and loads only its own
# code: numpy only where it computes on arrays (not volume, residual-graph,
# residual-translation or check-translation), of scipy only the compiled
# SuperLU module, only in `solve`, fractions only in check-translation
# (its --b2 and --p values and the polynomial work), and datetime only when
# a timestamp is written.
from .errors import DomainError, QuadratureConvergenceError, SolverError
from .metric import PhiFamily, check_b

__all__ = ["main", "console_main", "write_grid_csv", "read_grid_csv"]

GRID_FORMAT_VERSION = "minsurf-grid v1"

# command -> module holding its handler _cmd_<command, "-" as "_">(args),
# which returns (record, exit code)
_HANDLERS = {
    "volume": "volume",
    "residual-graph": "graph_pde",
    "residual-translation": "translation",
    "check-derivatives": "jet",
    "check-translation": "translation",
    "ellipticity": "graph_pde",
    "solve": "solver",
}

# Largest --samples: check-derivatives peaks near 2.4 GB and 50 s there.
_MAX_SAMPLES = 10**6

# --point fields of the pointwise commands, parsed by _validate
_POINT_FIELDS = {
    "residual-graph": ("f1", "f2", "h11", "h12", "h22"),
    "residual-translation": ("fp", "fpp", "gp", "gpp"),
}


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


def _stdout():
    """sys.stdout; OSError where Python set it to None, fd 1 being closed at
    start-up, so that a record or help text sent there fails like a write."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own ignores a failed write; main turns it into exit 2
        print(self.format_help(), end="", file=file or _stdout(), flush=True)


def _build_parser():
    parser = _Parser(
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

    for name, what in (("residual-graph", "minimal-graph"), ("residual-translation", "translation")):
        p = sub_parser(name, help=f"pointwise {what} residual")
        p.add_argument("--b", type=_parse_floats, default=[0.0])
        p.add_argument("--point", required=True, help=",".join(f"{k}=.." for k in _POINT_FIELDS[name]))

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
    """DomainError on arguments the parser accepts but no command can use;
    replaces a --point string by its dict of fields."""
    # volume alone takes --family; the other commands use the slope metric
    family = PhiFamily(args.family) if args.command == "volume" else PhiFamily.MATSUMOTO
    for b in getattr(args, "b", ()):
        check_b(b, family)
    if args.command in ("check-derivatives", "ellipticity"):
        if not 1 <= args.samples <= _MAX_SAMPLES:
            raise DomainError(f"--samples {args.samples} must be between 1 and {_MAX_SAMPLES}")
        if args.seed < 0:
            raise DomainError(f"--seed {args.seed} must be >= 0")
    # A nan or infinite tolerance would switch its check off; comparisons
    # against nan are false, so the test also rejects nan.
    for name in ("tol", "rtol_dual", "rtol_central"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < math.inf:
            raise DomainError(f"--{name.replace('_', '-')} {value} must be positive and finite")
    if args.command == "solve" and len(args.domain) != 4:
        raise DomainError("--domain expects x0,x1,y0,y1")
    if args.command in _POINT_FIELDS:
        args.point = _parse_point(args.point, _POINT_FIELDS[args.command])


def _to_null_device(stream):
    """Point stream's file descriptor at the null device (the recipe in the
    signal module's docs), so the flush at interpreter exit cannot fail
    again and turn the exit status into 120. A None stream, whose fd was
    closed at start-up, has nothing to flush."""
    if stream is None:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(message, code):
    """Print one `error:` line to stderr and return code; a stderr that
    cannot take the line leaves the exit status as it is."""
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _to_null_device(sys.stderr)
    return code


def main(argv=None) -> int:
    """Parse and run; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if not exc.code:
            return 0
        # argparse ignores a failed write of the usage message, which a
        # buffered stderr then still holds
        try:
            sys.stderr.flush()
        except OSError:
            _to_null_device(sys.stderr)
        return int(exc.code)
    except OSError as exc:
        # only --help writes to stdout here
        _to_null_device(sys.stdout)
        return _fail(f"the help cannot be written to stdout: {exc.strerror}", 2)
    try:
        _validate(args)
        module = importlib.import_module(f"{__package__}.{_HANDLERS[args.command]}")
        record, code = getattr(module, "_cmd_" + args.command.replace("-", "_"))(args)
    except DomainError as exc:
        return _fail(exc, 2)
    except (QuadratureConvergenceError, SolverError) as exc:
        return _fail(exc, 3)
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory", 5)
    record = {"command": args.command, **record}
    # Finite inputs can still overflow; strict JSON has no nan or infinity.
    bad = _nonfinite(record)
    if bad:
        key, value, b = bad
        return _fail(f"{key} is {value} at b={b}: the computation overflows double precision", 3)
    if not args.no_timestamp:
        from datetime import datetime, timezone

        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        out = _stdout()
        out.write(json.dumps(record, indent=2, default=_json_default) + "\n")
        out.flush()
    except OSError as exc:
        _to_null_device(sys.stdout)
        return _fail(f"the record cannot be written to stdout: {exc.strerror}", 2)
    return code


def console_main():
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)
