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
what a command allocates: the only cyclic garbage a run leaves is the
closures json.dumps builds to indent the record, some 30 objects whatever
the command's size.
main() leaves the collector as it finds it, so in-process callers (tests,
library users) keep normal collection.

Threads: console_main also sets OPENBLAS_NUM_THREADS to 1 unless the
environment already sets it, so numpy and scipy start no OpenBLAS worker
thread for the small BLAS calls of a command. main() leaves the
environment alone.

Grid files: first line "# minsurf-grid v1", then a "x,y,f" CSV header,
then one row per node in row-major order (x-index outer, y-index inner),
boundary included.
"""

import errno
import gc
import importlib
import json
import math
import os
import sys
from types import SimpleNamespace

# Each command's handler lives in the module it drives, and main imports
# only that module (the first entry of the command's _COMMANDS row), so a
# command compiles and loads only its own code: numpy only where it computes
# on arrays (not volume, residual-graph, residual-translation or
# check-translation), of scipy only the compiled SuperLU module, only in
# `solve`, fractions only in check-translation (its --b2 and --p values and
# the polynomial work), and datetime only when a timestamp is written.
from .errors import DomainError, QuadratureConvergenceError, SolverError
from .metric import PhiFamily, check_b

__all__ = ["main", "console_main", "write_grid_csv", "read_grid_csv"]

GRID_FORMAT_VERSION = "minsurf-grid v1"

# Largest --samples. There check-derivatives (three b) peaks at 79 MB and
# takes about 35 s, and ellipticity (one b) peaks at 82 MB, most of it the
# samples themselves: both draw and run over blocks of samples.
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
    """Read a grid file back into (xs, ys, f); values compare bit-equal.

    The rows must be the nodes in row-major order (x outer, both ascending),
    as write_grid_csv writes them: a node missing, repeated or out of that
    order, or a row that is not three numbers, raises DomainError.
    """
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip()
        if header != f"# {GRID_FORMAT_VERSION}":
            raise DomainError(f"unrecognized grid file version line: {header!r}")
        if fh.readline().strip() != "x,y,f":
            raise DomainError("missing x,y,f column header")
        rows = []
        for line in fh:
            try:
                x, y, v = map(float, line.split(","))
            except ValueError:
                raise DomainError(f"grid file row {line.strip()!r} is not three numbers x,y,f") from None
            rows.append((x, y, v))
    rows = np.array(rows).reshape(-1, 3)
    xs, ys = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    if len(rows) != xs.size * ys.size:
        raise DomainError(f"grid file has {len(rows)} rows for {xs.size} x {ys.size} nodes")
    if not (np.array_equal(rows[:, 0], np.repeat(xs, ys.size)) and np.array_equal(rows[:, 1], np.tile(ys, xs.size))):
        raise DomainError("grid file rows are not the nodes in row-major order")
    return xs, ys, rows[:, 2].reshape(xs.size, ys.size)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_floats(text):
    return [float(v) for v in text.split(",")]


def _parse_fractions(text):
    # _parse turns a ValueError into a usage error (exit 2); Fraction
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


# command -> (module, help, {option: (type, default, help)}). The module
# holds the command's handler _cmd_<command, "-" as "_">(args), which
# returns (record, exit code). _parse runs each value's text through its
# type, and so each default's; a tuple type lists the choices, a default
# of ... marks a required option and None one that stays None when not
# given. Every command also takes -h/--help and --no-timestamp.
_COMMANDS = {
    "volume": ("volume", "volume factor by quadrature and closed form", {
        "--b": (_parse_floats, "0", "comma-separated sweep"),
        "--n": (int, "2", "dimension"),
        "--family": (tuple(f.value for f in PhiFamily), "matsumoto", "slope function"),
        "--tol": (float, "1e-10", "largest absolute quadrature/closed-form difference"),
    }),
    **{
        name: (module, f"pointwise {what} residual", {
            "--b": (_parse_floats, "0", "comma-separated sweep"),
            "--point": (str, ..., ",".join(f"{k}=.." for k in _POINT_FIELDS[name])),
        })
        for name, module, what in (
            ("residual-graph", "graph_pde", "minimal-graph"), ("residual-translation", "translation", "translation")
        )
    },
    "check-derivatives": ("jet", "closed forms vs dual/central oracles", {
        "--b": (_parse_floats, "0,0.2,0.4", "comma-separated sweep"),
        "--samples": (int, "200", "random jets per b"),
        "--seed": (int, "0", "seed of the jets"),
        "--rtol-dual": (float, "1e-9", "relative tolerance against the dual numbers"),
        "--rtol-central": (float, "1e-6", "relative tolerance against central differences"),
    }),
    "check-translation": ("translation", "exact rigidity report", {
        "--b2": (_parse_fractions, "0", 'rationals b^2, e.g. "0,1/100,9/100"'),
        "--p": (_parse_fractions, "0,1,2,5", "rational nodes p = f'^2 + g'^2"),
    }),
    "ellipticity": ("graph_pde", "coefficient lower bound and type constant", {
        "--b": (_parse_floats, "0.3", "comma-separated sweep"),
        "--samples": (int, "10000", "random frames per b"),
        "--seed": (int, "0", "seed of the frames"),
    }),
    "solve": ("solver", "Dirichlet solve of the minimal-graph equation", {
        "--b": (_parse_floats, "0", "one b value"),
        "--domain": (_parse_floats, "-1,1,-1,1", "x0,x1,y0,y1"),
        "--nx": (int, "63", "interior nodes along x"),
        "--ny": (int, "63", "interior nodes along y"),
        "--boundary": (str, "zero", "zero | affine:c0,cx,cy | scherk"),
        "--tol": (float, "1e-10", "Newton stops at max|r / D| <= tol"),
        "--max-iter": (int, "30", "largest number of Newton steps"),
        "--out": (str, None, "write the converged grid as CSV"),
    }),
}


def _parse(argv):
    """The namespace of argv for the handlers, or the help text it asks for;
    DomainError on a usage error. An option may be shortened to a unique
    prefix. Its value is the text after "=" or else the next token, unless
    that begins with "--"; the last value given counts."""
    if not argv:
        raise DomainError("the following arguments are required: command")
    command, *rest = argv
    if command not in _COMMANDS:
        if command == "-h" or len(command) > 2 and "--help".startswith(command):
            return _help()
        raise DomainError(f"argument command: invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    options = _COMMANDS[command][2]
    names = ["--help", "--no-timestamp", *options]
    given, extras = {}, []
    tokens = iter(rest)
    for token in tokens:
        name, eq, text = ("--help", "", "") if token == "-h" else token.partition("=")
        found = [name] if name in names else [n for n in names if len(name) > 2 and n.startswith(name)]
        if len(found) != 1:
            if found:
                raise DomainError(f"ambiguous option: {name} could match {', '.join(found)}")
            extras.append(token)
            continue
        option = found[0]
        if option == "--help":
            return _help(command)
        if option == "--no-timestamp":
            if eq:
                raise DomainError(f"argument --no-timestamp: ignored explicit argument {text!r}")
        elif not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise DomainError(f"argument {option}: expected one argument")
        given[option] = text
    if extras:
        raise DomainError(f"unrecognized arguments: {' '.join(extras)}")
    args = SimpleNamespace(command=command, no_timestamp="--no-timestamp" in given)
    for option, (kind, default, _) in options.items():
        text = given.get(option, default)
        if text is ...:
            raise DomainError(f"the following arguments are required: {option}")
        if isinstance(kind, tuple) and text not in kind:
            raise DomainError(f"argument {option}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        try:
            value = text if text is None or isinstance(kind, tuple) else kind(text)
        except ValueError:
            raise DomainError(f"argument {option}: invalid value: {text!r}") from None
        setattr(args, option[2:].replace("-", "_"), value)
    return args


def _help(command=None):
    """The --help text of finmin, or of one command, from _COMMANDS."""
    options = {"-h, --help": "show this help and exit"}
    if command is None:
        usage = f"[-h] {{{','.join(_COMMANDS)}}} ..."
        about = "Minimal-surface toolkit for the slope-metric Minkowski 3-space."
        sections = {"commands": {name: text for name, (_, text, _) in _COMMANDS.items()}, "options": options}
    else:
        _, about, table = _COMMANDS[command]
        usage, sections = f"{command} [-h] [--no-timestamp]", {"options": options}
        options["--no-timestamp"] = "omit the timestamp field so identical runs are byte-identical"
        for option, (kind, default, text) in table.items():
            label = f"{option} " + (f"{{{','.join(kind)}}}" if isinstance(kind, tuple) else option[2:].upper())
            usage += f" {label}" if default is ... else f" [{label}]"
            options[label] = text if default in (None, ...) else f"{text} (default: {default})"
    lines = [f"usage: finmin {usage}", "", about]
    for heading, rows in sections.items():
        lines += ["", f"{heading}:"]
        lines += [f"  {key:22}  {text}" if len(key) <= 22 else f"  {key}\n{'':26}{text}" for key, text in rows.items()]
    return "\n".join(lines) + "\n"


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


def _write(what, text, code):
    """Write text to stdout and return code; 2, with one error line, if it
    cannot be written (where Python set sys.stdout to None, fd 1 being
    closed at start-up, too)."""
    try:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _to_null_device(sys.stdout)
        return _fail(f"the {what} cannot be written to stdout: {exc.strerror}", 2)
    return code


def main(argv=None) -> int:
    """Parse and run; returns the process exit status."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            return _write("help", args, 0)
        _validate(args)
        module = importlib.import_module(f"{__package__}.{_COMMANDS[args.command][0]}")
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
    return _write("record", json.dumps(record, indent=2, default=_json_default) + "\n", code)


def console_main():
    # Before any handler loads numpy: OpenBLAS then starts no worker thread,
    # which each small BLAS call of a command would wait on. A value the
    # user set stays.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)
