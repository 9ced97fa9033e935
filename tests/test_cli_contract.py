"""The CLI's failure contract, fuzzed over its argument grammar.

Every invocation, whatever its arguments, must exit 0, 2, 3 or 4; print
nothing or one strict-JSON record to stdout; print nothing or one `error:`
line to stderr, a usage error included; and raise no warning. Each
example runs `main()` in process on one command with some of its flags at
valid values and at most one flag at an edge value: a finite extreme, a
non-finite or malformed number, a bad rational, an unwritable or empty
path. Sizes stay small (solves at most 15 x 15, at most 3 samples), so
the examples are cheap.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from finmin.cli import main

# Finite extremes overflow the formulas; the others fail validation.
EXTREME_FLOATS = ["1e308", "-1e308", "1e200", "1e154"]
OTHER_EDGE_FLOATS = ["nan", "inf", "-inf", "-0.0", "-1", "0.5", "1e20", "1e-320", "1/0", "x", ""]


def choice(*values):
    return st.sampled_from([str(v) for v in values])


def moderate():
    return st.floats(-2.0, 2.0).map(repr)


def edge_float():
    return st.sampled_from(EXTREME_FLOATS) | st.sampled_from(OTHER_EDGE_FLOATS)


def listed(values, size=3):
    return st.lists(values, min_size=1, max_size=size).map(",".join)


def one_edge_field(n):
    """n moderate numbers, one of them replaced by an edge value."""
    return st.builds(
        lambda v, i, e: v[:i] + (e,) + v[i + 1 :],
        st.tuples(*(moderate() for _ in range(n))),
        st.integers(0, n - 1),
        edge_float(),
    )


def point(keys):
    """(valid, edge) --point strategies: every field once with a moderate
    value; or one field an edge value (three in four edge points), or a
    field missing, repeated, unknown or without "="."""

    def joined(keys, values):
        return ",".join(f"{k}={v}" for k, v in zip(keys, values))

    values = st.tuples(*(moderate() for _ in keys))
    edge_value = one_edge_field(len(keys)).map(lambda v: joined(keys, v))
    malformed = st.one_of(
        values.map(lambda v: joined(keys[1:], v[1:])),
        values.map(lambda v: joined(keys + keys[:1], v + v[:1])),
        values.map(lambda v: joined(keys, v) + ",zz=1"),
        values.map(lambda v: joined(keys, v) + f",{keys[0]}"),
    )
    edge = st.integers(0, 3).flatmap(lambda i: edge_value if i else malformed)
    return values.map(lambda v: joined(keys, v)), edge


def grammar(folder):
    """command -> {flag: (strategy of a valid value, strategy of an edge value)}.

    A valid value can still fail for a numerical reason (a solve given one
    Newton step exits 3, a tight --rtol-dual exits 4)."""
    b = (listed(choice(0, 0.2, 0.45) | st.floats(0.0, 0.49).map(repr)), listed(edge_float() | choice(0.3)))
    samples = (choice(1, 3), choice(-1, 0, "x", 1.5))
    seed = (choice(0, 7, 2**40), choice(-1, "x", 1.5))
    tol = (choice("1e-10", "1e-6", "1e-14"), edge_float())
    affine = st.tuples(moderate(), moderate(), moderate())
    return {
        "volume": {
            "--b": b,
            "--n": (choice(2, 3), choice(-1, 0, 1, 40, 1000, "x", 10**400)),
            "--family": (choice("matsumoto", "randers", "euclidean"), choice("bogus", "")),
            "--tol": tol,
        },
        "residual-graph": {"--b": b, "--point": point(["f1", "f2", "h11", "h12", "h22"])},
        "residual-translation": {"--b": b, "--point": point(["fp", "fpp", "gp", "gpp"])},
        "check-derivatives": {"--b": b, "--samples": samples, "--seed": seed, "--rtol-dual": tol, "--rtol-central": tol},
        "check-translation": {
            "--b2": (listed(choice(0, "1/100", "9/100", "1/7")), listed(choice("1/0", "-1", "1/3", "1e308", "x"))),
            "--p": (listed(choice(0, "1/2", 1, 2, 5)), listed(choice("1/0", "-1", "1e308", "x"))),
        },
        "ellipticity": {
            "--b": b,
            "--samples": samples,
            "--seed": seed,
        },
        "solve": {
            "--b": (choice(0, 0.3, 0.45), b[1]),
            "--domain": (
                choice("-1,1,-1,1", "-0.5,1,-1,0.7", "0,2,0,1"),
                choice("0,1e-300,0,1e-300", "-2,2,-1,1", "1,-1,-1,1", "0,1") | one_edge_field(4).map(",".join),
            ),
            "--nx": (choice(8, 9, 15), choice(-1, 7, "x", 1.5)),
            "--ny": (choice(8, 15), choice(-1, 7, "x")),
            "--boundary": (
                choice("zero", "scherk") | affine.map(lambda v: "affine:" + ",".join(v)),
                choice("wavy", "affine:1,2") | one_edge_field(3).map(lambda v: "affine:" + ",".join(v)),
            ),
            "--tol": tol,
            "--max-iter": (choice(0, 1, 30), choice(-1, "x")),
            "--out": (choice(folder / "g.csv"), choice(folder / "missing" / "g.csv", folder, "")),
        },
    }


@st.composite
def argvs(draw, folder):
    """A command with some of its flags, at most one of them at an edge value.

    The edge flag, if any (seven in eight examples), is drawn uniformly
    from all (command, flag) pairs, so commands with more flags are drawn
    more often."""
    flags = grammar(folder)
    pairs = [(command, flag) for command in sorted(flags) for flag in sorted(flags[command])]
    if draw(st.integers(0, 7)):
        command, edge = draw(st.sampled_from(pairs))
    else:
        command, edge = draw(st.sampled_from(sorted(flags))), None
    options = flags[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    # Required, or defaults too large for a cheap example (200 samples, 63 x 63).
    chosen += [
        flag for flag in ("--point", "--samples", "--nx", "--ny", edge) if flag in options and flag not in chosen
    ]
    # "--flag=value" keeps values such as "-inf" from reading as flags.
    argv = [command] + [f"{flag}={draw(options[flag][flag == edge])}" for flag in chosen]
    if draw(st.booleans()):
        argv.append("--no-timestamp")
    return argv


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name}")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_invocation_keeps_the_contract(tmp_path_factory, data):
    argv = data.draw(argvs(tmp_path_factory.getbasetemp()), label="argv")
    code, out, err, caught = run_main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
    if code in (0, 4):
        # one record, strict JSON, and nothing on stderr
        assert isinstance(json.loads(out, parse_constant=_no_constants), dict)
        assert out.endswith("}\n") and err == ""
        return
    # a failure, a usage error included, writes exactly one `error: ` line
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
