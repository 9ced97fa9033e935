import json
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from finmin.cli import main, read_grid_csv
from finmin.translation import kl_polys, kl_ratio_derivative


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_proc(argv):
    return subprocess.run(
        [sys.executable, "-m", "finmin", *argv], capture_output=True, text=True
    )


# ---------------------------------------------------------------------------
# volume


def test_volume_record(capsys):
    code, rec = run_json(capsys, ["volume", "--b", "0.3", "--n", "2", "--family", "matsumoto", "--no-timestamp"])
    assert code == 0
    assert rec["command"] == "volume"
    entry = rec["results"][0]
    assert entry["quadrature"] == pytest.approx(0.9569377990430622, abs=1e-12)
    assert entry["closed"] == pytest.approx(0.9569377990430622, rel=1e-15)
    assert entry["abs_diff"] <= 1e-10
    assert entry["euclidean_degeneration"] is False


def test_volume_pinned_nodes_and_value(capsys):
    # Bit-exact pin: any change to the Gauss-Legendre node source moves the
    # last digits of the quadrature value (here 1.1e-16 from 2/2.09, and equal
    # to the closed form 2/(2 + b*b) evaluated in floats).
    code, rec = run_json(capsys, ["volume", "--b", "0.3", "--n", "2", "--no-timestamp"])
    assert code == 0
    entry = rec["results"][0]
    assert entry["quadrature"] == 0.9569377990430623
    assert entry["nodes"] == 128


def test_volume_nonfinite_estimate_exits_3_at_once():
    proc = run_proc(["volume", "--b", "0.3", "--n", "100000", "--no-timestamp"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: quadrature ratio is nan at b=0.3, n=100000 with 64 nodes")
    assert proc.stderr.count("\n") == 1


def test_volume_n_beyond_float_range_exits_2():
    # The integrands take float powers with exponents n - 2 and n.
    proc = run_proc(["volume", "--b", "0.3", "--n", "1" + "0" * 400, "--no-timestamp"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: dimension n of 401 digits is beyond the float range\n"


def test_volume_sweep_and_degeneration_flag(capsys):
    code, rec = run_json(capsys, ["volume", "--b", "0,0.2,0.4", "--no-timestamp"])
    assert code == 0
    assert [e["b"] for e in rec["results"]] == [0.0, 0.2, 0.4]
    assert rec["results"][0]["euclidean_degeneration"] is True


def test_volume_rejects_bad_b(capsys):
    assert main(["volume", "--b", "0.6", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert "outside" in err


def test_timestamp_present_by_default(capsys):
    # datetime is imported only to write this field
    from datetime import datetime, timedelta

    code, rec = run_json(capsys, ["volume", "--b", "0.1"])
    assert code == 0
    stamp = datetime.fromisoformat(rec["timestamp"])
    assert stamp.tzinfo is not None and stamp.utcoffset() == timedelta(0)


# ---------------------------------------------------------------------------
# residual commands


def test_residual_graph_trivial(capsys):
    code, rec = run_json(
        capsys,
        ["residual-graph", "--b", "0", "--point", "f1=0,f2=0,h11=0,h12=0,h22=0", "--no-timestamp"],
    )
    assert code == 0
    assert rec["results"][0]["residual"] == 0.0
    assert rec["results"][0]["euclidean_degeneration"] is True


def test_residual_graph_bad_point(capsys):
    assert main(["residual-graph", "--point", "f1=0,f2=0", "--no-timestamp"]) == 2
    assert main(["residual-graph", "--point", "bogus=1", "--no-timestamp"]) == 2


_OVERFLOWING_POINTS = [
    ("residual-graph", dict(f1="1", f2="0.2", h11="1", h12="0", h22="1"), key, sign + "1e308")
    for key in ("f1", "f2", "h11", "h12", "h22")
    for sign in ("", "-")
] + [
    ("residual-translation", dict(fp="1", fpp="0.5", gp="2", gpp="-0.25"), key, sign + "1e308")
    for key in ("fp", "fpp", "gp", "gpp")
    for sign in ("", "-")
]


@pytest.mark.parametrize(
    "command, point, key, value",
    _OVERFLOWING_POINTS,
    ids=[f"{c.split('-')[1]}-{k}={v}" for c, _, k, v in _OVERFLOWING_POINTS],
)
def test_nonfinite_result_from_finite_point_exits_3(capsys, command, point, key, value):
    # Each field is finite, so the point parser passes it, but the result
    # overflows: the record would hold NaN or Infinity, which is not JSON.
    point = ",".join(f"{k}={value if k == key else v}" for k, v in point.items())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--b", "0.3,0", "--point", point, "--no-timestamp"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first key of the first b whose value is not finite
    assert re.fullmatch(
        r"error: (residual|lambda) is (nan|-?inf) at b=0\.3: the computation overflows double precision\n",
        captured.err,
    )


def test_residual_translation(capsys):
    code, rec = run_json(
        capsys,
        ["residual-translation", "--b", "0,0.3", "--point", "fp=1,fpp=0.5,gp=2,gpp=-0.25", "--no-timestamp"],
    )
    assert code == 0
    e0 = rec["results"][0]
    assert e0["lambda"] == pytest.approx(4.0 * 36.0 * 5.0)  # 4 (1+p)^2 (1+s)
    assert e0["residual"] == pytest.approx(e0["lambda"] * 0.5 + e0["mu"] * -0.25)


# ---------------------------------------------------------------------------
# check commands


def test_check_derivatives_small(capsys):
    code, rec = run_json(
        capsys,
        ["check-derivatives", "--b", "0,0.4", "--samples", "10", "--seed", "3", "--no-timestamp"],
    )
    assert code == 0
    for entry in rec["results"]:
        assert entry["pass"] is True
        assert entry["max_rel_errors"]["grad_dual"] <= 1e-9
        assert entry["max_rel_errors"]["hess_central"] <= 1e-6


def _random_jets_one_at_a_time(rng, count):
    """The sequential draw the block draw must reproduce."""
    jets = []
    while len(jets) < count:
        z = rng.uniform(-1.5, 1.5, size=(3, 2))
        a = z.T @ z
        if a[0, 0] * a[1, 1] - a[0, 1] ** 2 >= 0.25:
            jets.append(z)
    return np.stack(jets, axis=-1)


@pytest.mark.parametrize("seed,count", [(0, 1), (1, 5), (123, 200), (7, 1024), (8, 2500)])
def test_jets_drawn_in_blocks_equal_jets_drawn_one_at_a_time(seed, count):
    from finmin.jet import _random_jets

    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    assert np.array_equal(_random_jets(rng, count), _random_jets_one_at_a_time(ref, count))
    # and the generators are left in the same state
    assert rng.uniform() == ref.uniform()


def test_check_derivatives_forced_failure(capsys):
    code, rec = run_json(
        capsys,
        [
            "check-derivatives",
            "--b",
            "0.2",
            "--samples",
            "5",
            "--rtol-dual",
            "1e-30",
            "--no-timestamp",
        ],
    )
    assert code == 4
    assert rec["results"][0]["pass"] is False


def test_check_translation_builds_k_and_l_once_per_b2(capsys, monkeypatch):
    import finmin.translation as translation

    real, calls = translation.kl_polys, []
    monkeypatch.setattr(translation, "kl_polys", lambda b2: calls.append(b2) or real(b2))
    argv = ["check-translation", "--b2", "0,1/100,9/100", "--p", "0,1/2,1,2,5", "--no-timestamp"]
    assert main(argv) == 0
    assert calls == [0, Fraction(1, 100), Fraction(9, 100)]


def test_check_translation_report(capsys):
    code, rec = run_json(
        capsys,
        ["check-translation", "--b2", "0,1/100,9/100", "--p", "0,1/2,1,2", "--no-timestamp"],
    )
    assert code == 0
    assert rec["message"] == "(K/L)_p = 1 at all nodes; rigidity criterion satisfied only at b=0"
    first = rec["results"][0]
    assert set(first) == {
        "b2",
        "k_coeffs",
        "l_coeffs",
        "ratio_derivative",
        "separability_zero",
        "companion_zero",
        "admits_nonplanar",
    }
    assert first["b2"] == "0/1"
    assert all(node["value"] == "1" or node["value"] == "1/1" for node in first["ratio_derivative"])
    assert first["admits_nonplanar"] is True
    second = rec["results"][1]
    assert second["admits_nonplanar"] is False
    # serialized exact rationals match the library values
    v = kl_ratio_derivative(*kl_polys("1/100"), 0)
    assert second["ratio_derivative"][0]["value"] == f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize("flag", ["--b2", "--p"])
def test_check_translation_zero_denominator_exits_2(capsys, flag):
    assert main(["check-translation", flag, "0,1/0", "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: invalid" in captured.err
    assert "Traceback" not in captured.err


def test_ellipticity_command(capsys):
    code, rec = run_json(
        capsys,
        ["ellipticity", "--b", "0,0.3", "--samples", "500", "--seed", "1", "--tmax", "100", "--no-timestamp"],
    )
    assert code == 0
    for entry in rec["results"]:
        assert entry["pass"] is True
        assert entry["min_quadform_ratio"] >= 1.0 - 1e-12
        assert entry["min_divisor"] > 0.0


@pytest.mark.parametrize("tmax", ["1000", "0"])
def test_ellipticity_reports_the_exact_type_constant(capsys, tmax):
    # C(b) = 2 b^2 / (2 + b^2) for every frame (tests/test_symbolic_chain.py);
    # the sampled estimate stays at or below it. At --tmax 0 only the zero
    # gradient is sampled, where the excess reaches C only for a frame row
    # k with k3 = 0.
    bs = [0.0, 0.15, 0.3, 0.45]
    argv = ["ellipticity", "--b", "0,0.15,0.3,0.45", "--samples", "50", "--seed", "3", "--tmax", tmax]
    code, rec = run_json(capsys, [*argv, "--no-timestamp"])
    assert code == 0
    for b, entry in zip(bs, rec["results"]):
        exact = 2.0 * b * b / (2.0 + b * b)
        assert entry["mean_curvature_type_constant"] == exact
        assert entry["mean_curvature_type_bound"] <= exact * (1.0 + 1e-12)
        if b == 0.0:
            assert entry["mean_curvature_type_bound"] == exact == 0.0
        elif tmax == "0":
            assert 0.0 < entry["mean_curvature_type_bound"] < exact
        else:
            assert entry["mean_curvature_type_bound"] >= exact * (1.0 - 1e-6)
        assert entry["pass"] is True
    keys = list(rec["results"][0])
    assert keys[keys.index("mean_curvature_type_bound") + 1] == "mean_curvature_type_constant"


def test_ellipticity_fails_when_the_estimate_exceeds_the_constant(capsys, monkeypatch):
    from finmin import graph_pde

    real = graph_pde.mean_curvature_type_bound
    # a sampler 1e-11 relative above C at b = 0.3 only
    monkeypatch.setattr(
        graph_pde,
        "mean_curvature_type_bound",
        lambda m, b, **kw: 2.0 * b * b / (2.0 + b * b) * (1.0 + 1e-11) if b == 0.3 else real(m, b, **kw),
    )
    code, rec = run_json(capsys, ["ellipticity", "--b", "0.15,0.3", "--samples", "20", "--no-timestamp"])
    assert code == 4
    assert [entry["pass"] for entry in rec["results"]] == [True, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["ellipticity", "--samples", "0"],
        ["ellipticity", "--tmax", "-1"],
        ["ellipticity", "--tmax", "nan"],
        ["ellipticity", "--tmax", "inf"],
        ["ellipticity", "--tmax", "1e-4"],
        ["ellipticity", "--tmax", "1e76"],
        ["ellipticity", "--seed", "-1"],
        ["check-derivatives", "--samples", "0"],
        ["check-derivatives", "--seed", "-1"],
        ["volume", "--b", "0.3", "--tol", "nan"],
        ["volume", "--b", "0.3", "--tol", "inf"],
        ["volume", "--b", "0.3", "--tol", "0"],
        ["check-derivatives", "--samples", "2", "--rtol-dual", "nan"],
        ["check-derivatives", "--samples", "2", "--rtol-dual=-1e-9"],
        ["check-derivatives", "--samples", "2", "--rtol-central", "inf"],
        ["check-derivatives", "--samples", "2", "--rtol-central", "nan"],
        ["check-translation", "--b2", "0", "--p", "-1"],
        ["residual-translation", "--point", "fp=nan,fpp=0.5,gp=2,gpp=-0.25"],
        ["residual-translation", "--point", "fp=1,fpp=0.5,gp=inf,gpp=-0.25"],
        ["residual-graph", "--point", "f1=abc,f2=0,h11=0,h12=0,h22=0"],
        ["residual-graph", "--point", "f1,f2=0,h11=0,h12=0,h22=0"],
        ["residual-graph", "--point", "f1=1,f1=2,f2=0,h11=0,h12=0,h22=0"],
        ["residual-translation", "--point", "fp=1,fpp=,gp=2,gpp=0"],
        ["residual-translation", "--point", "fp=1,fpp=0,gp=2,gpp=0,gp=2"],
    ],
    ids=[
        "ellipticity-samples-0",
        "tmax-negative",
        "tmax-nan",
        "tmax-inf",
        "tmax-below-1e-3",
        "tmax-above-1e75",
        "ellipticity-seed-negative",
        "check-derivatives-samples-0",
        "check-derivatives-seed-negative",
        "volume-tol-nan",
        "volume-tol-inf",
        "volume-tol-0",
        "rtol-dual-nan",
        "rtol-dual-negative",
        "rtol-central-inf",
        "rtol-central-nan",
        "check-translation-p-negative",
        "residual-translation-point-nan",
        "residual-translation-point-inf",
        "residual-graph-point-not-a-number",
        "residual-graph-point-no-value",
        "residual-graph-point-repeated-field",
        "residual-translation-point-empty-value",
        "residual-translation-point-repeated-field",
    ],
)
def test_bad_sampler_input_exits_2(capsys, argv):
    assert main([*argv, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# solve + grid files


def test_solve_writes_roundtrip_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, rec = run_json(
        capsys,
        [
            "solve",
            "--b",
            "0.2",
            "--boundary",
            "affine:0.1,0.3,0.2",
            "--nx",
            "15",
            "--ny",
            "15",
            "--out",
            str(out),
            "--no-timestamp",
        ],
    )
    assert code == 0
    assert rec["planarity_deviation"] < 1e-8
    xs, ys, f = read_grid_csv(out)
    assert f.shape == (17, 17)
    expected = 0.1 + 0.3 * xs[:, None] + 0.2 * ys[None, :]
    assert np.max(np.abs(f - expected)) < 1e-8

    # the reloaded field is bit-equal to an identical in-process solve
    from finmin.solver import GridProblem, solve_minimal_graph

    problem = GridProblem(
        (-1.0, 1.0, -1.0, 1.0), 15, 15, 0.2, lambda x, y: 0.1 + 0.3 * x + 0.2 * y
    )
    sol = solve_minimal_graph(problem, tol=1e-10)
    assert np.array_equal(f, sol.f)

    from finmin.cli import write_grid_csv

    out2 = tmp_path / "grid2.csv"
    write_grid_csv(out2, xs, ys, f)
    xs2, ys2, f2 = read_grid_csv(out2)
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2) and np.array_equal(f, f2)


def test_solve_scherk_domain_validation(capsys):
    code = main(
        ["solve", "--b", "0", "--boundary", "scherk", "--domain=-2,2,-1,1", "--no-timestamp"]
    )
    assert code == 2
    assert "pi/2" in capsys.readouterr().err


def test_solve_non_convergence_exit(capsys):
    code = main(
        [
            "solve",
            "--b",
            "0.3",
            "--boundary",
            "scherk",
            "--nx",
            "15",
            "--ny",
            "15",
            "--max-iter",
            "1",
            "--no-timestamp",
        ]
    )
    assert code == 3
    assert "Newton" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [["--tol", "nan"], ["--tol", "inf"], ["--max-iter", "-1"]],
    ids=["tol-nan", "tol-inf", "max-iter-negative"],
)
def test_solve_bad_stopping_rule_exits_2(capsys, flag):
    argv = ["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "15", "--ny", "15", *flag, "--no-timestamp"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["--boundary", "affine:nan,0,0"],
        ["--boundary", "affine:inf,0,0"],
        ["--boundary", "affine:0,-inf,1"],
        ["--domain=0,inf,0,1"],
        ["--domain=0,1,nan,1"],
        ["--domain=0,1e300,0,1e300"],
    ],
    ids=["affine-c0-nan", "affine-c0-inf", "affine-cx-minus-inf", "domain-inf", "domain-nan", "domain-spacing-overflows"],
)
def test_solve_nonfinite_input_exits_2(capsys, flags):
    argv = ["solve", "--b", "0.3", "--nx", "15", "--ny", "15", *flags, "--no-timestamp"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    [["--boundary", "affine:1e200,1e200,0"], ["--domain=0,1e-300,0,1e-300", "--boundary", "scherk"]],
    ids=["affine-overflows", "spacing-squared-underflows"],
)
def test_solve_nonfinite_residual_exits_3(capsys, flags):
    argv = ["solve", "--b", "0.3", "--nx", "15", "--ny", "15", *flags, "--no-timestamp"]
    with np.errstate(all="ignore"):
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: initial residual max-norm is nan\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--boundary", "affine:1e200,1e200,0"],
        ["--boundary", "affine:1e150,1e150,0"],
        ["--boundary", "affine:0,1e154,0"],
        ["--boundary", "affine:1e300,0,0"],
        ["--domain=0,1e-300,0,1e-300", "--boundary", "scherk"],
    ],
    ids=["affine-1e200", "affine-1e150", "affine-slope-1e154", "affine-1e300", "spacing-squared-underflows"],
)
def test_solve_nonfinite_residual_prints_only_the_error_line(capsys, flags):
    argv = ["solve", "--b", "0.3", "--nx", "15", "--ny", "15", *flags, "--no-timestamp"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: initial residual max-norm is nan\n"


def test_solve_overflowing_initial_blend_prints_only_the_error_line(capsys):
    # Found by tests/test_cli_contract.py: the bilinear blend of boundary data
    # near 1e308 overflows before the residual does.
    argv = ["solve", "--nx", "15", "--ny", "8", "--boundary", "affine:1.3,1.6,1e308", "--no-timestamp"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: initial residual max-norm is nan\n"


def test_solve_unwritable_out_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    import finmin.solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved although --out cannot be written")

    monkeypatch.setattr(finmin.solver, "solve_minimal_graph", no_solve)
    for out, reason in [
        (tmp_path / "missing_dir" / "g.csv", "there is no directory"),
        (tmp_path, "it is a directory"),
    ]:
        argv = ["solve", "--b", "0.3", "--nx", "15", "--ny", "15", "--out", str(out), "--no-timestamp"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out {str(out)!r} cannot be written: {reason}")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing_dir").exists()


def test_write_grid_csv_matches_the_per_node_writer(tmp_path):
    from finmin.cli import GRID_FORMAT_VERSION, write_grid_csv

    # The per-node writer that the row writer replaced, kept as the reference.
    def per_node(path, xs, ys, f):
        with open(path, "w") as fh:
            fh.write(f"# {GRID_FORMAT_VERSION}\n")
            fh.write("x,y,f\n")
            for ix, x in enumerate(xs):
                for iy, y in enumerate(ys):
                    fh.write(f"{float(x)!r},{float(y)!r},{float(f[ix, iy])!r}\n")

    rng = np.random.default_rng(3)
    xs = np.linspace(-1.0, 1.0, 13)
    ys = np.concatenate([[-0.0, 1e-300], rng.normal(size=7)])
    f = rng.normal(size=(13, 9)) * 10.0 ** rng.integers(-20, 20, size=(13, 9))
    f[0, :3] = [-0.0, 1e-300, -5e-324]
    f[5, 4] = 1e300
    write_grid_csv(tmp_path / "new.csv", xs, ys, f)
    per_node(tmp_path / "old.csv", xs, ys, f)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_solve_unknown_boundary(capsys):
    assert main(["solve", "--boundary", "wavy", "--no-timestamp"]) == 2


# ---------------------------------------------------------------------------
# process-level behavior


def test_usage_error_names_offending_token():
    proc = run_proc(["volume", "--bogus-flag", "1"])
    assert proc.returncode == 2
    assert "--bogus-flag" in proc.stderr


def test_unknown_command_exits_2():
    proc = run_proc(["frobnicate"])
    assert proc.returncode == 2
    assert "frobnicate" in proc.stderr


def test_byte_identical_determinism():
    argv = ["check-derivatives", "--b", "0.2", "--samples", "8", "--seed", "7", "--no-timestamp"]
    a = run_proc(argv)
    b = run_proc(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    argv2 = ["ellipticity", "--b", "0.25", "--samples", "200", "--seed", "11", "--tmax", "50", "--no-timestamp"]
    a2 = run_proc(argv2)
    b2 = run_proc(argv2)
    assert a2.stdout == b2.stdout


# Values printed by the stacked closed forms against the batched oracles.
# The oracles' bits are those of the per-sample implementation the batched
# passes replaced; exact equality pins both passes to their bits.
_PINNED_CHECK_DERIVATIVES = {
    200: {
        0.0: (3.2555341962713475e-15, 7.803692714225287e-10, 4.67186562770877e-15, 2.9091555392950667e-07),
        0.2: (3.1274468637407285e-15, 8.283209098975535e-10, 5.1355378225325924e-15, 2.798451637419311e-07),
        0.4: (3.732422734239402e-15, 9.1501318173418e-10, 7.509984351253283e-15, 2.9554124194627303e-07),
    },
    1: {
        0.0: (2.9208379865118863e-16, 1.8693826795261068e-10, 1.581943620792306e-15, 1.4521216239672015e-08),
        0.2: (4.4054633538564964e-16, 1.221154792369714e-10, 1.2087766916146447e-15, 1.3092593898015461e-08),
        0.4: (3.733118988945874e-16, 3.034413879393191e-10, 2.0540283251942896e-15, 1.8223149216380094e-08),
    },
}


@pytest.mark.parametrize("samples", [200, 1])
def test_check_derivatives_pinned_values(capsys, samples):
    code, rec = run_json(
        capsys,
        ["check-derivatives", "--b", "0,0.2,0.4", "--samples", str(samples), "--seed", "123", "--no-timestamp"],
    )
    assert code == 0
    pinned = _PINNED_CHECK_DERIVATIVES[samples]
    assert [r["b"] for r in rec["results"]] == list(pinned)
    for r in rec["results"]:
        errs = r["max_rel_errors"]
        got = (errs["grad_dual"], errs["grad_central"], errs["hess_dual"], errs["hess_central"])
        assert got == pinned[r["b"]]


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in the record")


@pytest.mark.parametrize("target", ["area_integrand_hess_dual", "area_integrand_grad"])
def test_check_derivatives_nonfinite_error_fails(capsys, monkeypatch, target):
    import finmin.jet as jet

    real = getattr(jet, target)
    calls = []

    def poisoned(*args, **kwargs):
        out = np.array(real(*args, **kwargs), dtype=float)
        calls.append(None)
        if target == "area_integrand_hess_dual" or len(calls) == 1:
            out[0, 0, 1] = np.nan  # one entry of sample 1 (at the first b only for the gradient)
        return out

    monkeypatch.setattr(jet, target, poisoned)
    code = main(["check-derivatives", "--b", "0.2,0.4", "--samples", "3", "--seed", "1", "--no-timestamp"])
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 4
    first, second = rec["results"]
    assert first["pass"] is False
    if target == "area_integrand_grad":
        assert first["max_rel_errors"]["grad_dual"] is None
        assert first["max_rel_errors"]["grad_central"] is None
        assert second["pass"] is True
        assert "grad_dual relative error is nan at b=0.2" in rec["failure"]
        assert "b=0.4" not in rec["failure"]
    else:
        assert first["max_rel_errors"]["hess_dual"] is None
        assert second["pass"] is False
        assert rec["failure"] == (
            "hess_dual relative error is nan at b=0.2; hess_dual relative error is nan at b=0.4"
        )
    assert isinstance(first["max_rel_errors"]["hess_central"], float)


# ---------------------------------------------------------------------------
# imports

_IMPORT_PROBE = """
import contextlib, io, json, sys
import finmin, finmin.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("finmin", "scipy") or m in WATCHED)

WATCHED = ("numpy", "dataclasses", "inspect", "fractions", "datetime", "__future__")

out = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = finmin.cli.main([*argv, "--no-timestamp"])
    out[argv[0]] = (code, loaded())
print(json.dumps(out))
"""


def _loaded_after_each(commands):
    """Run commands in order in one fresh interpreter (this process already
    has everything loaded); the finmin and scipy modules and the WATCHED
    modules loaded so far after each, by command name."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_load_only_their_modules():
    def scipy_or_solver(modules):
        return [m for m in modules if m.split(".")[0] == "scipy" or m == "finmin.solver"]

    first_commands = [
        ["residual-translation", "--b", "0.3", "--point", "fp=1,fpp=0.5,gp=2,gpp=-0.25"],
        ["check-translation", "--b2", "0,1/100", "--p", "0,1"],
        ["residual-graph", "--b", "0.3", "--point", "f1=0.2,f2=-0.1,h11=0.5,h12=0,h22=0.3"],
        ["check-derivatives", "--b", "0.2", "--samples", "2", "--seed", "1"],
        ["ellipticity", "--b", "0.3", "--samples", "50", "--tmax", "0", "--seed", "1"],
    ]
    first = _loaded_after_each(first_commands)
    second = _loaded_after_each(
        [
            ["volume", "--b", "0.3", "--n", "2"],
            ["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "8", "--ny", "8"],
        ]
    )
    # No command loads dataclasses; numpy itself imports inspect, and
    # datetime and __future__ too, which no command loads otherwise under
    # --no-timestamp. Only check-translation, which computes on rationals,
    # loads fractions. volume computes on Python floats: it adds
    # finmin.volume alone, no numpy and no inspect.
    base = ["finmin", "finmin.cli", "finmin.errors", "finmin.metric"]
    assert first["import"] == second["import"] == base
    for argv in first_commands:
        code, modules = first[argv[0]]
        assert code == 0 and scipy_or_solver(modules) == [], argv
        assert "dataclasses" not in modules, argv
    for _, modules in [first[argv[0]] for argv in first_commands] + [second["volume"], second["solve"]]:
        assert "numpy" in modules or not {"datetime", "__future__"} & set(modules), modules
    # The three scalar commands, each in a fresh interpreter, add only their
    # own modules: no numpy, no jet, no dual, no inspect.
    for argv, own in [
        (first_commands[0], ["finmin.translation"]),
        (first_commands[1], ["finmin.translation", "fractions"]),
        (first_commands[2], ["finmin.graph_pde"]),
    ]:
        code, modules = _loaded_after_each([argv])[argv[0]]
        assert code == 0 and modules == sorted(base + own), argv
    code, modules = second["volume"]
    assert code == 0 and modules == sorted(base + ["finmin.volume"])
    # solve reaches SuperLU through its compiled module alone: no other scipy module.
    code, modules = second["solve"]
    solve_adds = ["finmin.graph_pde", "finmin.solver", "scipy.sparse.linalg._dsolve._superlu"]
    assert code == 0 and modules == sorted(base + ["finmin.volume", "inspect", "numpy", "datetime", "__future__"] + solve_adds)


_SUPERLU_PROBE = """
import contextlib, io, json, sys

if sys.argv[1] == "scipy-first":
    import scipy.sparse.linalg
from finmin.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "8", "--ny", "8", "--no-timestamp"])
scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from finmin.solver import _superlu

loaded = _superlu()
lu = scipy.sparse.linalg.splu(scipy.sparse.csc_array(np.array([[2.0, 1.0], [1.0, 3.0]])))
print(json.dumps({
    "code": code,
    "scipy": scipy_modules,
    "same": loaded is sys.modules["scipy.sparse.linalg._dsolve._superlu"]
    and loaded is scipy.sparse.linalg._dsolve.linsolve._superlu
    and scipy.sparse.linalg.SuperLU is loaded.SuperLU,
    "x": lu.solve(np.array([3.0, 4.0])).tolist(),
}))
"""


@pytest.mark.parametrize("order", ["solve-first", "scipy-first"])
def test_solve_and_scipy_share_one_superlu_module(order):
    # Whichever loads it first, there is one SuperLU module, and scipy's own
    # splu still works. A solve alone loads no other scipy module. (When the
    # solve comes first, `_dsolve` has no `_superlu` attribute: scipy binds
    # it with `from . import _superlu`, which reads sys.modules.)
    proc = subprocess.run([sys.executable, "-c", _SUPERLU_PROBE, order], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    if order == "solve-first":
        assert out["scipy"] == ["scipy.sparse.linalg._dsolve._superlu"]
    assert out["same"] is True
    assert np.allclose(out["x"], [1.0, 1.0], rtol=0, atol=1e-15)


_NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from finmin.cli import main

outs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    outs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(outs))
"""

_SCALAR_COMMANDS = [
    ["residual-graph", "--b", "0,0.2,0.45", "--point", "f1=0.7,f2=-1.3,h11=0.5,h12=0.25,h22=-2"],
    ["residual-translation", "--b", "0,0.3", "--point", "fp=1,fpp=0.5,gp=2,gpp=-0.25"],
    ["check-translation", "--b2", "0,1/100,9/100", "--p", "0,1/2,1,2,5"],
    # the four volume commands of the perfbench pointwise workload
    ["volume", "--b", "0,0.15,0.3,0.45", "--n", "2", "--family", "matsumoto"],
    ["volume", "--b", "0,0.15,0.3,0.45", "--n", "3", "--family", "matsumoto"],
    ["volume", "--b", "0.2,0.5,0.8", "--n", "2", "--family", "randers"],
    ["volume", "--b", "0.5", "--n", "2", "--family", "euclidean"],
    # phi**n overflows on part of the nodes; those terms add 0
    ["volume", "--b", "0.45", "--n", "2000"],
]


def test_scalar_commands_byte_identical_without_numpy(capsys):
    # The last command's estimate is 0/0 at 64 nodes: exit 3 and one error line.
    failing = ["volume", "--b", "0.3", "--n", "100000"]
    commands = [[*argv, "--no-timestamp"] for argv in [*_SCALAR_COMMANDS, failing]]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for argv, (code, out, err) in zip(commands, results):
        assert main(argv) == code, argv
        assert capsys.readouterr() == (out, err), argv
    assert [code for code, _, _ in results] == [0] * len(_SCALAR_COMMANDS) + [3]
    assert all(err == "" for _, _, err in results[:-1])
    _, out, err = results[-1]
    assert out == ""
    assert err.startswith("error: quadrature ratio is nan at b=0.3, n=100000 with 64 nodes")
    assert err.count("\n") == 1
