import ast
import contextlib
import errno
import gc
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from conftest import _random_jets_one_at_a_time

import finmin
from finmin.cli import _COMMANDS, _parse, main, read_grid_csv
from finmin.jet import _JET_BLOCK
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
    # phi = 1 and sin(t)**(n-2) underflows to 0 at every node: 0/0.
    proc = run_proc(["volume", "--b", "0", "--n", "10000000", "--no-timestamp"])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: quadrature ratio is nan at b=0.0, n=10000000 with 64 nodes")
    assert proc.stderr.count("\n") == 1


def test_volume_randers_terms_outside_the_float_range_converge(capsys):
    # At b = 0.95, n = 300, phi**n and sin(t)**(n-2) reach 0 or subnormal
    # values on part of the nodes; each such term is formed whole, and the
    # quadrature converges to the closed form.
    code, rec = run_json(capsys, ["volume", "--family", "randers", "--b", "0.95", "--n", "300", "--no-timestamp"])
    assert code == 0 and "failure" not in rec
    entry = rec["results"][0]
    assert entry["nodes"] == 512
    assert entry["abs_diff"] <= 1e-13 * entry["closed"]


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


def test_volume_disagreement_above_tol_exits_4(capsys):
    code, rec = run_json(capsys, ["volume", "--b", "0.45", "--tol", "1e-17", "--no-timestamp"])
    assert code == 4
    assert rec["failure"] == "quadrature/closed disagreement 1.1102230246251565e-16 above tol 1e-17"


def test_volume_tol_checks_every_family_and_dimension(capsys):
    # --tol bounds the largest abs_diff of the sweep whatever the family and n.
    argv = ["volume", "--b", "0.2,0.5,0.8", "--family", "randers", "--no-timestamp"]
    code, rec = run_json(capsys, argv)
    worst = max(entry["abs_diff"] for entry in rec["results"])
    assert code == 0 and 0.0 < worst <= 1e-15
    code, rec = run_json(capsys, [*argv, "--tol", "1e-17"])
    assert code == 4
    assert rec["failure"] == f"quadrature/closed disagreement {worst} above tol 1e-17"
    code, rec = run_json(capsys, ["volume", "--b", "0.3", "--n", "3", "--tol", "1e-16", "--no-timestamp"])
    assert code == 4 and rec["results"][0]["abs_diff"] > 1e-16


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


def test_check_derivatives_passes_at_default_tolerances_on_many_samples(capsys):
    # The Hessian oracle's central step keeps its truncation error below
    # --rtol-central 1e-6 on every jet, not only on a few hundred.
    argv = ["check-derivatives", "--b", "0,0.2,0.3,0.4", "--samples", "10000", "--seed", "0", "--no-timestamp"]
    assert main(argv) == 0
    assert all(r["pass"] for r in json.loads(capsys.readouterr().out)["results"])


@pytest.mark.parametrize("seed,count", [(0, 1), (1, 5), (123, 200), (7, 1024), (8, 2500)])
def test_jets_drawn_in_blocks_equal_jets_drawn_one_at_a_time(monkeypatch, seed, count):
    import finmin.jet as jet

    for block in (7, _JET_BLOCK):
        monkeypatch.setattr(jet, "_JET_BLOCK", block)
        rng, ref = Random(seed), Random(seed)
        assert np.array_equal(jet._random_jets(rng, count), _random_jets_one_at_a_time(ref, count))
        # and the generators are left in the same state
        assert rng.getstate() == ref.getstate()


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


def test_record_hook_encodes_fractions_and_refuses_the_rest():
    # json.dumps's hook writes an exact rational as "num/den"; any other
    # value it cannot encode is a TypeError, as without the hook.
    from finmin.cli import _json_default

    assert json.dumps({"b2": Fraction(-3, 4)}, default=_json_default) == '{"b2": "-3/4"}'
    for value in (np.float32(1.0), {1}, 1j):
        with pytest.raises(TypeError, match=f"^{type(value).__name__} is not JSON serializable$"):
            json.dumps({"x": value}, default=_json_default)


def test_check_translation_violated_pattern_exits_4(capsys, monkeypatch):
    import finmin.translation as translation

    # no separability or companion remainder: every b2 admits non-planar surfaces
    monkeypatch.setattr(translation, "compatibility_check", lambda k, l: ([], []))
    code, rec = run_json(capsys, ["check-translation", "--b2", "0,1/100", "--no-timestamp"])
    assert code == 4
    assert rec["message"] == "rigidity pattern violated"


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
        ["ellipticity", "--b", "0,0.3", "--samples", "500", "--seed", "1", "--no-timestamp"],
    )
    assert code == 0
    for entry in rec["results"]:
        assert entry["pass"] is True
        assert entry["min_quadform_ratio"] >= 1.0 - 1e-12
        assert entry["min_divisor"] > 0.0


@pytest.mark.parametrize("seed", ["1000", "0"])
def test_ellipticity_reports_the_exact_type_constant(capsys, seed):
    # C(b) = 2 b^2 / (2 + b^2) for every frame (tests/test_symbolic_chain.py);
    # the bound, the supremum of the excess quotient over the probe
    # direction on each sample, stays at or below it and 50 samples reach
    # it to 1%: C is approached where w = 0.
    bs = [0.0, 0.15, 0.3, 0.45]
    argv = ["ellipticity", "--b", "0,0.15,0.3,0.45", "--samples", "50", "--seed", seed]
    code, rec = run_json(capsys, [*argv, "--no-timestamp"])
    assert code == 0
    for b, entry in zip(bs, rec["results"]):
        exact = 2.0 * b * b / (2.0 + b * b)
        assert entry["mean_curvature_type_constant"] == exact
        assert entry["mean_curvature_type_bound"] <= exact * (1.0 + 1e-12)
        if b == 0.0:
            assert entry["mean_curvature_type_bound"] == exact == 0.0
        else:
            assert entry["mean_curvature_type_bound"] >= exact * 0.99
        assert entry["pass"] is True
    keys = list(rec["results"][0])
    assert keys[keys.index("mean_curvature_type_bound") + 1] == "mean_curvature_type_constant"


def test_ellipticity_fails_when_the_estimate_exceeds_the_constant(capsys, monkeypatch):
    from finmin import graph_pde

    real = graph_pde.mean_curvature_type_bound
    # a bound 1e-11 relative above C at b = 0.3 only
    monkeypatch.setattr(
        graph_pde,
        "mean_curvature_type_bound",
        lambda f, k, b: 2.0 * b * b / (2.0 + b * b) * (1.0 + 1e-11) if b == 0.3 else real(f, k, b),
    )
    code, rec = run_json(capsys, ["ellipticity", "--b", "0.15,0.3", "--samples", "20", "--no-timestamp"])
    assert code == 4
    assert [entry["pass"] for entry in rec["results"]] == [True, False]


def test_ellipticity_has_no_horizon_option(capsys):
    # The bound is a closed form on the samples; no gradient horizon is sampled.
    assert main(["ellipticity", "--tmax", "1", "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --tmax 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ellipticity", "--samples", "0"],
        ["ellipticity", "--seed", "-1"],
        ["check-derivatives", "--samples", "0"],
        ["check-derivatives", "--seed", "-1"],
        ["ellipticity", "--samples", str(10**15)],
        ["check-derivatives", "--samples", str(10**15)],
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
        "ellipticity-seed-negative",
        "check-derivatives-samples-0",
        "check-derivatives-seed-negative",
        "ellipticity-samples-above-cap",
        "check-derivatives-samples-above-cap",
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


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--b", "0.1,0.2"], "solve takes exactly one b value"),
        (["--domain=0,1,0"], "--domain expects x0,x1,y0,y1"),
    ],
    ids=["two-b-values", "three-domain-bounds"],
)
def test_solve_malformed_sweep_or_domain_exits_2(capsys, flags, message):
    assert main(["solve", "--nx", "15", "--ny", "15", *flags, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_solve_out_in_a_read_only_directory_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    # Root may write anywhere, so the directory is made read-only by os.access.
    import finmin.solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved although --out cannot be written")

    monkeypatch.setattr(finmin.solver, "solve_minimal_graph", no_solve)
    monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK)
    out = tmp_path / "g.csv"
    assert main(["solve", "--b", "0.3", "--nx", "9", "--ny", "9", "--out", str(out), "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {str(out)!r} cannot be written: directory {str(tmp_path)!r} is not writable\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--out", ""], ["--out="]], ids=["separate", "equals"])
def test_solve_empty_out_exits_2_before_solving(tmp_path, capsys, monkeypatch, flags):
    import finmin.solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved although --out is empty")

    monkeypatch.setattr(finmin.solver, "solve_minimal_graph", no_solve)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--b", "0.3", "--nx", "9", "--ny", "9", *flags, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out '' cannot be written: the path is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_solve_grid_write_failing_after_the_solve_exits_2(tmp_path, capsys, monkeypatch):
    import finmin.cli

    def full_device(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(finmin.cli, "write_grid_csv", full_device)
    out = tmp_path / "g.csv"
    argv = ["solve", "--b", "0.3", "--nx", "15", "--ny", "15", "--out", str(out), "--no-timestamp"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {str(out)!r} cannot be written: No space left on device\n"


_GRID_HEAD = "# minsurf-grid v1\nx,y,f\n"
_GRID_ORDER = "grid file rows are not the nodes in row-major order"


@pytest.mark.parametrize(
    "text,message",
    [
        ("# minsurf-grid v0\nx,y,f\n0.0,0.0,0.0\n", "unrecognized grid file version line: '# minsurf-grid v0'"),
        ("# minsurf-grid v1\n0.0,0.0,0.0\n", "missing x,y,f column header"),
        (_GRID_HEAD + "0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,3.0\n", "grid file has 3 rows for 2 x 2 nodes"),
        (_GRID_HEAD + "0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,3.0\n1.0,1.0,4.0\n1.0,1.0,5.0\n", "grid file has 5 rows for 2 x 2 nodes"),
        (_GRID_HEAD + "0.0,0.0,1.0\n0.0,1.0,2.0\n1.0,0.0,3.0\n1.0,0.0,4.0\n", _GRID_ORDER),
        (_GRID_HEAD + "0.0,1.0,2.0\n0.0,0.0,1.0\n1.0,0.0,3.0\n1.0,1.0,4.0\n", _GRID_ORDER),
        (_GRID_HEAD + "0.0,0.0,1.0\n0.0,1.0\n", "grid file row '0.0,1.0' is not three numbers x,y,f"),
        (_GRID_HEAD + "0.0,0.0,1.0,2.0\n", "grid file row '0.0,0.0,1.0,2.0' is not three numbers x,y,f"),
        (_GRID_HEAD + "0.0,0.0,nope\n", "grid file row '0.0,0.0,nope' is not three numbers x,y,f"),
    ],
    ids=[
        "wrong-version",
        "missing-header",
        "missing-node",
        "repeated-node",
        "repeated-for-missing-node",
        "out-of-order",
        "two-fields",
        "four-fields",
        "not-a-number",
    ],
)
def test_read_grid_csv_rejects_a_foreign_file(tmp_path, text, message):
    from finmin.errors import DomainError

    path = tmp_path / "g.csv"
    path.write_text(text)
    with pytest.raises(DomainError) as excinfo:
        read_grid_csv(path)
    assert str(excinfo.value) == message


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


# Values printed by the stacked closed forms against the batched oracles on
# the jets of random.Random(123): exact equality pins the jet stream and the
# bits of both passes.
_PINNED_CHECK_DERIVATIVES = {
    200: {
        0.0: (2.997100595693508e-15, 8.40375320791753e-10, 5.355455062226305e-15, 2.0861148914817522e-07),
        0.2: (2.688418329621254e-15, 8.902436604048078e-10, 6.22491473175572e-15, 2.1241844143936354e-07),
        0.4: (3.1082793845094916e-15, 9.987685997910341e-10, 5.964582806507242e-15, 2.2335825356744627e-07),
    },
    1: {
        0.0: (5.666142890305513e-16, 1.563528218129045e-10, 9.481854219863918e-16, 6.410087202891871e-08),
        0.2: (1.4475902015604641e-16, 2.414505362852606e-10, 1.0483929754782464e-15, 5.3061427029822814e-08),
        0.4: (1.0707138556550568e-15, 3.222584850758047e-10, 1.549737504884789e-15, 1.2444994091579744e-07),
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


def test_ellipticity_pinned_values(capsys):
    # The README's command: exact equality pins the sample stream (the
    # gradients, the frame rows and the probe directions drawn per b) and
    # the arithmetic on it.
    code, rec = run_json(
        capsys, ["ellipticity", "--b", "0.3", "--samples", "10000", "--seed", "1", "--no-timestamp"]
    )
    assert code == 0
    (r,) = rec["results"]
    got = (r["min_quadform_ratio"], r["min_divisor"], r["mean_curvature_type_bound"])
    assert got == (1.0003642382443276, 3.752890534880828, 0.08612440186325225)


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


def _record_bytes(capsys, argv):
    code = main([*argv, "--no-timestamp"])
    return code, capsys.readouterr().out


_SAMPLED = [
    ["check-derivatives", "--b", "0,0.45", "--seed", "7"],
    ["ellipticity", "--b", "0,0.3", "--seed", "7"],
]


@pytest.mark.parametrize("argv", _SAMPLED, ids=[a[0] for a in _SAMPLED])
@pytest.mark.parametrize("samples", [1, 7, 8, 23])
def test_sampled_records_do_not_depend_on_the_block_size(capsys, monkeypatch, argv, samples):
    # The sampled checks run over blocks of samples, one batched pass per
    # block; blocks of 7 (samples 1, one block, one more and three blocks
    # and two) print the bytes of one block holding every sample.
    import finmin.graph_pde as graph_pde
    import finmin.jet as jet

    argv = [*argv, "--samples", str(samples)]
    whole = _record_bytes(capsys, argv)
    monkeypatch.setattr(jet, "_JET_BLOCK", 7)
    monkeypatch.setattr(graph_pde, "_SAMPLE_BLOCK", 7)
    assert _record_bytes(capsys, argv) == whole
    assert whole[0] == 0


def test_check_derivatives_keeps_a_nan_from_the_second_block(capsys, monkeypatch):
    import finmin.jet as jet

    real = jet.area_integrand_hess_central
    calls = []

    def poisoned(z, b):
        out = real(z, b)
        calls.append(z.shape[-1])
        if len(calls) == 2:  # the second block of the first b
            out[0, 0, 3] = np.nan
        return out

    monkeypatch.setattr(jet, "_JET_BLOCK", 7)
    monkeypatch.setattr(jet, "area_integrand_hess_central", poisoned)
    code = main(["check-derivatives", "--b", "0.2,0.4", "--samples", "20", "--seed", "1", "--no-timestamp"])
    rec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert calls == [7, 7, 6] * 2
    assert code == 4
    first, second = rec["results"]
    assert first["max_rel_errors"]["hess_central"] is None
    assert first["pass"] is False and second["pass"] is True
    assert rec["failure"] == "hess_central relative error is nan at b=0.2"


def test_ellipticity_keeps_a_nan_from_the_second_block(capsys, monkeypatch):
    import finmin.graph_pde as graph_pde

    real = graph_pde.ellipticity_quotients
    calls = []

    def poisoned(f, k, xi, b):
        ratio, divisor = real(f, k, xi, b)
        calls.append(len(f))
        if len(calls) == 2:
            ratio[3] = np.nan
        return ratio, divisor

    monkeypatch.setattr(graph_pde, "_SAMPLE_BLOCK", 7)
    monkeypatch.setattr(graph_pde, "ellipticity_quotients", poisoned)
    code = main(["ellipticity", "--b", "0.3", "--samples", "20", "--seed", "1", "--no-timestamp"])
    captured = capsys.readouterr()
    assert calls == [7, 7, 6]
    assert code == 3 and captured.out == ""
    assert "min_quadform_ratio is nan at b=0.3" in captured.err


_SAMPLED_PROBE = """
import contextlib, io, sys

import finmin.graph_pde, finmin.jet
from finmin.cli import main


def kb(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))


before = kb("VmRSS")
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:] + ["--no-timestamp"])
print((kb("VmHWM") - before) / 1024, code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "argv,bound",
    [
        ("check-derivatives --samples 20000", 7.5),
        ("check-derivatives --b 0 --samples 300000", 21.0),
        ("ellipticity --samples 200000", 12.5),
    ],
    ids=["check-derivatives", "check-derivatives-draw", "ellipticity"],
)
def test_sampled_checks_peak_memory(argv, bound):
    # Above the interpreter with both handlers' modules loaded, numpy among
    # them; the commands load nothing more (they draw from Python's random,
    # not numpy.random, which took about 6 MB). check-derivatives holds its
    # 20000 jets (0.96 MB) and one block's temporaries, about 5.4 MB in all
    # at its three default b; holding every sample's temporaries at once it
    # peaked about 54 MB above. Its 300000 jets (14.4 MB) are drawn into one
    # array, about 18.0 MB in all; drawn as blocks joined at the end, the
    # jets were held twice and it peaked about 27.3 MB above. ellipticity
    # holds one b's gradients, frame rows and probe directions (11.2 MB) and
    # one block's temporaries, about 11.3 MB; with whole-array passes it
    # peaked about 28 MB above.
    proc = subprocess.run([sys.executable, "-c", _SAMPLED_PROBE, *argv.split()], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    peak, code = proc.stdout.split()
    assert code == "0"
    assert float(peak) <= bound


# ---------------------------------------------------------------------------
# imports

_IMPORT_PROBE = """
import contextlib, io, json, sys
import finmin, finmin.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("finmin", "scipy") or m in WATCHED)

WATCHED = ("numpy", "dataclasses", "inspect", "fractions", "datetime", "__future__", "argparse", "gettext", "locale")

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
        ["ellipticity", "--b", "0.3", "--samples", "50", "--seed", "1"],
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
    # The option table needs no argparse, nor the gettext and locale it loads.
    for _, modules in [first[argv[0]] for argv in first_commands] + [second["volume"], second["solve"]]:
        assert not {"argparse", "gettext", "locale"} & set(modules), modules
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


# ---------------------------------------------------------------------------
# the console entry: collector off, heap frozen; records that cannot be written

_CONSOLE_PROBE = """
import atexit, gc, json, runpy, sys
atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count()]), file=sys.stderr))
sys.argv = ["finmin", "volume", "--b", "0.3", "--no-timestamp"]
runpy.run_module("finmin", run_name="__main__")
"""


def test_console_main_runs_with_the_collector_off_and_freezes_the_heap():
    proc = subprocess.run([sys.executable, "-c", _CONSOLE_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "volume"
    enabled, frozen = json.loads(proc.stderr.splitlines()[-1])
    assert enabled is False
    assert frozen > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["volume", "--b", "0.3", "--no-timestamp"]) == 0
        assert main(["volume", "--b", "0.9", "--no-timestamp"]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


_THREADS_PROBE = """
import atexit, os, runpy, sys
atexit.register(
    lambda: print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
)
sys.argv = ["finmin", "solve", "--b", "0.3", "--boundary", "scherk", "--nx", "31", "--ny", "31", "--no-timestamp"]
runpy.run_module("finmin", run_name="__main__")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("setting", [None, "2"])
def test_console_main_runs_openblas_on_one_thread_unless_told_otherwise(setting):
    # Left to itself OpenBLAS starts worker threads (numpy's and scipy's
    # each one on two CPUs), and every small BLAS call waits on them; a
    # console run sets OPENBLAS_NUM_THREADS=1 first, so a solve ends with
    # its one thread. A value the user set is kept.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "solve"
    tasks, value = proc.stderr.split()[-2:]
    if setting is None:
        assert (tasks, value) == ("1", "1")
    else:
        assert value == setting


def test_main_leaves_the_environment_alone(capsys, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["ellipticity", "--samples", "10", "--no-timestamp"]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


# (small, large) runs of each command whose size the benchmark varies
_SIZED_COMMANDS = {
    "solve": ("--boundary scherk --b 0.3 --nx 15 --ny 15", "--boundary scherk --b 0.3 --nx 127 --ny 127"),
    "check-derivatives": ("--b 0.2 --samples 20", "--b 0.2 --samples 400"),
    "ellipticity": ("--b 0.3 --samples 100", "--b 0.3 --samples 20000"),
    "check-translation": ("--b2 1/100", "--b2 0,1/100,1/25,9/100"),
    "volume": ("--b 0.3", "--b 0,0.15,0.3"),
}


@pytest.mark.parametrize("command", _SIZED_COMMANDS)
def test_cyclic_garbage_does_not_grow_with_the_command_size(command):
    # console_main runs commands with the collector off, so whatever cyclic
    # garbage a command leaves stays until exit; it must not scale with the
    # work (today it is the closures json.dumps builds to indent a record,
    # some 30 objects).
    def garbage(flags):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, *flags.split(), "--no-timestamp"]) == 0
        return gc.collect()

    small, large = _SIZED_COMMANDS[command]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        garbage(small)  # first-call imports and caches
        assert garbage(small) == garbage(large)
    finally:
        if was_enabled:
            gc.enable()


def test_record_written_to_a_full_device_exits_2():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    for unbuffered in ("1", ""):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "finmin", "volume", "--b", "0", "--no-timestamp"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: the record cannot be written to stdout: No space left on device\n"


def test_record_written_to_a_closed_pipe_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "finmin", "check-translation", "--b2", "0,1/100,9/100", "--no-timestamp"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: the record cannot be written to stdout: Broken pipe\n"


@pytest.mark.parametrize(
    "argv, what",
    [(["volume", "--b", "0.3", "--no-timestamp"], "record"), (["--help"], "help")],
    ids=["record", "help"],
)
def test_closed_stdout_exits_2(argv, what):
    # With fd 1 closed at start-up, Python sets sys.stdout to None.
    proc = subprocess.run(
        [sys.executable, "-m", "finmin", *argv],
        stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: the {what} cannot be written to stdout: Bad file descriptor\n"


# (argv, exit code) of each `error:` path of main, and of a usage error
_ERROR_PATHS = {
    "domain": (["volume", "--b", "0.9"], 2),
    "usage": (["volume", "--bogus"], 2),
    "quadrature": (["volume", "--b", "0", "--n", "10000000"], 3),
    "overflow": (["residual-graph", "--b", "0.3", "--point", "f1=1e308,f2=0.2,h11=1,h12=0,h22=1"], 3),
    "solver": (["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "9", "--ny", "9", "--max-iter", "0"], 3),
}


@pytest.mark.parametrize("path", _ERROR_PATHS)
def test_error_line_written_to_a_full_device_keeps_the_exit_status(path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    argv, code = _ERROR_PATHS[path]
    for unbuffered in ("1", ""):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "finmin", *argv, "--no-timestamp"],
                stdout=subprocess.PIPE, stderr=full, text=True, env=env,
            )
        assert (proc.returncode, proc.stdout) == (code, ""), unbuffered


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_written_to_a_full_device_exits_2(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: finmin")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    for unbuffered in ("1", ""):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "finmin", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: the help cannot be written to stdout: No space left on device\n"


# ---------------------------------------------------------------------------
# the command corpus, each command run four ways


def _readme_commands():
    """The argv of each fenced `finmin ` line of the README, split as a shell
    splits it."""
    fenced = (Path(__file__).parents[1] / "README.md").read_text().split("```")[1::2]
    return [shlex.split(line)[1:] for block in fenced for line in block.splitlines() if line.startswith("finmin ")]


_README_COMMANDS = _readme_commands()
# perfbench/workloads.py run from its file, so that nothing under perfbench/
# is imported as a package or cached; each workload's argv of seeds 1-3
_workloads = runpy.run_path(str(Path(__file__).parents[1] / "perfbench/workloads.py"))
_WORKLOAD_RUNS = {w: [_workloads["commands"](w, seed) for seed in (1, 2, 3)] for w in _workloads["WORKLOADS"]}

# (argv, exit status, the text a failing run's one stderr line begins with):
# the README's commands, the pointwise and sampled-checks commands of seed 1,
# then the commands that no other source lists, and every help text.
_CORPUS = [
    *((argv, 0, None) for argv in _README_COMMANDS),
    *((argv, 0, None) for workload in ("pointwise", "sampled-checks") for argv in _WORKLOAD_RUNS[workload][0]),
    # Sampled checks over several blocks: check-derivatives runs its closed
    # forms and its four oracles over blocks of 1024 jets (jet._JET_BLOCK),
    # and ellipticity its two functions over blocks of 2048 samples
    # (graph_pde._SAMPLE_BLOCK): 2500 jets are three blocks and 25000 samples
    # thirteen, the last of each only in part.
    (shlex.split("check-derivatives --b 0,0.45 --samples 2500 --seed 7"), 0, None),
    (shlex.split("ellipticity --b 0,0.3 --samples 25000 --seed 7"), 0, None),
    # Grids of converging solves: N = 255, the dirichlet workload's largest;
    # and 200 x 61, whose pattern and CSC data span 14 assembly blocks (910
    # columns or 8192 entries each), the last in part, and its residual two
    # row blocks. The solver drops arrays as it goes, which must change no
    # record or grid. test_solver pins their Newton steps and factorizations.
    (shlex.split("solve --b 0 --boundary scherk --nx 255 --ny 255 --out scherk255.csv"), 0, None),
    (shlex.split("solve --b 0.3 --boundary scherk --nx 200 --ny 61 --out rect.csv"), 0, None),
    # --tol 1e-13 is below the N = 127 grid's rounding floor: the solve
    # stalls at residual 1.01e-12
    (shlex.split("solve --b 0.3 --boundary scherk --nx 127 --ny 127 --tol 1e-13"), 3, "error: line search stalled"),
    # volume where phi**n overflows on part of the nodes (those terms add 0),
    # and where the estimate is 0/0 at 64 nodes
    (shlex.split("volume --b 0.45 --n 2000"), 0, None),
    (shlex.split("volume --b 0 --n 10000000"), 3, "error: quadrature ratio is nan at b=0.0, n=10000000 with 64 nodes"),
    (["volume", "--bogus"], 2, "error:"),
    # cli._COMMANDS, the option table, generates finmin's help and each command's
    *(([*command, "--help"], 0, None) for command in [[], *([name] for name in _COMMANDS)]),
]


def test_command_readers_return_every_command():
    assert len(_README_COMMANDS) == 9
    counts = {w: [len(run) for run in runs] for w, runs in _WORKLOAD_RUNS.items()}
    assert counts == {"pointwise": [14] * 3, "dirichlet": [5] * 3, "sampled-checks": [3] * 3}
    assert len(_CORPUS) == 42


def test_every_volume_record_carries_its_closed_form(capsys):
    # Every family and dimension prints the closed form and its distance
    # from the quadrature: within rounding of the factor on the workload's
    # commands, and at n = 2000 (a factor of 5e-71) within the quadrature's
    # accumulated rounding.
    runs = [argv for runs in _WORKLOAD_RUNS.values() for run in runs for argv in run]
    argvs = {tuple(argv) for argv, code, _ in _CORPUS if argv[0] == "volume" and code == 0 and "--help" not in argv}
    argvs |= {tuple(argv) for argv in runs if argv[0] == "volume"}
    assert len(argvs) == 6
    for argv in sorted(argvs):
        code, rec = run_json(capsys, [*argv, "--no-timestamp"])
        assert code == 0 and "failure" not in rec
        rtol = 1e-13 if rec["n"] == 2000 else 1e-15
        for entry in rec["results"]:
            assert list(entry) == ["b", "euclidean_degeneration", "quadrature", "nodes", "closed", "abs_diff"]
            assert entry["abs_diff"] == abs(entry["quadrature"] - entry["closed"]) <= rtol * entry["closed"]


# The modules each command runs without: each is None in sys.modules, so
# importing it raises ImportError. The scalar commands compute on floats and
# Fractions (fractions only in check-translation), the translation ones take
# the graph equation's divisor from finmin.metric, the sampled checks need
# numpy alone (they draw from Python's random, not numpy.random), and solve
# loads SuperLU's compiled module by itself. finmin's own help loads no
# command's modules.
_SCALAR = ("numpy", "dataclasses", "inspect", "datetime")
_BLOCKED = {
    "--help": (*_SCALAR, "fractions", "scipy"),
    "volume": (*_SCALAR, "fractions"),
    "residual-graph": (*_SCALAR, "fractions"),
    "residual-translation": (*_SCALAR, "fractions", "finmin.graph_pde"),
    "check-translation": (*_SCALAR, "finmin.graph_pde"),
    "check-derivatives": ("scipy", "numpy.random"),
    "ellipticity": ("scipy", "numpy.random"),
    "solve": ("scipy.sparse",),
}
_WITHOUT = """
import sys
sys.modules.update(dict.fromkeys(sys.argv[1].split(",")))
from finmin.cli import main
sys.exit(main(sys.argv[2:]))
"""
# The subprocesses run in directories of their own and import this finmin.
_ENV = {**os.environ, "PYTHONPATH": str(Path(finmin.__file__).parents[1])}


@pytest.mark.parametrize("argv, code, message", _CORPUS, ids=[shlex.join(argv) for argv, _, _ in _CORPUS])
def test_corpus_command_runs_alike_four_ways(tmp_path, monkeypatch, capsys, argv, code, message):
    # Each way in its own directory: `python -m finmin` (console_main, which
    # switches the cyclic collector off); `python -O`, which strips every
    # assert; main() in process with the collector on; and main() in a fresh
    # process without the command's _BLOCKED modules. The exit status, stdout,
    # stderr and --out grid must be equal byte for byte.
    argv = [*argv, "--no-timestamp"]
    grid = argv[argv.index("--out") + 1] if "--out" in argv else None
    commands = {
        "plain": [sys.executable, "-m", "finmin"],
        "optimized": [sys.executable, "-O", "-m", "finmin"],
        "without": [sys.executable, "-c", _WITHOUT, ",".join(_BLOCKED[argv[0]])],
    }
    for way in [*commands, "collected"]:
        (tmp_path / way).mkdir()
    # the three processes run while main() runs here
    procs = {
        way: subprocess.Popen(
            [*command, *argv], cwd=tmp_path / way, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_ENV
        )
        for way, command in commands.items()
    }
    monkeypatch.chdir(tmp_path / "collected")
    assert gc.isenabled()
    outputs = {"collected": (main(argv), *(text.encode() for text in capsys.readouterr()))}
    for way, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        outputs[way] = proc.returncode, out, err
    outputs = {way: (*result, grid and (tmp_path / way / grid).read_bytes()) for way, result in outputs.items()}
    status, out, err, _ = plain = outputs.pop("plain")
    assert status == code, err
    assert outputs == dict.fromkeys(outputs, plain)
    if "--help" in argv:
        assert out.startswith(b"usage: finmin") and err == b""
    elif code == 0:
        record = json.loads(out, parse_constant=_reject_constant)
        assert err == b""
        # `pass` only bounds the type bound from above; ellipticity must also
        # echo the exact constant C = 2b^2/(2 + b^2), not fall toward 0
        for entry in record["results"] if argv[0] == "ellipticity" else []:
            c = entry["mean_curvature_type_constant"]
            assert c * (1 - 1e-6) <= entry["mean_curvature_type_bound"] <= c * (1 + 1e-12), entry
    else:
        assert out == b""
        assert err.startswith(message.encode()) and err.count(b"\n") == 1, err


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no invariant of the package may
    # rest on one; it raises its own errors instead.
    found = [
        f"{path}:{node.lineno}"
        for path in sorted((Path(__file__).parents[1] / "src/finmin").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# ---------------------------------------------------------------------------
# the option table against argparse


def argparse_reference():
    """The argparse parser the option table replaced, kept as the reference
    its parse must agree with; the CLI itself does not import argparse."""
    import argparse

    from finmin.cli import _POINT_FIELDS, _parse_floats, _parse_fractions
    from finmin.metric import PhiFamily

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


def argparse_vars(argv):
    """vars() of the reference parse of argv, or its exit status."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(argparse_reference().parse_args(argv))
    except SystemExit as exc:
        return exc.code


# abbreviations, --opt=value and --opt value, a repeated option (the last
# counts) and each command's defaults
_OTHER_COMMANDS = [
    ["volume", "--fam", "randers", "--b", "0.2"],
    ["volume", "--fam=euclidean", "--no-time"],
    ["volume", "--f", "randers", "--t=1e-8", "--no-t"],
    ["check-derivatives", "--rtol-d", "1e-8", "--rtol-c=1e-5", "--sa", "20", "--se=4"],
    ["check-translation", "--b", "0,1/7", "--p=1/3"],
    ["residual-graph", "--p", "f1=0,f2=0,h11=0,h12=0,h22=0", "--b=0.1,0.2"],
    ["solve", "--max", "4", "--bo=scherk", "--d=-1,1,-1,1", "--o", "g.csv"],
    ["solve", "--nx=9", "--ny", "9", "--b", "0.3", "--b=0.1", "--out", "a.csv", "--out=b.csv"],
    ["ellipticity", "--seed", "1", "--seed", "2", "--samples=5", "--samples", "6", "--no-timestamp", "--no-timestamp"],
    ["solve", "--tol", "-1", "--max-iter", "-1", "--b", "-0.1"],
    # each command of the option table with only its required options
    *([name, *(f"{o}=0" for o, (_, d, _) in options.items() if d is ...)] for name, (_, _, options) in _COMMANDS.items()),
]

_PARITY_CORPUS = (
    [argv for argv, code, _ in _CORPUS if code != 2 and "--help" not in argv]
    # each workload command once: seeds change only values, not options
    + [list(argv) for argv in dict.fromkeys(tuple(a) for runs in _WORKLOAD_RUNS.values() for run in runs for a in run)]
    + _OTHER_COMMANDS
)


def test_parity_corpus_uses_every_option_of_every_command():
    # a shortened option counts as the one option it is a prefix of
    used = set()
    for command, *tokens in _PARITY_CORPUS:
        options = _COMMANDS[command][2]
        for name in (token.partition("=")[0] for token in tokens):
            found = [name] if name in options else [o for o in options if len(name) > 2 and o.startswith(name)]
            used.update((command, option) for option in found if len(found) == 1)
    assert used == {(command, option) for command, (_, _, options) in _COMMANDS.items() for option in options}


@pytest.mark.parametrize("argv", _PARITY_CORPUS)
def test_option_table_parses_like_argparse(argv):
    assert vars(_parse(argv)) == argparse_vars(argv)


# (argv, the token its one error line names)
_USAGE_ERRORS = [
    (["frobnicate"], "frobnicate"),
    (["volume", "--bogus", "1"], "--bogus"),
    (["solve", "--nx"], "--nx"),
    (["solve", "--out", "--no-timestamp"], "--out"),
    (["volume", "--n", "1.5"], "1.5"),
    (["volume", "--family", "bogus"], "bogus"),
    (["check-translation", "--b2", "1/0"], "1/0"),
    (["residual-graph", "--b", "0"], "--point"),
    (["solve", "--n", "9"], "--n"),
    (["volume", "--no-timestamp=1"], "--no-timestamp"),
    ([], "command"),
    # the corpus's, with the text their one line begins with
    *((argv, message) for argv, code, message in _CORPUS if code == 2),
]


@pytest.mark.parametrize("argv, token", _USAGE_ERRORS)
def test_option_table_rejects_what_argparse_rejects(capsys, argv, token):
    assert argparse_vars(argv) == 2
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert token in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], *([command, "--help"] for command in _COMMANDS)])
def test_help_lists_what_argparse_listed(capsys, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: finmin")
    with contextlib.redirect_stdout(io.StringIO()) as reference, pytest.raises(SystemExit):
        argparse_reference().parse_args(argv)
    # every command or option the argparse help named
    for word in re.findall(r"\{([a-z,-]+)\}|(--[a-z0-9-]+)", reference.getvalue()):
        for name in filter(None, ",".join(word).split(",")):
            assert name in text, name


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["solve", "--domain", "-1,1,-1,1"], "domain", [-1.0, 1.0, -1.0, 1.0]),
        (["solve", "--tol", "-1e-9"], "tol", -1e-9),
        (["check-derivatives", "--seed", "x", "--seed", "3"], "seed", 3),
        (["solve", "--out=--"], "out", "--"),
    ],
    ids=["single-dash-value", "single-dash-exponent", "earlier-value-unread", "double-dash-after-equals"],
)
def test_option_table_differs_from_argparse_where_intended(argv, option, value):
    # A value may begin with one "-"; only the last of a repeated option's
    # values is read; "--opt=--" is the text "--" (argparse read it as [])
    assert argparse_vars(argv) != vars(_parse(argv))
    assert getattr(_parse(argv), option) == value
