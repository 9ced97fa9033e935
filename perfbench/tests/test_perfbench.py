"""Tests of the benchmark itself. Run from the checkout root:

    python -m pytest perfbench/tests -q

They start real CLI processes, so they take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

GRAPH_POINT = "f1=0.1,f2=-0.2,h11=0.3,h12=0.4,h22=-0.5"

# One cheap command per layer; together they reach every traced layer.
TINY = [
    ["volume", "--b", "0,0.3", "--n", "3", "--no-timestamp"],
    ["residual-graph", "--b", "0,0.2", "--point", GRAPH_POINT, "--no-timestamp"],
    ["residual-translation", "--b", "0.2", "--point", "fp=1,fpp=0.5,gp=2,gpp=-0.25", "--no-timestamp"],
    ["check-translation", "--b2", "0,1/100", "--p", "0,1", "--no-timestamp"],
    ["check-derivatives", "--b", "0.2", "--samples", "2", "--seed", "1", "--no-timestamp"],
    ["ellipticity", "--b", "0.3", "--samples", "50", "--seed", "1", "--tmax", "0", "--no-timestamp"],
    ["solve", "--b", "0.2", "--boundary", "scherk", "--nx", "9", "--ny", "9",
     "--out", f"{workloads.WORK_DIR}/tiny.csv", "--no-timestamp"],
]


@pytest.fixture(scope="module")
def runner():
    with run.Runner(ROOT) as r:
        yield r


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    assert workloads.commands(workload, 7) == workloads.commands(workload, 7)
    assert workloads.warmup_command(7) == workloads.warmup_command(7)
    other = workloads.commands(workload, 8)
    assert other != workloads.commands(workload, 7)
    # The seed draws values, not sizes: same commands with the same flags.
    assert [[a for a in c if a.startswith("--")] for c in other] == [
        [a for a in c if a.startswith("--")] for c in workloads.commands(workload, 7)
    ]


def test_spec_lists_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_traced_callable_has_a_self_time_metric():
    for module, names in tracer.TARGETS.items():
        for name in names:
            assert layers.SELF_MS[tracer.span_name(module, name)] in layers.UNITS


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(runner, trace):
    result, report = run.measure(runner, "pointwise", 0, 0, trace, cmds=TINY[:2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    prov = report["provenance"]
    for key in ("finmin_commit", "python", "numpy", "scipy", "nproc", "FM_THREADS", "seed", "argv"):
        assert key in prov
    assert prov["argv"] == TINY[:2]


def test_injected_failing_command_lowers_ok_ratio(runner):
    bad = ["residual-graph", "--b", "0.7", "--point", GRAPH_POINT, "--no-timestamp"]  # b out of range: exit 2
    result, report = run.measure(runner, "pointwise", 0, 0, False, cmds=[TINY[1], bad])
    assert result["failed"] == 1 and result["attempted"] == 2
    assert result["metrics"]["ok_ratio"]["value"] == 0.5
    assert report["fail_ratio"] == 0.5
    assert not result["correct"]


def test_children_and_probe_share_one_cpu(runner):
    probe = runner.speed
    assert os.sched_getaffinity(0) == {probe.cpu}
    assert os.sched_getaffinity(probe._thread.native_id) == {probe.cpu}
    code, _, _, out, _ = runner._spawn([sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"])
    assert code == 0 and json.loads(out) == [probe.cpu]


def test_reference_time_is_wall_time_over_the_probe_slowdown(runner):
    inv = runner.invoke(TINY[1])
    assert inv.verdict == "ok" and inv.slowdown > 0.0
    # Probes preempt the child for a few percent of its wall time at most.
    assert 0.9 * inv.wall_s <= inv.ref_s * inv.slowdown <= inv.wall_s


def test_wrong_output_is_caught(runner):
    argv = TINY[1]
    code, _, _, out, err = runner._spawn([sys.executable, "-m", "finmin", *argv])
    assert checks.check(argv, code, out, err, ROOT) == ("ok", "")
    record = json.loads(out)
    record["results"][1]["residual"] *= 1.0 + 1e-9
    verdict, detail = checks.check(argv, code, json.dumps(record), err, ROOT)
    assert verdict == "wrong" and "README form" in detail
    assert checks.check(argv, 3, "", "error: stalled\n", ROOT)[0] == "failed"


def test_tiny_traced_pass_has_spans_for_every_layer(runner):
    invocations = runner.run_pass(TINY, traced=True)
    assert [inv.verdict for inv in invocations] == ["ok"] * len(TINY)
    seen = {span[0].split(".")[0] for inv in invocations for span in inv.trace["spans"]}
    assert seen == {"cli", "volume", "translation", "jet", "dual", "graph_pde", "solver"}
    m = layers.pass_metrics(invocations)
    for name in ("volume.quadrature_ms", "translation.kl_polys_ms", "jet.closed_ms", "dual.hessian_ms",
                 "graph_pde.bound_sampler_ms", "solver.sparse_solve_ms", "cli.write_grid_csv_ms"):
        assert m[name] > 0.0, name
    assert m["solver.unknowns"] == 81 and m["solver.newton_iters"] >= 1
    assert m["translation.kl_polys_useful_ratio"] == 2 / m["translation.kl_polys_calls"]
    assert abs(m["trace.unaccounted_ms"]) < 1e-6


def test_scipy_import_time_counts_outermost_scipy_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       200 |        350 |   scipy.sparse",
        "import time:        10 |         10 |   json",
        "import time:        40 |        400 | finmin.solver",
        "import time:        30 |         30 | scipy.special",
    ])
    assert layers.scipy_import_ms(stderr) == 0.38


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pointwise", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
