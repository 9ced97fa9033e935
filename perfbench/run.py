"""finmin benchmark: CLI wall time per workload, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a finmin checkout. Each command of the workload runs
as `python -m finmin ARGV` in a fresh interpreter with src on PYTHONPATH:
a closed loop with one client, the next command issued only after the
previous one has exited. Passes over the workload's command list repeat
while the next one is expected to end within S seconds (at least one
pass runs). Every output is checked
(checks.py); a nonzero exit or a wrong output counts as a failure.

The benchmark and its children are pinned to one CPU, whose speed a probe
thread samples (speed.py); the end-to-end times are wall times rescaled to
a fixed reference speed, with the raw wall times kept in the report.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes run through tracer.py and reports the per-layer metrics
(layers.py), with the tracing overhead as traced minus untraced wall time.

The last stdout line is the result
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
the line before it is a report with provenance, the argv lists and each
command's timings. Set-up failures exit 1 without a result; a checkout
without the finmin sources exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

import checks
import layers
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5

E2E_UNITS = {"wall_s": "s", "cmd_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}


class SetupError(Exception):
    pass


@dataclass
class Invocation:
    argv: list
    code: int
    wall_s: float
    ref_s: float  # wall_s at the reference host speed (speed.py)
    slowdown: float
    maxrss_mb: float
    verdict: str
    detail: str
    extras: dict = field(default_factory=dict)
    trace: dict | None = None


class Runner:
    """Starts one child at a time from the checkout root and checks its output."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, workloads.WORK_DIR)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._out = os.path.join(self.work, "stdout")
        self._err = os.path.join(self.work, "stderr")
        self._spans = os.path.join(self.work, "spans.json")
        self.speed = speed.SpeedProbe()

    def __enter__(self):
        os.makedirs(self.work, exist_ok=True)
        self.speed.__enter__()
        return self

    def __exit__(self, *exc):
        self.speed.__exit__(*exc)
        shutil.rmtree(self.work, ignore_errors=True)

    def _spawn(self, args):
        """(exit code, (start, end) perf_counter times, max RSS in MB, stdout, stderr) of one child."""
        with open(self._out, "w") as out, open(self._err, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.root, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self._out) as out, open(self._err) as err:
            return proc.returncode, (t0, t1), usage.ru_maxrss / 1024.0, out.read(), err.read()

    def invoke(self, argv: list, cmd_id: int = 0, traced: bool = False) -> Invocation:
        if traced:
            if os.path.exists(self._spans):
                os.remove(self._spans)
            args = [sys.executable, os.path.join("perfbench", "tracer.py"), self._spans, str(cmd_id), *argv]
        else:
            args = [sys.executable, "-m", "finmin", *argv]
        code, (t0, t1), rss, out, err = self._spawn(args)
        verdict, detail = checks.check(argv, code, out, err, self.root)
        ref_s, slowdown = self.speed.scale(t0, t1)
        inv = Invocation(argv, code, t1 - t0, ref_s, slowdown, rss, verdict, detail)
        if verdict == "ok":
            inv.extras = checks.extras(argv, code, out, self.root)
        if traced and os.path.exists(self._spans):
            with open(self._spans) as fh:
                inv.trace = json.load(fh)
        if "--out" in argv:
            grid = os.path.join(self.root, argv[argv.index("--out") + 1])
            if os.path.exists(grid):
                os.remove(grid)
        return inv

    def run_pass(self, cmds: list, traced: bool = False) -> list:
        return [self.invoke(argv, i, traced) for i, argv in enumerate(cmds)]

    def scipy_import_ms(self) -> float:
        code, _, _, _, err = self._spawn([sys.executable, "-X", "importtime", "-c", "import finmin.cli"])
        if code != 0:
            raise SetupError(f"import finmin.cli failed: {err.strip()[-300:]}")
        return layers.scipy_import_ms(err)


def pass_wall(passes: list, key: str = "wall_s") -> float:
    """Time of one pass: the sum over commands of each command's median `key`."""
    return sum(statistics.median(getattr(p[i], key) for p in passes) for i in range(len(passes[0])))


def provenance(root: str, workload: str, seed: int, cmds: list) -> dict:
    src = os.path.join(root, "src", "finmin")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    with open(os.path.join(src, "__init__.py")) as fh:
        version = re.search(r'__version__ = "([^"]+)"', fh.read())

    def dist(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "finmin_commit": commit,
        "finmin_source_sha256": digest.hexdigest(),
        "finmin_version": version.group(1) if version else None,
        "python": sys.version.split()[0],
        "numpy": dist("numpy"),
        "scipy": dist("scipy"),
        "nproc": os.cpu_count(),
        "FM_THREADS": os.environ.get("FM_THREADS"),
        "workload": workload,
        "seed": seed,
        "loop": "closed, one client, one fresh interpreter per command",
        "warmup_argv": workloads.warmup_command(seed),
        "argv": cmds,
    }


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool, cmds: list | None = None):
    """(result, report) of one run; `cmds` overrides the workload's list (tests)."""
    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        todo = workloads.commands(workload, seed) if cmds is None else cmds
        generate = time.perf_counter() - t0
        warm = runner.invoke(workloads.warmup_command(seed))
        setups.append(generate + warm.ref_s)
        setups_wall.append(time.perf_counter() - t0)
        if warm.verdict != "ok":
            raise SetupError(f"warm-up invocation failed: {warm.detail}")
    cmds = todo

    plain, traced, probes = [], [], []
    t_start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(cmds))
        if trace:
            probes.append(runner.scipy_import_ms())
            traced.append(runner.run_pass(cmds, traced=True))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(plain) > seconds:
            break

    timed = [inv for p in plain for inv in p]
    everything = timed + [inv for p in traced for inv in p]
    refs = [inv.ref_s for inv in timed]
    if trace:
        per_pass = [layers.pass_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in layers.UNITS}
        values["cli.import_scipy_ms"] = statistics.median(probes)
        values["trace.wall_s"] = pass_wall(traced)
        values["trace.overhead_s"] = pass_wall(traced, "ref_s") - pass_wall(plain, "ref_s")
        units = layers.UNITS
    else:
        values = {
            "wall_s": pass_wall(plain, "ref_s"),
            "cmd_p50_ms": statistics.median(refs) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(max(inv.maxrss_mb for inv in p) for p in plain),
            "ok_ratio": sum(inv.verdict == "ok" for inv in timed) / len(timed),
        }
        units = E2E_UNITS

    failed = sum(inv.verdict != "ok" for inv in everything)
    result = {
        "correct": all(inv.verdict != "wrong" for inv in everything),
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "provenance": provenance(runner.root, workload, seed, cmds),
        "passes": len(plain),
        "traced_passes": len(traced),
        "cmd_p50_samples": len(refs),
        "fail_ratio": failed / len(everything),
        "speed": {"cpu": runner.speed.cpu, "ref_probe_s": speed.REF_PROBE_S,
                  "slowdown_p50": statistics.median(inv.slowdown for inv in timed)},
        "raw_wall_s": pass_wall(plain),
        "setup_s": setups,
        "setup_wall_s": setups_wall,
        "commands": [
            {
                "argv": argv,
                "ref_s": [p[i].ref_s for p in plain],
                "wall_s": [p[i].wall_s for p in plain],
                "slowdown": [p[i].slowdown for p in plain],
                "traced_wall_s": [p[i].wall_s for p in traced],
                "exit": sorted({p[i].code for p in plain + traced}),
                "verdicts": sorted({p[i].verdict for p in plain + traced}),
                "detail": next((p[i].detail for p in plain + traced if p[i].detail), ""),
            }
            for i, argv in enumerate(cmds)
        ],
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "finmin", "cli.py")):
        print(f"error: no finmin sources under {ROOT}/src; run from a finmin checkout", file=sys.stderr)
        return 2
    try:
        with Runner(ROOT) as runner:
            result, report = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
