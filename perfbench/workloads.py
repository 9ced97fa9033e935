"""Command lists of the three workloads, generated from a workload seed.

The seed draws only values whose choice does not change the cost of a
command: evaluation points, affine boundary coefficients, exact rationals
and the sampling seeds handed to the CLI. Grid sizes, b ladders and sample
counts are fixed, so one pass costs about the same on every seed.

Every argv list ends with --no-timestamp, so its output is deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("pointwise", "dirichlet", "sampled-checks")

# Grid files written by `solve --out`, relative to the checkout root.
WORK_DIR = ".perfbench_work"

_TAIL = ["--no-timestamp"]


def _num(x: float) -> str:
    return repr(float(x))


def _graph_point(rng: random.Random) -> str:
    f1, f2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    h11, h12, h22 = (rng.uniform(-1.0, 1.0) for _ in range(3))
    return f"f1={_num(f1)},f2={_num(f2)},h11={_num(h11)},h12={_num(h12)},h22={_num(h22)}"


def _translation_point(rng: random.Random) -> str:
    fp, gp = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    fpp, gpp = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    return f"fp={_num(fp)},fpp={_num(fpp)},gp={_num(gp)},gpp={_num(gpp)}"


def _rational_b2(rng: random.Random) -> Fraction:
    # 0 < b2 < 1/4, that is 0 < b < 1/2.
    den = rng.randrange(5, 400)
    return Fraction(rng.randrange(1, (den - 1) // 4 + 1), den)


def _distinct_b2(rng: random.Random, k: int) -> list[Fraction]:
    out: set[Fraction] = set()
    while len(out) < k:
        out.add(_rational_b2(rng))
    return sorted(out)


def _pointwise(rng: random.Random) -> list[list[str]]:
    cmds = []
    for _ in range(4):
        cmds.append(["residual-graph", "--b", "0,0.2,0.45", "--point", _graph_point(rng)])
    for _ in range(4):
        cmds.append(["residual-translation", "--b", "0,0.3", "--point", _translation_point(rng)])
    cmds += [
        ["volume", "--b", "0,0.15,0.3,0.45", "--n", "2", "--family", "matsumoto"],
        ["volume", "--b", "0,0.15,0.3,0.45", "--n", "3", "--family", "matsumoto"],
        ["volume", "--b", "0.2,0.5,0.8", "--n", "2", "--family", "randers"],
        ["volume", "--b", "0.5", "--n", "2", "--family", "euclidean"],
    ]
    for b2 in ([Fraction(0)] + _distinct_b2(rng, 2), _distinct_b2(rng, 3)):
        cmds.append(["check-translation", "--b2", ",".join(map(str, b2)), "--p", "0,1/2,1,2,5"])
    return cmds


def _dirichlet(rng: random.Random) -> list[list[str]]:
    c0, cx, cy = (rng.uniform(-1.0, 1.0) for _ in range(3))
    affine = f"affine:{_num(c0)},{_num(cx)},{_num(cy)}"
    return [
        ["solve", "--b", "0.4", "--boundary", affine, "--nx", "63", "--ny", "63",
         "--out", f"{WORK_DIR}/affine63.csv"],
        ["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "127", "--ny", "127"],
        ["solve", "--b", "0.45", "--boundary", "scherk", "--nx", "127", "--ny", "127"],
        ["solve", "--b", "0.3", "--boundary", "scherk", "--nx", "191", "--ny", "191",
         "--out", f"{WORK_DIR}/scherk191.csv"],
        # Stalls in the line search at this grid size until the stopping rule
        # is made scale-aware; it stays in so fail counts show the fix.
        ["solve", "--b", "0", "--boundary", "scherk", "--nx", "255", "--ny", "255",
         "--out", f"{WORK_DIR}/scherk255.csv"],
    ]


def _sampled_checks(rng: random.Random) -> list[list[str]]:
    s1, s2, s3 = (str(rng.randrange(2**31)) for _ in range(3))
    return [
        ["check-derivatives", "--b", "0,0.2,0.4", "--samples", "200", "--seed", s1],
        ["ellipticity", "--b", "0.15", "--seed", s2],
        ["ellipticity", "--b", "0.3,0.45", "--seed", s3],
    ]


_BUILDERS = {"pointwise": _pointwise, "dirichlet": _dirichlet, "sampled-checks": _sampled_checks}


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argv lists (without the program name) of one pass of `workload`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return [cmd + _TAIL for cmd in _BUILDERS[workload](rng)]


def warmup_command(seed: int) -> list[str]:
    """The untimed first invocation of a run: start-up plus one cheap command."""
    rng = random.Random(f"warmup:{seed}")
    return ["residual-graph", "--b", "0", "--point", _graph_point(rng)] + _TAIL
