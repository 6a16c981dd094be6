"""The benchmark's workloads: one CLI command each, with its output check.

Each check takes the command's output text and the stored reference values
(reference.json) and returns the problems it found (empty when the output
is correct) and the accuracy in decimal digits:

* DP outputs: -log10 of the worst relative error of VarK, CovSK and RhoSK
  at the checked n, floored at 2^-53, the finest error a float64 output
  can show.
* Monte-Carlo outputs: -log10 of the largest relative standard error of the
  estimated means of S and K, i.e. the digits the estimate carries at the
  workload's trial count.

The Monte-Carlo checks are statistical (fixed z-bounds against exact
values), so they hold for any random stream, not one particular seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

UNIT_ROUNDOFF = 2.0 ** -53
DP_TOL = 1e-8          # relative; a larger error is a wrong result, not lost digits
Z_MEAN = 5.0
Z_RHO = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Callable[[int], list]      # seed -> CLI arguments (without --out)
    check: Callable[[str, dict], tuple]


def _digits(worst_rel: float) -> float:
    return -math.log10(max(worst_rel, UNIT_ROUNDOFF))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _data_lines(text: str) -> list:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def exact_p03(nmax: int = 4096) -> Workload:
    def args(seed):
        return ["exact", "--p", "0.3", "--nmax", str(nmax)]

    def check(text, ref):
        lines = _data_lines(text)
        header, rows = lines[0].split(","), lines[1:]
        if len(rows) != nmax + 1:
            return [f"{len(rows)} rows, expected {nmax + 1}"], 0.0
        col = {name: i for i, name in enumerate(header)}
        problems, worst = [], 0.0
        checked = {int(n): v for n, v in ref["dp"]["0.3"].items() if int(n) <= nmax}
        for n, want in sorted(checked.items()):
            row = rows[n].split(",")
            if int(row[0]) != n:
                problems.append(f"row {n} holds n={row[0]}")
                continue
            for q in ("VarK", "CovSK", "RhoSK"):
                err = _rel(float(row[col[q]]), want[q])
                worst = max(worst, err)
                if err > DP_TOL:
                    problems.append(f"{q}({n}) relative error {err:.3g}")
        if not checked:
            problems.append("no reference value at n <= nmax")
        return problems, _digits(worst)

    return Workload(
        "exact-p03",
        "standard DP kernel at skewed p: cdot and the split recurrence do "
        "nearly all the work; MC and asym idle",
        args, check)


def compare_p05_ext(grid=(64, 256, 1024), trials: int = 400) -> Workload:
    grid_arg = ",".join(str(n) for n in grid)

    def args(seed):
        return ["compare", "--p", "0.5", "--precision", "extended",
                "--n-grid", grid_arg, "--trials", str(trials),
                "--seed", str(seed)]

    def check(text, ref):
        lines = _data_lines(text)
        header, rows = lines[0].split(","), [r.split(",") for r in lines[1:]]
        col = {name: i for i, name in enumerate(header)}
        if [int(r[0]) for r in rows] != list(grid):
            return [f"rows for n={[r[0] for r in rows]}, expected {list(grid)}"], 0.0
        problems, worst = [], 0.0
        for r in rows:
            n = int(r[0])
            want = ref["dp"]["0.5"].get(str(n))
            if want is None:
                problems.append(f"no reference value at n={n}")
                continue
            got = {"CovSK": float(r[col["covSK_over_n"]]) * n,
                   "VarK": float(r[col["varK_over_n"]]) * n,
                   "RhoSK": float(r[col["rho_exact"]])}
            for q, v in got.items():
                err = _rel(v, want[q])
                worst = max(worst, err)
                if err > DP_TOL:
                    problems.append(f"{q}({n}) relative error {err:.3g}")
            rho = want["RhoSK"]
            bound = Z_RHO * (1.0 - rho * rho) / math.sqrt(trials)
            gap = abs(float(r[col["rho_mc"]]) - rho)
            if not gap <= bound:
                problems.append(f"rho_mc({n}) off by {gap:.3g} > {bound:.3g}")
        g2 = [ln for ln in text.splitlines() if ln.startswith("# g2_0=")]
        if not g2:
            problems.append("no g2_0 summary line")
        elif _rel(float(g2[0].split("=", 1)[1]), ref["g2_0"]) > 1e-12:
            problems.append(f"g2_0 {g2[0]} vs reference {ref['g2_0']!r}")
        return problems, _digits(worst)

    return Workload(
        "compare-p05-ext",
        "the paper's cross-engine check: double-double DP (per-n DD op "
        "overhead), asym and gammafn, and MC at moderate n",
        args, check)


def _z_means(means, key, trials, ref):
    """Problems with the S and K means against the exact values."""
    want = ref["mc"][key]
    problems = []
    for q, got in zip(("S", "K"), means):
        se = math.sqrt(want["Var" + q] / trials)
        if not abs(got - want["E" + q]) <= Z_MEAN * se:
            problems.append(f"mean {q} {got!r} vs exact {want['E' + q]!r} "
                            f"(> {Z_MEAN} standard errors)")
    return problems


def simulate_n16(trials: int = 12000) -> Workload:
    def args(seed):
        return ["simulate", "--p", "0.5", "--n", "16", "--trials", str(trials),
                "--seed", str(seed)]

    def check(text, ref):
        doc = json.loads(text)
        if doc["config"]["trials"] != trials or doc["config"]["n"] != 16:
            return [f"config {doc['config']}"], 0.0
        problems = _z_means((doc["mean"]["S"], doc["mean"]["K"]),
                            "0.5/16", trials, ref)
        rse = max(se / abs(doc["mean"][q])
                  for q, se in zip("SK", doc["stderr_mean"]))
        return problems, -math.log10(rse)

    return Workload(
        "simulate-n16",
        "many small tries: per-trial RNG construction and per-call "
        "sample_shape overhead dominate (the criterion-11 regime)",
        args, check)


def whiten_p01(trials: int = 600) -> Workload:
    def args(seed):
        return ["whiten", "--p", "0.1", "--n", "10000", "--trials", str(trials),
                "--source", "sample", "--seed", str(seed)]

    def check(text, ref):
        doc = json.loads(text)
        if doc["config"]["trials"] != trials or doc["config"]["n"] != 10000:
            return [f"config {doc['config']}"], 0.0
        problems = _z_means(doc["center"], "0.1/10000", trials, ref)
        wcov = doc["whitened_cov"]
        off_identity = max(abs(wcov[i][j] - (i == j))
                           for i in range(2) for j in range(2))
        if not off_identity <= 1e-9:
            problems.append(f"whitened_cov {wcov} not close to I")
        rse = max(math.sqrt(doc["sigma"][i][i] / trials) / abs(doc["center"][i])
                  for i in range(2))
        return problems, -math.log10(rse)

    return Workload(
        "whiten-p01",
        "large skewed tries: binomial draws in sample_shape dominate, unary "
        "chains abound, the DP is bypassed",
        args, check)


WORKLOADS = {w.name: w for w in (exact_p03(), compare_p05_ext(),
                                 simulate_n16(), whiten_p01())}
