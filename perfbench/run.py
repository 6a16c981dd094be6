"""The triemoments benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload exact-p03 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each operation is one CLI command in a
fresh interpreter (perfbench/child.py calling ``triemoments.cli.main``), so
numpy's import and the ``sym_coeffs`` cache are paid as a CLI user pays
them.  Commands run back to back, serially, until ``--seconds`` is spent;
the seed goes to the Monte-Carlo commands only.  Every output is checked
(workloads.py) and must be byte-identical to the run's first output.

--trace 0 reports the end-to-end metrics, as medians over the commands.
--trace 1 alternates untraced and traced commands and reports the
per-layer metrics of the traced ones (tracer.py), with the tracing overhead.

Results go to perfbench/out/; the last stdout line is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0      # every run must end within 180 s

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "accuracy_digits": "digits"}
LAYER_UNITS = {
    "exact.compute_s": "s", "exact.compute_calls": "count",
    "exact.dp_cells": "count", "exact.dp_cells_per_s": "1/s",
    "exact.bytes_computed": "B", "exact.serialise_s": "s",
    "dd.cdot_calls": "count", "dd.cdot_self_s": "s",
    "dd.ops": "count", "dd.self_s": "s",
    "trie.trial_rng_calls": "count", "trie.trial_rng_self_s": "s",
    "trie.sample_shape_calls": "count", "trie.sample_shape_self_s": "s",
    "mc.self_s": "s", "mc.diagnostics_s": "s",
    "mc.trials_per_s": "1/s", "mc.nodes_per_s": "1/s",
    "asym.coeffs_s": "s", "asym.fluct_s": "s",
    "gammafn.calls": "count", "gammafn.self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "B",
    "trace.overhead_s": "s", "trace.coverage": "ratio", "trace.absent": "count",
}


def environment(seed: int) -> dict:
    """What the timings depend on, recorded with every result."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    try:
        # the ceiling stops git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    threads = {k: v for k, v in os.environ.items()
               if any(t in k for t in ("THREAD", "OMP_", "BLAS", "MKL_"))}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "thread_env": threads,
            "commit": commit, "seed": seed}


class Runner:
    """Spawns the commands of one workload and checks their outputs."""

    def __init__(self, workload, seed: int, ref: dict, deadline: float):
        self.workload = workload
        self.seed = seed
        self.ref = ref
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        self.digest = None

    def spawn(self, spec: dict):
        spec = dict(spec, src=SRC)
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            proc = subprocess.CompletedProcess([], -9, "", "timed out")
        wall = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        return t0, wall, proc, report

    def warm_up(self):
        """Import once untimed, so the first timed command finds .pyc files."""
        _, _, proc, report = self.spawn({"warmup": True, "trace": False})
        if proc.returncode != 0 or report is None:
            raise RuntimeError(f"cannot import triemoments from {SRC}:\n{proc.stderr}")

    def op(self, traced: bool, spans_path: str | None = None) -> dict:
        """Run one command; returns its record, with 'problems' if it failed."""
        work = tempfile.mkdtemp(dir=OUT)
        try:
            out = os.path.join(work, "output")
            spec = {"argv": self.workload.args(self.seed) + ["--out", out],
                    "out": out, "trace": traced, "spans": spans_path}
            t0, wall, proc, report = self.spawn(spec)
            rec = {"traced": traced, "wall_s": wall, "problems": []}
            if proc.returncode != 0:
                rec["problems"].append(f"exit code {proc.returncode}")
            if "Traceback" in proc.stderr:
                rec["problems"].append("traceback on stderr")
            if report is None or "solve_s" not in report:
                rec["problems"].append("no report from the command")
                rec["stderr"] = proc.stderr[-2000:]
                return rec
            rec.update(setup_s=report["ready"] - t0, solve_s=report["solve_s"],
                       peak_rss_mib=report["maxrss_kib"] / 1024.0)
            for key in ("layers", "absent", "note_errors"):
                if key in report:
                    rec[key] = report[key]
            try:
                with open(out, "rb") as f:
                    data = f.read()
            except OSError as e:
                rec["problems"].append(f"no output file: {e}")
                return rec
            rec["problems"] += self.check(data, rec)
            return rec
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def check(self, data: bytes, rec: dict) -> list:
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        problems = [] if digest == self.digest else [
            "output differs from the first output of this run"]
        try:
            found, rec["accuracy_digits"] = self.workload.check(data.decode(), self.ref)
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as e:
            return problems + [f"unreadable output: {e!r}"]
        return problems + found


def _median(records, key):
    vals = [r[key] for r in records if key in r]
    return statistics.median(vals) if vals else 0.0


def _describe(records, key):
    vals = [r[key] for r in records if key in r]
    if not vals:
        return "absent"
    return (f"median {statistics.median(vals):.6g} min {min(vals):.6g} "
            f"max {max(vals):.6g} n={len(vals)}")


def measure(workload, seed: int, seconds: float, trace: bool, ref: dict):
    """Run the closed loop for one workload; returns (records, metrics)."""
    start = time.monotonic()
    runner = Runner(workload, seed, ref, start + RUN_LIMIT_S)
    runner.warm_up()
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload.name}-seed{seed}.spans.npz")
    records = []
    while True:
        if trace:
            pair = [runner.op(False), runner.op(True, spans_path)]
            records += pair
            step = sum(r["wall_s"] for r in pair)
        else:
            records.append(runner.op(False))
            step = statistics.median(r["wall_s"] for r in records)
        elapsed = time.monotonic() - start
        if elapsed + step > seconds or elapsed + 2 * step > RUN_LIMIT_S:
            break
    ok = [r for r in records if not r["problems"]] or records
    if not trace:
        metrics = {k: _median(ok, k) for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    else:
        traced = [r for r in ok if r["traced"]]
        plain = [r for r in ok if not r["traced"]]
        layers = [r["layers"] for r in traced if "layers" in r]
        metrics = {k: (statistics.median(ly[k] for ly in layers) if layers else 0.0)
                   for k in LAYER_UNITS if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = _median(traced, "solve_s") - _median(plain, "solve_s")
        units = LAYER_UNITS
    return records, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "triemoments", "cli.py")):
        print(f"error: no triemoments sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    try:
        records, metrics = measure(workload, args.seed, args.seconds,
                                   bool(args.trace), ref)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failed = [r for r in records if r["problems"]]
    absent = sorted({a for r in records for a in r.get("absent", [])})
    for r in failed:
        print(f"FAILED: {'; '.join(r['problems'])}", file=sys.stderr)
        if r.get("stderr"):
            print(r["stderr"], file=sys.stderr)
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    for key in ("solve_s", "setup_s", "wall_s"):
        for traced in ((False, True) if args.trace else (False,)):
            tag = " traced" if traced else ""
            sel = [r for r in records if r["traced"] == traced]
            print(f"  per{tag} command, {key}: {_describe(sel, key)}")
    print(f"failed_ratio: {len(failed)}/{len(records)}")
    if absent:
        print(f"absent (wrapped names not found): {', '.join(absent)}")
    print(json.dumps({"environment": env}))

    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({"workload": workload.name, "why": workload.why,
                   "environment": env, "failed_ratio": len(failed) / len(records),
                   "absent": absent, "records": records, "result": result},
                  f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
