"""Run one triemoments CLI command in a fresh interpreter and report on it.

Spawned by run.py as ``python3 perfbench/child.py '<json spec>'`` with
PYTHONPATH pointing at the checkout's ``src``.  The spec holds the CLI
arguments and their output path, the checkout's ``src`` path, whether to
trace, and where to write the spans.  The last line on stdout is a JSON
report: the monotonic time at which the import finished, the solve time,
the peak RSS and, when traced, the per-layer metrics.  The exit code is
the CLI's.
"""

import sys
import time


def main() -> int:
    import triemoments.cli as cli     # the set-up every CLI invocation pays
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import os
    import resource

    spec = json.loads(sys.argv[1])
    if not os.path.abspath(cli.__file__).startswith(os.path.join(spec["src"], "")):
        print(f"triemoments imported from {cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2
    report = {"ready": ready}
    if spec.get("warmup"):
        print(json.dumps(report))
        return 0

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    rc = cli.main(spec["argv"])
    solve_s = time.clock_gettime(time.CLOCK_MONOTONIC) - ready
    report.update(rc=rc, solve_s=solve_s,
                  maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        out = spec["out"]
        output_bytes = os.path.getsize(out) if os.path.exists(out) else 0
        report["layers"] = tracing.layer_metrics(
            tracing.summarise(spans, tracer.extra),
            tracing.top_level_s(spans, "cli.main"), solve_s, output_bytes,
            len(tracer.absent))
        report["absent"] = tracer.absent
        report["note_errors"] = tracer.note_errors
        if spec.get("spans"):
            import numpy as np
            np.savez(spec["spans"], names=np.array(tracer.names),
                     name_id=np.frombuffer(tracer.name_id, dtype=np.int64),
                     start_ns=np.frombuffer(tracer.start, dtype=np.int64),
                     end_ns=np.frombuffer(tracer.end, dtype=np.int64),
                     parent=np.frombuffer(tracer.parent, dtype=np.int64))
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
