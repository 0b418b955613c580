"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

protolab keeps process-lifetime caches (the execution tables of
``run_all``, ``build_joint`` and the zoo's entries), so a repeat inside one
process would time dictionary lookups; every sample therefore starts here.

    python3 perfbench/sample.py --workload measure --seed 1 --mode plain

Modes: ``plain`` runs the workload untraced; ``traced`` records spans;
``memory`` records spans with tracemalloc on inside ``run_all`` and
``build_joint``, for their allocation peaks only.
In ``plain`` and ``traced`` mode a ``SpeedProbe`` runs from the start, and
every time is also given scaled to the probe's nominal speed (see
``hostspeed.py``); the ``raw_`` times are plain ``perf_counter`` intervals.
Prints one JSON object on its last line: set-up and operation times, peak
resident memory, each report's digest and gate problems, and the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter

from hostspeed import SpeedProbe
from spans import NULL_TRACER, Tracer

# Spans whose allocation peaks the memory pass reports.
PEAK_SPANS = ("model.run_all", "measures.build_joint")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("plain", "traced", "memory"),
                        default="plain")
    args = parser.parse_args(argv)

    if args.mode == "plain":
        tr = NULL_TRACER
    else:
        tr = Tracer(PEAK_SPANS if args.mode == "memory" else ())
    # The memory pass reports allocation peaks only; the probe stays out of it.
    probe = SpeedProbe() if args.mode != "memory" else None
    if probe:
        probe.start()

    t_import = perf_counter()
    import workloads  # imports protolab

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    inputs = workloads.SETUP[args.workload](args.size, args.seed, tr)
    t_ops = perf_counter()
    outcomes = []
    for name, op in workloads.RUN[args.workload](inputs, tr):
        t_op = perf_counter()
        try:
            report, problems = op()
        except Exception:  # a failed operation is counted, not fatal
            report = None
            problems = [traceback.format_exc(limit=-1).strip().splitlines()[-1]]
        outcomes.append((name, t_op, perf_counter(), report, problems))
    t_end = perf_counter()
    if probe:
        probe.stop()
    scaled = probe.scaled if probe else (lambda a, b: b - a)

    reports = []
    for name, start, end, report, problems in outcomes:
        if report is not None and not isinstance(report, dict):
            report = report.to_dict()
        reports.append({
            "name": name,
            "seconds": scaled(start, end),
            "sha256": workloads.digest(report) if report is not None else None,
            "problems": problems,
        })
    spans = tr.to_list()
    for span in spans:
        span["seconds"] = scaled(span["start"], span["end"])
    result = {
        "setup_s": scaled(t_import, t_ops),
        "wall_s": scaled(t_ops, t_end),
        "raw_setup_s": t_ops - t_import,
        "raw_wall_s": t_end - t_ops,
        "probe_median_us": probe.median_us() if probe else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
        "reports": reports,
        "spans": spans,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
