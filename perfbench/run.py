"""protolab benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload measure --seed 1 --seconds 30 --trace 0

Each sample runs ``sample.py`` in a fresh interpreter, one at a time, with
OpenMP and BLAS limited to one thread.  With ``--trace 0`` the runner takes
samples until the next one would end after ``--seconds`` (at least one) and
reports the medians of the end-to-end metrics.  With ``--trace 1`` it takes
pairs of an untraced and a traced sample in the same way, then one memory
pass under tracemalloc, and reports the medians of the per-layer metrics.

Times are seconds at a fixed host speed: each sample measures the speed of
the CPU it runs on with ``hostspeed.SpeedProbe`` and scales its intervals to
the probe's nominal speed, because the shared host's speed moves by up to
2x within a run.  The unscaled medians are printed as ``raw_`` lines.

Every report is checked by the workload's gate; reports of one seed must
have the same digest in every sample, traced or not.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (host context, every
sample, report digests, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from hostspeed import NOMINAL_PROBE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("measure", "transform", "compress")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "model.run_all_s": "s",
    "model.executions": "count",
    "model.us_per_exec": "us",
    "model.local_rounds": "count",
    "model.us_per_round": "us",
    "model.oblivious_structure_s": "s",
    "model.run_all_peak_mb": "MiB",
    "measures.build_joint_s": "s",
    "measures.joint_outcomes": "count",
    "measures.build_joint_peak_mb": "MiB",
    "measures.cc_acc_s": "s",
    "measures.sup_pic_grid_s": "s",
    "measures.grid_points": "count",
    "measures.product_run_s": "s",
    "info.ic_s": "s",
    "info.pic_decomposition_s": "s",
    "info.transcript_entropy_s": "s",
    "info.spy_info_s": "s",
    "info.privacy_leakage_s": "s",
    "info.suite_s": "s",
    "compression.obliviousize_s": "s",
    "compression.obliviousize_run_s.eps_1_2": "s",
    "compression.obliviousize_run_s.eps_1_4": "s",
    "compression.obliviousize_run_s.eps_1_8": "s",
    "compression.theorem_check_s.star": "s",
    "compression.theorem_check_s.obliviousized": "s",
    "compression.theorem_check_s.randomized": "s",
    "compression.build_tree_s": "s",
    "compression.trees": "count",
    "compression.compress_run_s": "s",
    "compression.compress_runs": "count",
    "compression.stages": "count",
    "compression.lcp_calls": "count",
    "compression.lcp_bits": "bits",
    "compression.us_per_lcp_call": "us",
    "treefile.compile_s": "s",
    "treefile.run_s": "s",
    "zoo.build_s": "s",
    "setup.import_s": "s",
    "setup.import_numpy_s": "s",
    "cli.cold_list_s": "s",
    "trace.overhead_s": "s",
}

INFO_SPANS = ("info.ic", "info.pic_decomposition", "info.transcript_entropy",
              "info.spy_info", "info.privacy_leakage")

# Whole run, child processes included, stays well inside three minutes.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def reference_loop_s() -> float:
    """A fixed pure-Python loop, timed before each sample to show host drift."""
    t = perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return perf_counter() - t


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "protolab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.env = child_env(root / "src")
        self.t0 = perf_counter()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.t0)

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            return subprocess.run(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:3]} did not finish in time") from exc

    def sample(self, mode: str) -> dict:
        ref = reference_loop_s()
        proc = self.child([
            str(HERE / "sample.py"), "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--size", self.args.size,
            "--mode", mode,
        ])
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"{mode} sample exited with {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["mode"] = mode
        result["reference_loop_s"] = ref
        return result

    def import_times(self) -> tuple[float, float]:
        """Cumulative import time of protolab and of numpy, from -X importtime."""
        proc = self.child(["-X", "importtime", "-c", "import protolab"])
        if proc.returncode != 0:
            raise BenchError(f"import protolab failed: {proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = (part.strip() for part in line[12:].split("|"))
            if cum.isdigit():
                cumulative[name] = int(cum) / 1e6
        if "protolab" not in cumulative or "numpy" not in cumulative:
            raise BenchError("-X importtime did not report protolab and numpy")
        return cumulative["protolab"], cumulative["numpy"]

    def cold_list_s(self) -> float:
        t = perf_counter()
        proc = self.child(["-m", "protolab.cli", "list"])
        elapsed = perf_counter() - t
        if proc.returncode != 0:
            raise BenchError(f"protolab list failed: {proc.stderr[-2000:]}")
        return elapsed

    def take(self, modes: tuple[str, ...]) -> list[dict]:
        """Groups of samples until the next group would end after --seconds."""
        samples = []
        deadline = self.t0 + self.args.seconds
        while True:
            start = perf_counter()
            samples.extend(self.sample(mode) for mode in modes)
            took = perf_counter() - start
            if perf_counter() + took > deadline:
                return samples


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced sample, from its spans.

    A span named ``layer.call`` adds its scaled duration to ``layer.call_s`` (with
    ``.variant`` appended if it has one) and each of its counts to
    ``layer.<count>``; spans nest, so a parent's time includes its
    children's.  Peaks are maxima over spans of the same name.
    """
    m: dict = defaultdict(float)
    for s in spans:
        seconds = s["seconds"]
        key = s["name"] + "_s" + (f".{s['variant']}" if s["variant"] else "")
        m[key] += seconds
        layer = s["name"].split(".")[0]
        for count, value in s["counts"].items():
            m[f"{layer}.{count}"] += value
        if s["peak_mb"] is not None:
            peak = s["name"] + "_peak_mb"
            m[peak] = max(m[peak], s["peak_mb"])
        if s["name"] in INFO_SPANS:
            m["info.suite_s"] += seconds
    m["measures.cc_acc_s"] = m["measures.cc_s"] + m["measures.acc_s"]
    for ratio, time_key, count_key in (
        ("model.us_per_exec", "model.run_all_s", "model.executions"),
        ("model.us_per_round", "model.run_all_s", "model.local_rounds"),
        ("compression.us_per_lcp_call", "compression.compress_run_s",
         "compression.lcp_calls"),
    ):
        if m[count_key]:
            m[ratio] = 1e6 * m[time_key] / m[count_key]
    return m


def check_digests(samples: list[dict]) -> int:
    """Gate failures plus reports whose digest differs from the first
    sample's; returns the number of failed reports."""
    reference = {r["name"]: r["sha256"] for r in samples[0]["reports"]}
    failed = 0
    for s in samples:
        for r in s["reports"]:
            if r["sha256"] != reference.get(r["name"]):
                r["problems"].append(
                    f"digest differs from the {samples[0]['mode']} sample's"
                )
            if r["problems"]:
                failed += 1
                print(f"FAILED {s['mode']} {r['name']}: "
                      + "; ".join(r["problems"]), file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="protolab benchmark runner (run from the repository root)"
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs that run every code path quickly")
    args = parser.parse_args(argv)
    args.size = "smoke" if args.smoke else "full"

    root = Path.cwd()
    if not (root / "src" / "protolab" / "__init__.py").is_file():
        print(f"error: no protolab sources under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2

    runner = Runner(args, root)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    try:
        # Warm the bytecode and file caches so no sample pays for them.
        runner.import_times()
        if args.trace:
            imports = [runner.import_times() for _ in range(3)]
            cold_list = [runner.cold_list_s() for _ in range(3)]
            samples = runner.take(("plain", "traced"))
            samples.append(runner.sample("memory"))
        else:
            samples = runner.take(("plain",))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context["loadavg_after"] = os.getloadavg()
    context["numpy"] = samples[0]["numpy"]

    attempted = sum(len(s["reports"]) for s in samples)
    failed = check_digests(samples)
    plain = [s for s in samples if s["mode"] == "plain"]
    median = {key: statistics.median(s[key] for s in plain)
              for key in END_TO_END}
    if args.trace:
        traced = [layer_metrics(s["spans"]) for s in samples
                  if s["mode"] == "traced"]
        values = {key: statistics.median(m[key] for m in traced)
                  for key in PER_LAYER}
        memory = layer_metrics(samples[-1]["spans"])
        values.update((k, v) for k, v in memory.items()
                      if k.endswith("_peak_mb"))
        values["setup.import_s"] = statistics.median(t[0] for t in imports)
        values["setup.import_numpy_s"] = statistics.median(
            t[1] for t in imports)
        values["cli.cold_list_s"] = statistics.median(cold_list)
        values["trace.overhead_s"] = statistics.median(
            s["wall_s"] for s in samples if s["mode"] == "traced"
        ) - median["wall_s"]
        units = PER_LAYER
    else:
        values, units = median, END_TO_END

    for key, unit in units.items():
        print(f"{key} = {values[key]:.6g} {unit}")
    for key in ("raw_wall_s", "raw_setup_s"):
        print(f"{key} = {statistics.median(s[key] for s in plain):.6g} s "
              "(unscaled, not a metric)")
    print(f"probe_median_us = "
          f"{statistics.median(s['probe_median_us'] for s in plain):.6g} us "
          f"(nominal {NOMINAL_PROBE_S * 1e6:.6g} us)")
    print(f"failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} reports)")
    print(f"samples = {len(samples)}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"context": context, "samples": samples},
                              indent=1) + "\n")
    print(f"details: {out}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
