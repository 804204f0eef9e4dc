"""heisenmag benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; heisenmag is imported from its
``src/`` directory, never from an installed copy.  Inputs come from the
seed alone.  With ``--trace 0`` the op list of the workload is repeated
until ``--seconds`` have passed and the end-to-end metrics are reported;
with ``--trace 1`` the op list runs once untraced and twice traced, and
the per-layer metrics of the first traced pass are reported, after
checking that both traced passes made exactly the same counts.

The last line of standard output is the result object; the line before
it carries provenance, input shares and the failure breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# np.roots reaches LAPACK: pin every BLAS/OpenMP pool before numpy loads
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PIN)

from gauge import Gauge, pin_to_one_cpu  # noqa: E402  (loads numpy)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


def _import_library():
    if not (SRC / "heisenmag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/heisenmag under {ROOT}; run from a heisenmag checkout")
    sys.path.insert(0, str(SRC))
    import heisenmag

    if Path(heisenmag.__file__).resolve().parent != (SRC / "heisenmag").resolve():
        sys.exit(f"perfbench: imported heisenmag from {heisenmag.__file__}, not {SRC}")
    return heisenmag


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, workload) -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "heisenmag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_round": len(workload.ops),
        "probe_ops": len(workload.probe),
        "input_digest": workload.digest(),
        "thread_pin": THREAD_PIN,
        "load": "closed loop, 1 process, 1 client, no threads",
    }


class Tally:
    """Attempted ops and their failures: typed, untyped, check misses."""

    def __init__(self):
        self.attempted = 0
        self.typed = Counter()
        self.untyped = Counter()
        self.check_miss = 0
        self.miss_examples = []
        self.branches = Counter()
        self._passed = {}  # id(op) -> (fingerprint, branch) of a checked output

    @property
    def failed(self) -> int:
        return sum(self.typed.values()) + sum(self.untyped.values()) + self.check_miss

    def add(self, workload, outcomes) -> None:
        from workloads import TYPED_KINDS

        for out in outcomes:
            self.attempted += 1
            if out.error is not None:
                (self.typed if out.error in TYPED_KINDS else self.untyped)[out.error] += 1
                continue
            try:
                # an output identical to one that passed its check passes too
                fingerprint = workload.fingerprint(out.op, out.output)
                known = self._passed.get(id(out.op))
                if fingerprint is not None and known is not None and known[0] == fingerprint:
                    reason, branch = None, known[1]
                else:
                    reason, branch = workload.check(out.op, out.output)
                    if reason is None:
                        self._passed[id(out.op)] = (fingerprint, branch)
            except Exception as exc:  # a check that cannot run is a miss
                reason, branch = f"check raised {type(exc).__name__}: {exc}", None
            if branch is not None:
                self.branches[branch] += 1
            if reason is not None:
                self.check_miss += 1
                if len(self.miss_examples) < 5:
                    self.miss_examples.append({"op": out.op.kind, "args": repr(out.op.args),
                                               "reason": reason})

    def summary(self) -> dict:
        n_branch = sum(self.branches.values())
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted if self.attempted else 0.0,
            "typed_errors": dict(self.typed),
            "untyped_errors": dict(self.untyped),
            "check_misses": self.check_miss,
            "miss_examples": self.miss_examples,
            "branch_mix": {b: n / n_branch for b, n in sorted(self.branches.items())},
        }


def _input_shares(workload) -> dict:
    ops = workload.ops
    n = len(ops)
    return {
        "x0_neg_share": sum(op.props.get("x0_neg", False) for op in ops) / n,
        "delta_zero_share": sum(op.props.get("delta_zero", False) for op in ops) / n,
        "near_stratum_share": sum(op.props.get("near_stratum", False) for op in workload.probe)
        / (n + len(workload.probe)),
        "op_kinds": dict(Counter(op.kind for op in ops)),
    }


def _measure_setup(args, gauge) -> tuple[list[float], set[str]]:
    """Fresh interpreter to heisenmag imported and inputs generated, repeated.

    The children inherit the run's CPU pin; each one's time is scaled by
    the gauge read on that CPU before and after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.small:
        cmd.append("--small")
    samples, digests = [], set()
    gauge.refresh()
    for _ in range(SETUP_SAMPLES):
        with gauge.interval(sample_inside=False) as interval:
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                if proc.wait(timeout=120) != 0:
                    raise RuntimeError(f"set-up run exited with {proc.returncode}")
        samples.append(gauge.scale(interval, elapsed))
        digests.add(line.strip())
    return samples, digests


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _emit(report, correct, tally, metrics) -> None:
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _probe_report(workload, outcomes) -> dict:
    probe = Tally()
    probe.add(workload, outcomes)
    return probe.summary()


def _gauge_report(cpu, gauge) -> dict:
    g = sorted(gauge.readings)
    return {"cpu": cpu, "kind": gauge.kind, "reference_us": 1e6 * gauge.reference_s,
            "readings": len(g),
            "reading_us_p10_p50_p90": [1e6 * _percentile(g, q) for q in (0.1, 0.5, 0.9)]}


def run_untraced(args, workload, report) -> None:
    cpu = pin_to_one_cpu()
    workload.warm_up()
    gauge = Gauge(workload.gauge_kind)
    tally, walls, raw_walls = Tally(), [], []
    op_seconds = {id(op): [] for op in workload.ops}
    start = time.perf_counter()

    def timed(ops):
        outcomes, wall = workload.run_round(ops, gauge=gauge)
        for out in outcomes:
            op_seconds[id(out.op)].append(out.seconds)
        tally.add(workload, outcomes)  # checks run outside the timed interval
        return time.perf_counter() - start >= args.seconds, wall, outcomes

    while True:
        done, wall, outcomes = timed(workload.ops)
        walls.append(wall)
        raw_walls.append(math.fsum(o.raw_seconds for o in outcomes))
        if done or timed(workload.between_rounds())[0]:
            break
    report["probe"] = _probe_report(workload, workload.run_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup, digests = _measure_setup(args, gauge)
    inputs_repeat = digests == {workload.digest()}
    # times are in reference seconds (gauge.py); wall_s is the median
    # round, an op's latency its median over the rounds
    per_op = [statistics.median(samples) for samples in op_seconds.values()]
    report.update(rounds=len(walls), round_walls_s=walls, raw_round_walls_s=raw_walls,
                  latency_samples=len(per_op), op_timings=sum(map(len, op_seconds.values())),
                  setup_samples_s=setup, timed=tally.summary(),
                  gauge=_gauge_report(cpu, gauge),
                  inputs_repeat_across_processes=inputs_repeat)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": 1e3 * statistics.median(per_op),
        "latency_p90_ms": 1e3 * _percentile(per_op, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    _emit(report, tally.failed == 0 and inputs_repeat, tally,
          {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def run_traced(args, workload, report) -> None:
    from layers import FAILURE_KINDS, instrument, per_layer
    from tracer import Tracer

    pin_to_one_cpu()
    workload.warm_up()
    gauge = Gauge(workload.gauge_kind)
    tally = Tally()
    outcomes, untraced_wall = workload.run_round(workload.ops, gauge=gauge)
    tally.add(workload, outcomes)
    tracers, walls = [], []
    for _ in range(2):
        tracer = Tracer()
        instrument(tracer)
        try:
            outcomes, wall = workload.run_round(workload.ops, tracer, gauge)
        finally:
            tracer.restore()
        tally.add(workload, outcomes)
        tracers.append(tracer)
        walls.append(wall)
    first, second = (t.count_signature() for t in tracers)
    counts_repeat = first == second
    probe = workload.run_probe()
    report["probe"] = _probe_report(workload, probe)
    report.update(timed=tally.summary(), counts_repeat=counts_repeat,
                  untraced_wall_s=untraced_wall, traced_walls_s=walls,
                  spans_kept=len(tracers[0].spans),
                  waiting_time="none measured: one client in a closed loop, nothing queues")
    if not counts_repeat:
        report["count_diff"] = {k: (first.get(k), second.get(k))
                                for k in sorted(set(first) | set(second))
                                if first.get(k) != second.get(k)}
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["id", "name", "start", "end", "parent", "op"], "spans": tracers[0].spans}))
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = per_layer(tracers[0])
    # construct's near-stratum probe builds trajectories and nothing else, so
    # its typed errors count with the traced construction failures
    for kind, n in Counter(o.error for o in probe
                           if o.op.kind == "near" and o.error in FAILURE_KINDS).items():
        value, unit = metrics[f"trajectory.failed.{kind}"]
        metrics[f"trajectory.failed.{kind}"] = (value + n, unit)
    metrics["probe.check_misses"] = (report["probe"]["check_misses"], "count")
    metrics["tracing_overhead_s"] = (statistics.fmean(walls) - untraced_wall, "s")
    metrics["fail_ratio"] = (tally.failed / tally.attempted, "1")
    metrics["probe.fail_ratio"] = (report["probe"]["fail_ratio"], "1")
    _emit(report, tally.failed == 0 and counts_repeat, tally, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal op lists, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, print their digest, exit")
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.small, OUT_DIR)
    if args.setup_only:
        print(workload.digest(), flush=True)
        return 0
    report = {"workload": args.workload, "provenance": _provenance(args, workload),
              "inputs": _input_shares(workload)}
    try:
        (run_traced if args.trace else run_untraced)(args, workload, report)
    finally:
        for op in workload.ops:
            if "file" in op.args:
                (OUT_DIR / op.args["file"]).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
