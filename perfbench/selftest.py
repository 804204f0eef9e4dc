"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        # from the root of a heisenmag checkout

1. A minimal-size run of every workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and nothing else.
2. Negative controls: a `sample` CSV with y moved by 1e-6 and a `periodic`
   report with y0 moved by 1e-6 are counted as failed checks, while the
   unmodified outputs pass.
3. Without a source tree next to it the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metric_sets() -> None:
    for wl in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(wl["name"], trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (wl["name"], trace, result)
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (wl["name"], trace, set(want) ^ set(got))
            print(f"ok   {wl['name']:<10} trace={trace}: {len(got)} metrics with units")


def check_negative_controls() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    sample = workloads.Sample(3, True, out_dir)
    op = next(op for op in sample.ops if op.props["branch"] == "NEG")
    text = sample.execute(op).read_text()
    assert workloads.check_sample_rows(op, text)[0] is None, "clean sample output must pass"
    lines = text.splitlines()
    row = lines[1 + workloads.SAMPLE_STRIDE].split(",")
    row[2] = repr(float(row[2]) + 1e-6)
    lines[1 + workloads.SAMPLE_STRIDE] = ",".join(row)
    reason = workloads.check_sample_rows(op, "\n".join(lines))[0]
    assert reason is not None and reason.startswith("y"), reason
    print(f"ok   sample y + 1e-6 is a failed check: {reason}")

    periodic = workloads.Periodic(3, True, out_dir)
    op = next(op for op in periodic.ops if op.kind == "periodic")
    report = json.loads(periodic.execute(op))
    assert workloads.check_periodic_report(op, report)[0] is None, "clean report must pass"
    report["y0"] += 1e-6
    reason = workloads.check_periodic_report(op, report)[0]
    assert reason is not None, "corrupted periodic report passed its check"
    print(f"ok   periodic y0 + 1e-6 is a failed check: {reason}")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_negative_controls()
    check_refuses_without_source()
    check_metric_sets()
    print("selftest passed")
