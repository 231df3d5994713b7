"""cpi-sim benchmark: time one workload and check its outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``. ``--trace 0`` times ``run_experiment`` end to end in a closed
loop with one caller and prints the end-to-end metrics; ``--trace 1``
replays the workload with a span around each layer and prints the
per-layer metrics. Metric names and units come from ``BENCHMARK.json``.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. bench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from calibration import to_reference
from workloads import CALIBRATION

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4  # fresh interpreters timed before and again after the loop
DEADLINE_S = 170.0  # a run, children included, ends within 180 s
BLAS_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


class Children:
    """Starts child.py roles; each waits for its child, killing it at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("deadline passed")
        return left

    def run(self, *args: str, env: dict | None = None) -> dict:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {args[0]} timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def time_setup(self, workload: str) -> list[float]:
        times = []
        for _ in range(SETUP_PROBES):
            t = time.perf_counter()
            try:
                # A pipe, not DEVNULL: waiting on its EOF wakes at the child's
                # exit, where a bare wait with a timeout polls in 50 ms steps.
                code = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), "setup", workload],
                    stdout=subprocess.PIPE, cwd=ROOT, timeout=self._remaining(),
                ).returncode
            except subprocess.TimeoutExpired as exc:
                raise BenchError("setup probe timed out") from exc
            times.append(time.perf_counter() - t)
            if code != 0:
                raise BenchError(f"setup probe exited with code {code}")
        return times


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest order statistic with ten samples above it, and that count.

    A run of fewer than 21 samples cannot leave ten beyond a point above
    the median; there the count is half the samples and the value reads
    at the median or just above it.
    """
    s = sorted(samples)
    beyond = 10 if len(s) >= 21 else (len(s) - 1) // 2
    return s[len(s) - 1 - beyond], beyond


def end_to_end(kids: Children, args, work: Path) -> tuple[dict, dict]:
    setup = kids.time_setup(args.workload)
    loop = kids.run("loop", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--out", str(work / "loop"))
    setup += kids.time_setup(args.workload)
    kind = CALIBRATION[args.workload]
    # Warm calls only: the first call of the process is the cold one.
    wall = to_reference(loop["wall_s"], loop["kernel_s"], kind)[1:]
    cpu = to_reference(loop["cpu_s"], loop["kernel_s"], kind)[1:]
    wall_tail, beyond = tail(wall)
    metrics = {
        "wall_s": median(wall),
        "wall_tail_s": wall_tail,
        "cpu_s": median(cpu),
        "setup_s": median(setup),
        "peak_rss_mib": loop["peak_rss_mib"],
    }
    raw = loop["wall_s"][1:]
    notes = {
        "reported": {
            "wall_tail_beyond": (beyond, "calls", f"of {len(wall)} warm calls, beyond wall_tail_s"),
            "wall_raw_s": (median(raw), "s", f"median of {len(raw)} warm calls, not calibrated"),
            "wall_raw_best_s": (min(raw), "s", "fastest warm call, not calibrated"),
            "kernel_s": (median(loop["kernel_s"]), "s", f"median {kind} calibration kernel"),
        },
        "attempted": len(loop["wall_s"]),
        "failures": loop["failures"],
        "warmup_problems": [],
        "samples": {key: loop[key] for key in ("wall_s", "cpu_s", "kernel_s")},
        "setup_samples_s": setup,
    }
    return metrics, notes


def per_layer(kids: Children, args, work: Path) -> tuple[dict, dict]:
    common = ("trace", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds))
    traced = kids.run(*common, "--out", str(work / "trace"))
    # Single-threaded baseline: BLAS pinned before the child imports numpy.
    serial = kids.run(*common, "--out", str(work / "serial"), "--replays", "1",
                      env={**os.environ, **BLAS_PINNED})
    if traced["metrics"] is None or serial["metrics"] is None:
        raise BenchError(f"no traced replay succeeded: {traced['failures'] or serial['failures']}")
    metrics = dict(traced["metrics"])
    metrics["serial.wall_s"] = serial["metrics"]["trace.wall_s"]
    notes = {
        "reported": {},
        "attempted": traced["attempts"] + serial["attempts"],
        "failures": traced["failures"] + serial["failures"],
        "warmup_problems": traced["warmup_problems"] + serial["warmup_problems"],
        "untraced_wall_samples_s": traced["untraced_wall_s"],
        "serial": {"blas_threads": serial["blas_threads"], "metrics": serial["metrics"]},
        "spans": traced["spans"],
    }
    return metrics, notes


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "cpi_sim" / "__init__.py").is_file():
        print(f"no cpi_sim package under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2

    kids = Children(deadline=time.monotonic() + DEADLINE_S)
    work = ROOT / ".bench_out" / f"run-{os.getpid()}"
    try:
        check = kids.run("check", "--out", str(work / "check"))
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(kids, args, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in declared} - metrics.keys()
    if missing:
        print(f"benchmark failed: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    failed = len(notes["failures"])
    attempted = notes["attempted"]
    correct = failed == 0 and not notes["warmup_problems"] and check["budget_ok"]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **check, "metrics": metrics, **notes}
    reports = ROOT / ".bench_out" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}")
    print(f"env {json.dumps(check['env'], sort_keys=True)}")
    print(f"demo_drift {json.dumps(check['demo_drift'], sort_keys=True)}  "
          f"budget_smoke {json.dumps(check['budget_smoke'], sort_keys=True)}")
    for problem in notes["warmup_problems"] + [p for f in notes["failures"] for p in f]:
        print(f"FAILED {problem}")
    print(f"# fail_frac {failed / attempted:.6g} 1 ({failed} of {attempted} runs failed a check)")
    for name, (value, unit, note) in notes["reported"].items():
        print(f"# {name} {value:.6g} {unit} ({note})")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"report {report_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
