"""One process of the benchmark; ``run.py`` starts it in one of four roles.

    child.py check                       environment, demo drift, budget smoke check
    child.py setup <workload>            import, parse and resolve, then exit
    child.py loop  <workload> ...        timed closed loop of run_experiment calls
    child.py trace <workload> ...        untraced calls interleaved with traced replays

Every role but ``setup`` prints one JSON object as its last stdout line.
The package is imported from ``src/`` of the checkout this file sits in.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cpi_sim  # noqa: E402
from cpi_sim import parse_config, run_experiment  # noqa: E402

from workloads import CALIBRATION, WORKLOADS, check_run, config_text, demo_drift  # noqa: E402

if Path(cpi_sim.__file__).resolve().parent != ROOT / "src" / "cpi_sim":
    sys.exit(f"cpi_sim was imported from {cpi_sim.__file__}, not from {ROOT / 'src'}")

# A loop process makes at least this many calls, however long one takes.
MIN_LOOP_CALLS = 3
MIN_REPLAYS = 3
# After each call the calibration kernel repeats for this share of its time.
KERNEL_SHARE = 0.05


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def role_check(out: Path) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = run_experiment(parse_config(config_text("budget")), out_dir=out / "budget")
    smoke = {k: manifest.results[k] for k in ("n_pairs_plenoptic", "n_pairs_cpi")}
    return {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpi_sim": cpi_sim.__version__,
        },
        "demo_drift": demo_drift(cpi_sim.DEMOS),
        "budget_smoke": smoke,
        "budget_ok": smoke == {"n_pairs_plenoptic": 6, "n_pairs_cpi": 49},
    }


def role_setup(workload: str) -> None:
    """What a CLI invocation pays before compute: the builds run_experiment makes."""
    config = parse_config(config_text(workload))
    config.build_geometry()
    config.build_source()
    config.build_mask()
    config.build_axes()
    if config.mode in ("analytic", "refocus", "montecarlo"):
        config.build_quadrature()
    os._exit(0)  # the parent times spawn-to-exit; skip interpreter teardown


def _timed_call(config, out: Path, seed: int):
    """One run_experiment call: (manifest or None, error text, wall s, cpu s)."""
    t, c = time.perf_counter(), time.process_time()
    try:
        manifest, error = run_experiment(config, out_dir=out, seed=seed), None
    except Exception as exc:  # a failed call is counted, not fatal
        manifest, error = None, f"{type(exc).__name__}: {exc}"
    return manifest, error, time.perf_counter() - t, time.process_time() - c


def _digests(files: list[dict]) -> dict[str, str]:
    return {f["name"]: f["sha256"] for f in files}


def _problems(workload, config, out, results, files, reference) -> list[str]:
    """Correctness problems of one run, including output that differs from
    ``reference`` (the digests of the process's first call, at the same seed)."""
    problems = check_run(workload, config, results, files, out)
    if reference is not None and _digests(files) != reference:
        problems.append("output differs from the first run_experiment call at the same seed")
    return problems


def _warm_up(workload: str, config, out: Path, seed: int) -> tuple[dict | None, list[str]]:
    manifest, error, _, _ = _timed_call(config, out, seed)
    if manifest is None:
        return None, [error]
    return _digests(manifest.files), _problems(workload, config, out, manifest.results, manifest.files, None)


def role_loop(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Closed loop, one caller: the next call starts when the previous one returns.

    Every call is timed; the first is the cold one. The workload's
    calibration kernel runs before the first call and after each call, for
    a twentieth of the call's time. A
    call starts only if it should end within ``seconds``, so the process
    does not overrun. The first call's digests are the reference the
    later ones must match.
    """
    from calibration import kernel_seconds  # not in setup probes: the CLI never imports it

    config = parse_config(config_text(workload))
    kind = CALIBRATION[workload]
    wall, cpu, failures, reference = [], [], [], None
    kernel = [kernel_seconds(kind)]
    start = time.perf_counter()
    while len(wall) < MIN_LOOP_CALLS or time.perf_counter() - start + wall[-1] <= seconds:
        manifest, error, w, c = _timed_call(config, out, seed)
        kernel.append(kernel_seconds(kind, KERNEL_SHARE * w))
        wall.append(w)
        cpu.append(c)
        problems = [error] if manifest is None else _problems(
            workload, config, out, manifest.results, manifest.files, reference)
        if manifest is not None and reference is None:
            reference = _digests(manifest.files)
        if problems:
            failures.append(problems)
    return {"wall_s": wall, "cpu_s": cpu, "kernel_s": kernel, "peak_rss_mib": peak_rss_mib(),
            "failures": failures}


def _sample_source_field_us(config, seed: int) -> float:
    """Microseconds per realization of the public speckle sampler."""
    from cpi_sim import default_sampling, sample_source_field

    geom, source = config.build_geometry(), config.build_source()
    axis_a, axis_b = config.build_axes()
    axis_s, _ = default_sampling(geom, source, config.build_mask(), axis_a, axis_b)
    n = config.get("run.n_realizations")
    t = time.perf_counter()
    for r in range(n):
        sample_source_field(source, axis_s, seed, r)
    return (time.perf_counter() - t) / n * 1e6


def role_trace(workload: str, seed: int, seconds: float, out: Path, replays: int | None) -> dict:
    """Alternate untraced run_experiment calls with traced replays.

    Every replay must write files byte-identical to the warm-up
    run_experiment call's (parity), so the trace times the same program.
    """
    from replay import Tracer, layer_metrics, replay

    text = config_text(workload)
    config = parse_config(text)
    reference, warmup_problems = _warm_up(workload, config, out / "untraced", seed)
    untraced, tracers, failures = [], [], []
    start, last_iteration, attempts = time.perf_counter(), 0.0, 0
    while (attempts < replays if replays else attempts < MIN_REPLAYS
           or time.perf_counter() - start + last_iteration <= seconds):
        attempts += 1
        began = time.perf_counter()
        manifest, error, wall, _ = _timed_call(config, out / "untraced", seed)
        untraced.append(wall)
        problems = [error] if manifest is None else _problems(
            workload, config, out / "untraced", manifest.results, manifest.files, reference)
        tr = Tracer(trace_id=attempts)
        try:
            _, results, files = replay(text, out / "traced", seed, tr)
        except Exception as exc:  # a failed replay is counted, not fatal
            problems.append(f"traced replay: {type(exc).__name__}: {exc}")
        else:
            problems += check_run(workload, config, results, files, out / "traced")
            if _digests(files) != reference:
                problems.append("traced replay output differs from run_experiment (parity)")
            tracers.append(tr)
        if problems:
            failures.append(problems)
        last_iteration = time.perf_counter() - began

    metrics = None
    if tracers:
        metrics = layer_metrics(tracers, untraced)
        metrics["montecarlo.sample_source_field_us"] = (
            _sample_source_field_us(config, seed) if config.mode == "montecarlo" else 0.0
        )
    return {
        "metrics": metrics,
        "attempts": attempts,
        "untraced_wall_s": untraced,
        "failures": failures,
        "warmup_problems": warmup_problems,
        "blas_threads": blas_threads(),
        "spans": [tr.to_dict() for tr in tracers],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("check", "setup", "loop", "trace"))
    parser.add_argument("workload", nargs="?", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--replays", type=int, default=None)
    args = parser.parse_args()
    if args.role != "check" and args.workload is None:
        parser.error(f"{args.role} needs a workload")
    if args.role == "setup":
        role_setup(args.workload)
    elif args.role == "check":
        result = role_check(args.out)
    elif args.role == "loop":
        result = role_loop(args.workload, args.seed, args.seconds, args.out)
    else:
        result = role_trace(args.workload, args.seed, args.seconds, args.out, args.replays)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
