"""The repository benchmark: four workloads, one result line each.

Run from the repository root::

    python3 perfbench/run.py --workload sim-deep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that alternates plain and traced
repetitions, reports every per-layer metric and the tracing overhead,
and writes its spans to ``.perfbench/traces/``.  ``--workload all``
runs every workload in its own process and prints the end-to-end
metrics under their per-workload names.  The last line of standard
output is always one JSON result object; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: End-to-end metrics, reported by every workload, with their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "jobs/s",
}

#: Workload -> (name its throughput goes by, unit, jobs per unit).
THROUGHPUT = {
    "sim-deep": ("sim_jobs_per_s", "jobs/s", 1),
    "replay-windows": ("replay_jobs_per_s", "jobs/s", 1),
    "campaign-small": ("campaign_runs_per_s", "runs/s", 40),
    "serve-submit": ("served_runs_per_s", "runs/s", 25),
}


def workloads() -> dict:
    import campaign_small
    import replay_windows
    import serve_submit
    import sim_deep

    return {mod.NAME: mod for mod in
            (sim_deep, replay_windows, campaign_small, serve_submit)}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def check_reps(out, mod, reps, seed: int) -> None:
    """Golden digest, repetition agreement and the workload's checks."""
    for rep in reps:
        out.attempted += rep.attempted
        out.failed += rep.failed
        for ok, what in rep.checks:
            out.check(ok, what)
    out.notes.extend(reps[0].notes)
    digests = {rep.digest for rep in reps}
    out.check(len(digests) == 1, f"repetitions disagree: {sorted(digests)}")
    expected = load_golden().get(mod.NAME, {}).get(str(seed))
    if expected is None:
        out.notes.append(
            f"no golden digest for seed {seed}; checked that "
            f"{len(reps)} repetitions agree"
        )
    else:
        out.check(reps[0].digest == expected,
                  f"digest {reps[0].digest} != golden {expected}")


def latency_lines(name: str, bursts: list[list[float | None]]) -> list[str]:
    """Median, p95 and tail of one request kind; a request that failed
    in a burst is charged the client's timeout."""
    from harness import min_per_op, percentile, tail_percentile

    samples = min_per_op(bursts)
    q, tail, n = tail_percentile(samples)
    return [
        f"{name}_p50_ms {1000 * percentile(samples, 50):.4f} ms",
        f"{name}_p95_ms {1000 * percentile(samples, 95):.4f} ms "
        f"({n} samples)",
        f"{name} tail: p{q:.2f} of {n} samples = {1000 * tail:.4f} ms",
    ]


def measure(mod, work: Path, seed: int, seconds: float):
    """The untraced run: end-to-end metrics, each time min-of-N (per
    timing unit for the timed phase)."""
    from harness import (REFERENCE_S, REFERENCE_TIMES, Outcome, fastest_total,
                         peak_rss_mb, repeat_for)

    reps = []
    repeat_for(seconds, lambda i: reps.append(mod.rep(work, seed, i)))
    out = Outcome()
    check_reps(out, mod, reps, seed)
    jobs_per_s = (min(rep.jobs for rep in reps)
                  / fastest_total([rep.units for rep in reps]))
    out.put("setup_s", fastest_total([rep.setups for rep in reps]), "s")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.put("jobs_per_s", jobs_per_s, "jobs/s")

    alias, unit, per = THROUGHPUT[mod.NAME]
    out.notes += [
        f"{alias} {jobs_per_s / per:.4f} {unit}",
        f"ops_failed_frac {out.failed / max(1, out.attempted):.6f} ratio "
        f"({out.failed} of {out.attempted})",
        f"repetitions: {len(reps)}; scale: "
        + ", ".join(f"{k}={v}" for k, v in mod.SCALE.items()),
        f"host: reference loop {1000 * min(REFERENCE_TIMES):.2f} ms fastest, "
        f"{1000 * statistics.median(REFERENCE_TIMES):.2f} ms median of "
        f"{len(REFERENCE_TIMES)} runs; times are in reference seconds "
        f"(the loop = {1000 * REFERENCE_S:g} ms)",
    ]
    if any(rep.create_s for rep in reps):
        out.notes += latency_lines(
            "submit", [burst for rep in reps for burst in rep.create_s])
        out.notes += latency_lines(
            "read", [burst for rep in reps for burst in rep.read_s])
    return out


def measure_traced(mod, work: Path, seed: int, seconds: float):
    """The traced run: plain and traced repetitions alternate; the
    traced ones give the per-layer metrics, both give the overhead."""
    from harness import Outcome, fastest_total, repeat_for
    from layers import LAYER_METRICS, layer_metrics
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def once(index: int) -> None:
        if index % 2:
            traced.append(mod.rep(work, seed, index, tracer=tracer))
        else:
            plain.append(mod.rep(work, seed, index))

    repeat_for(seconds, once)
    out = Outcome()
    check_reps(out, mod, plain + traced, seed)
    extra: dict[str, float] = {}
    for key in traced[0].layer:
        extra[key] = statistics.fmean(rep.layer[key] for rep in traced)
    metrics = layer_metrics(
        tracer.spans, len(traced), mod.ROOT_SPAN, extra, mod.SCALE
    )
    metrics["trace.overhead_frac"] = (
        fastest_total([rep.units for rep in traced])
        / fastest_total([rep.units for rep in plain]) - 1.0
    )
    for name, unit in LAYER_METRICS.items():
        out.put(name, metrics[name], unit)
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{mod.NAME}-{seed}.json.gz"
    tracer.dump(path)
    out.notes.append(f"spans written to {path.relative_to(ROOT)}")
    return out, list(LAYER_METRICS)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    mod = workloads()[name]
    work = ROOT / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            out, names = measure_traced(mod, work, seed, seconds)
        else:
            out, names = measure(mod, work, seed, seconds), list(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)}")
    for metric in names:
        value, unit = out.metrics[metric]
        print(f"{metric} {value:.6g} {unit}")
    for line in out.notes:
        print(f"# {line}")
    for what in out.mismatches:
        print(f"# CHECK FAILED: {what}")
    print(json.dumps(out.as_result(names)))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; per-workload metric names."""
    summary: dict[str, dict] = {}
    for name in THROUGHPUT:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("# workload             metric                 value  unit")
    for name, result in summary.items():
        for metric, cell in result["metrics"].items():
            print(f"# {name:20s} {metric:20s} {cell['value']:>10.4f}  "
                  f"{cell['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*THROUGHPUT, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
