"""Campaign executor — parallel vs serial wall-clock on a 32-run grid.

Executes the same 32-run campaign twice, serially (``workers=1``) and
through the process pool, checks the result files are byte-identical,
and records the speedup.  The speedup assertion only applies on
multi-core hosts; on a single core the pool can only add overhead.
"""

import os
from pathlib import Path

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.metrics.report import format_table


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="bench-parallel",
        jobs=60,
        strategies=("easy_backfill", "shared_backfill"),
        seeds=(1, 2, 3, 4),
        loads=(1.2, 1.5),
        cluster_sizes=(16, 32),
    )


def test_campaign_parallel_speedup(benchmark, record_artifact, record_bench, tmp_path):
    runs = _spec().expand()
    assert len(runs) == 32

    serial_store = ResultStore(tmp_path / "serial")
    serial = CampaignRunner(store=serial_store, workers=1).run(runs)
    assert serial.ok

    workers = min(8, os.cpu_count() or 1)
    parallel_store = ResultStore(tmp_path / "parallel")

    def parallel_campaign():
        for rid in list(parallel_store.completed_ids()):
            parallel_store.delete(rid)
        return CampaignRunner(store=parallel_store, workers=workers).run(runs)

    parallel = benchmark.pedantic(parallel_campaign, rounds=1, iterations=1)
    assert parallel.ok

    # The headline guarantee: byte-identical result files.
    assert serial_store.completed_ids() == parallel_store.completed_ids()
    for rid in serial_store.completed_ids():
        assert (
            serial_store.path_for(rid).read_bytes()
            == parallel_store.path_for(rid).read_bytes()
        ), f"run {rid} differs between serial and parallel execution"

    speedup = serial.elapsed_s / parallel.elapsed_s
    record_bench(
        "campaign",
        {
            "runs": len(runs),
            "workers": workers,
            "serial_s": round(serial.elapsed_s, 3),
            "parallel_s": round(parallel.elapsed_s, 3),
            "speedup": round(speedup, 3),
        },
    )
    record_artifact(
        "campaign_parallel",
        format_table(
            [{
                "runs": len(runs),
                "workers": workers,
                "serial_s": serial.elapsed_s,
                "parallel_s": parallel.elapsed_s,
                "speedup": speedup,
            }],
            title="campaign executor: serial vs parallel (32-run grid)",
        ),
    )
    if workers > 1 and (os.cpu_count() or 1) > 1:
        assert speedup > 1.0, (
            f"no parallel speedup: serial {serial.elapsed_s:.2f}s vs "
            f"parallel {parallel.elapsed_s:.2f}s on {workers} workers"
        )


def test_queue_lease_overhead(benchmark, record_artifact, record_bench, tmp_path):
    """The durable queue's per-run lease path (enqueue, O_EXCL claim,
    heartbeat renew, fenced complete) must stay under 1% of a real
    run's wall time, so joining a campaign through the queue costs
    effectively nothing next to the simulation itself."""
    import json
    import time

    from repro.campaign.queue import WorkQueue, lease_cycle_once
    from repro.slurm.entry import _default_entry
    from repro.campaign.spec import RunSpec

    # Reference run: the e8 share-fraction sweep, the same workload the
    # paper-evaluation campaign leans on.
    run = RunSpec.from_params({"kind": "experiment", "experiment": "e8"})
    entry = _default_entry(None, None, None, None)
    started = time.perf_counter()
    entry(dict(run.params))
    run_s = time.perf_counter() - started

    queue = WorkQueue(tmp_path / "store")
    cycles = 200

    def lease_burst():
        for i in range(cycles):
            lease_cycle_once(
                queue,
                RunSpec.from_params(
                    {"kind": "experiment", "experiment": f"lease-{i}"}
                ),
            )

    started = time.perf_counter()
    benchmark.pedantic(lease_burst, rounds=1, iterations=1)
    lease_s = (time.perf_counter() - started) / cycles
    overhead_pct = 100.0 * lease_s / run_s

    # BENCH_campaign.json is shared with the parallel-speedup benchmark
    # and record_bench overwrites: merge, never clobber.
    bench_path = Path(__file__).parent.parent / "BENCH_campaign.json"
    merged = {}
    if bench_path.exists():
        merged = json.loads(bench_path.read_text())
        merged.pop("bench", None)
    merged.update(
        {
            "lease_cycle_ms": round(lease_s * 1000, 3),
            "lease_cycles": cycles,
            "lease_overhead_pct": round(overhead_pct, 4),
            "e8_run_s": round(run_s, 3),
        }
    )
    record_bench("campaign", merged)
    record_artifact(
        "campaign_queue_lease",
        format_table(
            [{
                "e8_run_s": run_s,
                "lease_cycle_ms": lease_s * 1000,
                "overhead_pct": overhead_pct,
            }],
            title="work queue: lease path overhead per run (e8 workload)",
        ),
    )
    assert overhead_pct < 1.0, (
        f"lease path costs {overhead_pct:.2f}% of an e8 run "
        f"({lease_s * 1000:.1f}ms per cycle vs {run_s:.2f}s per run)"
    )
