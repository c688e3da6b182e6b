"""campaign-small: many tiny runs through ``repro campaign``.

Four small campaigns of 48 runs each, 192 runs of 40 jobs in all
(cluster sizes 16 and 32, loads 1.2 and 1.5, ``easy_backfill`` and
``shared_backfill``, six workload seeds per campaign derived from the
benchmark seed), go through ``cli.main`` with two workers, each
repetition into fresh stores so no run is a cache hit.  The engine
does little per run, so the executor's per-run and per-campaign
overhead dominates.  Each campaign's spec file and each campaign are
timing units; the campaign's own progress log says which runs were
stored.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

from harness import Rep, fastest_setup, paced, sha256_hex
from layers import tracing
from repro.campaign import CampaignSpec
from repro.cli import main
from repro.faultinject.chaos import store_fingerprint
from repro.slurm.entry import execute_run

NAME = "campaign-small"
JOBS = 40
SIZES = (16, 32)
LOADS = (1.2, 1.5)
STRATEGIES = ("easy_backfill", "shared_backfill")
CAMPAIGNS = 4
SEEDS_PER_CAMPAIGN = 6
WORKERS = 2
#: Attempts per spec file and repetition: a write takes about a
#: millisecond, so more attempts are cheap and steady its minimum.
SPEC_WRITES = 6
RUNS = (CAMPAIGNS * SEEDS_PER_CAMPAIGN
        * len(SIZES) * len(LOADS) * len(STRATEGIES))
SCALE = {"jobs": JOBS, "nodes": max(SIZES), "windows": 0, "runs": RUNS,
         "submissions": 0}
#: No traced layer runs below this workload's spans, so it has no
#: root whose time they must account for.
ROOT_SPAN = None


def campaign_specs(seed: int) -> list[CampaignSpec]:
    first = seed * CAMPAIGNS * SEEDS_PER_CAMPAIGN
    return [
        CampaignSpec(
            name=f"perfbench-{k}", jobs=JOBS, strategies=STRATEGIES,
            seeds=tuple(first + k * SEEDS_PER_CAMPAIGN + i
                        for i in range(SEEDS_PER_CAMPAIGN)),
            loads=LOADS, cluster_sizes=SIZES,
        )
        for k in range(CAMPAIGNS)
    ]


def argv(spec_file: Path, store: Path, progress_log: Path | None) -> list[str]:
    args = ["campaign", "--spec", str(spec_file), "--workers", str(WORKERS),
            "--store", str(store), "--quiet"]
    if progress_log is not None:
        args += ["--progress-log", str(progress_log)]
    return args


def write_spec(root: Path, k: int, spec: CampaignSpec) -> tuple[Path, list[str]]:
    """Campaign *k*'s spec file and the run ids it expands to."""
    path = root / f"spec-{k}.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path, [run.run_id for run in spec.expand()]


def campaign(args: list[str]) -> int:
    """``repro campaign`` in this process, its report swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def store_digest(stores: list[Path]) -> str:
    return sha256_hex(*(
        json.dumps(store_fingerprint(store), sort_keys=True).encode()
        for store in stores
    ))


def golden_digest(work: Path, seed: int) -> str:
    root = work / "golden-campaign"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        stores = []
        for k, spec in enumerate(campaign_specs(seed)):
            spec_file, _ = write_spec(root, k, spec)
            stores.append(root / f"store-{k}")
            if campaign(argv(spec_file, stores[-1], None)) != 0:
                return ""
        return store_digest(stores)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def in_process_exec_s(seed: int) -> float:
    """The campaigns' runs, entry called directly in this process: the
    work without the executor around it, in reference seconds."""

    def run_all() -> None:
        for spec in campaign_specs(seed):
            for run in spec.expand():
                execute_run(run.params)

    return paced(run_all)[1]


def stored_runs(progress: Path) -> set[str]:
    """Run ids the campaign's progress log reports stored."""
    stored = set()
    lines = progress.read_text().splitlines() if progress.exists() else []
    for line in lines:
        event = json.loads(line)
        if event["kind"] == "completed":
            stored.add(event["run_id"])
    return stored


def rep(work: Path, seed: int, index: int, tracer=None) -> Rep:
    root = work / f"campaign-{index}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        codes, setups, units, stores = [], [], [], []
        stored: set[str] = set()
        planned: set[str] = set()
        with tracing(tracer):
            for k, spec in enumerate(campaign_specs(seed)):
                (spec_file, run_ids), setup_s = fastest_setup(
                    lambda _: paced(lambda: write_spec(root, k, spec),
                                    time.thread_time),
                    lambda made: made[0].unlink(), times=SPEC_WRITES,
                )
                setups.append(setup_s)
                planned.update(run_ids)
                stores.append(root / f"store-{k}")
                progress = root / f"progress-{k}.jsonl"
                code, took = paced(
                    lambda: campaign(argv(spec_file, stores[-1], progress))
                )
                codes.append(code)
                units.append(took)
                stored |= stored_runs(progress)
        ok = all(code == 0 for code in codes)
        layer: dict[str, float] = {}
        if tracer is not None:
            exec_s = in_process_exec_s(seed)
            layer = {
                "campaign.run_exec_s": exec_s,
                "campaign.overhead_per_run_ms":
                    1000.0 * (WORKERS * sum(units) - exec_s) / RUNS,
            }
        return Rep(
            setups=setups,
            units=units,
            jobs=JOBS * len(stored),
            digest=store_digest(stores) if ok else "",
            attempted=RUNS,
            failed=RUNS - len(stored & planned),
            checks=[
                (ok, f"repro campaign exit codes {codes}"),
                (stored == planned,
                 f"{len(stored)} of {RUNS} planned runs stored"),
            ],
            layer=layer,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
