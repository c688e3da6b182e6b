"""Campaign execution: parallel, resumable, cached experiment runs.

A *campaign* is a declarative description of many simulation runs —
a cartesian grid over strategy, seed, offered load, share threshold
and cluster size, plus named paper-experiment references — expanded
into run specs with stable content-hashed identifiers.

The subsystem has four layers:

:mod:`repro.campaign.spec`
    Declarative campaign description and run-parameter schema.
:mod:`repro.campaign.store`
    On-disk artifact store (one JSON per run id, atomic rename),
    giving free caching and checkpoint/resume of interrupted
    campaigns.
:mod:`repro.campaign.progress`
    Structured progress events (completed/failed/cached counts,
    throughput, ETA) with text rendering and JSONL recording.
:mod:`repro.campaign.runner`
    The executor: a ``ProcessPoolExecutor`` fan-out with per-run
    timeout, bounded retry with backoff and worker-crash recovery,
    plus a serial fallback producing bit-identical results.

The picklable per-run entry point lives in :mod:`repro.slurm.entry`
so worker processes import only what a run needs.
"""

from repro.campaign.progress import ProgressEvent, ProgressTracker
from repro.campaign.runner import CampaignResult, CampaignRunner, RunFailure
from repro.campaign.spec import (
    CampaignSpec,
    RunSpec,
    campaign_workload,
    inline_workload,
    run_id_of,
    simulate_params,
    trinity_workload,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ProgressEvent",
    "ProgressTracker",
    "ResultStore",
    "RunFailure",
    "RunSpec",
    "campaign_workload",
    "inline_workload",
    "run_id_of",
    "simulate_params",
    "trinity_workload",
]
