"""Text views of system state, after SLURM's CLI tools.

``squeue``-style pending/running listings, ``sinfo``-style node-state
summaries, and ``sacct``-style accounting dumps.  Pure rendering: the
functions take the live manager (or an accounting log) and return
strings, used by the CLI and examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cluster.node import NodeMode
from repro.slurm.accounting import JobRecord
from repro.slurm.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.manager import WorkloadManager


def _fmt_duration(seconds: float) -> str:
    """SLURM-style D-HH:MM:SS (days omitted when zero)."""
    seconds = max(0, int(round(seconds)))
    days, rem = divmod(seconds, 86_400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    if days:
        return f"{days}-{hours:02d}:{minutes:02d}:{secs:02d}"
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


def _compress_node_ids(node_ids: Iterable[int]) -> str:
    """Render node ids as SLURM-style bracketed ranges: node[0-3,7]."""
    ids = sorted(node_ids)
    if not ids:
        return "node[]"
    ranges: list[str] = []
    start = prev = ids[0]
    for node_id in ids[1:]:
        if node_id == prev + 1:
            prev = node_id
            continue
        ranges.append(f"{start}-{prev}" if start != prev else f"{start}")
        start = prev = node_id
    ranges.append(f"{start}-{prev}" if start != prev else f"{start}")
    return f"node[{','.join(ranges)}]"


def squeue(manager: "WorkloadManager", max_rows: int = 40) -> str:
    """Pending + running jobs, like ``squeue``."""
    now = manager.sim.now
    header = (
        f"{'JOBID':>7} {'PARTITION':>9} {'NAME':>8} {'USER':>7} "
        f"{'ST':>2} {'TIME':>11} {'NODES':>5} {'SHARE':>5} NODELIST(REASON)"
    )
    rows = [header]

    def job_row(job: Job, state_code: str, time_str: str, where: str) -> str:
        return (
            f"{job.job_id:>7} {job.spec.partition:>9} "
            f"{(job.spec.app or 'job')[:8]:>8} {job.spec.user:>7} "
            f"{state_code:>2} {time_str:>11} {job.num_nodes:>5} "
            f"{'yes' if job.spec.shareable else 'no':>5} {where}"
        )

    running = [
        manager.jobs[job_id]
        for job_id in manager.cluster.running_job_ids()
        if job_id in manager.jobs  # exclude reservation phantoms
    ]
    running.sort(key=lambda j: (j.start_time, j.job_id))
    for job in running[:max_rows]:
        assert job.allocation is not None and job.start_time is not None
        rows.append(
            job_row(
                job,
                "R",
                _fmt_duration(now - job.start_time),
                _compress_node_ids(job.allocation.node_ids),
            )
        )
    pending = manager.queue.ranked(now)
    for job in pending[: max(0, max_rows - len(running))]:
        rows.append(
            job_row(job, "PD", _fmt_duration(now - job.spec.submit_time), "(Priority)")
        )
    shown = min(max_rows, len(running) + len(pending))
    total = len(running) + len(pending)
    if shown < total:
        rows.append(f"... {total - shown} more jobs")
    return "\n".join(rows)


def sinfo(manager: "WorkloadManager") -> str:
    """Node-state summary, like ``sinfo`` with mode breakdown."""
    counts = {mode: 0 for mode in NodeMode}
    doubly = 0
    for node in manager.cluster.nodes:
        counts[node.mode] += 1
        if len(node.occupant_ids) == 2:
            doubly += 1
    lines = [
        f"CLUSTER {manager.cluster.name}: {manager.cluster.num_nodes} nodes",
        f"  idle      : {counts[NodeMode.IDLE]}",
        f"  exclusive : {counts[NodeMode.EXCLUSIVE]}",
        f"  shared    : {counts[NodeMode.SHARED]} ({doubly} fully paired)",
    ]
    return "\n".join(lines)


_SACCT_STATE = {
    JobState.COMPLETED: "COMPLETED",
    JobState.TIMEOUT: "TIMEOUT",
    JobState.CANCELLED: "CANCELLED",
}


def sacct(records: Iterable[JobRecord], max_rows: int | None = None) -> str:
    """Accounting dump, like ``sacct``."""
    header = (
        f"{'JOBID':>7} {'JOBNAME':>8} {'NNODES':>6} {'STATE':>10} "
        f"{'SUBMIT':>10} {'WAIT':>11} {'ELAPSED':>11} {'SHARED':>7} {'DILAT':>6}"
    )
    rows = [header]
    for i, record in enumerate(records):
        if max_rows is not None and i >= max_rows:
            rows.append("...")
            break
        rows.append(
            f"{record.job_id:>7} {(record.app or 'job')[:8]:>8} "
            f"{record.num_nodes:>6} {_SACCT_STATE[record.state]:>10} "
            f"{record.submit_time:>10.0f} {_fmt_duration(record.wait_time):>11} "
            f"{_fmt_duration(record.run_time):>11} "
            f"{record.shared_seconds / record.run_time if record.run_time else 0:>7.2f} "
            f"{record.dilation:>6.2f}"
        )
    return "\n".join(rows)
