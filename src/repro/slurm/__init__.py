"""SLURM-like workload manager substrate (S3).

Reimplements, in simulation, the scheduler-visible surface of SLURM
that the paper's patch lives in: the job lifecycle state machine, the
pending queue with multifactor priority, walltime enforcement,
accounting records, and the scheduler invocation points (submission,
completion, periodic backfill pass).  The scheduling *policies*
themselves live in :mod:`repro.core` and are plugged in.
"""

from repro.slurm.accounting import AccountingLog, JobRecord
from repro.slurm.config import SchedulerConfig, parse_slurm_conf
from repro.slurm.job import Job, JobState
from repro.slurm.manager import SimulationResult, WorkloadManager, run_simulation
from repro.slurm.priority import MultifactorPriority, PriorityWeights
from repro.slurm.queue import PendingQueue
from repro.slurm.reservations import Reservation

__all__ = [
    "AccountingLog",
    "Job",
    "JobRecord",
    "JobState",
    "MultifactorPriority",
    "PendingQueue",
    "PriorityWeights",
    "Reservation",
    "SchedulerConfig",
    "SimulationResult",
    "WorkloadManager",
    "parse_slurm_conf",
    "run_simulation",
]
