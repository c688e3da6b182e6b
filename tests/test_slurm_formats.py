"""Unit tests for squeue/sinfo/sacct-style text views."""

import pytest

from repro.cluster.machine import Cluster
from repro.slurm.config import SchedulerConfig
from repro.slurm.formats import _compress_node_ids, _fmt_duration, sacct, sinfo, squeue
from repro.slurm.manager import WorkloadManager
from repro.snapshot.state import snapshot_bytes
from repro.workload.trace import WorkloadTrace
from tests.conftest import make_spec


class TestHelpers:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0, "00:00:00"),
            (61, "00:01:01"),
            (3661, "01:01:01"),
            (90_061, "1-01:01:01"),
        ],
    )
    def test_fmt_duration(self, seconds, expected):
        assert _fmt_duration(seconds) == expected

    @pytest.mark.parametrize(
        "ids,expected",
        [
            ([], "node[]"),
            ([3], "node[3]"),
            ([0, 1, 2, 3], "node[0-3]"),
            ([0, 1, 3, 7, 8], "node[0-1,3,7-8]"),
            ([5, 2, 4], "node[2,4-5]"),  # unsorted input
        ],
    )
    def test_compress_node_ids(self, ids, expected):
        assert _compress_node_ids(ids) == expected


@pytest.fixture
def paused_manager():
    """A manager stopped mid-simulation with running + pending jobs."""
    trace = WorkloadTrace(
        [
            make_spec(job_id=1, nodes=3, runtime=100.0, app="AMG", user="user1"),
            make_spec(job_id=2, nodes=4, runtime=100.0, submit=1.0,
                      app="GTC", shareable=True),
            make_spec(job_id=3, nodes=4, runtime=100.0, submit=2.0, app="MILC"),
        ]
    )
    cluster = Cluster.homogeneous(4)
    manager = WorkloadManager(cluster, config=SchedulerConfig(strategy="fcfs"))
    manager.load(trace)
    manager.run(until=50.0)
    return manager


class TestSqueue:
    def test_running_and_pending_rows(self, paused_manager):
        text = squeue(paused_manager)
        assert " R " in text and "PD" in text
        assert "node[0-2]" in text
        assert "(Priority)" in text

    def test_share_column(self, paused_manager):
        lines = squeue(paused_manager).splitlines()
        gtc_line = next(line for line in lines if "GTC" in line)
        assert "yes" in gtc_line

    def test_max_rows_truncates(self, paused_manager):
        text = squeue(paused_manager, max_rows=1)
        assert "more jobs" in text

    def test_leaves_snapshot_bytes_alone(self, paused_manager):
        # The last pass scored the pending jobs at an earlier time; a
        # view ranking them now must not overwrite the stored values.
        before = snapshot_bytes(paused_manager)
        squeue(paused_manager)
        assert snapshot_bytes(paused_manager) == before

    def test_pending_rows_in_scheduling_order(self, paused_manager):
        rows = [line for line in squeue(paused_manager).splitlines()
                if " PD " in line]
        now = paused_manager.sim.now
        expected = paused_manager.queue.ordered(now)
        assert [int(row.split()[0]) for row in rows] == [
            job.job_id for job in expected
        ]


class TestSinfo:
    def test_counts(self, paused_manager):
        text = sinfo(paused_manager)
        assert "exclusive : 3" in text
        assert "idle      : 1" in text

    def test_shared_pairing_count(self):
        trace = WorkloadTrace(
            [
                make_spec(job_id=1, nodes=2, runtime=500.0, app="AMG",
                          shareable=True),
                make_spec(job_id=2, nodes=2, runtime=500.0, app="miniDFT",
                          shareable=True),
            ]
        )
        cluster = Cluster.homogeneous(2)
        manager = WorkloadManager(
            cluster, config=SchedulerConfig(strategy="shared_backfill")
        )
        manager.load(trace)
        manager.run(until=100.0)
        text = sinfo(manager)
        assert "shared    : 2 (2 fully paired)" in text


class TestSacct:
    def test_rows_after_completion(self, paused_manager):
        paused_manager.run()  # finish everything
        text = sacct(paused_manager.accounting)
        assert "COMPLETED" in text
        assert text.count("\n") == 3  # header + 3 jobs

    def test_max_rows(self, paused_manager):
        paused_manager.run()
        text = sacct(paused_manager.accounting, max_rows=1)
        assert "..." in text


class TestSacctCancelled:
    def test_cancelled_pending_job_renders(self):
        # A job cancelled before starting has zero run time and zero
        # dilation; the sacct view must render it without dividing by
        # zero.
        trace = WorkloadTrace([
            make_spec(job_id=1, nodes=4, runtime=100.0),
            make_spec(job_id=2, nodes=4, runtime=100.0, submit=1.0),
        ])
        cluster = Cluster.homogeneous(4)
        manager = WorkloadManager(cluster, config=SchedulerConfig(strategy="fcfs"))
        manager.load(trace)
        manager.cancel_job(2, at=50.0)
        result = manager.run()
        text = sacct(result.accounting)
        assert "CANCELLED" in text
        assert "00:00:00" in text
