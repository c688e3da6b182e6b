"""A forked warm worker keeps nothing of its supervisor but the code.

:func:`repro.campaign.warm.fork_worker` forks the supervisor, which may
hold sockets, pipes to other workers and module locks held by other
threads, and may have failpoint hits, a suspend request, a trace id
and unflushed stdio of its own.  Each test plants one of those in this
process, forks a worker and checks that the worker starts as clean as
a fresh interpreter would.  ``tests/test_oracle_mutants.py`` runs two
of them against planted bugs in the fork path.
"""

from __future__ import annotations

import io
import json
import os
import queue
import socket
import sys
import threading
import time
from pathlib import Path

from repro.campaign.queue import WorkQueue
from repro.campaign.warm import WarmFleet
from repro.faultinject import registry
from repro.observability import events
from repro.service.submit import SubmissionRegistry
from repro.snapshot import suspend
from repro.storage import durable

SPEC = {
    "name": "fork", "jobs": 25, "cluster_sizes": [16],
    "seeds": [1], "strategies": ["fcfs"],
}

#: How long a worker may take to answer for one small store.
ANSWER_S = 5.0


def _store(root: Path) -> Path:
    registry_ = SubmissionRegistry(root / "svc")
    record, _, _ = registry_.submit(SPEC, None)
    return registry_.store_dir(record["submission"])


def _listening_fleet() -> tuple[WarmFleet, queue.SimpleQueue]:
    """A fleet whose reader threads leave every answer and exit, as
    read, in the returned queue."""
    inbox: queue.SimpleQueue = queue.SimpleQueue()
    return WarmFleet(
        lambda *report: None, post=lambda fn, *args: inbox.put(args)
    ), inbox


def _answer(inbox: queue.SimpleQueue) -> dict:
    _, answer = inbox.get(timeout=ANSWER_S)
    return answer


def _reporting_fleet() -> tuple[WarmFleet, list]:
    """A fleet that appends each report to the returned list."""
    reports: list = []
    return WarmFleet(lambda *report: reports.append(report)), reports


def _drains(fleet: WarmFleet, reports: list, worker, store: Path) -> None:
    """*worker*, handed *store*, answers ``drained`` in time."""
    fleet.hand_off(worker, store, "s")
    deadline = time.monotonic() + ANSWER_S
    while not reports and time.monotonic() < deadline:
        fleet.wait(0.1)
    assert reports == [(worker, "s", "drained")]


def test_idle_worker_holds_only_fds_0_1_2(tmp_path):
    store = _store(tmp_path)
    listener = socket.create_server(("127.0.0.1", 0))
    fleet, reports = _reporting_fleet()
    try:
        sibling = fleet.spawn(tmp_path / "workers.log")
        worker = fleet.spawn(tmp_path / "workers.log")
        # The parent holds a listening socket and the sibling's pipes.
        own = set(os.listdir("/proc/self/fd"))
        assert {str(listener.fileno()), str(sibling.stdin.fileno()),
                str(sibling.stdout.fileno())} <= own
        # An answer proves the worker is past its set-up.
        _drains(fleet, reports, worker, store)
        fds = Path(f"/proc/{worker.pid}/fd")
        assert sorted(os.listdir(fds)) == ["0", "1", "2"]
        assert Path(os.readlink(fds / "2")) == (
            tmp_path / "workers.log"
        ).resolve()
    finally:
        listener.close()
        fleet.stop(5.0)


def test_stop_without_terminate_retires_two_workers_with_exit_0(tmp_path):
    fleet = WarmFleet(lambda *report: None)
    workers = [fleet.spawn(tmp_path / "workers.log") for _ in range(2)]
    fleet.stop(10.0, terminate=False)
    assert [worker.returncode for worker in workers] == [0, 0]


def test_spawn_while_another_thread_holds_the_count_lock_drains(tmp_path):
    store = _store(tmp_path)
    fleet, reports = _reporting_fleet()
    holding, done = threading.Event(), threading.Event()

    def hold() -> None:
        with durable._count_lock:
            holding.set()
            done.wait()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        holding.wait()
        worker = fleet.spawn(tmp_path / "workers.log")
    finally:
        done.set()
        holder.join()
    try:
        _drains(fleet, reports, worker, store)
        assert WorkQueue(store).drained()
    finally:
        fleet.stop(1.0)


def test_worker_starts_with_no_failpoint_hits_suspend_or_trace(
        tmp_path, monkeypatch):
    from repro.campaign import warm

    def report_state() -> int:
        plan = registry._PLAN
        os.write(1, json.dumps({
            "status": "state",
            "plan": plan.encode(),
            "hits": plan.hits,
            "suspended": suspend.suspend_requested(),
            "trace": events.current_trace(),
        }).encode() + b"\n")
        return 0

    monkeypatch.setattr(warm, "main", report_state)
    monkeypatch.setenv(registry.ENV_PLAN, "bundle.write=eio:5")
    parent_plan = registry.FaultPlan(registry.parse_plan("bundle.write=eio:5"))
    parent_plan.hits["bundle.write"] = 3
    monkeypatch.setattr(registry, "_PLAN", parent_plan)
    fleet, inbox = _listening_fleet()
    suspend.request_suspend()
    previous = events.set_current_trace("parent-trace")
    try:
        worker = fleet.spawn(tmp_path / "workers.log")
    finally:
        suspend.reset()
        events.set_current_trace(previous)
    assert _answer(inbox) == {
        "status": "state", "plan": "bundle.write=eio:5", "hits": {},
        "suspended": False, "trace": None,
    }
    assert worker.wait(timeout=ANSWER_S) == 0
    worker.stdin.close()
    assert parent_plan.hits == {"bundle.write": 3}


class _Unflushable(io.TextIOWrapper):
    """A ``sys.stdout`` whose buffered bytes the parent's flush before
    the fork cannot push out."""

    def flush(self) -> None:
        pass


def test_unflushed_parent_stdout_never_reaches_the_answers(
        tmp_path, monkeypatch):
    store = _store(tmp_path)
    stdout = _Unflushable(io.BufferedWriter(io.FileIO(1, "w", closefd=False)))
    # A line the reader would take for an answer, were it to arrive.
    stdout.buffer.write(b'{"store": "parent", "status": "parent"}\n')
    monkeypatch.setattr(sys, "stdout", stdout)
    del stdout  # sys.stdout holds the only reference, as it would
    fleet, inbox = _listening_fleet()
    worker = fleet.spawn(tmp_path / "workers.log")
    worker.stdin.write(f"{store}\n".encode())
    assert _answer(inbox) == {"store": str(store), "status": "drained"}
    worker.stdin.close()
    assert inbox.get(timeout=ANSWER_S) == (worker,)
    assert worker.wait(timeout=ANSWER_S) == 0
