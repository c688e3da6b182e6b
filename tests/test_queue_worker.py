"""In-process `QueueWorker` behaviour: drain, retry, terminal states,
the degradation ladder, and fenced-result discard."""

from __future__ import annotations

import time

import pytest

from repro.campaign.queue import (
    DEFAULT_MAX_DELIVERIES,
    QueueWorker,
    WorkQueue,
    has_queue,
)
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.errors import SuspendRequested
from repro.snapshot import suspend as _suspend


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    _suspend.reset()
    yield
    _suspend.reset()


def _runs(n: int) -> list[RunSpec]:
    return [
        RunSpec.from_params({"kind": "experiment", "experiment": f"t{i}"})
        for i in range(n)
    ]


def _entry_ok(params):
    return {"kind": "test", "experiment": params["experiment"]}


class TestEnqueue:
    def test_enqueue_skips_stored_runs(self, tmp_path):
        runs = _runs(3)
        store = ResultStore(tmp_path)
        store.save(runs[0].run_id, {
            "run_id": runs[0].run_id, "params": dict(runs[0].params),
            "result": {"kind": "test"},
        })
        queue = WorkQueue(tmp_path)
        assert queue.enqueue(runs) == 2
        assert len(queue.iter_items()) == 2

    def test_enqueue_is_idempotent_and_keeps_accounting(self, tmp_path):
        runs = _runs(1)
        queue = WorkQueue(tmp_path)
        queue.enqueue(runs)
        claimed = queue.claim_next()
        item, token = claimed
        queue.requeue(item, token, penalty=True)
        deliveries = queue.read_item(runs[0].run_id).deliveries
        queue.enqueue(runs)  # re-enqueue must not reset the item
        assert queue.read_item(runs[0].run_id).deliveries == deliveries

    def test_reenqueue_clears_terminal_entries(self, tmp_path):
        runs = _runs(1)
        queue = WorkQueue(tmp_path)
        queue.enqueue(runs)
        item, token = queue.claim_next()
        queue.fail_item(item, token, "boom")
        assert queue.terminal_ids("failed") == [runs[0].run_id]
        queue.enqueue(runs)
        assert queue.terminal_ids("failed") == []
        assert len(queue.iter_items()) == 1

    def test_has_queue(self, tmp_path):
        assert not has_queue(tmp_path)
        WorkQueue(tmp_path)
        assert has_queue(tmp_path)


class TestClaim:
    def test_claim_retires_already_stored_run(self, tmp_path):
        runs = _runs(1)
        queue = WorkQueue(tmp_path)
        queue.enqueue(runs)
        queue.store.save(runs[0].run_id, {
            "run_id": runs[0].run_id, "params": dict(runs[0].params),
            "result": {"kind": "test"},
        })
        assert queue.claim_next() is None
        assert queue.drained()

    def test_claim_respects_not_before(self, tmp_path):
        clock = {"now": time.time()}
        queue = WorkQueue(tmp_path, clock=lambda: clock["now"])
        runs = _runs(1)
        queue.enqueue(runs)
        item, token = queue.claim_next()
        queue.requeue(item, token, penalty=True)  # backoff applies
        assert queue.claim_next() is None
        clock["now"] += 60.0
        assert queue.claim_next() is not None

    def test_delivery_budget_quarantines_at_claim(self, tmp_path):
        from dataclasses import replace

        queue = WorkQueue(tmp_path)
        runs = _runs(1)
        queue.enqueue(runs)
        item = queue.read_item(runs[0].run_id)
        queue.write_item(replace(item, deliveries=DEFAULT_MAX_DELIVERIES))
        assert queue.claim_next() is None
        assert queue.terminal_ids("quarantined") == [runs[0].run_id]
        doc = queue.read_terminal("quarantined", runs[0].run_id)
        assert "delivery budget exhausted" in doc["reason"]

    def test_lease_cycle_costs_under_1pct_of_an_e8_run(self, tmp_path):
        # Joining a campaign through the queue must cost nothing next
        # to the simulation: the e8 share-fraction sweep is the run the
        # paper-evaluation campaign leans on.
        from repro.slurm.entry import execute_run

        started = time.perf_counter()
        execute_run({"kind": "experiment", "experiment": "e8"})
        run_s = time.perf_counter() - started

        queue = WorkQueue(tmp_path)
        runs = _runs(200)
        started = time.perf_counter()
        for run in runs:
            queue.enqueue([run])
            item, token = queue.claim_next()
            queue.leases.renew(item.run_id)
            queue.complete(item.run_id, token)
        lease_s = (time.perf_counter() - started) / len(runs)
        assert queue.drained()
        overhead_pct = 100.0 * lease_s / run_s
        assert overhead_pct < 1.0, (
            f"lease path costs {overhead_pct:.2f}% of an e8 run "
            f"({lease_s * 1000:.1f}ms per cycle vs {run_s:.2f}s per run)"
        )


class TestWorkerDrain:
    def test_drain_executes_everything(self, tmp_path):
        runs = _runs(3)
        WorkQueue(tmp_path).enqueue(runs)
        worker = QueueWorker(tmp_path, entry=_entry_ok)
        outcome = worker.drain()
        assert outcome.status == "drained"
        assert outcome.exit_code == 0
        assert outcome.completed == 3
        store = ResultStore(tmp_path)
        for run in runs:
            record = store.load(run.run_id)
            assert record["result"]["experiment"] == run.params["experiment"]
            assert record["meta"] == {"attempts": 1}
        assert WorkQueue(tmp_path).drained()

    def test_drain_retries_then_fails_terminally(self, tmp_path):
        calls = {"n": 0}

        def entry(params):
            calls["n"] += 1
            raise ValueError("persistent")

        runs = _runs(1)
        WorkQueue(tmp_path).enqueue(runs)
        worker = QueueWorker(
            tmp_path,
            entry=entry,
            config={"retries": 2, "backoff": 0.0},
            sleep=lambda s: None,
        )
        outcome = worker.drain()
        assert outcome.status == "drained"
        assert outcome.failed == 1
        assert calls["n"] == 3  # first attempt + 2 retries
        queue = WorkQueue(tmp_path)
        assert queue.terminal_ids("failed") == [runs[0].run_id]
        doc = queue.read_terminal("failed", runs[0].run_id)
        assert "ValueError: persistent" in doc["error"]

    def test_transient_failure_recovers_with_attempt_count(self, tmp_path):
        calls = {"n": 0}

        def entry(params):
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValueError("flaky")
            return {"kind": "test"}

        runs = _runs(1)
        WorkQueue(tmp_path).enqueue(runs)
        outcome = QueueWorker(
            tmp_path,
            entry=entry,
            config={"retries": 2, "backoff": 0.0},
            sleep=lambda s: None,
        ).drain()
        assert outcome.completed == 1
        record = ResultStore(tmp_path).load(runs[0].run_id)
        assert record["meta"] == {"attempts": 2}

    def test_sigterm_mid_run_requeues_with_snapshot_refund(self, tmp_path):
        def entry(params):
            _suspend.request_suspend()  # as the signal handler would
            raise SuspendRequested("parked", snapshot_path="/tmp/x.snap")

        runs = _runs(2)
        WorkQueue(tmp_path).enqueue(runs)
        outcome = QueueWorker(tmp_path, entry=entry).drain()
        assert outcome.status == "suspended"
        assert outcome.exit_code == 4
        assert outcome.requeued == 1  # parked the in-flight run, left
        queue = WorkQueue(tmp_path)
        assert len(queue.iter_items()) == 2  # nothing lost
        parked = queue.read_item(runs[0].run_id)
        assert parked.deliveries == 0  # the delivery was refunded
        assert parked.extra["snapshot"] == "/tmp/x.snap"
        assert parked.extra["requeued"] == "sigterm"
        assert not queue.leases.path_for(runs[0].run_id).exists()

    def test_deadline_budget_quarantines_run(self, tmp_path):
        def entry(params):
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if _suspend.suspend_requested():
                    raise SuspendRequested("deadline")
                time.sleep(0.01)
            raise AssertionError("deadline monitor never fired")

        runs = _runs(1)
        WorkQueue(tmp_path).enqueue(runs)
        outcome = QueueWorker(
            tmp_path, entry=entry, config={"deadline_s": 0.3}
        ).drain()
        assert outcome.status == "drained"  # the queue keeps draining
        assert outcome.quarantined == 1
        queue = WorkQueue(tmp_path)
        assert queue.terminal_ids("quarantined") == [runs[0].run_id]
        assert "deadline budget" in (
            queue.read_terminal("quarantined", runs[0].run_id)["reason"]
        )

    def test_fenced_result_is_discarded_not_merged(self, tmp_path):
        """A worker whose lease was reclaimed mid-run must not commit."""
        state: dict[str, object] = {"calls": 0}

        def entry(params):
            state["calls"] += 1
            if state["calls"] > 1:
                # The redelivery after the fence: runs normally.
                return {"kind": "test", "delivery": state["calls"]}
            # Simulate a supervisor on another process reclaiming the
            # run while this worker computes: bump the token, drop the
            # lease, exactly as reclaim_stale does.
            from dataclasses import replace

            queue = state["queue"]
            run_id = state["run_id"]
            item = queue.read_item(run_id)
            queue.write_item(replace(item, token=item.token + 1))
            queue.leases.force_remove(run_id)
            # The heartbeat notices and requests a fenced suspend; wait
            # for it like the engine's event-boundary poll would.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if _suspend.suspend_requested():
                    raise SuspendRequested("fenced")
                time.sleep(0.01)
            raise AssertionError("heartbeat never noticed the reclaim")

        runs = _runs(1)
        WorkQueue(tmp_path).enqueue(runs)
        worker = QueueWorker(
            tmp_path, entry=entry, config={"heartbeat_s": 0.05}
        )
        state["queue"] = worker.queue
        state["run_id"] = runs[0].run_id
        outcome = worker.drain()
        assert outcome.fenced == 1
        assert outcome.completed == 1
        # Only the post-reclaim delivery committed: the fenced first
        # execution's result was discarded, not merged.
        record = ResultStore(tmp_path).load(runs[0].run_id)
        assert record["result"]["delivery"] == 2
        assert worker.queue.drained()

    def test_worker_reclaims_dead_holders_work(self, tmp_path):
        """A lease whose holder pid is dead is reclaimed immediately
        and the run redelivered to the live worker."""
        runs = _runs(1)
        queue = WorkQueue(tmp_path)
        queue.enqueue(runs)
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        assert queue.leases.claim(runs[0].run_id, 1, pid=proc.pid)
        from dataclasses import replace

        item = queue.read_item(runs[0].run_id)
        queue.write_item(replace(item, token=1, deliveries=1))

        clock = {"now": time.time()}
        outcome = QueueWorker(
            tmp_path,
            entry=_entry_ok,
            config={"retries": 0},
            clock=lambda: clock["now"],
            sleep=lambda s: clock.__setitem__("now", clock["now"] + s + 16),
        ).drain()
        assert outcome.completed == 1
        assert ResultStore(tmp_path).has(runs[0].run_id)

    def test_heartbeat_racing_completion_does_not_suspend(self, tmp_path):
        """A heartbeat landing between a run's commit and the end of its
        watch must not read the just-released lease as lost: every
        drain ends ``drained`` with its whole queue done."""
        runs = _runs(48)
        for index in range(4):
            store = tmp_path / f"s{index}"
            WorkQueue(store).enqueue(runs)
            outcome = QueueWorker(
                store, entry=_entry_ok, config={"heartbeat_s": 0.002}
            ).drain()
            assert (outcome.status, outcome.completed) == ("drained", 48)
            assert WorkQueue(store).drained()


class TestSiblingWorkers:
    def _leased_by_a_sibling(self, tmp_path):
        # Three items; a sibling (a live process: this one) holds the
        # first.
        runs = _runs(3)
        queue = WorkQueue(tmp_path)
        queue.enqueue(runs)
        item, token = queue.claim_next()
        return queue, item, token

    def test_sibling_answers_once_every_item_left_is_leased(self, tmp_path):
        queue, item, _ = self._leased_by_a_sibling(tmp_path)
        sleeps = []
        outcome = QueueWorker(
            tmp_path, entry=_entry_ok, siblings=True,
            clock=lambda: 1000.0, sleep=sleeps.append,
        ).drain()
        # It ran the two unleased items and left without waiting for
        # the sibling's.
        assert (outcome.status, outcome.completed) == ("drained", 2)
        assert sleeps == []
        assert queue.all_leased() and not queue.drained()
        assert [it.run_id for it in queue.iter_items()] == [item.run_id]

    def test_lone_worker_waits_for_the_leased_item(self, tmp_path):
        queue, item, token = self._leased_by_a_sibling(tmp_path)
        store = ResultStore(tmp_path)
        sleeps = []

        def sleep(seconds):
            # The holder commits while the worker waits.
            sleeps.append(seconds)
            store.save(item.run_id, {"run_id": item.run_id,
                                     "result": {"kind": "test"}})
            queue.complete(item.run_id, token)

        outcome = QueueWorker(
            tmp_path, entry=_entry_ok, clock=lambda: 1000.0, sleep=sleep,
        ).drain()
        assert (outcome.status, outcome.completed) == ("drained", 2)
        assert sleeps == [QueueWorker.IDLE_SLEEP_S]
        assert queue.drained()


class TestWorkerConfig:
    def test_store_config_overrides_defaults(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.write_config({"retries": 7, "deadline_s": 42.0})
        worker = QueueWorker(tmp_path, entry=_entry_ok)
        assert worker.config["retries"] == 7
        assert worker.config["deadline_s"] == 42.0
        assert worker.config["backoff"] == 0.5  # default survives

    def test_explicit_config_wins_over_store(self, tmp_path):
        WorkQueue(tmp_path).write_config({"retries": 7})
        worker = QueueWorker(tmp_path, entry=_entry_ok,
                             config={"retries": 1})
        assert worker.config["retries"] == 1
