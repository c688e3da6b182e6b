"""Tests for the campaign runner: caching, resume, retry, timeout,
worker-crash recovery, and serial/parallel result equality.

The entry functions live at module level so ProcessPoolExecutor can
pickle them into worker processes.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.campaign.progress import (
    CACHED,
    COMPLETED,
    FAILED,
    GUARD,
    QUARANTINED,
    RETRY,
    STARTED,
    SUSPENDED,
    JsonlProgressLog,
    ProgressTracker,
)
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import (
    CampaignSpec,
    RunSpec,
    simulate_params,
    trinity_workload,
)
from repro.campaign.store import ResultStore
from repro.errors import ConfigError


# ----------------------------------------------------------------------
# Picklable entry functions
# ----------------------------------------------------------------------
def double_entry(params):
    return {"value": params["value"] * 2}


def failing_entry(params):
    raise ValueError("always broken")


def flaky_entry(params):
    """Fails until its marker file exists (i.e. succeeds on retry)."""
    marker = Path(params["marker"])
    if marker.exists():
        return {"value": "recovered"}
    marker.touch()
    raise RuntimeError("first attempt fails")


def logging_entry(params):
    """Appends its name to a log file — counts real executions."""
    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write(params["name"] + "\n")
    return {"name": params["name"]}


def crash_once_entry(params):
    """Hard-kills its worker process on the first attempt."""
    marker = Path(params["marker"])
    if marker.exists():
        return {"value": "survived"}
    marker.touch()
    os._exit(13)


def crash_always_entry(params):
    os._exit(13)


def sleepy_entry(params):
    time.sleep(params["sleep_s"])
    return {"value": "slept"}


def stamped_entry(params):
    """Reports when its worker started it (a system-wide clock)."""
    started = time.monotonic()
    time.sleep(params["sleep_s"])
    return {"value": params["value"], "started": started}


class SlowSaveStore(ResultStore):
    """A store whose writes take a while; notes when each one returns."""

    def __init__(self, root, delay_s):
        super().__init__(root)
        self.delay_s = delay_s
        self.saved_at: list[float] = []

    def save(self, run_id, record):
        time.sleep(self.delay_s)
        stored = super().save(run_id, record)
        self.saved_at.append(time.monotonic())
        return stored


def watchdog_entry(params):
    from repro.errors import WatchdogError

    raise WatchdogError("wall-clock watchdog: synthetic trip",
                        kind="wall_clock")


def runs_of(values):
    return [RunSpec.from_params({"kind": "test", "value": v}) for v in values]


def executions(log_path):
    if not Path(log_path).exists():
        return []
    return Path(log_path).read_text().splitlines()


# ----------------------------------------------------------------------
class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            CampaignRunner(workers=0)
        with pytest.raises(ConfigError, match="retries"):
            CampaignRunner(retries=-1)
        with pytest.raises(ConfigError, match="timeout"):
            CampaignRunner(timeout=0)
        with pytest.raises(ConfigError, match="backoff"):
            CampaignRunner(backoff=-1.0)


class TestSerial:
    def test_runs_and_records(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, entry=double_entry)
        result = runner.run(runs_of([1, 2, 3]))
        assert result.ok
        assert result.completed == 3
        assert result.cached == 0
        assert [p["value"] for p in result.payloads()] == [2, 4, 6]
        assert len(store) == 3

    def test_memory_only_without_store(self):
        runner = CampaignRunner(entry=double_entry)
        result = runner.run(runs_of([5]))
        assert result.payloads() == [{"value": 10}]

    def test_caching_skips_completed_runs(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        runs = [
            RunSpec.from_params(
                {"kind": "test", "name": n, "log": str(tmp_path / "log")}
            )
            for n in ("a", "b", "c")
        ]
        runner = CampaignRunner(store=store, entry=logging_entry)
        first = runner.run(runs)
        assert first.completed == 3
        second = CampaignRunner(store=store, entry=logging_entry).run(runs)
        assert second.completed == 0
        assert second.cached == 3
        # The entry executed exactly once per run across both campaigns.
        assert sorted(executions(tmp_path / "log")) == ["a", "b", "c"]
        # Cached payloads match executed ones.
        assert second.payloads() == first.payloads()

    def test_resume_executes_only_missing_runs(self, tmp_path):
        """Simulates an interrupted campaign: one result file deleted,
        the re-run must execute exactly that run."""
        store = ResultStore(tmp_path / "s")
        log = tmp_path / "log"
        runs = [
            RunSpec.from_params(
                {"kind": "test", "name": n, "log": str(log)}
            )
            for n in ("a", "b", "c", "d")
        ]
        CampaignRunner(store=store, entry=logging_entry).run(runs)
        store.delete(runs[1].run_id)
        log.unlink()
        result = CampaignRunner(store=store, entry=logging_entry).run(runs)
        assert result.completed == 1
        assert result.cached == 3
        assert executions(log) == ["b"]

    def test_retry_recovers_and_counts_attempts(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run = RunSpec.from_params(
            {"kind": "test", "marker": str(tmp_path / "marker")}
        )
        events = []
        runner = CampaignRunner(
            store=store, entry=flaky_entry, retries=2, backoff=0.0,
            progress=events.append,
        )
        result = runner.run([run])
        assert result.ok
        record = store.load(run.run_id)
        assert record["meta"]["attempts"] == 2
        assert [e.kind for e in events] == [STARTED, RETRY, COMPLETED]

    def test_exhausted_attempts_fail_and_are_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        runner = CampaignRunner(
            store=store, entry=failing_entry, retries=1, backoff=0.0
        )
        result = runner.run(runs_of([1]))
        assert not result.ok
        assert result.failed == 1
        failure = result.failures[0]
        assert failure.attempts == 2
        assert "always broken" in failure.error
        # Failed runs leave no artifact: a re-run retries them.
        assert len(store) == 0

    def test_failure_does_not_stop_later_runs(self, tmp_path):
        runs = runs_of([1]) + [
            RunSpec.from_params({"kind": "test", "value": 2, "bad": True})
        ]

        def entry(params):
            if params.get("bad"):
                raise ValueError("nope")
            return {"value": params["value"]}

        result = CampaignRunner(entry=entry, retries=0).run(runs)
        assert result.completed == 1
        assert result.failed == 1
        assert result.payloads()[1] is None

    def test_backoff_schedule(self):
        sleeps = []
        runner = CampaignRunner(
            entry=failing_entry, retries=2, backoff=0.5,
            sleep=sleeps.append,
        )
        result = runner.run(runs_of([1]))
        assert not result.ok
        assert sleeps == [0.5, 1.0]


class TestParallel:
    def test_parallel_matches_serial_payloads(self):
        runs = runs_of(list(range(8)))
        serial = CampaignRunner(workers=1, entry=double_entry).run(runs)
        parallel = CampaignRunner(workers=3, entry=double_entry).run(runs)
        assert parallel.payloads() == serial.payloads()
        assert parallel.order == serial.order

    def test_parallel_retry_recovers(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        run = RunSpec.from_params(
            {"kind": "test", "marker": str(tmp_path / "marker")}
        )
        runner = CampaignRunner(
            store=store, workers=2, entry=flaky_entry, retries=2, backoff=0.0
        )
        result = runner.run([run])
        assert result.ok
        assert store.load(run.run_id)["meta"]["attempts"] == 2

    def test_worker_crash_recovers_with_retry(self, tmp_path):
        """A hard worker death (os._exit) breaks the pool; every
        in-flight run loses one attempt and the pool is rebuilt."""
        store = ResultStore(tmp_path / "s")
        crash = RunSpec.from_params(
            {"kind": "test", "marker": str(tmp_path / "crash-marker")}
        )
        others = [
            RunSpec.from_params(
                {"kind": "test",
                 "marker": str(tmp_path / f"ok-{i}")}  # pre-created: succeed
            )
            for i in range(3)
        ]
        for run in others:
            Path(run.params["marker"]).touch()
        runner = CampaignRunner(
            store=store, workers=2, entry=crash_once_entry,
            retries=1, backoff=0.0,
        )
        result = runner.run([crash] + others)
        assert result.ok
        assert result.completed == 4
        assert store.load(crash.run_id)["result"] == {"value": "survived"}
        assert store.load(crash.run_id)["meta"]["attempts"] == 2

    def test_worker_crash_exhausts_attempts(self, tmp_path):
        runner = CampaignRunner(
            workers=2, entry=crash_always_entry, retries=1, backoff=0.0,
            quarantine_after=None,
        )
        result = runner.run(runs_of([1]))
        assert not result.ok
        assert result.failures[0].attempts == 2
        assert "worker crashed" in result.failures[0].error

    def test_serial_watchdog_trips_quarantine(self, tmp_path):
        """The serial path quarantines a watchdog-tripping run too —
        after ``quarantine_after`` trips, with attempts remaining."""
        store = ResultStore(tmp_path / "s")
        poisoned = runs_of([1])[0]
        clean = runs_of([2])[0]
        runner = CampaignRunner(
            store=store, workers=1,
            entry=lambda p: watchdog_entry(p) if p["value"] == 1
            else double_entry(p),
            retries=9, backoff=0.0, quarantine_after=3,
        )
        result = runner.run([poisoned, clean])
        assert len(result.quarantined) == 1
        assert result.quarantined[0].incidents == 3
        assert not result.failures
        assert result.completed == 1
        assert not store.has(poisoned.run_id)

    def test_quarantine_disabled_falls_back_to_retry(self, tmp_path):
        runner = CampaignRunner(
            workers=1, entry=watchdog_entry, retries=1, backoff=0.0,
            quarantine_after=None,
        )
        result = runner.run(runs_of([1]))
        assert not result.quarantined
        assert result.failures[0].attempts == 2

    def test_bad_quarantine_after_rejected(self):
        with pytest.raises(ConfigError, match="quarantine_after"):
            CampaignRunner(quarantine_after=0)

    def test_worker_crash_quarantines_poison_run(self, tmp_path):
        """A run that keeps killing its worker is isolated after
        ``quarantine_after`` crashes, even with attempts remaining."""
        runner = CampaignRunner(
            workers=2, entry=crash_always_entry, retries=5, backoff=0.0,
            quarantine_after=2,
        )
        result = runner.run(runs_of([1]))
        assert not result.ok
        assert not result.failures
        assert len(result.quarantined) == 1
        poisoned = result.quarantined[0]
        assert poisoned.incidents == 2
        assert "worker crashed" in poisoned.error
        assert poisoned.bundle is None  # no bundle_dir configured

    def test_timeout_abandons_run_spares_the_rest(self, tmp_path):
        """One run exceeding the per-run budget fails with a timeout
        error; runs sharing the pool still complete."""
        store = ResultStore(tmp_path / "s")
        slow = RunSpec.from_params({"kind": "test", "sleep_s": 1.5})
        fast = [
            RunSpec.from_params({"kind": "test", "sleep_s": 0.01, "i": i})
            for i in range(3)
        ]
        runner = CampaignRunner(
            store=store, workers=2, entry=sleepy_entry,
            timeout=0.3, retries=0,
        )
        result = runner.run([slow] + fast)
        assert result.completed == 3
        assert result.failed == 1
        assert result.failures[0].run_id == slow.run_id
        assert "timed out" in result.failures[0].error
        # The timed-out run left no artifact.
        assert not store.has(slow.run_id)

    def test_pool_refills_before_the_parent_records_a_run(
        self, tmp_path, monkeypatch
    ):
        """A finished run's slow store write does not hold up the next
        run: the pool is topped up first, and still never holds more
        than `workers` runs."""
        import repro.campaign.runner as runner_mod

        real_wait = runner_mod.wait
        sizes = []

        def counting_wait(fs, **kwargs):
            sizes.append(len(fs))
            return real_wait(fs, **kwargs)

        monkeypatch.setattr(runner_mod, "wait", counting_wait)
        store = SlowSaveStore(tmp_path / "s", delay_s=0.2)
        runs = [
            RunSpec.from_params({"kind": "test", "value": v, "sleep_s": 0.05})
            for v in range(4)
        ]
        result = CampaignRunner(
            store=store, workers=2, entry=stamped_entry
        ).run(runs)
        assert result.ok and result.completed == 4
        third_started = result.results[runs[2].run_id]["result"]["started"]
        assert third_started < store.saved_at[0]
        assert max(sizes) == 2

    def test_parallel_caching(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        runs = runs_of(list(range(4)))
        CampaignRunner(store=store, workers=2, entry=double_entry).run(runs)
        again = CampaignRunner(
            store=store, workers=2, entry=double_entry
        ).run(runs)
        assert again.cached == 4
        assert again.completed == 0


class TestProgressEvents:
    def test_event_stream_counts(self):
        events = []
        runner = CampaignRunner(entry=double_entry, progress=events.append)
        runner.run(runs_of([1, 2]))
        kinds = [e.kind for e in events]
        assert kinds == [STARTED, COMPLETED, STARTED, COMPLETED]
        last = events[-1]
        assert last.done == last.total == 2
        assert last.completed == 2
        assert last.throughput_rps >= 0.0

    def test_cached_events(self, tmp_path):
        store = ResultStore(tmp_path)
        runs = runs_of([1])
        CampaignRunner(store=store, entry=double_entry).run(runs)
        events = []
        CampaignRunner(
            store=store, entry=double_entry, progress=events.append
        ).run(runs)
        assert [e.kind for e in events] == [CACHED]


def _asdict_form(event):
    """``as_dict`` built by ``dataclasses.asdict``, as it once was."""
    data = dataclasses.asdict(event)
    if event.eta_s != event.eta_s:
        data["eta_s"] = None
    if not data["quarantined"]:
        del data["quarantined"]
    if not data["suspended"]:
        del data["suspended"]
    return data


class TestProgressEventDict:
    def test_matches_asdict_for_every_kind(self, tmp_path):
        ticks = iter(range(100))
        log = JsonlProgressLog(tmp_path / "progress.jsonl")
        tracker = ProgressTracker(
            total=9, clock=lambda: float(next(ticks)), sink=log
        )
        tracker.emit(STARTED, "r1", label="first")  # NaN ETA
        tracker.emit(COMPLETED, "r1", label="first")
        tracker.emit(RETRY, "r2", attempt=2, error="worker died")
        tracker.emit(FAILED, "r2", attempt=3, error="always broken")
        tracker.emit(CACHED, "r3")
        tracker.emit(QUARANTINED, "r4", error="poison")
        tracker.emit(SUSPENDED, "r5")
        tracker.emit(GUARD, "", error="rss budget")
        events = tracker.events
        assert events[0].eta_s != events[0].eta_s
        assert events[-1].quarantined and events[-1].suspended
        for event in events:
            assert list(event.as_dict().items()) == list(
                _asdict_form(event).items()
            )
        lines = (tmp_path / "progress.jsonl").read_text().splitlines()
        assert lines == [
            json.dumps(_asdict_form(event), sort_keys=True)
            for event in events
        ]


class TestSerialParallelIdentity:
    """The headline guarantee: a real campaign executed with a process
    pool produces byte-identical result files to its serial twin."""

    def _spec(self):
        return CampaignSpec(
            name="identity",
            jobs=25,
            strategies=("easy_backfill", "shared_backfill"),
            seeds=(1, 2),
            cluster_sizes=(16,),
        )

    def test_store_files_identical(self, tmp_path):
        runs = self._spec().expand()
        store_a = ResultStore(tmp_path / "serial")
        store_b = ResultStore(tmp_path / "parallel")
        serial = CampaignRunner(store=store_a, workers=1).run(runs)
        parallel = CampaignRunner(store=store_b, workers=2).run(runs)
        assert serial.ok and parallel.ok
        assert store_a.completed_ids() == store_b.completed_ids()
        for rid in store_a.completed_ids():
            a = store_a.path_for(rid).read_bytes()
            b = store_b.path_for(rid).read_bytes()
            assert a == b, f"run {rid} differs between serial and parallel"

    def test_simulation_payloads_differ_across_strategies(self, tmp_path):
        """Sanity: the identity above is not vacuous — different runs
        really produce different results."""
        runs = self._spec().expand()
        store = ResultStore(tmp_path / "s")
        CampaignRunner(store=store, workers=2).run(runs)
        makespans = {
            store.load(r.run_id)["result"]["makespan_s"] for r in runs
        }
        assert len(makespans) > 1


class TestResilienceDeterminism:
    """Satellite guarantee of the resilience PR: seeded failure
    injection stays byte-identical between serial and parallel
    campaign execution."""

    def _runs(self):
        resilience = {
            "node_mtbf_hours": 150.0,
            "rack_mtbf_hours": 400.0,
            "checkpoint": "daly",
            "max_requeues": 2,
            "blacklist_failures": 2,
            "seed": 3,
        }
        runs = []
        for strategy in ("easy_backfill", "shared_backfill"):
            for seed in (1, 2):
                params = simulate_params(
                    strategy,
                    trinity_workload(jobs=30, nodes=16, seed=seed),
                    16,
                    config={"resilience": resilience},
                )
                runs.append(RunSpec.from_params(params))
        return runs

    def test_failure_campaign_serial_parallel_identical(self, tmp_path):
        runs = self._runs()
        store_a = ResultStore(tmp_path / "serial")
        store_b = ResultStore(tmp_path / "parallel")
        serial = CampaignRunner(store=store_a, workers=1).run(runs)
        parallel = CampaignRunner(store=store_b, workers=2).run(runs)
        assert serial.ok and parallel.ok
        assert store_a.completed_ids() == store_b.completed_ids()
        for rid in store_a.completed_ids():
            a = store_a.path_for(rid).read_bytes()
            b = store_b.path_for(rid).read_bytes()
            assert a == b, f"run {rid} differs between serial and parallel"
        # Not vacuous: failures actually fired in at least one run.
        blasted = [
            store_a.load(r.run_id)["result"].get("resilience", {})
            for r in runs
        ]
        assert any(block.get("failures", 0) > 0 for block in blasted)
