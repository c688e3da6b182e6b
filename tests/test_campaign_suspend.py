"""Tests for graceful campaign shutdown, resource guards, store
locking, and the ``repro resume`` command.

The flagship test SIGTERMs a live multi-worker campaign subprocess
(including a registry experiment) and asserts that ``repro resume``
completes it with result files byte-identical to an uninterrupted
baseline campaign.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.progress import RETRY, STARTED, ProgressTracker
from repro.campaign.runner import CampaignRunner, SuspendedRun
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, StoreLock
from repro.cli import EXIT_INTERRUPTED, EXIT_SUSPENDED, main
from repro.errors import ConfigError, SuspendRequested
from repro.snapshot import suspend
from repro.snapshot.guards import ResourceGuards


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    previous = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    suspend.reset()
    yield
    suspend.reset()
    for sig, handler in previous.items():
        signal.signal(sig, handler)


def runs_of(values):
    return [
        RunSpec.from_params({"kind": "test", "value": v}) for v in values
    ]


# Entry functions must be module-level so ProcessPoolExecutor can
# pickle them.
def double_entry(params):
    return {"doubled": params["value"] * 2}


def sleepy_entry(params):
    time.sleep(params["sleep_s"])
    return {"slept": params["sleep_s"]}


def zero_fails_entry(params):
    """Value 0 fails at once; every other value takes a little while."""
    if params["value"] == 0:
        raise ValueError("zero")
    time.sleep(0.05)
    return {"doubled": params["value"] * 2}


def suspending_entry(params):
    """Suspends on the first call (per marker file), succeeds after."""
    marker = Path(params["marker"])
    if not marker.exists():
        marker.touch()
        raise SuspendRequested(
            "synthetic suspend", snapshot_path=params.get("snap")
        )
    return {"resumed": True}


# ----------------------------------------------------------------------
# Serial shutdown semantics
# ----------------------------------------------------------------------
class TestSerialSuspend:
    def test_flag_set_before_dispatch_stops_cleanly(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(store=store, workers=1, entry=double_entry)
        suspend.request_suspend()
        outcome = runner.run(runs_of([1, 2, 3]))
        assert outcome.interrupted
        assert not outcome.ok
        assert outcome.results == {}
        assert not suspend.suspend_requested(), "flag consumed by shutdown"

    def test_entry_suspension_parks_the_run(self, tmp_path):
        marker = tmp_path / "marker"
        runs = [
            RunSpec.from_params(
                {"kind": "test", "marker": str(marker), "snap": "here.snap"}
            ),
            RunSpec.from_params({"kind": "test", "value": 9}),
        ]
        runner = CampaignRunner(workers=1, entry=suspending_entry)
        outcome = runner.run(runs)
        assert outcome.interrupted
        assert outcome.suspended == [
            SuspendedRun(runs[0].run_id, runs[0].label, "here.snap")
        ]
        # dispatch stopped: the second run never executed
        assert outcome.results == {}

    def test_rerun_after_suspension_completes(self, tmp_path):
        marker = tmp_path / "marker"
        store = ResultStore(tmp_path / "store")
        runs = [
            RunSpec.from_params({"kind": "test", "marker": str(marker)})
        ]
        first = CampaignRunner(
            store=store, workers=1, entry=suspending_entry
        ).run(runs)
        assert first.interrupted and len(first.suspended) == 1
        second = CampaignRunner(
            store=store, workers=1, entry=suspending_entry
        ).run(runs)
        assert second.ok
        assert second.payloads() == [{"resumed": True}]


# ----------------------------------------------------------------------
# Parallel shutdown and shed semantics
# ----------------------------------------------------------------------
class TestParallelSuspend:
    def test_graceful_shutdown_drains_inflight_and_leaves_queue(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            store=store,
            workers=2,
            entry=sleepy_entry,
            snapshot_dir=tmp_path / "snaps",  # arms the responsive wait
            kill=lambda pid, sig: None,  # don't actually signal workers
        )
        runs = [
            RunSpec.from_params({"kind": "test", "value": v, "sleep_s": 1.0})
            for v in range(4)
        ]
        timer = threading.Timer(0.3, suspend.request_suspend)
        timer.start()
        try:
            outcome = runner.run(runs)
        finally:
            timer.cancel()
        assert outcome.interrupted
        # The two in-flight runs finished within the grace window and
        # were recorded; the two queued runs were simply left behind.
        assert outcome.completed == 2
        assert len(store.completed_ids()) == 2
        assert outcome.suspended == []
        assert not suspend.suspend_requested()

        resumed = CampaignRunner(
            store=store, workers=2, entry=sleepy_entry
        ).run(runs)
        assert resumed.ok
        assert resumed.cached == 2 and resumed.completed == 2
        assert len(store.completed_ids()) == 4

    def test_shed_run_requeues_without_attempt_penalty(self, tmp_path):
        # A worker that raises SuspendRequested while the parent's
        # shutdown flag is clear models an RSS-guard shed: the run must
        # re-queue and succeed on resubmission, with no failure.
        marker = tmp_path / "shed-marker"
        events = []
        runner = CampaignRunner(
            workers=2,
            entry=suspending_entry,
            retries=0,  # a shed must not consume an attempt
            progress=events.append,
        )
        runs = [
            RunSpec.from_params({"kind": "test", "marker": str(marker)}),
            RunSpec.from_params({"kind": "test", "value": 5, "marker": str(tmp_path / "other")}),
        ]
        # Make the second run complete normally on its first call.
        (tmp_path / "other").touch()
        outcome = runner.run(runs)
        assert outcome.ok
        assert outcome.payloads()[0] == {"resumed": True}
        sheds = [e for e in events if e.kind == "retry" and "shed" in (e.error or "")]
        assert len(sheds) == 1

    def test_flag_raised_in_harvest_blocks_the_refill(self):
        """A shutdown requested while finished runs are harvested (here
        by the retry event of a failed run) submits nothing more."""
        events = []
        flag_at = []

        def sink(event):
            events.append(event)
            if event.kind == RETRY and not flag_at:
                flag_at.append(len(events))
                suspend.request_suspend()

        runner = CampaignRunner(
            workers=2, entry=zero_fails_entry, retries=1, backoff=0.0,
            progress=sink, kill=lambda pid, sig: None,
        )
        outcome = runner.run(runs_of(range(6)))
        assert outcome.interrupted
        assert flag_at, "the failed run was never harvested"
        started = {e.run_id for e in events[:flag_at[0]] if e.kind == STARTED}
        assert len(started) < 6, "the flag must land while runs are queued"
        assert STARTED not in [e.kind for e in events[flag_at[0]:]]
        assert set(outcome.results) <= started

    def test_suspend_during_harvest_starts_nothing_more(
        self, tmp_path, monkeypatch, capsys
    ):
        """A shutdown requested while the parent records a finished run
        (the pool already topped up) starts no queued run, parks or
        records what is in flight, and resumes byte-identically."""
        grid = [
            "campaign", "--jobs", "25", "--sizes", "16",
            "--seeds", "1", "2", "3", "4",
            "--strategies", "fcfs", "easy_backfill",
            "--workers", "2", "--quiet",
        ]
        baseline = tmp_path / "baseline"
        assert main([*grid, "--store", str(baseline)]) == 0
        store = tmp_path / "interrupted"
        log = tmp_path / "progress.jsonl"
        lines_at_flag = []
        save = ResultStore.save

        def save_then_suspend(self, run_id, record):
            stored = save(self, run_id, record)
            if not lines_at_flag:
                lines_at_flag.append(len(log.read_text().splitlines()))
                suspend.request_suspend()
            return stored

        with monkeypatch.context() as patch:
            patch.setattr(ResultStore, "save", save_then_suspend)
            code = main([*grid, "--store", str(store),
                         "--progress-log", str(log)])
        assert code == EXIT_SUSPENDED
        events = [json.loads(line) for line in log.read_text().splitlines()]
        before, after = events[:lines_at_flag[0]], events[lines_at_flag[0]:]
        assert [e["kind"] for e in before].count("started") < 8, (
            "the flag must land while runs are still queued"
        )
        assert "started" not in [e["kind"] for e in after]
        stored = [p for p in store.glob("*.json") if not p.name.startswith(".")]
        assert [e["kind"] for e in events].count("completed") == len(stored)
        err = capsys.readouterr().err
        assert (
            f"campaign suspended with {8 - len(stored)} runs outstanding"
            in err
        )
        assert not suspend.suspend_requested()

        assert main(["resume", str(store), "--quiet"]) == 0
        assert _store_fingerprint(store) == _store_fingerprint(baseline)


# ----------------------------------------------------------------------
# Resource-guard dispatch logic (white-box, fake probes)
# ----------------------------------------------------------------------
class TestGuardDispatch:
    def _tracker(self, events):
        return ProgressTracker(total=0, sink=events.append)

    def test_rss_trip_sigterms_offender_once(self):
        killed = []
        events = []
        runner = CampaignRunner(
            entry=double_entry,
            guards=ResourceGuards(
                rss_budget_mb=100.0,
                poll_interval_s=0.0,
                rss_probe=lambda pid: 500.0 if pid == 42 else 10.0,
            ),
            kill=lambda pid, sig: killed.append((pid, sig)),
        )
        tracker = self._tracker(events)
        paused = runner._dispatch_paused(tracker, [41, 42], False)
        assert paused is False  # rss trips never pause dispatch
        assert killed == [(42, signal.SIGTERM)]
        assert [e.kind for e in events] == ["guard"]
        # Second poll: the pid is already shed; no SIGTERM storm that
        # would escalate the worker into a hard KeyboardInterrupt.
        runner._dispatch_paused(tracker, [41, 42], False)
        assert killed == [(42, signal.SIGTERM)]

    def test_disk_trip_pauses_then_recovers(self, tmp_path):
        frees = iter([5.0, 5000.0])
        events = []
        runner = CampaignRunner(
            entry=double_entry,
            guards=ResourceGuards(
                disk_min_free_mb=100.0,
                watch_path=tmp_path,
                poll_interval_s=0.0,
                disk_probe=lambda path: next(frees),
            ),
        )
        tracker = self._tracker(events)
        assert runner._dispatch_paused(tracker, [], False) is True
        assert runner._dispatch_paused(tracker, [], True) is False
        messages = [e.error for e in events]
        assert any("disk low" in m for m in messages)
        assert any("recovered" in m for m in messages)

    def test_rate_limited_poll_keeps_previous_state(self, tmp_path):
        ticks = iter([0.0, 1.0])
        runner = CampaignRunner(
            entry=double_entry,
            guards=ResourceGuards(
                disk_min_free_mb=100.0,
                watch_path=tmp_path,
                poll_interval_s=60.0,
                clock=lambda: next(ticks),
                disk_probe=lambda path: 5.0,
            ),
        )
        tracker = self._tracker([])
        assert runner._dispatch_paused(tracker, [], False) is True
        # 1s later: rate-limited; the pause state must stick.
        assert runner._dispatch_paused(tracker, [], True) is True

    def test_no_guards_never_pauses(self):
        runner = CampaignRunner(entry=double_entry)
        assert runner._dispatch_paused(self._tracker([]), [1], True) is False


# ----------------------------------------------------------------------
# Store locking
# ----------------------------------------------------------------------
class TestStoreLock:
    def test_second_acquire_fails_with_holder_pid(self, tmp_path):
        first = StoreLock(tmp_path).acquire()
        try:
            with pytest.raises(ConfigError, match="locked by another campaign"):
                StoreLock(tmp_path).acquire()
            with pytest.raises(ConfigError, match=str(os.getpid())):
                StoreLock(tmp_path).acquire()
        finally:
            first.release()

    def test_release_allows_reacquire(self, tmp_path):
        lock = StoreLock(tmp_path).acquire()
        lock.release()
        with StoreLock(tmp_path) as again:
            assert again.held

    def test_acquire_is_idempotent_within_holder(self, tmp_path):
        lock = StoreLock(tmp_path).acquire()
        assert lock.acquire() is lock
        lock.release()

    def _dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def _flaky_flock(self, monkeypatch, failures):
        """First *failures* LOCK_EX|LOCK_NB calls fail, then delegate.

        Models a dead holder whose forked pool workers briefly keep
        the shared open-file description (and thus the flock) alive.
        """
        import fcntl as fcntl_mod

        import repro.campaign.store as store_mod

        real = fcntl_mod.flock
        state = {"left": failures}

        def flock(fd, op):
            if op == (fcntl_mod.LOCK_EX | fcntl_mod.LOCK_NB) and state["left"]:
                state["left"] -= 1
                raise OSError(11, "Resource temporarily unavailable")
            return real(fd, op)

        monkeypatch.setattr(store_mod.fcntl, "flock", flock)
        monkeypatch.setattr(store_mod, "STALE_LOCK_POLL_S", 0.001)
        return state

    def test_stale_lock_from_dead_holder_is_reclaimed(
        self, tmp_path, monkeypatch, caplog
    ):
        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        self._flaky_flock(monkeypatch, failures=3)
        with caplog.at_level("WARNING", logger="repro.campaign.store"):
            lock = StoreLock(tmp_path).acquire()
        assert lock.held
        lock.release()
        assert any(
            "reclaiming stale lock" in rec.message for rec in caplog.records
        )

    def test_dead_holder_that_never_unlocks_times_out(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.store as store_mod

        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        self._flaky_flock(monkeypatch, failures=10_000)
        monkeypatch.setattr(store_mod, "STALE_LOCK_GRACE_S", 0.05)
        with pytest.raises(ConfigError, match="locked by another campaign"):
            StoreLock(tmp_path).acquire()

    def test_live_holder_fails_fast_without_polling(
        self, tmp_path, monkeypatch
    ):
        # Our own (live) pid as holder: no grace period, no sleeps.
        (tmp_path / ".lock").write_text(f"{os.getpid()}\n")
        self._flaky_flock(monkeypatch, failures=10_000)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(ConfigError, match=str(os.getpid())):
            StoreLock(tmp_path).acquire()
        assert sleeps == []

    def test_pidfile_fallback_reclaims_dead_holder(self, tmp_path):
        lock = StoreLock(tmp_path)
        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        assert lock._acquire_pidfile() is lock
        assert lock.held
        lock.release()
        assert not (tmp_path / ".lock").exists()

    def test_pidfile_fallback_fails_fast_on_live_holder(self, tmp_path):
        (tmp_path / ".lock").write_text(f"{os.getpid()}\n")
        with pytest.raises(ConfigError, match="locked by another campaign"):
            StoreLock(tmp_path)._acquire_pidfile()

    def test_runner_fails_fast_on_locked_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        holder = store.lock().acquire()
        try:
            runner = CampaignRunner(store=store, workers=1, entry=double_entry)
            with pytest.raises(ConfigError, match="locked"):
                runner.run(runs_of([1]))
        finally:
            holder.release()

    def test_runner_releases_lock_after_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignRunner(store=store, workers=1, entry=double_entry).run(
            runs_of([1])
        )
        with store.lock() as lock:
            assert lock.held

    # -- host identity -------------------------------------------------
    def test_lock_records_pid_and_host(self, tmp_path):
        from repro.campaign.lease import local_host

        with StoreLock(tmp_path):
            parts = (tmp_path / ".lock").read_text("ascii").split()
            assert parts == [str(os.getpid()), local_host()]

    def test_foreign_host_record_is_never_probed_as_local(
        self, tmp_path, monkeypatch
    ):
        # A recycled pid on ANOTHER host must not be treated as a live
        # local holder: under flock, the holder error keeps the host;
        # the pid probe only ever applies to local records.
        self._flaky_flock(monkeypatch, failures=10_000)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        # Our own pid, which IS alive here — but recorded on elsewhere.
        (tmp_path / ".lock").write_text(f"{os.getpid()} elsewhere\n")
        with pytest.raises(ConfigError, match="elsewhere"):
            StoreLock(tmp_path).acquire()
        assert sleeps == []  # no dead-holder grace poll for foreign pids

    def test_pidfile_fallback_reclaims_foreign_host_record(
        self, tmp_path, caplog
    ):
        # Without flock there is no kernel lease, so a foreign-host
        # record is stale by definition — even when its pid happens to
        # be alive locally (pid recycling across hosts).
        (tmp_path / ".lock").write_text(f"{os.getpid()} elsewhere\n")
        with caplog.at_level("WARNING", logger="repro.campaign.store"):
            lock = StoreLock(tmp_path)._acquire_pidfile()
        assert lock.held
        lock.release()
        assert any(
            "lives on 'elsewhere', not here" in rec.message
            for rec in caplog.records
        )

    def test_pidfile_fallback_respects_local_live_holder(self, tmp_path):
        from repro.campaign.lease import local_host

        (tmp_path / ".lock").write_text(f"{os.getpid()} {local_host()}\n")
        with pytest.raises(ConfigError, match="locked by another campaign"):
            StoreLock(tmp_path)._acquire_pidfile()

    def test_pidfile_fallback_shared_mode_is_cooperative(self, tmp_path):
        # Shared claims (queue workers) degrade to unlocked in the
        # pidfile fallback; the per-run lease files still fence.
        lock = StoreLock(tmp_path, shared=True)._acquire_pidfile()
        assert not (tmp_path / ".lock").exists()
        lock.release()

    def test_shared_holders_coexist_and_block_exclusive(self, tmp_path):
        a = StoreLock(tmp_path, shared=True).acquire()
        b = StoreLock(tmp_path, shared=True).acquire()
        try:
            with pytest.raises(ConfigError, match="locked"):
                StoreLock(tmp_path).acquire()
        finally:
            a.release()
            b.release()

    def test_exclusive_holder_blocks_shared(self, tmp_path):
        with StoreLock(tmp_path):
            with pytest.raises(ConfigError, match=str(os.getpid())):
                StoreLock(tmp_path, shared=True).acquire()


# ----------------------------------------------------------------------
# Manifest read/write
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.write_manifest("x", {}, {})
        assert store.read_manifest()["name"] == "x"
        # hidden: not mistaken for a result record
        assert store.completed_ids() == set()

    def test_missing_manifest_is_config_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigError, match="no campaign manifest"):
            store.read_manifest()

    def test_corrupt_manifest_is_config_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        (store.root / ".campaign.json").write_text("{not json")
        with pytest.raises(ConfigError, match="unreadable"):
            store.read_manifest()


# ----------------------------------------------------------------------
# CLI: resume command and exit codes
# ----------------------------------------------------------------------
SMALL = [
    "--jobs", "25", "--sizes", "16", "--seeds", "1",
    "--strategies", "fcfs", "easy_backfill",
]


class TestResumeCommand:
    def test_resume_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["command"] == "resume"
        assert "no such store" in doc["message"]

    def test_resume_store_without_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "store").mkdir()
        assert main(["resume", str(tmp_path / "store")]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "ConfigError"
        assert "manifest" in doc["message"]

    def test_resume_corrupt_manifest_is_structured_error(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / ".campaign.json").write_text("{not json", encoding="utf-8")
        assert main(["resume", str(store)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["command"] == "resume"
        assert doc["error"] == "ConfigError"

    def test_resume_non_object_manifest_is_structured_error(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / ".campaign.json").write_text("[1, 2]", encoding="utf-8")
        assert main(["resume", str(store)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "ConfigError"
        assert "JSON object" in doc["message"]

    def test_resume_completed_campaign_is_all_cached(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["campaign", *SMALL, "--workers", "1", "--store", store, "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["resume", store, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "resuming campaign" in captured.err
        assert "0 executed, 2 cached" in captured.out

    def test_resume_executes_missing_runs(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(
            ["campaign", *SMALL, "--workers", "1",
             "--store", str(store_dir), "--quiet"]
        ) == 0
        # Simulate an interrupted campaign: drop one result record.
        victim = sorted(
            p for p in store_dir.glob("*.json") if not p.name.startswith(".")
        )[0]
        victim.unlink()
        capsys.readouterr()
        assert main(["resume", str(store_dir), "--quiet"]) == 0
        assert "1 executed, 1 cached" in capsys.readouterr().out


class TestExitCodes:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_matrix", interrupted)
        assert cli.main(["matrix"]) == EXIT_INTERRUPTED == 130
        assert "interrupted" in capsys.readouterr().err

    def test_exit_code_constants_documented(self):
        import repro.cli as cli

        assert EXIT_SUSPENDED == 4
        # The module docstring is the single authority for the table.
        for code in ("0", "1", "2", "3", "4", "130"):
            assert code in cli.__doc__


# ----------------------------------------------------------------------
# Full-stack integration: SIGTERM a live campaign, resume it, and
# demand byte-identical results (includes registry experiment e8).
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parents[1]

CAMPAIGN_ARGS = [
    "--jobs", "700", "--sizes", "64", "--seeds", "1", "2",
    "--strategies", "easy_backfill", "shared_backfill",
    "--experiments", "e8",
    "--workers", "2", "--quiet", "--name", "suspendit",
]


def _store_fingerprint(store: Path) -> dict[str, bytes]:
    files = {
        p.name: p.read_bytes()
        for p in store.glob("*.json")
        if not p.name.startswith(".")
    }
    files["results.jsonl"] = (store / "results.jsonl").read_bytes()
    return files


class TestSuspendResumeIntegration:
    def _run_cli(self, *args, timeout=180):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=timeout,
            cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": "src"},
        )

    def test_sigterm_then_resume_is_byte_identical(self, tmp_path):
        baseline_store = tmp_path / "baseline"
        proc = self._run_cli(
            "campaign", *CAMPAIGN_ARGS, "--store", str(baseline_store)
        )
        assert proc.returncode == 0, proc.stderr

        interrupted_store = tmp_path / "interrupted"
        progress_log = tmp_path / "progress.jsonl"
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", *CAMPAIGN_ARGS,
             "--store", str(interrupted_store),
             "--progress-log", str(progress_log)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": "src"},
        )
        # Don't SIGTERM before the campaign's handlers are installed,
        # and let real work happen first: signal as soon as the first
        # run has completed, while the rest are still in flight.  (A
        # fixed sleep races the whole grid, which finishes in ~1 s.)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if (progress_log.exists()
                    and '"kind": "completed"' in progress_log.read_text()):
                break
            time.sleep(0.02)
        else:
            pytest.fail("campaign never completed a run")
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=120)
        assert child.returncode == EXIT_SUSPENDED, (out, err)
        assert "campaign suspended" in err
        assert "repro resume" in err

        done_before = len(
            [p for p in interrupted_store.glob("*.json")
             if not p.name.startswith(".")]
        )
        assert done_before < 5, "SIGTERM landed after the campaign finished"

        proc = self._run_cli("resume", str(interrupted_store), "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert "resuming campaign 'suspendit'" in proc.stderr

        assert _store_fingerprint(interrupted_store) == _store_fingerprint(
            baseline_store
        )
        # Completed stores keep no snapshots behind.
        snaps = list((interrupted_store / "snapshots").glob("*.snap"))
        assert snaps == []
