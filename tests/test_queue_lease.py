"""Lease files and fencing tokens (`repro.campaign.lease` + the
claim/reclaim protocol of `repro.campaign.queue`).

The hypothesis state machine at the bottom is the load-bearing test:
arbitrary interleavings of claim / heartbeat / expiry / crash /
reclaim must never leave two holders whose fencing tokens would both
pass the durable-write fence.
"""

from __future__ import annotations

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.lease import (
    DEFAULT_TTL_S,
    HeartbeatKeeper,
    Lease,
    LeaseDir,
    LeaseLost,
    local_host,
    pid_alive,
)
from repro.campaign.queue import WorkQueue
from repro.campaign.spec import RunSpec


def _run(tag: str) -> RunSpec:
    return RunSpec.from_params({"kind": "experiment", "experiment": tag})


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert pid_alive(os.getpid())

    def test_nonpositive_pids_are_dead(self):
        assert not pid_alive(0)
        assert not pid_alive(-1)

    def test_reaped_child_is_dead(self):
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        assert not pid_alive(proc.pid)


class TestLeaseDir:
    def test_claim_wins_once(self, tmp_path):
        leases = LeaseDir(tmp_path)
        assert leases.claim("run-a", 1)
        assert not leases.claim("run-a", 2)
        assert leases.claim("run-b", 1)

    def test_read_roundtrip(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 7, pid=1234, host="elsewhere")
        lease = leases.read("run-a")
        assert lease == Lease(
            run_id="run-a",
            pid=1234,
            host="elsewhere",
            token=7,
            heartbeat=lease.heartbeat,
        )

    def test_read_missing_is_none(self, tmp_path):
        assert LeaseDir(tmp_path).read("ghost") is None

    def test_read_empty_file_decodes_to_placeholder(self, tmp_path):
        # A holder killed inside the O_EXCL create leaves zero bytes.
        leases = LeaseDir(tmp_path)
        leases.path_for("run-a").touch()
        lease = leases.read("run-a")
        assert lease is not None
        assert lease.pid == 0
        assert lease.token == -1

    def test_renew_bumps_heartbeat(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1)
        path = leases.path_for("run-a")
        past = time.time() - 60.0
        os.utime(path, (past, past))
        leases.renew("run-a")
        assert leases.read("run-a").age(time.time()) < 5.0

    def test_renew_of_missing_lease_raises(self, tmp_path):
        with pytest.raises(LeaseLost):
            LeaseDir(tmp_path).renew("run-a")

    def test_renew_of_stolen_lease_raises(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1, pid=999999, host="elsewhere")
        with pytest.raises(LeaseLost):
            leases.renew("run-a")

    def test_release_only_removes_own_lease(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1, pid=999999, host="elsewhere")
        assert not leases.release("run-a")
        assert leases.path_for("run-a").exists()
        assert leases.release("run-a", pid=999999, host="elsewhere")
        assert not leases.path_for("run-a").exists()

    def test_rewrite_restamps_token(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1)
        leases.rewrite("run-a", 5)
        assert leases.read("run-a").token == 5

    def test_failed_rewrite_keeps_old_lease_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1)
        before = leases.path_for("run-a").read_bytes()

        def failing_fsync(fd):
            raise OSError("simulated fsync failure")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="simulated fsync"):
            leases.rewrite("run-a", 5)
        monkeypatch.undo()
        assert leases.path_for("run-a").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run-a.lease"]

    def test_list_is_sorted(self, tmp_path):
        leases = LeaseDir(tmp_path)
        for run_id in ("zz", "aa", "mm"):
            leases.claim(run_id, 1)
        assert list(leases.list()) == ["aa", "mm", "zz"]

    def test_dead_local_holder_is_stale_immediately(self, tmp_path):
        clock = {"now": 1000.0}
        leases = LeaseDir(
            tmp_path,
            ttl_s=10.0,
            clock=lambda: clock["now"],
            alive=lambda pid, host: False,
        )
        lease = Lease("run-a", pid=1, host=local_host(), token=1,
                      heartbeat=clock["now"])
        assert leases.is_stale(lease)

    def test_live_holder_goes_stale_only_past_ttl(self, tmp_path):
        clock = {"now": 1000.0}
        leases = LeaseDir(
            tmp_path,
            ttl_s=10.0,
            clock=lambda: clock["now"],
            alive=lambda pid, host: True,
        )
        lease = Lease("run-a", pid=1, host=local_host(), token=1,
                      heartbeat=1000.0)
        assert not leases.is_stale(lease)
        clock["now"] = 1009.0
        assert not leases.is_stale(lease)
        clock["now"] = 1011.0
        assert leases.is_stale(lease)

    def test_foreign_holder_uses_ttl_not_pid_probe(self, tmp_path):
        # A pid on another host is unknowable: even a locally-dead pid
        # number must wait out the TTL.
        clock = {"now": 1000.0}
        leases = LeaseDir(
            tmp_path, ttl_s=10.0, clock=lambda: clock["now"]
        )
        lease = Lease("run-a", pid=999999999, host="elsewhere", token=1,
                      heartbeat=1000.0)
        assert not leases.is_stale(lease)
        clock["now"] = 1011.0
        assert leases.is_stale(lease)

    def test_unreadable_lease_ages_out_via_ttl(self, tmp_path):
        clock = {"now": 1000.0}
        leases = LeaseDir(tmp_path, ttl_s=10.0, clock=lambda: clock["now"])
        leases.path_for("run-a").touch()
        lease = leases.read("run-a")
        assert not leases.is_stale(lease, now=lease.heartbeat + 1.0)
        assert leases.is_stale(lease, now=lease.heartbeat + 11.0)

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseDir(tmp_path, ttl_s=0.0)


class TestHeartbeatKeeper:
    def test_keeper_renews_watched_lease(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1)
        path = leases.path_for("run-a")
        past = time.time() - 60.0
        os.utime(path, (past, past))
        keeper = HeartbeatKeeper(leases, interval_s=0.02)
        keeper.watch("run-a")
        keeper.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if path.stat().st_mtime > past + 1.0:
                    break
                time.sleep(0.02)
            assert path.stat().st_mtime > past + 1.0
        finally:
            keeper.stop()

    def test_keeper_reports_lost_lease(self, tmp_path):
        leases = LeaseDir(tmp_path)
        leases.claim("run-a", 1)
        lost = threading.Event()
        keeper = HeartbeatKeeper(
            leases, interval_s=0.02, on_lost=lambda run_id: lost.set()
        )
        keeper.watch("run-a")
        keeper.start()
        try:
            leases.force_remove("run-a")
            assert lost.wait(timeout=5.0)
        finally:
            keeper.stop()

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatKeeper(LeaseDir(tmp_path), interval_s=0.0)


# ----------------------------------------------------------------------
# The fencing property
# ----------------------------------------------------------------------
class _Actor:
    """One simulated worker process with its own fake pid."""

    def __init__(self, queue: WorkQueue, pid: int) -> None:
        self.queue = queue
        self.pid = pid
        self.host = local_host()
        self.token: int | None = None  # the claim this actor believes in

    def try_claim(self, run_id: str) -> None:
        """The claim protocol of ``WorkQueue.claim_next``, with this
        actor's identity on the lease."""
        from dataclasses import replace

        item = self.queue.read_item(run_id)
        if item is None or self.token is not None:
            return
        if not self.queue.leases.claim(
            run_id, item.token + 1, pid=self.pid, host=self.host
        ):
            return
        fresh = self.queue.read_item(run_id)
        token = fresh.token + 1
        self.queue.write_item(
            replace(fresh, token=token, deliveries=fresh.deliveries + 1)
        )
        if token != item.token + 1:
            self.queue.leases.rewrite(
                run_id, token, pid=self.pid, host=self.host
            )
        self.token = token

    def try_renew(self, run_id: str) -> None:
        if self.token is None:
            return
        try:
            self.queue.leases.renew(run_id, pid=self.pid, host=self.host)
        except LeaseLost:
            self.token = None  # fenced: abandon the claim

    def holds_valid_claim(self, run_id: str) -> bool:
        """Would this actor's durable write pass the fence right now?"""
        if self.token is None:
            return False
        return self.queue.fence_ok(run_id, self.token)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("claim"), st.integers(0, 2)),
            st.tuples(st.just("renew"), st.integers(0, 2)),
            st.tuples(st.just("kill"), st.integers(0, 2)),
            st.tuples(st.just("advance"), st.integers(1, 8)),
            st.tuples(st.just("reclaim"), st.just(0)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fencing_never_admits_two_writers(tmp_path_factory, ops):
    """At most one valid fencing token per run at every step, under
    arbitrary claim/renew/expire/crash/reclaim interleavings, and
    issued tokens are strictly increasing (a reclaimed holder can
    never collide with its successor)."""
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        # Lease heartbeats are real file mtimes, so the fake clock must
        # start at wall time for "advance" to age them.
        clock = {"now": time.time()}
        dead: set[int] = set()

        def alive(pid: int, host: str):
            return pid not in dead

        queue = WorkQueue(
            root, ttl_s=10.0, clock=lambda: clock["now"], alive=alive
        )
        run = _run("fencing")
        queue.enqueue([run])
        actors = [_Actor(queue, pid=10_000 + i) for i in range(3)]
        for actor in actors:
            # The shared queue staleness probe must see the fake pids.
            actor.queue = queue
        issued: list[int] = []

        for op, arg in ops:
            if op == "claim":
                actor = actors[arg]
                if actor.pid in dead:
                    continue  # dead processes do not claim
                before = actor.token
                actor.try_claim(run.run_id)
                if actor.token is not None and actor.token != before:
                    issued.append(actor.token)
            elif op == "renew":
                if actors[arg].pid not in dead:
                    actors[arg].try_renew(run.run_id)
            elif op == "kill":
                dead.add(actors[arg].pid)
            elif op == "advance":
                clock["now"] += float(arg)
            elif op == "reclaim":
                queue.reclaim_stale()

            valid = [
                a for a in actors if a.holds_valid_claim(run.run_id)
            ]
            assert len(valid) <= 1, (
                f"two writers hold valid tokens: "
                f"{[(a.pid, a.token) for a in valid]}"
            )
            # A dead actor's claim must never be the valid one once a
            # reclaim pass has run and anyone else claimed afterwards:
            # that is implied by uniqueness + strict token growth.
            assert issued == sorted(set(issued)), (
                f"issued tokens not strictly increasing: {issued}"
            )


def test_reclaim_supersedes_zombie_writer(tmp_path):
    """The reclaim ordering: token bump *before* lease removal, so the
    old holder is superseded before anyone can re-claim."""
    clock = {"now": time.time()}
    queue = WorkQueue(
        tmp_path,
        ttl_s=10.0,
        clock=lambda: clock["now"],
        alive=lambda pid, host: True,  # holder stays "alive": pure TTL
    )
    run = _run("zombie")
    queue.enqueue([run])
    claimed = queue.claim_next()
    assert claimed is not None
    item, token = claimed
    assert queue.fence_ok(run.run_id, token)

    # The holder "crashes" (its real pid stays alive; age it out).
    clock["now"] += DEFAULT_TTL_S + 60.0
    reclaimed = queue.reclaim_stale()
    assert reclaimed == [run.run_id]
    # Zombie's late write is rejected at the fence...
    assert not queue.fence_ok(run.run_id, token)
    # ...and its attempt to retire the item is a no-op.
    queue.complete(run.run_id, token)
    assert queue.read_item(run.run_id) is not None
    # The redelivery carries backoff and the bumped token.
    bumped = queue.read_item(run.run_id)
    assert bumped.token == token + 1
    assert bumped.not_before > clock["now"]
