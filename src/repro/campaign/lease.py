"""Per-run lease files: exclusive claims with heartbeats and fencing.

A *lease* is the unit of mutual exclusion in the durable work queue
(:mod:`repro.campaign.queue`): one file per claimed run under
``<store>/.queue/leases/``, created with ``O_EXCL`` so exactly one
process wins a claim race.  The file content — holder pid, holder
hostname, and the run's **fencing token** — is written exactly once,
at claim time.  Heartbeats do *not* rewrite the content: renewal is a
bare ``os.utime`` on the path, which is atomic, cheap, and — the
property that matters — raises :class:`FileNotFoundError` the instant
a supervisor has reclaimed the lease out from under a stalled holder.
A content-rewriting heartbeat (write temp + ``os.replace``) could
*resurrect* a reclaimed lease by racing the successor's ``O_EXCL``
create; a utime on a deleted path cannot.

Staleness is therefore judged from ``stat().st_mtime``:

* holder pid provably dead on *this* host → stale immediately;
* holder alive, on another host, or unknowable → stale only once the
  heartbeat age exceeds the TTL;
* unreadable/empty lease file (the holder was killed inside the
  ``O_EXCL`` create, before the content write) → no pid to probe, so
  it ages out via the TTL like any silent holder.

The fencing token carried in the lease is validated against the
queue item's current token at every durable-write boundary; see
:mod:`repro.campaign.queue` for the reclaim protocol that bumps it.

Clock and pid-liveness probes are injectable throughout so the
hypothesis property test in ``tests/test_queue_lease.py`` can drive
claim/renew/expire/reclaim interleavings without wall-clock sleeps.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.faultinject import failpoint
from repro.storage.durable import append_durable, write_atomic

#: Heartbeat period: how often a holder refreshes its lease mtime.
DEFAULT_HEARTBEAT_S = 0.5

#: Staleness TTL: a lease whose mtime is older than this is
#: reclaimable even when the holder's liveness cannot be probed.
#: Must comfortably exceed the heartbeat period so one missed beat
#: (GC pause, scheduler hiccup) never forfeits a healthy lease.
DEFAULT_TTL_S = 10.0

#: Suffix of lease files under ``<store>/.queue/leases/``.
LEASE_SUFFIX = ".lease"


def local_host() -> str:
    """This machine's name as recorded in leases and lock files."""
    return socket.gethostname()


def pid_alive(pid: int) -> bool:
    """Best-effort liveness of a local pid (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


@dataclass(frozen=True)
class Lease:
    """Decoded lease file plus its heartbeat timestamp."""

    run_id: str
    pid: int
    host: str
    token: int
    heartbeat: float  # mtime of the lease file (epoch seconds)

    def age(self, now: float) -> float:
        return max(0.0, now - self.heartbeat)


class LeaseLost(RuntimeError):
    """The holder's lease vanished or changed hands (it was reclaimed
    by a supervisor, or the run was fenced).  Holders must abandon the
    run immediately; the queue has already arranged redelivery."""


class LeaseDir:
    """The ``leases/`` directory: claim, renew, release, inspect.

    All methods are crash-safe in the sense the chaos sweep demands:
    a hard kill at any point leaves either no lease file, a complete
    lease file, or an empty one — and every one of those states is
    recovered by the supervisor pass without human intervention.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        ttl_s: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.time,
        alive: Callable[[int, str], bool | None] | None = None,
    ) -> None:
        self.root = Path(root)
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self._alive = alive if alive is not None else self._default_alive
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _default_alive(pid: int, host: str) -> bool | None:
        """``False`` = provably dead, ``True`` = provably alive,
        ``None`` = unknowable (the holder lives on another host)."""
        if host and host != local_host():
            return None
        return pid_alive(pid)

    def path_for(self, run_id: str) -> Path:
        return self.root / f"{run_id}{LEASE_SUFFIX}"

    # ------------------------------------------------------------------
    def claim(self, run_id: str, token: int, *, pid: int | None = None,
              host: str | None = None) -> bool:
        """Try to claim *run_id*; return True on success.

        Creates the lease file with ``O_EXCL`` and writes the holder
        identity and fencing token in one pass.  A concurrent claimant
        loses the create race and gets ``False``.  The write itself is
        guarded by the ``queue.lease.create`` failpoint — a kill there
        leaves an empty lease file, which ages out via the TTL.
        """
        path = self.path_for(run_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            with os.fdopen(fd, "wb") as handle:
                append_durable(
                    handle,
                    self._encode(run_id, token, pid=pid, host=host),
                    "queue.lease.create",
                )
        except OSError:
            # Claim is ours but the content write failed; release the
            # slot rather than squatting on an unreadable lease.
            path.unlink(missing_ok=True)
            raise
        return True

    def rewrite(self, run_id: str, token: int, *, pid: int | None = None,
                host: str | None = None) -> None:
        """Replace the content of a lease we already hold.

        Used once per claim, immediately after the claimant bumped the
        item's fencing token: the O_EXCL create recorded a provisional
        token, this stamps the authoritative one.  Safe (unlike a
        heartbeat rewrite) because the lease is seconds old — far
        inside the TTL — so no supervisor can have reclaimed it.
        """
        write_atomic(
            self.path_for(run_id),
            self._encode(run_id, token, pid=pid, host=host),
            write_fp=None,
        )

    def _encode(self, run_id: str, token: int, *, pid: int | None,
                host: str | None) -> bytes:
        pid = os.getpid() if pid is None else pid
        host = local_host() if host is None else host
        return f"{run_id} {pid} {host} {token}\n".encode("utf-8")

    # ------------------------------------------------------------------
    def read(self, run_id: str) -> Lease | None:
        """Decode a lease file; ``None`` when absent or unreadable.

        An empty or malformed file (holder killed mid-create) decodes
        to a pid-0 placeholder so callers still see the heartbeat age.
        """
        path = self.path_for(run_id)
        try:
            stat = path.stat()
            raw = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return None
        parts = raw.split()
        if len(parts) >= 4:
            try:
                return Lease(
                    run_id=parts[0],
                    pid=int(parts[1]),
                    host=parts[2],
                    token=int(parts[3]),
                    heartbeat=stat.st_mtime,
                )
            except ValueError:
                pass
        return Lease(
            run_id=run_id, pid=0, host="", token=-1, heartbeat=stat.st_mtime
        )

    def list(self) -> Iterator[str]:
        """run_ids of existing leases, sorted for determinism."""
        for path in sorted(self.root.glob(f"*{LEASE_SUFFIX}")):
            yield path.name[: -len(LEASE_SUFFIX)]

    # ------------------------------------------------------------------
    def renew(self, run_id: str, *, pid: int | None = None,
              host: str | None = None) -> None:
        """Heartbeat: bump the lease mtime, verifying it is still ours.

        Raises :class:`LeaseLost` when the lease has vanished (it was
        reclaimed) or names a different holder (it was reclaimed *and*
        re-claimed).  The mtime bump is ``os.utime`` on the path — it
        can never resurrect a deleted lease.
        """
        pid = os.getpid() if pid is None else pid
        host = local_host() if host is None else host
        lease = self.read(run_id)
        if lease is None or lease.pid != pid or lease.host != host:
            raise LeaseLost(
                f"lease for run {run_id} is no longer held by "
                f"{pid}@{host}: "
                + ("gone" if lease is None else f"held by {lease.pid}@{lease.host}")
            )
        failpoint("queue.lease.renew")
        try:
            os.utime(self.path_for(run_id))
        except FileNotFoundError:
            raise LeaseLost(
                f"lease for run {run_id} was reclaimed mid-heartbeat"
            ) from None

    def release(self, run_id: str, *, pid: int | None = None,
                host: str | None = None) -> bool:
        """Remove our lease; True if we removed it, False if it was
        already gone or no longer ours (both fine at release time —
        the supervisor got there first)."""
        pid = os.getpid() if pid is None else pid
        host = local_host() if host is None else host
        lease = self.read(run_id)
        if lease is None or lease.pid != pid or lease.host != host:
            return False
        failpoint("queue.lease.release")
        try:
            self.path_for(run_id).unlink()
        except FileNotFoundError:
            return False
        return True

    def force_remove(self, run_id: str) -> None:
        """Supervisor-side unconditional removal (after a token bump)."""
        self.path_for(run_id).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def is_stale(self, lease: Lease, now: float | None = None) -> bool:
        """Reclaimable?  Dead-on-this-host → yes; else TTL expiry."""
        now = self._clock() if now is None else now
        if lease.pid > 0:
            verdict = self._alive(lease.pid, lease.host)
            if verdict is False:
                return True
            # alive or unknowable: fall through to the heartbeat age
        return lease.age(now) > self.ttl_s


class HeartbeatKeeper:
    """Daemon thread renewing one holder's leases until stopped.

    One keeper per worker process, shared by its (single) active
    lease: runs are executed one at a time per worker, so ``watch`` /
    ``unwatch`` bracket each run.  When a renewal raises
    :class:`LeaseLost` the keeper drops the run from its watch set and
    invokes *on_lost* — the queue worker uses that to fence the
    in-flight execution (request a cooperative suspend and discard
    the result).  A lease found gone for a run that was unwatched
    while the beat was in flight is ignored: its owner released it.
    """

    def __init__(
        self,
        leases: LeaseDir,
        *,
        interval_s: float = DEFAULT_HEARTBEAT_S,
        on_lost: Callable[[str], None] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.leases = leases
        self.interval_s = float(interval_s)
        self.on_lost = on_lost
        self._watched: set[str] = set()
        self._mutex = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="lease-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def watch(self, run_id: str) -> None:
        with self._mutex:
            self._watched.add(run_id)

    def unwatch(self, run_id: str) -> None:
        with self._mutex:
            self._watched.discard(run_id)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            with self._mutex:
                watched = list(self._watched)
            for run_id in watched:
                try:
                    self.leases.renew(run_id)
                except LeaseLost:
                    with self._mutex:
                        if run_id not in self._watched:
                            continue
                        self._watched.discard(run_id)
                    if self.on_lost is not None:
                        self.on_lost(run_id)
                except OSError:
                    # Transient I/O trouble: skip this beat; the TTL
                    # budget absorbs several missed heartbeats.
                    pass
