"""On-disk artifact store for campaign results.

One JSON document per run id, written through
:func:`~repro.storage.durable.write_atomic` so a result file either
exists complete or not at all — a crashed or killed campaign never
leaves a partial JSON behind.  That single invariant buys the two
headline features for free:

* **caching** — a completed run is skipped by every later campaign
  that contains the same run id;
* **resume** — re-running an interrupted campaign executes only the
  runs whose files are missing.

Two shared-store coordination pieces live here too:

* :class:`StoreLock` — advisory ``flock`` on ``<store>/.lock`` so two
  concurrent campaigns cannot interleave writes into one store (the
  second fails fast with a clear error instead of corrupting caches);
* a hidden ``.campaign.json`` **manifest** recording the spec and
  settings of the campaign that owns the store, which is what lets
  ``repro resume <store>`` restart a suspended campaign without the
  original command line.  The leading dot keeps both files out of
  :meth:`ResultStore.completed_ids`.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.campaign.lease import local_host, pid_alive
from repro.errors import ConfigError
from repro.storage.durable import write_atomic

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

log = logging.getLogger("repro.campaign.store")

#: Schema version stamped into every result file, so a future format
#: change can invalidate stale caches instead of misreading them.
STORE_VERSION = 1

#: Advisory lock file guarding a store against concurrent campaigns.
LOCK_NAME = ".lock"

#: Campaign manifest recorded next to the results (hidden, see above).
MANIFEST_NAME = ".campaign.json"

#: How long :meth:`StoreLock.acquire` keeps polling a lock whose
#: recorded holder pid is dead.  flock is held by the *open-file
#: description*, which a hard-killed campaign's forked pool workers
#: share; they drop it within a moment of noticing the broken work
#: queue, so a short grace window suffices.  A *live* holder never
#: waits — only a dead one.
STALE_LOCK_GRACE_S = 5.0

#: Poll interval while waiting out a dead holder's descendants.
STALE_LOCK_POLL_S = 0.1


class StoreLock:
    """Advisory lock on a result store directory.

    Uses ``fcntl.flock`` on ``<store>/.lock`` — exclusive
    (``LOCK_EX``) for a campaign that owns the whole store, or shared
    (``LOCK_SH``, ``shared=True``) for cooperating queue workers that
    must exclude an exclusive campaign without excluding each other.
    The kernel releases the lock automatically when the holder exits,
    so a SIGKILLed campaign never leaves a stale lock behind.  When
    the flock *is* still held but the recorded holder pid is dead,
    the holder's descendants are keeping the shared open-file
    description alive — a hard-killed campaign's pool workers do
    exactly this for the moment it takes them to notice the broken
    queue — so the lock is reclaimed by polling for a bounded grace
    period (with a warning log line) before giving up; a *live*
    holder still fails fast.

    The lock file records ``"<pid> <host>"`` so a recycled pid on
    *another* machine (a store on shared storage) is never mistaken
    for a live local holder: the flock path only applies the
    dead-holder reclaim when the recorded host is this machine, and
    the ``O_EXCL`` pid-file fallback (platforms without :mod:`fcntl`)
    treats a foreign-host record as stale outright — a local
    ``os.kill(pid, 0)`` probe says nothing about a pid on another
    host, and the pid file (unlike flock) has no kernel to clean it
    up.  Pid-only lock files from older versions still parse.

    Usable as a context manager; :meth:`acquire` raises
    :class:`~repro.errors.ConfigError` when another campaign holds
    the lock, naming the holder's pid (and host) when readable.
    """

    def __init__(self, root: str | Path, *, shared: bool = False) -> None:
        self.path = Path(root) / LOCK_NAME
        self.shared = shared
        self._handle = None
        self._pidfile_held = False

    @property
    def held(self) -> bool:
        return self._handle is not None or self._pidfile_held

    def acquire(self) -> "StoreLock":
        if self.held:
            return self  # idempotent: one process, one lock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return self._acquire_pidfile()
        mode = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
        deadline: float | None = None
        while True:
            handle = self.path.open("a+", encoding="ascii")
            try:
                fcntl.flock(handle.fileno(), mode | fcntl.LOCK_NB)
                break
            except OSError:
                pid, host = self._read_holder(handle)
                handle.close()
                local = host is None or host == local_host()
                if pid is not None and local and not pid_alive(pid):
                    # The flock outlives a dead holder only while its
                    # descendants keep the shared open-file description
                    # alive (pool workers of a hard-killed campaign);
                    # poll briefly for them to exit.  Only meaningful
                    # when the recorded holder was on *this* host — a
                    # local pid probe says nothing about a foreign one.
                    now = time.monotonic()
                    if deadline is None:
                        log.warning(
                            "store %s: lock holder pid %d is dead; "
                            "reclaiming stale lock",
                            self.path.parent, pid,
                        )
                        deadline = now + STALE_LOCK_GRACE_S
                    if now < deadline:
                        time.sleep(STALE_LOCK_POLL_S)
                        continue
                holder = ""
                if pid is not None:
                    at = f"@{host}" if host else ""
                    holder = f" (held by pid {pid}{at})"
                raise ConfigError(
                    f"result store {str(self.path.parent)!r} is locked by "
                    f"another campaign{holder}; wait for it to finish or "
                    f"use a different --store"
                ) from None
        if self.shared:
            # Shared holders do not advertise: concurrent writers would
            # race, and the pid recorded here is only an error-message
            # hint about the (single) exclusive owner.
            self._handle = handle
            return self
        # Lock held: advertise ourselves for the error message above.
        try:
            handle.seek(0)
            handle.truncate()
            handle.write(f"{os.getpid()} {local_host()}\n")
            handle.flush()
        except OSError:
            pass  # cosmetic only
        self._handle = handle
        return self

    def _read_holder(self, handle) -> tuple[int | None, str | None]:
        """Recorded ``(pid, host)``; host is ``None`` for pid-only
        files written by older versions."""
        try:
            handle.seek(0)
            text = handle.read(256).strip()
        except OSError:
            return None, None
        parts = text.split()
        if not parts:
            return None, None
        try:
            pid = int(parts[0])
        except ValueError:
            return None, None
        return pid, (parts[1] if len(parts) > 1 else None)

    def _acquire_pidfile(self) -> "StoreLock":
        """Fallback locking without flock: ``O_EXCL`` pid file."""
        if self.shared:
            # O_EXCL cannot express a shared claim; the fallback
            # degrades to unlocked for cooperating queue workers (the
            # per-run lease files still provide mutual exclusion).
            self._pidfile_held = False
            return self
        for attempt in (1, 2):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                pid: int | None = None
                host: str | None = None
                try:
                    parts = self.path.read_text("ascii").split()
                    pid = int(parts[0])
                    host = parts[1] if len(parts) > 1 else None
                except (OSError, ValueError, IndexError):
                    pass
                foreign = host is not None and host != local_host()
                dead = (
                    pid is not None and not foreign and not pid_alive(pid)
                )
                if attempt == 1 and pid is not None and (dead or foreign):
                    # A foreign-host record is stale by definition
                    # here: without flock there is no kernel holding a
                    # lease for it, and probing a *local* pid that
                    # happens to be recycled must never resurrect it.
                    why = (
                        f"holder pid {pid} is dead"
                        if dead
                        else f"holder pid {pid} lives on {host!r}, not here"
                    )
                    log.warning(
                        "store %s: lock %s; reclaiming stale lock",
                        self.path.parent, why,
                    )
                    try:
                        self.path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                holder = ""
                if pid is not None:
                    at = f"@{host}" if host else ""
                    holder = f" (held by pid {pid}{at})"
                raise ConfigError(
                    f"result store {str(self.path.parent)!r} is locked by "
                    f"another campaign{holder}; wait for it to finish or "
                    f"use a different --store"
                ) from None
            try:
                os.write(
                    fd, f"{os.getpid()} {local_host()}\n".encode("ascii")
                )
            finally:
                os.close(fd)
            self._pidfile_held = True
            return self
        raise AssertionError("unreachable")  # pragma: no cover

    def release(self) -> None:
        if self._pidfile_held:
            try:
                self.path.unlink()
            except OSError:
                pass
            self._pidfile_held = False
            return
        if self._handle is None:
            return
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "StoreLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def result_record(
    run, payload: Mapping[str, object], attempts: int
) -> dict[str, object]:
    """The stored record of *run* (a :class:`~repro.campaign.spec.
    RunSpec` or a queue item: anything with ``run_id``, ``label`` and
    ``params``), whichever executor ran it, so runner- and
    queue-drained stores are byte-identical."""
    return {
        "run_id": run.run_id,
        "label": run.label,
        "params": run.params,
        "result": payload,
        "meta": {"attempts": attempts},
    }


class ResultStore:
    """Directory of ``<run_id>.json`` result records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise ConfigError(f"invalid run id {run_id!r}")
        return self.root / f"{run_id}.json"

    def has(self, run_id: str) -> bool:
        return self.path_for(run_id).exists()

    def save(self, run_id: str, record: Mapping[str, object]) -> dict[str, object]:
        """Atomically persist *record* as the result of *run_id*
        (:func:`~repro.storage.durable.write_atomic`: a crash leaves
        the old state or the complete new file, never a torn one).

        Returns the record decoded from the bytes written, so it equals
        what :meth:`load` would read back, without reading the file."""
        final = self.path_for(run_id)
        payload = dict(record)
        payload.setdefault("store_version", STORE_VERSION)
        data = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        write_atomic(
            final, data,
            write_fp="store.result.write", rename_fp="store.result.rename",
        )
        return json.loads(data)

    def load(self, run_id: str) -> dict[str, object]:
        path = self.path_for(run_id)
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)

    def delete(self, run_id: str) -> bool:
        """Drop a cached result (forces re-execution); returns whether
        anything was removed."""
        try:
            self.path_for(run_id).unlink()
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    def lock(self, *, shared: bool = False) -> StoreLock:
        """Advisory lock for this store (not yet acquired); pass
        ``shared=True`` for a cooperating queue worker's claim."""
        return StoreLock(self.root, shared=shared)

    def write_manifest(
        self,
        name: str,
        spec: Mapping[str, object] | None,
        settings: Mapping[str, object],
    ) -> Path:
        """Atomically record the owning campaign's name, spec and
        manifest settings (hidden file, excluded from
        :meth:`completed_ids`): the one writer of ``.campaign.json``,
        for the runner, the queue and the service alike."""
        path = self.root / MANIFEST_NAME
        manifest = {
            "manifest_version": 1,
            "name": name,
            "spec": spec,
            "settings": dict(settings),
        }
        data = json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
        return write_atomic(
            path, data,
            write_fp="store.manifest.write", rename_fp="store.manifest.rename",
        )

    def read_manifest(self) -> dict[str, object]:
        """Load the campaign manifest; raises
        :class:`~repro.errors.ConfigError` when the store has none
        (e.g. it predates manifests or is not a campaign store)."""
        path = self.root / MANIFEST_NAME
        try:
            with path.open("r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(
                f"store {str(self.root)!r} has no campaign manifest "
                f"({MANIFEST_NAME}); run `repro campaign` against it "
                f"once to create one"
            ) from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"store manifest {str(path)!r} is unreadable: {exc}"
            ) from exc
        except OSError as exc:
            # Permission problems, I/O errors, a directory squatting on
            # the manifest name — a clean ConfigError (and exit 2 from
            # the CLI), never a traceback.
            raise ConfigError(
                f"store manifest {str(path)!r} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ConfigError(
                f"store manifest {str(path)!r} is malformed: expected a "
                f"JSON object, got {type(manifest).__name__}"
            )
        return manifest

    # ------------------------------------------------------------------
    def completed_ids(self) -> set[str]:
        """Run ids with a (complete) result on disk."""
        return {
            path.stem
            for path in self.root.glob("*.json")
            if not path.name.startswith(".")
        }

    def __len__(self) -> int:
        return len(self.completed_ids())

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.completed_ids()))

    # ------------------------------------------------------------------
    def export_jsonl(
        self, path: str | Path, run_ids: Sequence[str] | None = None
    ) -> int:
        """Write one result record per line to *path* (atomic and
        fsynced, like every store write).

        With *run_ids* given, exports exactly those runs in that order
        (missing ones are skipped); otherwise every stored record in
        sorted-id order.  Returns the number of lines written.
        """
        ids = list(run_ids) if run_ids is not None else sorted(self.completed_ids())
        lines = []
        for run_id in ids:
            if self.has(run_id):
                record = self.load(run_id)
                lines.append(json.dumps(record, sort_keys=True))
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
        write_atomic(path, data, write_fp="store.jsonl.write")
        return len(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, results={len(self)})"
