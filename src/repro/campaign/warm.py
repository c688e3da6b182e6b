"""Warm drain workers: both ends of one protocol.

**Worker end** (``python -m repro.campaign.warm``).  One long-lived
process drains the queue stores its supervisor hands it, one at a
time, so a store no longer pays an interpreter start and its imports
per drain.  The protocol is one line each way:

* the supervisor writes a store path and a newline to stdin;
* the worker runs ``QueueWorker(store).drain()`` on it, exactly as
  ``repro queue work <store>`` would, and answers with one JSON line
  ``{"store": ..., "status": ...}`` on stdout.

The worker keeps nothing from one store to the next.  It exits 4 on
SIGTERM or SIGINT (mid-drain, the drain first parks its lease), and
after answering for a drain that ended other than ``drained`` (an RSS
trip recycles the process).  A store it cannot open ends it with a
traceback.  It exits 0 at stdin EOF: its supervisor is done with it.

**Supervisor end** (:class:`WarmFleet`).  Every front end of the
queue runs its workers through one fleet.  ``repro serve`` hands each
submission's store to an idle worker; ``campaign --join``, a
queue-store ``resume`` and ``replay-trace --strategies``
(:func:`~repro.campaign.queue.drain_with_workers`) hand their one
store to up to N workers and close their stdin once the queue is
drained.  The fleet starts a worker with a thread that reads its
answers and then its exit, reports each of them through one callback
on the supervisor's own thread, and stops the whole fleet under one
shared grace deadline.

It lives here rather than under :mod:`repro.service`, whose package
imports the server, so that a worker loads no server code.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

from repro.campaign.queue import QueueWorker
from repro.snapshot import suspend as _suspend

#: Exit status of a worker stopped by a signal or recycled; the same
#: value ``repro queue work`` exits with when suspended.
EXIT_SUSPENDED = 4


def _exit_suspended(signum, frame) -> None:
    raise SystemExit(EXIT_SUSPENDED)


def drain(store: str) -> str:
    """Drain *store*; returns ``drained`` when this worker may take
    another store, else the reason it must exit."""
    outcome = QueueWorker(store, install_signal_handlers=True).drain()
    print(
        f"worker {os.getpid()}: {store}: {outcome.completed} completed, "
        f"{outcome.failed} failed, {outcome.quarantined} quarantined, "
        f"{outcome.requeued} requeued, {outcome.fenced} fenced "
        f"({outcome.status})",
        file=sys.stderr,
    )
    if outcome.status == "drained" and _suspend.suspend_requested():
        return "suspended"  # requested as the drain ended
    return outcome.status


def main() -> int:
    # Answers get a private copy of stdout; anything else that writes
    # to stdout lands in the log with stderr instead of in the protocol.
    answers = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    # Idle, a signal ends the worker at once; during a drain the
    # QueueWorker's own handlers take over and park the lease first.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _exit_suspended)
    while True:
        line = sys.stdin.readline()
        if not line:
            return 0
        store = line.strip()
        if not store:
            continue
        status = drain(store)
        answers.write(json.dumps({"store": store, "status": status}) + "\n")
        if status != "drained":
            return EXIT_SUSPENDED


def worker_environment() -> dict[str, str]:
    """The environment for a worker child process: this process's
    own, with ``PYTHONPATH`` adjusted.

    The child's ``PYTHONPATH`` leads with the root of this ``repro``
    package, so the worker runs the same code as its parent even when
    the parent found the package some other way than the environment.
    """
    import repro

    environment = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    environment["PYTHONPATH"] = os.pathsep.join([pkg_root] + [
        part for part in environment.get("PYTHONPATH", "").split(os.pathsep)
        if part and part != pkg_root
    ])
    return environment


class WarmFleet:
    """Supervisor end of the warm-worker protocol.

    ``held`` maps each member to the tag of the store it is draining
    (None while idle).  A worker leaves it when it answers that it must
    exit and when it dies; ``live`` holds every worker whose exit has
    not been reported yet.  ``report(worker, tag, status)`` learns of
    each: *status* is the answer (``drained``, ``suspended`` or
    ``shed``), or ``exited`` once the process is gone; *tag* is the
    store the worker held, or None.  The reader threads pass answers
    and exits to *post*, which must run them on the supervisor's thread
    (an event loop's ``call_soon_threadsafe``, say); without one they
    wait in an inbox that :meth:`wait` empties.
    """

    def __init__(
        self,
        report: Callable[[subprocess.Popen, str | None, str], None],
        *,
        post: Callable[..., None] | None = None,
    ) -> None:
        self.held: dict[subprocess.Popen, str | None] = {}
        self.live: dict[subprocess.Popen, None] = {}
        self._report = report
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._post = post or (lambda fn, *args: self._inbox.put((fn, args)))

    def spawn(self, log_path: Path) -> subprocess.Popen:
        """Start one idle warm worker, its stderr appended to
        *log_path*, and the thread that reads its answers."""
        log_path.parent.mkdir(parents=True, exist_ok=True)
        with log_path.open("ab") as log:
            # Closing this copy once the child has started is safe: the
            # child holds its own inherited descriptor.
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.campaign.warm"],
                bufsize=0,  # a hand-off is one write; close never flushes
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                env=worker_environment(),
            )
        self.held[proc] = None
        self.live[proc] = None
        threading.Thread(
            target=self._read, args=(proc,), daemon=True,
            name=f"worker-{proc.pid}",
        ).start()
        return proc

    def _read(self, proc: subprocess.Popen) -> None:
        # Each answer, then the exit, reaches the supervisor in the
        # order it came.
        with proc.stdout:
            for line in proc.stdout:
                self._post(self._answered, proc, json.loads(line)["status"])
        proc.wait()
        self._post(self._exited, proc)

    def hand_off(self, proc: subprocess.Popen, store: Path, tag: str) -> None:
        """Ask idle *proc* to drain *store*, held under *tag*."""
        try:
            proc.stdin.write(f"{store}\n".encode())
        except OSError:  # it died idle; its exit reports no store
            del self.held[proc]
            return
        self.held[proc] = tag

    def _answered(self, proc: subprocess.Popen, status: str) -> None:
        tag = self.held.get(proc)
        if tag is None:
            return
        if status == "drained":
            self.held[proc] = None
        else:  # suspended or shed: the worker exits after this answer
            del self.held[proc]
        self._report(proc, tag, status)

    def _exited(self, proc: subprocess.Popen) -> None:
        tag = self.held.pop(proc, None)
        self.live.pop(proc, None)
        proc.stdin.close()
        self._report(proc, tag, "exited")

    def wait(self, timeout: float) -> None:
        """Run the reports waiting in the inbox, first waiting up to
        *timeout* seconds for one to arrive."""
        try:
            fn, args = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return
        while True:
            fn(*args)
            try:
                fn, args = self._inbox.get_nowait()
            except queue.Empty:
                return

    def stop(self, grace: float, *, terminate: bool = True) -> None:
        """End every live worker: SIGTERM it (busy workers requeue
        their leases, idle ones leave at once; all exit 4) or, without
        *terminate*, close its stdin (an idle worker exits 0).  One
        absolute *grace* deadline, shared by the whole fleet rather
        than granted per worker, bounds the wait; whoever outlives it
        is SIGKILLed."""
        procs = list(self.live)
        for proc in procs:
            if not terminate:
                proc.stdin.close()
            elif proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + max(0.1, grace)
        for proc in procs:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                try:
                    proc.wait(timeout=remaining)
                    continue
                except subprocess.TimeoutExpired:
                    pass
            proc.kill()
            proc.wait()
        for proc in procs:
            proc.stdin.close()
        self.held.clear()
        self.live.clear()


if __name__ == "__main__":
    sys.exit(main())
