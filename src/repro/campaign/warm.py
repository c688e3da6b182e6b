"""Warm drain workers: both ends of one protocol.

**Worker end** (:func:`main`).  One long-lived process drains the
queue stores its supervisor hands it, one at a time, so a store no
longer pays a process start per drain.  The protocol is one line each
way:

* the supervisor writes a store path and a newline to the worker's
  fd 0;
* the worker runs ``QueueWorker(store).drain()`` on it, exactly as
  ``repro queue work <store>`` would, and answers with one JSON line
  ``{"store": ..., "status": ...}`` on its fd 1.

The worker keeps nothing from one store to the next.  It exits 4 on
SIGTERM or SIGINT (mid-drain, the drain first parks its lease), and
after answering for a drain that ended other than ``drained`` (an RSS
trip recycles the process).  A store it cannot open ends it with a
traceback in its log, exit 1.  It exits 0 at stdin EOF: its
supervisor is done with it.

A worker is a fork of its supervisor (:func:`fork_worker`), which has
already imported the whole drain path, so its first drain starts at
once instead of after an interpreter start and its imports.  The
child keeps only what a fresh interpreter would have: fds 0, 1 and 2
(its request pipe, its answer pipe and its log), fresh ``sys.std*``
objects on them, default SIGTERM, SIGINT and SIGCHLD handling, the
failpoint plan re-armed from ``REPRO_FAILPOINTS`` with no hits, no
suspend request and no ambient trace.  Every other inherited fd is
closed: a listening socket, an event loop's epoll fd, a store lock,
and above all a sibling worker's stdin write end, which would keep
that sibling from ever seeing EOF.  The parent freezes its objects
in the garbage collector across the fork, and the child leaves only
through :func:`os._exit`, so the child never finalises an object of
the parent (the parent's ``sys.stdout``, say, whose unflushed bytes
would land in the answer pipe).  Module locks that another thread of
the parent may hold at the fork are made anew in the child by
:func:`os.register_at_fork` hooks where they are defined.

**Supervisor end** (:class:`WarmFleet`).  Every front end of the
queue runs its workers through one fleet.  ``repro serve`` hands each
submission's store to an idle worker; ``campaign --join``, a
queue-store ``resume`` and ``replay-trace --strategies``
(:func:`~repro.campaign.queue.drain_with_workers`) hand their one
store to up to N workers and close their stdin once the queue is
drained.  The fleet starts a worker with a thread that reads its
answers and then reaps it, reports each of them through one callback
on the supervisor's own thread, and stops the whole fleet under one
shared grace deadline.

It lives here rather than under :mod:`repro.service`, whose package
imports the server, so that a join's supervisor, and every worker it
forks, loads no server code.
"""

from __future__ import annotations

import fcntl
import gc
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, NoReturn

from repro.campaign.queue import QueueWorker
from repro.faultinject import registry as _failpoints
from repro.observability.events import set_current_trace
from repro.snapshot import suspend as _suspend

#: Exit status of a worker stopped by a signal or recycled; the same
#: value ``repro queue work`` exits with when suspended.
EXIT_SUSPENDED = 4

#: The signals a child resets to a fresh interpreter's handling; the
#: parent blocks them across the fork, so one sent to a new worker
#: waits for that handling instead of reaching the parent's handler.
_CHILD_SIGNALS = {
    signal.SIGTERM: signal.SIG_DFL,
    signal.SIGINT: signal.default_int_handler,
    signal.SIGCHLD: signal.SIG_DFL,
}

#: The parent's ``sys.std*`` objects, held in a child so that they are
#: never finalised there: closing one would flush bytes it buffered in
#: the parent onto the child's fds 0-2.
_inherited_stdio: list[object] = []

#: In a worker, whether its fleet hands each store to siblings too
#: (see :class:`QueueWorker`); set by :func:`_become_worker`.
_siblings = False


def _exit_suspended(signum, frame) -> None:
    raise SystemExit(EXIT_SUSPENDED)


def drain(store: str, siblings: bool = False) -> str:
    """Drain *store* (with *siblings*, see :class:`QueueWorker`);
    returns ``drained`` when this worker may take another store, else
    the reason it must exit."""
    outcome = QueueWorker(
        store, install_signal_handlers=True, siblings=siblings
    ).drain()
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
    """The worker's protocol loop over ``sys.stdin`` and fd 1; returns
    the exit status."""
    answers = open(1, "w", buffering=1, encoding="utf-8", closefd=False)
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
        status = drain(store, _siblings)
        answers.write(json.dumps({"store": store, "status": status}) + "\n")
        if status != "drained":
            return EXIT_SUSPENDED


def _close_inherited_fds() -> None:
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))


def _become_worker(
    stdin_fd: int, answer_fd: int, log_fd: int, mask: set, siblings: bool
) -> NoReturn:
    """Run in a freshly forked child: shed the parent's state, run
    :func:`main` and leave through :func:`os._exit` whatever happens."""
    global _siblings
    code, log = 1, None
    try:
        signal.set_wakeup_fd(-1)
        for signum, handler in _CHILD_SIGNALS.items():
            signal.signal(signum, handler)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # Lifted above 2 first, so that no dup2 overwrites a source.
        fds = [fcntl.fcntl(fd, fcntl.F_DUPFD, 3)
               for fd in (stdin_fd, answer_fd, log_fd)]
        for target, fd in enumerate(fds):
            os.dup2(fd, target)
        _close_inherited_fds()
        _inherited_stdio.extend((sys.stdin, sys.stdout, sys.stderr))
        sys.stdin = open(0, encoding="utf-8", closefd=False)
        # Whatever else prints goes to the log, never into the answers.
        log = open(2, "w", buffering=1, encoding="utf-8",
                   errors="backslashreplace", closefd=False)
        sys.stdout = sys.stderr = log
        _failpoints.arm_from_env()
        _suspend.reset()
        set_current_trace(None)
        _siblings = siblings
        code = main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None
        )
    except BaseException:
        text = traceback.format_exc()
        if log is not None:
            log.write(text)
        else:
            os.write(2, text.encode("utf-8", "backslashreplace"))
    finally:
        if log is not None:
            try:
                log.flush()
            except Exception:
                pass
        os._exit(code)


class Worker:
    """A forked warm worker, with the part of
    :class:`subprocess.Popen`'s interface the fleet and its callers
    use: ``pid``, ``stdin``, ``stdout``, ``returncode``, ``poll``,
    ``wait``, ``send_signal`` and ``kill``.

    Its fleet's reader thread is its one reaper (:meth:`reap`); every
    other call only reads what that thread recorded, so a pid is
    waited for exactly once and never signalled once reaped.
    """

    def __init__(self, pid: int, stdin_fd: int, answer_fd: int) -> None:
        self.pid = pid
        # Unbuffered: a hand-off is one write, and close never flushes.
        self.stdin = open(stdin_fd, "wb", buffering=0)
        self.stdout = open(answer_fd, "rb")
        self.returncode: int | None = None
        self._lock = threading.Lock()
        self._reaped = threading.Event()

    def reap(self) -> None:
        """Wait for the process to end, then collect its status."""
        # Waiting without reaping keeps the pid ours until the lock is
        # held, so a concurrent send_signal can never hit a recycled pid.
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        with self._lock:
            _, status = os.waitpid(self.pid, 0)
            self.returncode = os.waitstatus_to_exitcode(status)
        self._reaped.set()

    def poll(self) -> int | None:
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        if not self._reaped.wait(timeout):
            raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        with self._lock:
            if self.returncode is None:
                os.kill(self.pid, signum)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def fork_worker(log_path: Path, *, siblings: bool = False) -> Worker:
    """Fork one idle warm worker, its stderr appended to *log_path*,
    whose drains run with *siblings* (see :class:`QueueWorker`)."""
    stdin_r, stdin_w = os.pipe()
    answer_r, answer_w = os.pipe()
    log_fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _CHILD_SIGNALS.keys())
    gc.freeze()
    try:
        pid = os.fork()
        if pid == 0:
            _become_worker(stdin_r, answer_w, log_fd, mask, siblings)
    except BaseException:
        os.close(stdin_w)
        os.close(answer_r)
        raise
    finally:
        gc.unfreeze()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in (stdin_r, answer_w, log_fd):
            os.close(fd)
    return Worker(pid, stdin_w, answer_r)


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
    wait in an inbox that :meth:`wait` empties.  With *siblings*, the
    workers share each store they are handed (see :class:`QueueWorker`).
    """

    def __init__(
        self,
        report: Callable[[Worker, str | None, str], None],
        *,
        post: Callable[..., None] | None = None,
        siblings: bool = False,
    ) -> None:
        self._siblings = siblings
        self.held: dict[Worker, str | None] = {}
        self.live: dict[Worker, None] = {}
        self._report = report
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._post = post or (lambda fn, *args: self._inbox.put((fn, args)))

    def spawn(self, log_path: Path) -> Worker:
        """Fork one idle warm worker, its stderr appended to
        *log_path*, and start the thread that reads its answers."""
        log_path.parent.mkdir(parents=True, exist_ok=True)
        proc = fork_worker(log_path, siblings=self._siblings)
        self.held[proc] = None
        self.live[proc] = None
        threading.Thread(
            target=self._read, args=(proc,), daemon=True,
            name=f"worker-{proc.pid}",
        ).start()
        return proc

    def _read(self, proc: Worker) -> None:
        # Each answer, then the exit, reaches the supervisor in the
        # order it came.
        with proc.stdout:
            for line in proc.stdout:
                self._post(self._answered, proc, json.loads(line))
        proc.reap()
        self._post(self._exited, proc)

    def hand_off(self, proc: Worker, store: Path, tag: str) -> None:
        """Ask idle *proc* to drain *store*, held under *tag*."""
        try:
            proc.stdin.write(f"{store}\n".encode())
        except OSError:  # it died idle; its exit reports no store
            del self.held[proc]
            return
        self.held[proc] = tag

    def _answered(self, proc: Worker, answer: dict) -> None:
        status = answer["status"]
        tag = self.held.get(proc)
        if tag is None:
            return
        if status == "drained":
            self.held[proc] = None
        else:  # suspended or shed: the worker exits after this answer
            del self.held[proc]
        self._report(proc, tag, status)

    def _exited(self, proc: Worker) -> None:
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
