"""Warm drain worker behind ``repro serve``: ``python -m repro.campaign.warm``.

One long-lived process drains the submission stores its supervisor
hands it, one at a time, so a served submission no longer pays an
interpreter start and its imports.  The protocol is one line each way:

* the supervisor writes a store path and a newline to stdin;
* the worker runs ``QueueWorker(store).drain()`` on it, exactly as
  ``repro queue work <store>`` would, and answers with one JSON line
  ``{"store": ..., "status": ...}`` on stdout.

The worker keeps nothing from one store to the next.  It exits 4 on
SIGTERM or SIGINT (mid-drain, the drain first parks its lease), and
after answering for a drain that ended other than ``drained`` (an RSS
trip recycles the process).  A store it cannot open ends it with a
traceback.  It exits 0 at stdin EOF: its server is gone.

It lives here rather than under :mod:`repro.service`, whose package
imports the server, so that a worker loads no server code.
"""

from __future__ import annotations

import json
import os
import signal
import sys

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


if __name__ == "__main__":
    sys.exit(main())
