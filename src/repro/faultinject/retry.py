"""Classified I/O errors and bounded jittered-backoff retries.

A single spurious ``EIO`` from a flaky NFS server, or a transient
``ENOSPC`` while a neighbouring job's scratch files are being
reaped, should not fail a multi-hour campaign: every
:mod:`repro.storage.durable` temp-file write, the columnar append
and the event-sidecar append run under :func:`with_io_retries`,
which retries *transient* errno classes a bounded number of times
with exponential backoff, and re-raises *permanent* ones
(``EACCES``, ``EROFS``, ``ENOENT``…) immediately.

The backoff jitter is deterministic — a CRC over (pid, attempt) —
rather than drawn from :mod:`random`: fault-injected runs must stay
reproducible, and the simulation's seeded RNG streams must never be
perturbed by infrastructure code.
"""

from __future__ import annotations

import errno
import os
import time
import zlib
from typing import Callable, TypeVar

T = TypeVar("T")

#: Errno values worth retrying: the device or kernel may well succeed
#: on the next attempt.  Everything else is treated as permanent.
TRANSIENT_ERRNOS = frozenset(
    code
    for code in (
        errno.EIO,      # device-level hiccup (NFS, dying disk retrying)
        errno.ENOSPC,   # space may be reclaimed by concurrent cleanup
        errno.EDQUOT,   # quota: same recovery story as ENOSPC
        errno.EAGAIN,
        errno.EINTR,    # interrupted by a signal; always retryable
        errno.EBUSY,
        errno.ETIMEDOUT,
    )
    if code is not None
)

#: Default attempt budget: 1 initial try + 3 retries.
DEFAULT_ATTEMPTS = 4

#: First backoff delay; doubles per retry, capped at the max.
DEFAULT_BASE_DELAY_S = 0.05
DEFAULT_MAX_DELAY_S = 1.0


def classify_io_error(exc: OSError) -> str:
    """``"transient"`` or ``"permanent"`` for an :class:`OSError`."""
    return "transient" if exc.errno in TRANSIENT_ERRNOS else "permanent"


def _jitter(attempt: int) -> float:
    """Deterministic multiplier in ``[1.0, 1.25)`` keyed by (pid,
    attempt) — spreads concurrent workers without consuming any seeded
    RNG stream."""
    key = f"{os.getpid()}:{attempt}".encode("ascii")
    return 1.0 + (zlib.crc32(key) % 1000) / 4000.0


def backoff_delay(
    attempt: int,
    *,
    base_delay_s: float = DEFAULT_BASE_DELAY_S,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
) -> float:
    """Jittered exponential backoff for *attempt* (1-based).

    The same schedule :func:`with_io_retries` sleeps between I/O
    attempts, exposed so other requeue paths (the campaign work
    queue's redelivery ``not_before`` stamps) share one deterministic
    backoff authority instead of inventing their own.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(
        base_delay_s * (2 ** (attempt - 1)) * _jitter(attempt),
        max_delay_s,
    )


def with_io_retries(
    op: Callable[[], T],
    *,
    attempts: int = DEFAULT_ATTEMPTS,
    base_delay_s: float = DEFAULT_BASE_DELAY_S,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[OSError, int, float], None] | None = None,
) -> T:
    """Run *op*, retrying transient :class:`OSError` failures.

    *op* must be safe to re-run from scratch.  Every caller
    qualifies: each :func:`~repro.storage.durable.write_atomic` and
    ``create_exclusive`` attempt writes a fresh temp file (removed on
    failure), a columnar append re-seeks to the manifest row count,
    and an event-sidecar append reopens its handle.  So every store
    file, the ``results.jsonl`` export and the lease rewrite included,
    survives a transient error.  Permanent errors and exhausted
    budgets re-raise the original exception unchanged.  *sleep* is
    injectable so tests never wait on the wall clock.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    for attempt in range(1, attempts + 1):
        try:
            return op()
        except OSError as exc:
            if classify_io_error(exc) != "transient" or attempt == attempts:
                raise
            delay = backoff_delay(
                attempt, base_delay_s=base_delay_s, max_delay_s=max_delay_s
            )
            if on_retry is not None:
                on_retry(exc, attempt, delay)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
