"""The one durable-write protocol behind every store.

Every file the stores write goes through one of three calls:

* :func:`write_atomic` — replace a whole file.  The bytes go to a
  ``mkstemp`` temp file ``.{stem}-*.tmp`` beside the target (same
  filesystem, so the rename is atomic), are flushed and fsynced, and
  only then :func:`os.replace` moves the temp file into place.  A
  crash at any point leaves the old file or the complete new one,
  never a torn one; at worst a ``.*.tmp`` file is left over, which
  ``repro fsck`` reports as harmless residue.
* :func:`create_exclusive` — create a file only if it is absent: the
  same fsynced temp file, :func:`os.link`-ed into place.  The link is
  the commit point; ``EEXIST`` makes the call lose a race cleanly,
  and a reader can never see a half-written file.
* :func:`append_durable` — write, flush and fsync through a handle
  the caller owns (a claim file it opened with ``O_EXCL``, a column
  file it truncated to the committed row count, an append-only event
  sidecar).

The two temp-file calls trip their failpoints at fixed boundaries
(*write_fp* on the payload write, *rename_fp* just before the
rename), always remove their temp file on failure, and run each
attempt from scratch under
:func:`~repro.faultinject.retry.with_io_retries`, so a transient
``EIO`` or ``ENOSPC`` is retried.  :func:`fsyncs` counts every fsync
made here; no other module calls :func:`os.fsync`.

Parent directories are not fsynced, so a completed rename is not yet
durable across a power cut on every filesystem.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path
from typing import BinaryIO

from repro.faultinject import failpoint, failpoint_write, with_io_retries

_count_lock = threading.Lock()
_fsyncs = 0


def _new_count_lock() -> None:
    # Another thread may hold the lock when this process forks; the
    # child, which has only the forking thread, starts with a free one.
    global _count_lock
    _count_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_count_lock)


def fsyncs() -> int:
    """How many fsyncs this process has made through this module."""
    return _fsyncs


def append_durable(
    handle: BinaryIO, data: bytes, write_fp: str | None
) -> None:
    """Write *data* through *handle*, then flush and fsync it.

    *write_fp* names the failpoint tripped on the write; ``None``
    writes unguarded.
    """
    global _fsyncs
    failpoint_write(write_fp, handle, data)
    handle.flush()
    os.fsync(handle.fileno())
    with _count_lock:
        _fsyncs += 1


def _unlink_quietly(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass


def _durable_temp(path: Path, data: bytes, write_fp: str | None) -> str:
    """Write *data* to a fsynced temp file beside *path*; its name."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            append_durable(handle, data, write_fp)
    except BaseException:
        _unlink_quietly(tmp_name)
        raise
    return tmp_name


def write_atomic(
    path: str | Path,
    data: bytes,
    *,
    write_fp: str | None,
    rename_fp: str | None = None,
) -> Path:
    """Replace *path* with *data*: fsynced temp file, then rename."""
    path = Path(path)

    def _attempt() -> Path:
        tmp_name = _durable_temp(path, data, write_fp)
        try:
            if rename_fp is not None:
                failpoint(rename_fp)
            os.replace(tmp_name, path)
        except BaseException:
            _unlink_quietly(tmp_name)
            raise
        return path

    return with_io_retries(_attempt)


def create_exclusive(
    path: str | Path, data: bytes, *, write_fp: str | None
) -> bool:
    """Create *path* holding *data* unless it exists; True if created.

    An existing *path* is left untouched and the call returns False.
    """
    path = Path(path)

    def _attempt() -> bool:
        tmp_name = _durable_temp(path, data, write_fp)
        try:
            os.link(tmp_name, path)
        except FileExistsError:
            return False
        finally:
            _unlink_quietly(tmp_name)
        return True

    return with_io_retries(_attempt)
