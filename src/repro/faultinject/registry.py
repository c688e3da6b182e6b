"""Named-failpoint registry: deterministic fault injection.

A *failpoint* is a named site on a durable-write path.  Disarmed (the
default), every hook is a module-global ``None`` check — no dict
lookup, no allocation (``tests/test_faultinject.py`` holds a disarmed
call under 1500 ns).  Armed, a :class:`FaultPlan`
decides what happens on the Nth hit of a named site:

``eio`` / ``enospc``
    raise :class:`OSError` with that errno — exercises the
    transient-error retry path in :mod:`repro.faultinject.retry`;
``kill``
    ``os._exit(EXIT_FAILPOINT_KILL)`` — simulate a power cut at
    exactly this boundary (no ``atexit``, no ``finally`` blocks);
``truncate:<k>``
    write only the first *k* bytes of the payload, fsync them, then
    hard-kill — simulate a torn write that reached the platter.

Plans are armed programmatically (:func:`arm` / :func:`armed`) or via
the environment so subprocesses inherit them::

    REPRO_FAILPOINTS="store.result.write=kill:1;snapshot.write=eio:2"
    REPRO_FAILPOINTS_STAMP=/path/to/stamp-dir   # optional, see below

Hit counts are per-process, which breaks down for ``kill``-style
plans under a supervising runner: the killed process's replacement
would hit (and fire) the same failpoint again, forever.  The *stamp
dir* makes firing once-only **across processes**: before tripping, a
plan claims ``<stamp>/<name>.fired`` with ``O_EXCL``; a second
process that loses the claim skips the fault and proceeds normally.
The chaos harness (:mod:`repro.faultinject.chaos`) relies on this to
crash a pipeline exactly once per trial and then watch it recover.
"""

from __future__ import annotations

import errno as _errno
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.errors import ConfigError

#: Environment variable carrying an armed plan into subprocesses.
ENV_PLAN = "REPRO_FAILPOINTS"

#: Optional directory for cross-process once-only firing stamps.
ENV_STAMP = "REPRO_FAILPOINTS_STAMP"

#: Distinctive exit status of a ``kill``/``truncate`` trip, so a
#: supervisor can tell "crashed by injection" from any real failure.
EXIT_FAILPOINT_KILL = 86

#: Every registered failpoint, name → the write boundary it guards.
#: Instrumented modules call :func:`failpoint` / :func:`failpoint_write`
#: with exactly these names; ``repro chaos`` sweeps this catalog.
CATALOG: dict[str, str] = {
    "store.result.write": "campaign result record: temp-file payload write",
    "store.result.rename": "campaign result record: atomic rename into place",
    "store.manifest.write": "campaign .campaign.json manifest: temp-file write",
    "store.manifest.rename": "campaign .campaign.json manifest: atomic rename",
    "store.jsonl.write": "results.jsonl export: temp-file payload write",
    "snapshot.write": "state snapshot: header+payload temp-file write",
    "snapshot.rename": "state snapshot: atomic rename into place",
    "columnar.append.write": "columnar batch append: in-place column-file write",
    "columnar.manifest.write": "columnar manifest: temp-file write",
    "columnar.manifest.rename": "columnar manifest: atomic rename",
    "archive.window.write": "archive window record file: temp-file write",
    "archive.window.rename": "archive window record file: atomic rename",
    "archive.manifest.write": "archive manifest/quarantine: temp-file write",
    "archive.manifest.rename": "archive manifest/quarantine: atomic rename",
    "stitched.write": "replay stitched.json summary: temp-file write",
    "bundle.write": "crash replay bundle: document write",
    "queue.item.write": "campaign queue item: temp-file write + rename",
    "queue.lease.create": "campaign queue lease: O_EXCL claim-file write",
    "queue.lease.renew": "campaign queue lease: heartbeat refresh",
    "queue.lease.release": "campaign queue lease: verified unlink",
    "queue.metrics.write": "fleet observability event: per-process "
                           "sidecar append",
    "service.submit.write": "service submission record: temp-file write",
    "service.manifest.write": "service.json coordinates: temp-file write",
    "service.key.write": "service idempotency-key binding: temp-file "
                         "write before the atomic link",
    "service.stream.write": "service SSE frame: pre-write boundary",
}

_ACTIONS = ("eio", "enospc", "kill", "truncate")


@dataclass(frozen=True)
class FailpointSpec:
    """One armed fault: fire *action* on the *nth* hit of *name*."""

    name: str
    action: str
    nth: int = 1
    #: Byte offset for ``truncate`` (how much of the payload survives).
    arg: int = 0

    def encode(self) -> str:
        """Inverse of :func:`parse_plan` for one spec."""
        out = f"{self.name}={self.action}:{self.nth}"
        if self.action == "truncate":
            out += f":{self.arg}"
        return out


def parse_plan(raw: str) -> list[FailpointSpec]:
    """Parse ``name=action:nth[:arg]`` clauses separated by ``;``."""
    specs: list[FailpointSpec] = []
    for clause in raw.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, sep, rest = clause.partition("=")
        name = name.strip()
        if not sep or not rest:
            raise ConfigError(
                f"failpoint clause {clause!r}: expected name=action:nth[:arg]"
            )
        if name not in CATALOG:
            known = ", ".join(sorted(CATALOG))
            raise ConfigError(
                f"unknown failpoint {name!r}; registered: {known}"
            )
        parts = rest.split(":")
        action = parts[0].strip()
        if action not in _ACTIONS:
            raise ConfigError(
                f"failpoint {name!r}: unknown action {action!r} "
                f"(one of {', '.join(_ACTIONS)})"
            )
        try:
            nth = int(parts[1]) if len(parts) > 1 and parts[1] else 1
            arg = int(parts[2]) if len(parts) > 2 and parts[2] else 0
        except ValueError:
            raise ConfigError(
                f"failpoint clause {clause!r}: nth/arg must be integers"
            ) from None
        if nth < 1:
            raise ConfigError(f"failpoint {name!r}: nth must be >= 1")
        if arg < 0:
            raise ConfigError(f"failpoint {name!r}: arg must be >= 0")
        specs.append(FailpointSpec(name=name, action=action, nth=nth, arg=arg))
    if not specs:
        raise ConfigError("failpoint plan is empty")
    return specs


class FaultPlan:
    """Armed failpoint schedule with per-process hit counting."""

    def __init__(
        self,
        specs: Mapping[str, FailpointSpec] | list[FailpointSpec],
        stamp_dir: str | Path | None = None,
    ) -> None:
        if not isinstance(specs, Mapping):
            specs = {spec.name: spec for spec in specs}
        self.specs: dict[str, FailpointSpec] = dict(specs)
        self.stamp_dir = Path(stamp_dir) if stamp_dir else None
        self.hits: dict[str, int] = {}
        self._fired: set[str] = set()

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "FaultPlan | None":
        environ = os.environ if environ is None else environ
        raw = environ.get(ENV_PLAN, "").strip()
        if not raw:
            return None
        return cls(parse_plan(raw), stamp_dir=environ.get(ENV_STAMP) or None)

    def encode(self) -> str:
        """Environment encoding of this plan (:data:`ENV_PLAN` value)."""
        return ";".join(
            self.specs[name].encode() for name in sorted(self.specs)
        )

    # ------------------------------------------------------------------
    def check(self, name: str) -> FailpointSpec | None:
        """Count a hit; return the spec when this hit should fire."""
        spec = self.specs.get(name)
        if spec is None or name in self._fired:
            return None
        count = self.hits.get(name, 0) + 1
        self.hits[name] = count
        if count != spec.nth:
            return None
        self._fired.add(name)
        if not self._claim(name):
            return None  # another process already fired this one
        return spec

    def _claim(self, name: str) -> bool:
        if self.stamp_dir is None:
            return True
        try:
            fd = os.open(
                self.stamp_dir / f"{name}.fired",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        except OSError:
            return True  # unwritable stamp dir: fire anyway
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        return True


# ----------------------------------------------------------------------
# Module state and the two hooks on the write paths
# ----------------------------------------------------------------------
_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan) -> None:
    """Arm *plan* in this process (tests; env arming covers children)."""
    global _PLAN
    _PLAN = plan


def disarm() -> None:
    global _PLAN
    _PLAN = None


def arm_from_env() -> None:
    """Arm the plan ``REPRO_FAILPOINTS`` names, with no hits yet, or
    disarm when it names none."""
    global _PLAN
    _PLAN = FaultPlan.from_env()


class armed:
    """``with armed(plan):`` — scoped arming for in-process tests."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._saved: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._saved = _PLAN
        arm(self.plan)
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        global _PLAN
        _PLAN = self._saved


def _trip(spec: FailpointSpec) -> None:
    if spec.action in ("kill", "truncate"):
        os._exit(EXIT_FAILPOINT_KILL)
    code = _errno.EIO if spec.action == "eio" else _errno.ENOSPC
    raise OSError(code, os.strerror(code), f"failpoint:{spec.name}")


def failpoint(name: str) -> None:
    """Trip site *name* if an armed plan says so; else do nothing.

    The disarmed path is a single global load plus an identity check —
    callers may keep this on hot paths.
    """
    if _PLAN is None:
        return
    spec = _PLAN.check(name)
    if spec is not None:
        _trip(spec)


def failpoint_write(name: str, handle, data: bytes) -> None:
    """``handle.write(data)`` with an optional injected fault.

    Beyond the plain :func:`failpoint` actions, ``truncate:<k>``
    writes only ``data[:k]``, pushes those bytes to disk, and
    hard-kills — the caller's file ends up holding a genuinely torn
    payload, exactly what a power cut mid-write leaves behind.
    """
    if _PLAN is None:
        handle.write(data)
        return
    spec = _PLAN.check(name)
    if spec is None:
        handle.write(data)
        return
    if spec.action == "truncate":
        handle.write(data[: min(spec.arg, len(data))])
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:
            pass
    _trip(spec)


def iter_catalog() -> Iterator[tuple[str, str]]:
    """Registered failpoints in stable (sorted) order."""
    return iter(sorted(CATALOG.items()))


# Arm from the environment at import so worker subprocesses (which
# inherit the parent's environment under every start method) see the
# plan without any explicit plumbing.
arm_from_env()
