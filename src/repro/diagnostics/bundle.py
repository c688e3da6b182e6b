"""Replay bundles: one-file deterministic crash reproducers.

A bundle is a canonical-JSON document containing everything needed to
re-execute a crashed run to its exact failing event: the full campaign
``params`` dict (workload derivation + seed + scheduler config,
including the diagnostics settings that were armed), plus the crash
cursor — error type/message, simulated time, event count and the
flight-ring records captured when the error escaped the event loop.

Because every simulation is driven by deterministic RNG streams keyed
only by ``params``, re-running ``params`` reproduces the identical
event sequence; :func:`replay_bundle` does exactly that and verifies
the observed crash against the recorded one, field by field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.diagnostics.crash import CrashInfo, attach_crash_info
from repro.errors import ReplayError, ReproError
from repro.faultinject import failpoint

#: Stamped into every bundle so a future format change can be detected
#: instead of misread.
BUNDLE_FORMAT = "repro-replay-bundle/v1"


def build_bundle(
    params: Mapping[str, object], crash: CrashInfo
) -> dict[str, object]:
    """Assemble a replay bundle document for one crashed run."""
    from repro.campaign.spec import run_id_of

    return {
        "format": BUNDLE_FORMAT,
        "run_id": run_id_of(params),
        "params": dict(params),
        "crash": crash.as_dict(),
    }


def write_bundle(bundle: Mapping[str, object], path: str | Path) -> Path:
    """Write *bundle* as canonical JSON (sorted keys, stable layout)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    failpoint("bundle.write")
    path.write_text(
        json.dumps(bundle, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return path


def load_bundle(path: str | Path) -> dict[str, object]:
    """Read and validate a bundle written by :func:`write_bundle`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReplayError(f"cannot read bundle {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReplayError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != BUNDLE_FORMAT:
        raise ReplayError(
            f"{path}: not a replay bundle (expected format "
            f"{BUNDLE_FORMAT!r}, got {data.get('format') if isinstance(data, dict) else type(data).__name__!r})"
        )
    if not isinstance(data.get("params"), dict) or "crash" not in data:
        raise ReplayError(f"{path}: bundle is missing params or crash record")
    return data


def capture_bundle(
    params: Mapping[str, object],
    exc: BaseException,
    directory: str | Path,
) -> Path:
    """Serialise the crash attached to *exc* as ``<run_id>.bundle.json``.

    Falls back to a minimal crash record (type + message only) when the
    error escaped before any simulation context existed, so even
    load-time failures yield a reproducer.
    """
    from repro.campaign.spec import run_id_of

    info = getattr(exc, "crash_info", None)
    if not isinstance(info, CrashInfo):
        info = CrashInfo(
            error_type=type(exc).__name__, error_message=str(exc)
        )
    bundle = build_bundle(params, info)
    return write_bundle(
        bundle, Path(directory) / f"{run_id_of(params)}.bundle.json"
    )


def bundle_path_for(directory: str | Path, run_id: str) -> Path:
    """Where :func:`capture_bundle` puts the bundle of *run_id*."""
    return Path(directory) / f"{run_id}.bundle.json"


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-executing a bundle against its recorded crash."""

    run_id: str
    reproduced: bool
    expected: dict[str, object]
    observed: dict[str, object] | None
    #: ``(field, expected, observed)`` triples that disagreed.
    mismatches: list[tuple[str, object, object]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "reproduced": self.reproduced,
            "expected": self.expected,
            "observed": self.observed,
            "mismatches": [list(m) for m in self.mismatches],
        }

    def render(self) -> str:
        """Human-readable verdict for the CLI."""
        lines = [f"replay of run {self.run_id}:"]
        if self.observed is None:
            lines.append(
                "  NOT REPRODUCED — the run completed without raising"
            )
        elif self.reproduced:
            lines.append(
                f"  REPRODUCED — {self.expected['error_type']} at "
                f"t={self.expected['sim_time']} after "
                f"{self.expected['events_dispatched']} events"
            )
            lines.append(f"  message: {self.expected['error_message']}")
        else:
            lines.append("  DIVERGED — crash differs from the recording:")
            for name, want, got in self.mismatches:
                lines.append(f"    {name}: recorded {want!r}, observed {got!r}")
        return "\n".join(lines)


def replay_bundle(bundle: Mapping[str, object]) -> ReplayReport:
    """Re-execute a bundle's params and verify the crash reproduces.

    The run executes in-process through the exact campaign entry path
    (:func:`repro.slurm.entry.execute_run`), so the replay sees the
    same workload derivation, scheduler configuration and diagnostics
    settings as the crashed original.
    """
    from repro.slurm.entry import execute_run

    params = bundle["params"]
    if not isinstance(params, Mapping):
        raise ReplayError("bundle params must be a JSON object")
    recorded = CrashInfo.from_dict(bundle["crash"])  # type: ignore[arg-type]
    expected = recorded.replay_signature()
    observed_info: CrashInfo | None = None
    try:
        execute_run(params)
    except ReproError as exc:
        observed_info = attach_crash_info(exc)
    if observed_info is None:
        return ReplayReport(
            run_id=str(bundle.get("run_id", "")),
            reproduced=False,
            expected=expected,
            observed=None,
        )
    observed = observed_info.replay_signature()
    mismatches = [
        (key, expected[key], observed[key])
        for key in CrashInfo.REPLAY_KEYS
        if expected[key] != observed[key]
    ]
    return ReplayReport(
        run_id=str(bundle.get("run_id", "")),
        reproduced=not mismatches,
        expected=expected,
        observed=observed,
        mismatches=mismatches,
    )
