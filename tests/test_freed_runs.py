"""A finished run frees itself.

A manager holds its simulator, and the handler table, suspend poll and
snapshotter of a run hold the manager.  The simulator keeps none of
them past the ``run()`` call, so once its caller drops a finished
manager, reference counting frees it: these tests switch the cyclic
garbage collector off and expect the manager gone with no further call.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro.archive import replay_archive
from repro.core.strategy import all_strategy_names
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager, build_manager
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.test_archive_replay import ingest_gap
from tests.test_opcode_gates import ARMED


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_run_freed(strategy: str, telemetry=None) -> None:
    """Runs a small trace to completion and drops the manager, which
    must then be gone with the cyclic collector off."""
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.3
    ).generate(30, 16, np.random.default_rng(7))
    config = SchedulerConfig(strategy=strategy)
    if telemetry is not None:
        config.telemetry = telemetry
    with collector_off():
        manager = build_manager(
            trace, num_nodes=16, strategy=strategy, config=config
        )
        result = manager.run()
        held = weakref.ref(manager)
        del manager
        assert result.completed_jobs == 30
        assert held() is None, "the finished manager outlived its caller"


@pytest.mark.parametrize("armed", [False, True], ids=["disarmed", "armed"])
@pytest.mark.parametrize("strategy", sorted(all_strategy_names()))
def test_bare_run_is_freed(strategy, armed):
    assert_run_freed(strategy, ARMED if armed else None)


def test_replay_archive_frees_every_window_manager(tmp_path, monkeypatch):
    archive = ingest_gap(tmp_path)
    assert archive.windows == 5
    ran = []
    run = WorkloadManager.run

    def recording(self, *args, **kwargs):
        ran.append(weakref.ref(self))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(WorkloadManager, "run", recording)
    with collector_off():
        outcome = replay_archive(
            tmp_path / "archive", tmp_path / "store",
            strategy="easy_backfill", num_nodes=64,
        )
        assert outcome.ok
        assert ran
        assert [ref() for ref in ran] == [None] * len(ran)
