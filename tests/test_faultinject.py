"""Failpoint registry and retry machinery.

Covers the plan language, arming scopes, nth-hit and fire-once
semantics, the cross-process stamp protocol, transient/permanent
error classification with bounded backoff, and the instrumented write
paths actually surviving (or propagating) injected faults.
"""

from __future__ import annotations

import errno
import json
import time

import numpy as np
import pytest

from repro.archive.columnar import JOBS_DTYPE, ColumnarStore
from repro.campaign.spec import run_id_of
from repro.campaign.store import ResultStore
from repro.diagnostics.bundle import write_bundle
from repro.errors import ConfigError
from repro.faultinject import (
    CATALOG,
    EXIT_FAILPOINT_KILL,
    FailpointSpec,
    FaultPlan,
    armed,
    classify_io_error,
    failpoint,
    failpoint_write,
    parse_plan,
    with_io_retries,
)
from repro.faultinject import registry as registry_mod


@pytest.fixture(autouse=True)
def _disarmed():
    saved = registry_mod._PLAN
    registry_mod.disarm()
    yield
    registry_mod._PLAN = saved


class TestPlanLanguage:
    def test_parse_single_clause_defaults(self):
        (spec,) = parse_plan("store.result.write=eio")
        assert spec == FailpointSpec("store.result.write", "eio", nth=1, arg=0)

    def test_parse_multiple_clauses_with_nth_and_arg(self):
        specs = parse_plan(
            "snapshot.write=truncate:2:17; columnar.append.write=kill:3"
        )
        assert specs[0] == FailpointSpec("snapshot.write", "truncate", 2, 17)
        assert specs[1] == FailpointSpec("columnar.append.write", "kill", 3, 0)

    def test_encode_round_trips(self):
        raw = "snapshot.write=truncate:2:17"
        assert parse_plan(raw)[0].encode() == raw
        plan = FaultPlan(parse_plan("store.jsonl.write=eio:4"))
        assert parse_plan(plan.encode()) == parse_plan("store.jsonl.write=eio:4")

    @pytest.mark.parametrize("raw", [
        "nope.unknown=eio",            # unregistered name
        "store.result.write=explode",  # unknown action
        "store.result.write",          # no action at all
        "store.result.write=eio:0",    # nth < 1
        "store.result.write=eio:x",    # non-integer nth
        "",                            # empty plan
    ])
    def test_bad_plans_rejected(self, raw):
        with pytest.raises(ConfigError):
            parse_plan(raw)

    def test_catalog_names_are_what_the_code_calls(self):
        # Every registered site appears in the source of the module it
        # claims to guard — a renamed hook must update the catalog.
        import inspect

        import repro.archive.columnar
        import repro.archive.ingest
        import repro.archive.replay
        import repro.campaign.lease
        import repro.campaign.queue
        import repro.campaign.store
        import repro.diagnostics.bundle
        import repro.observability.events
        import repro.service.server
        import repro.service.submit
        import repro.snapshot.state

        sources = "".join(
            inspect.getsource(mod)
            for mod in (
                repro.campaign.store,
                repro.campaign.queue,
                repro.campaign.lease,
                repro.snapshot.state,
                repro.archive.columnar,
                repro.archive.ingest,
                repro.archive.replay,
                repro.diagnostics.bundle,
                repro.observability.events,
                repro.service.server,
                repro.service.submit,
            )
        )
        for name in CATALOG:
            if name.startswith("archive."):
                # Parameterised via the fp_name argument prefix.
                assert name.rsplit(".", 1)[0].split(".")[1] in sources
            else:
                assert f'"{name}"' in sources, name

    def test_from_env(self):
        plan = FaultPlan.from_env({"REPRO_FAILPOINTS": "bundle.write=enospc"})
        assert plan is not None and "bundle.write" in plan.specs
        assert FaultPlan.from_env({}) is None


class TestFiring:
    def test_disarmed_is_a_no_op(self):
        failpoint("store.result.write")  # must not raise

    def test_disarmed_hook_costs_under_1500_ns(self):
        # Disarmed hooks sit on every durable-write path.  One is a
        # global load plus an identity check, tens of ns, so the bound
        # leaves room for a loaded shared host while still catching a
        # fast path that does real work.
        calls = 200_000
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            for _ in range(calls):
                failpoint("store.result.write")
            best = min(best, time.process_time() - start)
        ns_per_call = 1e9 * best / calls
        assert ns_per_call < 1500.0, (
            f"disarmed failpoint hook costs {ns_per_call:.0f} ns/call"
        )

    def test_nth_hit_fires_once(self):
        plan = FaultPlan(parse_plan("bundle.write=eio:3"))
        with armed(plan):
            failpoint("bundle.write")
            failpoint("bundle.write")
            with pytest.raises(OSError) as excinfo:
                failpoint("bundle.write")
            assert excinfo.value.errno == errno.EIO
            failpoint("bundle.write")  # fired already: silent forever

    def test_enospc_action(self):
        with armed(FaultPlan(parse_plan("bundle.write=enospc"))):
            with pytest.raises(OSError) as excinfo:
                failpoint("bundle.write")
        assert excinfo.value.errno == errno.ENOSPC

    def test_unplanned_site_never_fires(self):
        with armed(FaultPlan(parse_plan("bundle.write=eio"))):
            failpoint("snapshot.write")

    def test_stamp_dir_makes_firing_once_only_across_plans(self, tmp_path):
        # Two plans with the same stamp dir model a killed process and
        # its replacement: only the first may fire.
        first = FaultPlan(parse_plan("bundle.write=eio"), stamp_dir=tmp_path)
        second = FaultPlan(parse_plan("bundle.write=eio"), stamp_dir=tmp_path)
        with armed(first):
            with pytest.raises(OSError):
                failpoint("bundle.write")
        assert (tmp_path / "bundle.write.fired").is_file()
        with armed(second):
            failpoint("bundle.write")  # stamp already claimed

    def test_failpoint_write_passthrough_and_eio(self, tmp_path):
        path = tmp_path / "out.bin"
        with path.open("wb") as handle:
            failpoint_write("store.jsonl.write", handle, b"payload")
        assert path.read_bytes() == b"payload"
        with armed(FaultPlan(parse_plan("store.jsonl.write=eio"))):
            with path.open("wb") as handle:
                with pytest.raises(OSError):
                    failpoint_write("store.jsonl.write", handle, b"payload")

    def test_kill_exit_code_is_distinctive(self):
        assert EXIT_FAILPOINT_KILL == 86  # documented in the CLI table


class TestRetries:
    def test_classification(self):
        assert classify_io_error(OSError(errno.EIO, "")) == "transient"
        assert classify_io_error(OSError(errno.ENOSPC, "")) == "transient"
        assert classify_io_error(OSError(errno.EACCES, "")) == "permanent"
        assert classify_io_error(OSError(errno.ENOENT, "")) == "permanent"

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        delays: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "injected")
            return "ok"

        assert with_io_retries(flaky, sleep=delays.append) == "ok"
        assert calls["n"] == 3
        assert len(delays) == 2 and delays[0] < delays[1]

    def test_permanent_error_raises_immediately(self):
        calls = {"n": 0}

        def denied():
            calls["n"] += 1
            raise OSError(errno.EACCES, "no")

        with pytest.raises(OSError):
            with_io_retries(denied, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_budget_exhaustion_reraises(self):
        def always():
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError) as excinfo:
            with_io_retries(always, attempts=3, sleep=lambda s: None)
        assert excinfo.value.errno == errno.ENOSPC

    def test_on_retry_observes_each_attempt(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise OSError(errno.EIO, "once")
            return 1

        with_io_retries(
            flaky,
            sleep=lambda s: None,
            on_retry=lambda exc, attempt, delay: seen.append(attempt),
        )
        assert seen == [1]


class TestInstrumentedPaths:
    """Injected faults against the real write paths."""

    def test_store_save_survives_transient_eio(self, tmp_path, monkeypatch):
        import repro.faultinject.retry as retry_mod

        monkeypatch.setattr(retry_mod.time, "sleep", lambda s: None)
        store = ResultStore(tmp_path)
        params = {"kind": "t", "value": 1}
        run_id = run_id_of(params)
        record = {"run_id": run_id, "label": "t", "params": params,
                  "result": {"x": 1}}
        with armed(FaultPlan(parse_plan("store.result.write=eio"))):
            store.save(run_id, record)
        assert json.loads(store.path_for(run_id).read_text())["result"] == {"x": 1}
        # No temp residue from the failed first attempt.
        assert not list(tmp_path.glob(".*.tmp"))

    def test_columnar_append_survives_transient_enospc(
        self, tmp_path, monkeypatch
    ):
        import repro.faultinject.retry as retry_mod

        monkeypatch.setattr(retry_mod.time, "sleep", lambda s: None)
        store = ColumnarStore(tmp_path)
        batch = np.zeros(4, dtype=JOBS_DTYPE)
        batch["job_id"] = np.arange(4)
        with armed(FaultPlan(parse_plan("columnar.append.write=enospc"))):
            assert store.append("jobs", batch) == 0
        got = np.asarray(ColumnarStore(tmp_path).read("jobs"))
        assert got.tobytes() == batch.tobytes()

    def test_bundle_write_propagates_eio(self, tmp_path):
        # Bundles have no retry wrapper: a bad disk surfaces to the
        # caller (the quarantine path tolerates a missing bundle).
        with armed(FaultPlan(parse_plan("bundle.write=eio"))):
            with pytest.raises(OSError):
                write_bundle({"format": "test", "x": 1}, tmp_path / "b.json")
