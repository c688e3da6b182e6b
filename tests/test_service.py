"""The ``repro serve`` service: HTTP plumbing, the idempotent
submission registry, admission control / shedding, SSE progress
streams with half-open reaping, and the drain ladder.

The live-server tests run a real :class:`ReproService` on an
ephemeral port inside a background thread — the same asyncio code
the CLI runs, exercised over real sockets.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.queue import WorkQueue
from repro.campaign.spec import CampaignSpec
from repro.campaign.warm import WarmFleet
from repro.cli import (
    _campaign_settings_from_args,
    build_parser,
    main,
)
from repro.errors import ConfigError
from repro.faultinject.chaos import store_fingerprint
from repro.service import client
from repro.service import http as shttp
from repro.service import server as server_module
from repro.service.config import ServiceConfig
from repro.service.server import ReproService, serve_main
from repro.service.submit import (
    IdempotencyConflict,
    SubmissionRegistry,
    default_submission_settings,
    submission_id_of,
)

SPEC_A = {
    "name": "svc-a", "jobs": 25, "cluster_sizes": [16],
    "seeds": [1], "strategies": ["fcfs"],
}
SPEC_B = {
    "name": "svc-b", "jobs": 25, "cluster_sizes": [16],
    "seeds": [1], "strategies": ["easy_backfill"],
}
#: Six 300-job runs: long enough to kill its worker mid-drain.
SPEC_SLOW = {
    "name": "svc-slow", "jobs": 300, "cluster_sizes": [32],
    "seeds": [1, 2, 3, 4, 5, 6], "strategies": ["easy_backfill"],
}


# ----------------------------------------------------------------------
# HTTP plumbing (pure units)
# ----------------------------------------------------------------------
def _parse(raw: bytes, max_body: int = 4096):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await shttp.read_request(reader, max_body=max_body)

    return asyncio.run(go())


class TestHttpPlumbing:
    def test_parses_post_with_body(self):
        raw = (
            b"POST /v1/campaigns?x=1 HTTP/1.1\r\n"
            b"Idempotency-Key: K\r\n"
            b"Content-Length: 9\r\n\r\n"
            b'{"a": 1}\n'
        )
        request = _parse(raw)
        assert request.method == "POST"
        assert request.path == "/v1/campaigns"
        assert request.query == {"x": "1"}
        assert request.headers["idempotency-key"] == "K"
        assert request.json() == {"a": 1}

    def test_clean_eof_is_none(self):
        assert _parse(b"") is None

    @pytest.mark.parametrize("raw, status", [
        (b"NONSENSE\r\n\r\n", 400),                      # bad request line
        (b"GET / HTTP/1.1\r\nbroken header\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n", 413),
        (b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab", 400),  # short
    ])
    def test_malformed_requests_rejected(self, raw, status):
        with pytest.raises(shttp.ProtocolError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == status

    def test_body_json_garbage_is_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nnop"
        request = _parse(raw)
        with pytest.raises(shttp.ProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_error_response_carries_retry_after(self):
        raw = shttp.error_response(
            429, "Overloaded", "shed", retry_after_s=2.0
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 429 Too Many Requests" in head
        assert b"Retry-After: 2" in head
        doc = json.loads(body)
        assert doc == {"error": "Overloaded", "message": "shed",
                       "status": 429}

    def test_response_content_length_is_exact(self):
        raw = shttp.json_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        declared = int(
            [line for line in head.decode().split("\r\n")
             if line.lower().startswith("content-length")][0]
            .split(":")[1]
        )
        assert declared == len(body)

    def test_sse_frames(self):
        assert shttp.sse_heartbeat() == b": hb\n\n"
        frame = shttp.sse_event("status", {"state": "queued"})
        assert frame.startswith(b"event: status\ndata: ")
        assert frame.endswith(b"\n\n")
        assert b'"state": "queued"' in frame


# ----------------------------------------------------------------------
# Submission registry (durable layer, no HTTP)
# ----------------------------------------------------------------------
class TestSubmissionRegistry:
    def test_settings_lockstep_with_campaign_cli(self):
        # Byte-identity with `repro campaign --join` stores hinges on
        # the service recording exactly the CLI's default settings.
        args = build_parser().parse_args(["campaign", "--join"])
        expected = _campaign_settings_from_args(args)
        expected.pop("workers")
        expected["queue"] = True
        assert default_submission_settings() == expected

    def test_submission_id_is_content_derived(self):
        a1 = submission_id_of(CampaignSpec.from_dict(SPEC_A).to_dict())
        a2 = submission_id_of(CampaignSpec.from_dict(SPEC_A).to_dict())
        b = submission_id_of(CampaignSpec.from_dict(SPEC_B).to_dict())
        assert a1 == a2 != b

    def test_submit_enqueues_durable_runs(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        record, created, replayed = registry.submit(SPEC_A)
        assert created and not replayed
        assert record["runs"] == 1
        store_dir = registry.store_dir(record["submission"])
        assert (store_dir / ".campaign.json").is_file()
        assert WorkQueue(store_dir).status()["pending"] == 1
        status = registry.status(record["submission"])
        assert status["state"] == "queued" and status["done"] == 0

    def test_resubmit_same_spec_converges(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        first, created, _ = registry.submit(SPEC_A)
        second, created2, _ = registry.submit(SPEC_A)
        assert created and not created2
        assert first["submission"] == second["submission"]
        assert registry.list_ids() == [first["submission"]]

    def test_idempotency_key_replays_without_rework(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        first, _, replayed1 = registry.submit(SPEC_A, "retry-key")
        second, created, replayed2 = registry.submit(SPEC_A, "retry-key")
        assert not replayed1 and replayed2 and not created
        assert first == second

    def test_key_conflict_is_deterministic(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        registry.submit(SPEC_A, "k")
        with pytest.raises(IdempotencyConflict):
            registry.submit(SPEC_B, "k")

    def test_invalid_spec_is_config_error(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        with pytest.raises(ConfigError):
            registry.submit({"name": "x", "no_such_axis": [1]})
        with pytest.raises(ConfigError):
            registry.submit(["not", "an", "object"])
        assert registry.list_ids() == []

    def test_torn_key_record_self_heals(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        # A crash between create and write in a pre-atomic-commit
        # store leaves an empty key record; it must read as absent
        # and be rebound by the retry, not poison the key with a
        # permanent ConfigError.
        registry._key_path("k").write_bytes(b"")
        record, created, replayed = registry.submit(SPEC_A, "k")
        assert created and not replayed
        bound = json.loads(registry._key_path("k").read_text())
        assert bound["submission"] == record["submission"]
        _, created2, replayed2 = registry.submit(SPEC_A, "k")
        assert replayed2 and not created2

    def test_key_commit_crash_window_leaves_no_torn_record(
        self, tmp_path, monkeypatch
    ):
        import errno
        import os

        from repro.faultinject import FailpointSpec, FaultPlan, armed

        registry = SubmissionRegistry(tmp_path)
        idempotency = tmp_path / "idempotency"
        # A transient error on the key write is retried in place.
        plan = FaultPlan([FailpointSpec(
            name="service.key.write", action="eio", nth=1,
        )])
        with armed(plan):
            record, _, _ = registry.submit(SPEC_A, "k")
        assert registry._read_key("k") == record["submission"]
        assert sorted(p.name for p in idempotency.iterdir()) == [
            registry._key_path("k").name
        ]
        # A permanent error at the commit point (the link) propagates.
        def refuse_link(src, dst):
            raise OSError(errno.EACCES, "link refused")

        monkeypatch.setattr(os, "link", refuse_link)
        with pytest.raises(OSError, match="link refused"):
            registry.submit(SPEC_A, "k2")
        monkeypatch.undo()
        # The failed commit is invisible: no torn record binds the
        # key, no temp file is left, and the retry binds it cleanly.
        assert sorted(p.name for p in idempotency.iterdir()) == [
            registry._key_path("k").name
        ]
        again, _, _ = registry.submit(SPEC_A, "k2")
        assert again == record
        bound = json.loads(registry._key_path("k2").read_text())
        assert bound["submission"] == record["submission"]

    def test_concurrent_duplicates_report_exactly_one_created(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        barrier = threading.Barrier(6)
        results: list[tuple[dict, bool, bool]] = []
        lock = threading.Lock()

        def go():
            barrier.wait()
            out = registry.submit(SPEC_A)
            with lock:
                results.append(out)

        threads = [threading.Thread(target=go) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 6
        # `created` is derived from the record write itself, so one
        # durable submission yields exactly one 201 however many
        # clients race.
        assert sum(1 for _, created, _ in results if created) == 1
        assert registry.list_ids() == [results[0][0]["submission"]]

    def test_drained_store_matches_cli_campaign(self, tmp_path):
        registry = SubmissionRegistry(tmp_path / "svc")
        record, _, _ = registry.submit(SPEC_A)
        store_dir = registry.store_dir(record["submission"])
        assert main(["queue", "work", str(store_dir), "--quiet"]) == 0
        assert registry.status(record["submission"])["state"] == "complete"
        assert registry.results_path(record["submission"]).is_file()
        baseline = tmp_path / "baseline"
        assert main([
            "campaign", "--jobs", "25", "--sizes", "16", "--seeds", "1",
            "--strategies", "fcfs", "--name", "svc-a",
            "--join", "--workers", "1", "--store", str(baseline), "--quiet",
        ]) == 0
        assert store_fingerprint(store_dir) == store_fingerprint(baseline)


# ----------------------------------------------------------------------
# Live server
# ----------------------------------------------------------------------
class ServerHandle:
    """A ReproService running in a background thread on port 0."""

    def __init__(self, root: Path, config: ServiceConfig) -> None:
        self.root = root
        self.config = config
        self.service: ReproService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.error: BaseException | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaces in the test thread
            self.error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.service = ReproService(self.root, self.config)
        await self.service.start()
        self._ready.set()
        await self.service.run_until_drained()

    def start(self) -> "ServerHandle":
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        if self.error is not None:
            raise self.error
        return self

    @property
    def port(self) -> int:
        return self.service.port

    def drain(self, reason: str = "test") -> None:
        self.loop.call_soon_threadsafe(
            self.service.request_drain, reason
        )

    def stop(self) -> None:
        if self._thread.is_alive():
            self.drain("test-stop")
            self._thread.join(timeout=15)


@pytest.fixture
def serve(tmp_path):
    handles: list[ServerHandle] = []

    def _start(config: ServiceConfig | None = None) -> ServerHandle:
        handle = ServerHandle(
            tmp_path / f"svc{len(handles)}",
            config or ServiceConfig(port=0, poll_s=0.02),
        )
        handles.append(handle)
        return handle.start()

    yield _start
    for handle in handles:
        handle.stop()


def _wait_for(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _occupy_slot(handle) -> tuple[threading.Event, threading.Thread]:
    """Start a submission and wait until it holds an admission slot; it
    keeps the slot until the returned event is set, and the caller
    joins the returned thread."""
    release = threading.Event()
    original = handle.service.registry.submit

    def gated(spec_data, key=None):
        release.wait(30)
        return original(spec_data, key)

    handle.service.registry.submit = gated
    occupier = threading.Thread(
        target=client.post_json,
        args=("127.0.0.1", handle.port, "/v1/campaigns", SPEC_A),
    )
    occupier.start()
    if not _wait_for(lambda: handle.service._sem.locked()):
        release.set()
        occupier.join(timeout=10)
        pytest.fail("the occupying submission never took an admission slot")
    return release, occupier


class TestServerEndpoints:
    def test_submit_poll_list_and_health(self, serve):
        handle = serve()
        port = handle.port
        status, doc = client.post_json(
            "127.0.0.1", port, "/v1/campaigns", SPEC_A
        )
        assert status == 201 and doc["replayed"] is False
        sub_id = doc["submission"]

        status, listing = client.get_json("127.0.0.1", port, "/v1/campaigns")
        assert status == 200 and listing["submissions"] == [sub_id]

        status, progress = client.get_json(
            "127.0.0.1", port, f"/v1/campaigns/{sub_id}"
        )
        assert status == 200
        assert progress["state"] == "queued" and progress["runs"] == 1

        status, health = client.get_json("127.0.0.1", port, "/healthz")
        assert status == 200 and health["status"] == "ok"
        admission = health["admission"]
        assert admission["requests"] == (
            admission["accepted"] + admission["shed"]
            + admission["rejected_draining"]
        )
        assert admission["submissions_created"] == 1

    def test_readyz_census_matches_queue_status(self, serve):
        handle = serve()
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        store_dir = handle.service.registry.store_dir(doc["submission"])
        status, ready = client.get_json("127.0.0.1", port, "/readyz")
        assert status == 200 and ready["ready"] is True
        # /readyz aggregates the exact WorkQueue.status() census that
        # `repro queue status --json` prints — one codepath, two views.
        census = WorkQueue(store_dir).status()
        for field in ("pending", "claimable", "leased", "completed"):
            assert ready["queues"][field] == census[field]

    def test_duplicate_idempotency_key_replays(self, serve):
        port = serve().port
        headers = {"Idempotency-Key": "once"}
        status1, doc1 = client.post_json(
            "127.0.0.1", port, "/v1/campaigns", SPEC_A, headers=headers
        )
        status2, doc2 = client.post_json(
            "127.0.0.1", port, "/v1/campaigns", SPEC_A, headers=headers
        )
        assert status1 == 201 and status2 == 200
        assert doc2["replayed"] is True
        assert doc1["submission"] == doc2["submission"]
        # The replay is counted as a replay, never as a second creation.
        _, health = client.get_json("127.0.0.1", port, "/healthz")
        assert health["admission"]["submissions_created"] == 1
        assert health["admission"]["submissions_replayed"] == 1

    def test_key_conflict_is_409(self, serve):
        port = serve().port
        headers = {"Idempotency-Key": "clash"}
        client.post_json(
            "127.0.0.1", port, "/v1/campaigns", SPEC_A, headers=headers
        )
        status, doc = client.post_json(
            "127.0.0.1", port, "/v1/campaigns", SPEC_B, headers=headers
        )
        assert status == 409 and doc["error"] == "IdempotencyConflict"

    def test_bad_spec_is_400(self, serve):
        port = serve().port
        status, doc = client.post_json(
            "127.0.0.1", port, "/v1/campaigns", {"bogus_axis": [1]}
        )
        assert status == 400 and doc["error"] == "ConfigError"

    def test_unknown_routes_and_methods(self, serve):
        port = serve().port
        status, _ = client.get_json("127.0.0.1", port, "/v1/campaigns/nope")
        assert status == 404
        status, _ = client.get_json("127.0.0.1", port, "/nowhere")
        assert status == 404
        status, _, _ = client.request(
            "127.0.0.1", port, "DELETE", "/v1/campaigns"
        )
        assert status == 405

    def test_results_before_completion_is_409(self, serve):
        port = serve().port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        status, err = client.get_json(
            "127.0.0.1", port, f"/v1/campaigns/{doc['submission']}/results"
        )
        assert status == 409 and err["error"] == "NotComplete"

    def test_results_after_external_drain(self, serve):
        handle = serve()
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        sub_id = doc["submission"]
        store_dir = handle.service.registry.store_dir(sub_id)
        assert main(["queue", "work", str(store_dir), "--quiet"]) == 0
        status, headers, body = client.request(
            "127.0.0.1", port, "GET", f"/v1/campaigns/{sub_id}/results"
        )
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        (line,) = body.decode().splitlines()
        assert "run_id" in json.loads(line)

    def test_deadline_expiry_is_503_with_retry_after(self, serve):
        handle = serve(ServiceConfig(port=0, deadline_s=0.2))
        port = handle.port
        original = handle.service.registry.submit

        def slow(spec_data, key=None):
            time.sleep(1.0)
            return original(spec_data, key)

        handle.service.registry.submit = slow
        status, _, body = client.request(
            "127.0.0.1", port, "POST", "/v1/campaigns",
            body=json.dumps(SPEC_A).encode(),
        )
        assert status == 503
        assert json.loads(body)["error"] == "DeadlineExceeded"
        assert handle.service.metrics["deadline_timeouts"] == 1

    def test_draining_rejects_new_work_with_503(self, serve):
        handle = serve()
        port = handle.port
        # Flip the drain flag without firing the drain event: this is
        # the window where the listener is still up but new work must
        # bounce (request_drain itself closes the listener moments
        # later, which would turn the 503 into a connection refusal).
        handle.service._draining = True
        handle.service._drain_reason = "test-drain"
        status, headers, body = client.request(
            "127.0.0.1", port, "POST", "/v1/campaigns",
            body=json.dumps(SPEC_A).encode(),
        )
        assert status == 503
        assert json.loads(body)["error"] == "Draining"
        assert "retry-after" in headers
        assert handle.service.metrics["rejected_draining"] == 1
        # Health stays reachable while draining (bypasses the gate).
        status, health = client.get_json("127.0.0.1", port, "/healthz")
        assert status == 200 and health["status"] == "draining"
        handle.service._draining = False


class TestAdmissionControl:
    def test_overload_sheds_429_with_retry_after(self, serve):
        handle = serve(ServiceConfig(
            port=0, max_inflight=1, accept_backlog=0, deadline_s=30.0,
        ))
        port = handle.port
        # A slow submission occupies the single inflight slot...
        release, occupier = _occupy_slot(handle)
        try:
            # ...so the next request is shed immediately, not queued.
            status, headers, body = client.request(
                "127.0.0.1", port, "GET", "/v1/campaigns"
            )
            assert status == 429
            assert json.loads(body)["error"] == "Overloaded"
            assert headers["retry-after"] == "1"
            assert handle.service.metrics["shed"] == 1
            # Saturation is visible to orchestrators: /readyz flips 503
            # (health bypasses admission, so this cannot deadlock).
            status, ready = client.get_json("127.0.0.1", port, "/readyz")
            assert status == 503 and ready["ready"] is False
        finally:
            release.set()
            occupier.join(timeout=10)

    def test_burst_beyond_backlog_is_shed_and_accounted(self, serve):
        clients, backlog = 20, 2
        handle = serve(ServiceConfig(
            port=0, max_inflight=1, accept_backlog=backlog, deadline_s=30.0,
        ))
        port = handle.port
        release, occupier = _occupy_slot(handle)
        statuses: list[int] = []
        probes = [
            threading.Thread(target=lambda: statuses.append(
                client.request("127.0.0.1", port, "GET", "/v1/campaigns")[0]
            ))
            for _ in range(clients)
        ]
        try:
            for probe in probes:
                probe.start()
            # Every probe has been shed or has joined the backlog.
            assert _wait_for(
                lambda: handle.service.metrics["requests"] == clients + 1
            )
        finally:
            release.set()
            for probe in probes:
                probe.join(timeout=30)
            occupier.join(timeout=30)
        assert len(statuses) == clients
        assert set(statuses) <= {200, 429}
        assert statuses.count(429) >= clients - backlog - 1
        _, health = client.get_json("127.0.0.1", port, "/healthz")
        admission = health["admission"]
        assert admission["requests"] == (
            admission["accepted"] + admission["shed"]
            + admission["rejected_draining"]
        )

    def test_backlog_waiter_is_shed_503_at_deadline(self, serve):
        handle = serve(ServiceConfig(
            port=0, max_inflight=1, accept_backlog=4, deadline_s=0.2,
        ))
        port = handle.port
        # Wedge the only handler slot from outside the request path —
        # a pathologically stuck handler that no per-request deadline
        # will free.  Backlog waiters must not be parked forever
        # behind it: they are shed late with 503 at the deadline.
        asyncio.run_coroutine_threadsafe(
            handle.service._sem.acquire(), handle.loop
        ).result(10)
        try:
            status, headers, body = client.request(
                "127.0.0.1", port, "GET", "/v1/campaigns"
            )
            assert status == 503
            assert json.loads(body)["error"] == "BacklogTimeout"
            assert "retry-after" in headers
            assert handle.service.metrics["backlog_timeouts"] == 1
            # Late sheds count as shed: the accounting still balances.
            assert handle.service.metrics["shed"] == 1
        finally:
            handle.loop.call_soon_threadsafe(handle.service._sem.release)
        _, health = client.get_json("127.0.0.1", port, "/healthz")
        admission = health["admission"]
        assert admission["requests"] == (
            admission["accepted"] + admission["shed"]
            + admission["rejected_draining"]
        )

    def test_backlog_admits_after_slot_frees(self, serve):
        handle = serve(ServiceConfig(
            port=0, max_inflight=1, accept_backlog=4, deadline_s=30.0,
        ))
        port = handle.port
        release, occupier = _occupy_slot(handle)
        results: list[int] = []
        waiter = threading.Thread(
            target=lambda: results.append(
                client.get_json("127.0.0.1", port, "/v1/campaigns")[0]
            ),
        )
        waiter.start()
        assert _wait_for(lambda: handle.service._waiting == 1)
        release.set()  # frees the slot; the waiter must be admitted
        waiter.join(timeout=10)
        occupier.join(timeout=10)
        assert results == [200]
        assert handle.service.metrics["shed"] == 0

    def test_accounting_balances_under_mixed_load(self, serve):
        handle = serve()
        port = handle.port
        client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        client.get_json("127.0.0.1", port, "/v1/campaigns")
        client.get_json("127.0.0.1", port, "/v1/campaigns/zzz")
        _, health = client.get_json("127.0.0.1", port, "/healthz")
        admission = health["admission"]
        assert admission["requests"] == 3
        assert admission["requests"] == (
            admission["accepted"] + admission["shed"]
            + admission["rejected_draining"]
        )


class TestSSEStreams:
    def test_heartbeats_flow_on_idle_stream(self, serve):
        handle = serve(ServiceConfig(
            port=0, heartbeat_s=0.05, poll_s=0.01,
        ))
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        events = []
        beats = 0
        for event, _data in client.stream_sse(
            "127.0.0.1", port,
            f"/v1/campaigns/{doc['submission']}/events", timeout=10,
        ):
            events.append(event)
            beats += event == "heartbeat"
            if beats >= 3:
                break
        assert events[0] == "status"  # initial census precedes idling
        assert beats >= 3

    def test_stream_completes_when_queue_drains(self, serve):
        handle = serve(ServiceConfig(
            port=0, heartbeat_s=5.0, poll_s=0.02,
        ))
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        sub_id = doc["submission"]
        store_dir = handle.service.registry.store_dir(sub_id)
        drainer = threading.Thread(
            target=main, args=(["queue", "work", str(store_dir), "--quiet"],)
        )
        drainer.start()
        try:
            seen = [
                event for event, _ in client.stream_sse(
                    "127.0.0.1", port,
                    f"/v1/campaigns/{sub_id}/events", timeout=60,
                )
            ]
        finally:
            drainer.join(timeout=60)
        assert seen[-1] == "complete"
        assert handle.service.metrics["streams_completed"] == 1

    def test_unknown_submission_stream_is_404(self, serve):
        port = serve().port
        with pytest.raises(RuntimeError, match="404"):
            next(iter(client.stream_sse(
                "127.0.0.1", port, "/v1/campaigns/nope/events"
            )))

    def test_half_open_stream_is_reaped_at_next_heartbeat(self, serve):
        handle = serve(ServiceConfig(
            port=0, heartbeat_s=0.05, poll_s=0.01,
        ))
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(
            f"GET /v1/campaigns/{doc['submission']}/events HTTP/1.1\r\n"
            f"Host: x\r\n\r\n".encode()
        )
        head = b""
        while b"\r\n\r\n" not in head:
            head += sock.recv(1024)
        assert handle.service.metrics["streams_opened"] == 1
        # RST on close (SO_LINGER 0): the peer vanishes without FIN
        # handshaking — the heartbeat write is what must notice.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        assert _wait_for(
            lambda: handle.service.metrics["streams_reaped"] == 1
        ), "dead stream was never reaped"

    def test_established_stream_releases_admission_slot(self, serve):
        handle = serve(ServiceConfig(
            port=0, max_inflight=1, accept_backlog=0,
            heartbeat_s=30.0, poll_s=0.02,
        ))
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            sock.sendall(
                f"GET /v1/campaigns/{doc['submission']}/events HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(1024)
            assert b"200 OK" in head
            assert _wait_for(lambda: handle.service._streams == 1)
            # The established stream has handed its slot back, so the
            # gate (capacity 1, backlog 0) still admits plain requests
            # — streams must not starve the request path.
            assert _wait_for(lambda: not handle.service._sem.locked())
            status, listing = client.get_json(
                "127.0.0.1", port, "/v1/campaigns"
            )
            assert status == 200
            assert listing["submissions"] == [doc["submission"]]
            assert handle.service.metrics["shed"] == 0
            _, health = client.get_json("127.0.0.1", port, "/healthz")
            assert health["streams_active"] == 1
        finally:
            sock.close()

    def test_stream_cap_sheds_429(self, serve):
        handle = serve(ServiceConfig(
            port=0, max_streams=1, heartbeat_s=30.0, poll_s=0.02,
        ))
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            sock.sendall(
                f"GET /v1/campaigns/{doc['submission']}/events HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(1024)
            assert _wait_for(lambda: handle.service._streams == 1)
            status, headers, body = client.request(
                "127.0.0.1", port, "GET",
                f"/v1/campaigns/{doc['submission']}/events",
            )
            assert status == 429
            assert json.loads(body)["error"] == "Overloaded"
            assert "retry-after" in headers
            assert handle.service.metrics["streams_shed"] == 1
        finally:
            sock.close()

    def test_drain_notifies_open_streams(self, serve):
        handle = serve(ServiceConfig(
            port=0, heartbeat_s=30.0, poll_s=0.02,
        ))
        port = handle.port
        _, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", SPEC_A)
        seen: list[str] = []

        def pump():
            for event, _data in client.stream_sse(
                "127.0.0.1", port,
                f"/v1/campaigns/{doc['submission']}/events", timeout=30,
            ):
                seen.append(event)

        streamer = threading.Thread(target=pump)
        streamer.start()
        assert _wait_for(
            lambda: handle.service.metrics["streams_opened"] == 1
        )
        assert _wait_for(lambda: "status" in seen)
        handle.drain("test-drain")
        streamer.join(timeout=15)
        assert seen[-1] == "drain"


class TestFleetSupervisor:
    def test_submission_and_worker_exit_wake_the_supervisor(
        self, serve, monkeypatch
    ):
        # With the fallback tick a minute long, the second campaign
        # finishes in time only if a new submission starts a worker
        # and that worker's answer for the first store frees it
        # without waiting for the tick.
        monkeypatch.setattr(server_module, "SUPERVISE_POLL_S", 60.0)
        handle = serve(ServiceConfig(port=0, poll_s=0.02, workers=1))
        port = handle.port
        sub_ids = []
        for spec in (SPEC_A, SPEC_B):
            status, doc = client.post_json(
                "127.0.0.1", port, "/v1/campaigns", spec
            )
            assert status == 201
            sub_ids.append(doc["submission"])

        def complete() -> bool:
            return all(
                client.get_json(
                    "127.0.0.1", port, f"/v1/campaigns/{sub_id}"
                )[1]["state"] == "complete"
                for sub_id in sub_ids
            )

        assert _wait_for(complete, timeout=20.0, interval=0.05)

    def test_one_warm_worker_drains_sequential_submissions(self, serve):
        handle = serve(ServiceConfig(port=0, poll_s=0.02, workers=1))
        port = handle.port
        pids: set[int] = set()
        for seed in (1, 2, 3):
            sub_id = _submit(port, dict(SPEC_A, seeds=[seed]))
            assert _wait_for(lambda: _state(port, sub_id) == "complete")
            pids.update(_worker_pids(handle, sub_id))
            _, health = client.get_json("127.0.0.1", port, "/healthz")
            assert health["workers"]["live"] == 1
        assert len(pids) == 1

    def test_worker_killed_holding_a_store_is_replaced_and_charged(
        self, serve
    ):
        import os
        import signal

        handle = serve(ServiceConfig(port=0, poll_s=0.02, workers=1))
        port = handle.port
        sub_id = _submit(port, SPEC_SLOW)
        store = handle.service.registry.store_dir(sub_id)
        assert _wait_for(lambda: WorkQueue(store).status()["leased"])
        (holder,) = [
            proc for proc, held in handle.service.fleet.held.items()
            if held == sub_id
        ]
        os.kill(holder.pid, signal.SIGKILL)
        assert _wait_for(
            lambda: _state(port, sub_id) == "complete", timeout=60.0
        )
        # The killed worker shows in the sidecars only if it finished
        # a run first; one fresh worker finished the rest.
        fresh = _worker_pids(handle, sub_id) - {holder.pid}
        assert fresh == {proc.pid for proc in handle.service.fleet.held}
        assert len(fresh) == 1
        assert handle.service._respawns == {sub_id: 1}

    def test_idle_warm_worker_exits_4_on_drain(self, serve):
        handle = serve(ServiceConfig(
            port=0, poll_s=0.02, workers=1, drain_grace_s=3.0
        ))
        sub_id = _submit(handle.port, SPEC_A)
        assert _wait_for(lambda: _state(handle.port, sub_id) == "complete")
        (worker,) = handle.service.fleet.held
        started = time.monotonic()
        handle.stop()
        assert worker.wait(timeout=5) == 4
        assert time.monotonic() - started < 3.0


class TestWarmWorker:
    def test_drains_a_handed_store_and_ends_at_stdin_eof(self, tmp_path):
        import queue

        registry = SubmissionRegistry(tmp_path)
        record, _, _ = registry.submit(SPEC_A, None)
        store = registry.store_dir(record["submission"])
        # What the reader thread reads, as it reads it.
        inbox = queue.SimpleQueue()
        fleet = WarmFleet(
            lambda *report: None, post=lambda fn, *args: inbox.put(args)
        )
        proc = fleet.spawn(tmp_path / "workers.log")
        proc.stdin.write(f"{store}\n".encode())
        _, answer = inbox.get(timeout=30)
        assert answer == {"store": str(store), "status": "drained"}
        assert WorkQueue(store).drained()
        proc.stdin.close()
        assert inbox.get(timeout=30) == (proc,)
        assert proc.wait(timeout=30) == 0

    def test_fleet_reports_the_answer_then_the_exit(self, tmp_path):
        registry = SubmissionRegistry(tmp_path / "svc")
        record, _, _ = registry.submit(SPEC_A, None)
        store = registry.store_dir(record["submission"])
        reports = []
        fleet = WarmFleet(
            lambda proc, tag, status: reports.append((proc, tag, status))
        )
        worker = fleet.spawn(tmp_path / "workers.log")
        assert fleet.held == {worker: None}
        fleet.hand_off(worker, store, "a")
        assert fleet.held == {worker: "a"}
        deadline = time.monotonic() + 30
        while not reports and time.monotonic() < deadline:
            fleet.wait(0.1)
        assert reports == [(worker, "a", "drained")]
        assert fleet.held == {worker: None}
        assert WorkQueue(store).drained()
        # Closing stdin retires an idle worker: it exits 0.
        fleet.stop(10.0, terminate=False)
        assert worker.returncode == 0
        assert fleet.held == {} and fleet.live == {}
        fleet.wait(5.0)
        assert reports[1:] == [(worker, None, "exited")]


def _submit(port: int, spec: dict) -> str:
    status, doc = client.post_json("127.0.0.1", port, "/v1/campaigns", spec)
    assert status == 201, doc
    return doc["submission"]


def _state(port: int, sub_id: str) -> str:
    return client.get_json(
        "127.0.0.1", port, f"/v1/campaigns/{sub_id}"
    )[1]["state"]


def _worker_pids(handle: ServerHandle, sub_id: str) -> set[int]:
    """Pids of the workers that drained *sub_id*, from its sidecars."""
    from repro.observability.events import fleet_metrics

    store = handle.service.registry.store_dir(sub_id)
    return {row["pid"] for row in fleet_metrics(store)["workers"]}


class TestFleetShutdown:
    def test_stop_fleet_shares_one_grace_deadline(self):
        import subprocess

        class Stuck:
            """A worker that ignores SIGTERM until SIGKILLed."""

            def __init__(self) -> None:
                self.killed = False
                self.stdin = io.BytesIO()

            def poll(self):
                return -9 if self.killed else None

            def send_signal(self, signum) -> None:
                pass

            def wait(self, timeout=None):
                if self.killed:
                    return -9
                time.sleep(timeout)
                raise subprocess.TimeoutExpired("worker", timeout)

            def kill(self) -> None:
                self.killed = True

        fleet = WarmFleet(lambda *report: None)
        workers = [Stuck() for _ in range(4)]
        fleet.held = {w: f"s{i}" for i, w in enumerate(workers)}
        fleet.live = dict.fromkeys(workers)
        start = time.monotonic()
        fleet.stop(0.4)
        elapsed = time.monotonic() - start
        # One absolute deadline across the fleet: four stuck workers
        # must not stretch the drain to four grace windows.
        assert elapsed < 1.2, elapsed
        assert all(w.killed and w.stdin.closed for w in workers)
        assert fleet.held == {} and fleet.live == {}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.root == "service_runs"
        assert args.port == 8177 and args.workers == 0
        assert args.max_inflight == 8 and args.accept_backlog == 16
        assert args.max_streams == 32

    def test_live_manifest_refuses_double_serve(self, tmp_path, capsys):
        from repro.service.submit import write_service_manifest

        write_service_manifest(tmp_path, {
            "status": "running", "pid": 1, "host": "h", "port": 1,
        })
        assert serve_main(tmp_path, ServiceConfig(port=0)) == 2
        assert "already served" in capsys.readouterr().err

    def test_stopped_manifest_does_not_block(self, tmp_path):
        from repro.service.submit import (
            read_service_manifest,
            write_service_manifest,
        )

        write_service_manifest(tmp_path, {"status": "stopped", "pid": 1})
        assert read_service_manifest(tmp_path)["status"] == "stopped"
        # serve_main on a bad bind port proves we got past the check.
        config = ServiceConfig(host="203.0.113.1", port=1)
        assert serve_main(tmp_path, config, quiet=True) == 2


class TestQueueStatusWatch:
    def test_watch_exits_when_drained(self, tmp_path, capsys):
        spec = CampaignSpec(
            jobs=25, cluster_sizes=(16,), seeds=(1,), strategies=("fcfs",),
        )
        WorkQueue(tmp_path).enqueue(spec.expand())
        assert main(["queue", "work", str(tmp_path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(
            ["queue", "status", str(tmp_path), "--watch", "0.01"]
        ) == 0
        assert "pending" in capsys.readouterr().out

    def test_watch_json_emits_compact_lines(self, tmp_path, capsys):
        spec = CampaignSpec(
            jobs=25, cluster_sizes=(16,), seeds=(1,), strategies=("fcfs",),
        )
        WorkQueue(tmp_path).enqueue(spec.expand())
        assert main(["queue", "work", str(tmp_path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(
            ["queue", "status", str(tmp_path), "--json", "--watch", "0.01"]
        ) == 0
        (line,) = capsys.readouterr().out.splitlines()
        doc = json.loads(line)
        assert doc["pending"] == 0 and doc["completed"] == 1
