"""The ``repro serve`` server: asyncio front-end over the durable queue.

Design rules (DESIGN.md §11):

* **Accepting is enqueueing.**  ``POST /v1/campaigns`` writes the same
  durable artifacts ``repro campaign --join`` writes; the HTTP layer
  holds no state a crash could lose.  Workers — the server's own
  supervised fleet or external ``repro queue work`` processes — do
  the execution.
* **Overload is shed, not queued.**  A two-tier admission gate
  (``max_inflight`` concurrent handlers + ``accept_backlog`` waiters)
  answers everything beyond its capacity with ``429 Retry-After``
  immediately, and a backlog waiter that gets no slot within the
  request deadline is shed late with ``503`` rather than parked
  forever; the shed counts are part of ``/healthz`` so load shedding
  is observable, deterministic accounting, not silence.  SSE streams
  hand their admission slot back once established and are bounded by
  their own ``max_streams`` cap, so long-lived streams cannot starve
  the request gate.
* **Deadlines cancel the response, never the work.**  A handler that
  outlives ``deadline_s`` answers ``503``; the durable writes it
  started are idempotent, so the client's retry resumes instead of
  duplicating.
* **Streams prove they are alive.**  SSE progress streams heartbeat
  every ``heartbeat_s``; a half-open peer surfaces as a write error
  on the next beat and the stream is reaped (counted in metrics).
* **SIGTERM is a drain.**  Stop accepting, let in-flight responses
  finish (bounded grace), stop the worker fleet (workers park their
  leases and exit 4 — the suspend ladder), record ``service.json``
  status ``stopped``, exit 4.  A restarted server resumes from disk.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import sys
from pathlib import Path

from repro.campaign.queue import WorkQueue, has_queue
from repro.campaign.warm import WarmFleet
from repro.errors import ConfigError, ReproError
from repro.faultinject.registry import failpoint
from repro.service import http as _http
from repro.service.config import ServiceConfig
from repro.service.submit import (
    IdempotencyConflict,
    SubmissionRegistry,
    read_service_manifest,
    write_service_manifest,
)

#: Supervisor respawn budget per submission store: a store whose
#: drains keep ending undrained (its worker dies holding it, a poison
#: run, a config problem) stops being handed out instead of
#: crash-looping; the queue's own delivery budget quarantines the run.
WORKER_RESPAWN_BUDGET = 5

#: Supervisor poll interval.
SUPERVISE_POLL_S = 0.3

#: Shared stderr log of the warm drain workers, under the service root.
WORKER_LOG = "workers.log"


class ReproService:
    """One serving instance rooted at a service directory."""

    def __init__(
        self,
        root: str | Path,
        config: ServiceConfig | None = None,
        note=None,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServiceConfig()
        self.registry = SubmissionRegistry(self.root)
        self._note = note or (lambda line: None)
        self.port: int | None = None  # actual port once bound
        self._server: asyncio.base_events.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._sem = asyncio.Semaphore(max(1, self.config.max_inflight))
        self._waiting = 0
        self._inflight = 0
        self._streams = 0
        self._draining = False
        self._drain_reason = ""
        self._drain_event = asyncio.Event()
        #: Set when the worker fleet may have work to pick up: a new
        #: submission, a worker's answer or exit, a drain request.
        self._wake = asyncio.Event()
        self._signals = 0
        #: Warm drain workers; each member is held under the submission
        #: whose store it is draining (None while idle).
        self.fleet = WarmFleet(self._drain_ended, post=self._post)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._respawns: dict[str, int] = {}
        self._stalled: set[str] = set()
        self.metrics: dict[str, int] = {
            "requests": 0,
            "accepted": 0,
            "shed": 0,
            "backlog_timeouts": 0,
            "rejected_draining": 0,
            "deadline_timeouts": 0,
            "streams_shed": 0,
            "streams_opened": 0,
            "streams_completed": 0,
            "streams_reaped": 0,
            "submissions_created": 0,
            "submissions_replayed": 0,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind, record ``service.json``, begin accepting."""
        self._loop = asyncio.get_running_loop()
        try:
            self._server = await asyncio.start_server(
                self._client_connected, self.config.host, self.config.port
            )
        except OSError as exc:
            raise ConfigError(
                f"cannot bind {self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        write_service_manifest(self.root, {
            "service_version": 1,
            "host": self.config.host,
            "port": self.port,
            "pid": os.getpid(),
            "status": "running",
        })
        self._note(f"serving on {self.config.host}:{self.port} "
                   f"(root {self.root})")
        if self.config.workers > 0:
            self._track(asyncio.create_task(self._supervise_workers()))

    def request_drain(self, reason: str) -> None:
        """First call drains gracefully; a second cancels in-flight."""
        self._signals += 1
        if self._signals >= 2:
            for task in list(self._tasks):
                task.cancel()
            return
        self._draining = True
        self._drain_reason = reason
        self._wake.set()
        self._note(f"drain requested ({reason}): accepting stops, "
                   f"in-flight responses get "
                   f"{self.config.drain_grace_s:.0f}s")
        self._drain_event.set()

    async def run_until_drained(self) -> str:
        """Serve until a drain is requested; returns the drain reason."""
        await self._drain_event.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_grace_s)
        for task in list(self._tasks):
            if not task.done():
                task.cancel()
        await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self.fleet.stop(self.config.drain_grace_s)
        write_service_manifest(self.root, {
            "service_version": 1,
            "host": self.config.host,
            "port": self.port,
            "pid": os.getpid(),
            "status": "stopped",
        })
        return self._drain_reason

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- connection handling -------------------------------------------
    async def _client_connected(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._track(task)
        try:
            await self._handle_connection(reader, writer)
        except (
            ConnectionResetError, BrokenPipeError, asyncio.CancelledError
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await _http.read_request(
                reader, max_body=self.config.max_body_bytes
            )
        except _http.ProtocolError as exc:
            writer.write(_http.error_response(
                exc.status, "ProtocolError", str(exc)
            ))
            await writer.drain()
            return
        if request is None:
            return
        # Health endpoints bypass both the drain gate and admission:
        # they are how orchestrators decide whether to keep routing.
        # The scrape endpoint rides the same bypass — a Prometheus
        # poll must neither be shed under load (that is exactly when
        # the numbers matter) nor consume a handler slot an SSE
        # stream could be holding.
        if request.method == "GET" and request.path in (
            "/healthz", "/readyz"
        ):
            writer.write(await self._health_response(request.path))
            await writer.drain()
            return
        if request.method == "GET" and request.path == "/metrics":
            writer.write(await self._metrics_response())
            await writer.drain()
            return
        self.metrics["requests"] += 1
        if self._draining:
            self.metrics["rejected_draining"] += 1
            writer.write(_http.error_response(
                503, "Draining",
                f"server is draining ({self._drain_reason})",
                retry_after_s=self.config.retry_after_s,
            ))
            await writer.drain()
            return
        if self._sem.locked():
            if self._waiting >= self.config.accept_backlog:
                self.metrics["shed"] += 1
                writer.write(_http.error_response(
                    429, "Overloaded",
                    f"admission gate full "
                    f"({self.config.max_inflight} in flight, "
                    f"{self._waiting} waiting); shedding",
                    retry_after_s=self.config.retry_after_s,
                ))
                await writer.drain()
                return
            self._waiting += 1
            try:
                # Bounded-latency promise: a waiter cannot sit in the
                # backlog forever behind long-lived work — after the
                # request deadline it is shed (late) with 503.
                await asyncio.wait_for(
                    self._sem.acquire(), timeout=self.config.deadline_s
                )
            except asyncio.TimeoutError:
                self.metrics["shed"] += 1
                self.metrics["backlog_timeouts"] += 1
                writer.write(_http.error_response(
                    503, "BacklogTimeout",
                    f"no handler slot freed within "
                    f"{self.config.deadline_s}s; shedding",
                    retry_after_s=self.config.retry_after_s,
                ))
                await writer.drain()
                return
            finally:
                self._waiting -= 1
        else:
            await self._sem.acquire()
        self.metrics["accepted"] += 1
        self._inflight += 1
        released = False

        def _release_slot() -> None:
            # Idempotent so established SSE streams can hand their
            # slot back early while the finally below stays correct.
            nonlocal released
            if not released:
                released = True
                self._inflight -= 1
                self._sem.release()

        try:
            await self._admitted(request, writer, _release_slot)
        finally:
            _release_slot()

    async def _admitted(self, request, writer, release_slot) -> None:
        segments = [s for s in request.path.split("/") if s]
        if (
            request.method == "GET"
            and len(segments) == 4
            and segments[:2] == ["v1", "campaigns"]
            and segments[3] == "events"
        ):
            # SSE streams live past any reasonable deadline by design;
            # once established they release their admission slot and
            # are bounded by their own cap instead.
            if self._streams >= self.config.max_streams:
                self.metrics["streams_shed"] += 1
                writer.write(_http.error_response(
                    429, "Overloaded",
                    f"stream cap reached ({self.config.max_streams} "
                    f"open SSE streams); retry or poll",
                    retry_after_s=self.config.retry_after_s,
                ))
                await writer.drain()
                return
            await self._handle_events(segments[2], writer, release_slot)
            return
        try:
            response = await asyncio.wait_for(
                self._dispatch(request), self.config.deadline_s
            )
        except asyncio.TimeoutError:
            self.metrics["deadline_timeouts"] += 1
            response = _http.error_response(
                503, "DeadlineExceeded",
                f"request exceeded {self.config.deadline_s}s; durable "
                f"writes are idempotent — retry to resume",
                retry_after_s=self.config.retry_after_s,
            )
        writer.write(response)
        await writer.drain()

    async def _offload(self, fn, *args):
        """Run blocking registry/queue filesystem work in the executor
        so slow disks never stall the event loop (and with it every
        in-flight response and SSE heartbeat)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, functools.partial(fn, *args))

    # -- routing -------------------------------------------------------
    async def _dispatch(self, request) -> bytes:
        segments = [s for s in request.path.split("/") if s]
        try:
            if segments[:2] == ["v1", "campaigns"]:
                if len(segments) == 2:
                    if request.method == "POST":
                        return await self._handle_submit(request)
                    if request.method == "GET":
                        return await self._handle_list()
                    return _http.error_response(
                        405, "MethodNotAllowed", request.method
                    )
                if len(segments) == 3 and request.method == "GET":
                    return await self._handle_status(segments[2])
                if (
                    len(segments) == 4
                    and segments[3] == "results"
                    and request.method == "GET"
                ):
                    return await self._handle_results(segments[2])
            return _http.error_response(
                404, "NotFound", f"no route for {request.path}"
            )
        except IdempotencyConflict as exc:
            return _http.error_response(409, "IdempotencyConflict", str(exc))
        except ConfigError as exc:
            return _http.error_response(400, "ConfigError", str(exc))
        except ReproError as exc:
            return _http.error_response(500, type(exc).__name__, str(exc))

    async def _handle_submit(self, request) -> bytes:
        spec_data = request.json()
        key = request.headers.get("idempotency-key")
        record, created, replayed = await self._offload(
            self.registry.submit, spec_data, key
        )
        if replayed:
            self.metrics["submissions_replayed"] += 1
        elif created:
            self.metrics["submissions_created"] += 1
            self._wake.set()
        payload = dict(record)
        payload["replayed"] = replayed
        return _http.json_response(201 if created else 200, payload)

    async def _handle_list(self) -> bytes:
        return _http.json_response(
            200, {"submissions": await self._offload(self.registry.list_ids)}
        )

    async def _handle_status(self, sub_id: str) -> bytes:
        status = await self._offload(self.registry.status, sub_id)
        if status is None:
            return _http.error_response(
                404, "NotFound", f"no submission {sub_id}"
            )
        return _http.json_response(200, status)

    async def _handle_results(self, sub_id: str) -> bytes:
        status = await self._offload(self.registry.status, sub_id)
        if status is None:
            return _http.error_response(
                404, "NotFound", f"no submission {sub_id}"
            )
        if status.get("state") != "complete":
            return _http.error_response(
                409, "NotComplete",
                f"submission {sub_id} is {status.get('state')} "
                f"({status.get('done')}/{status.get('runs')} runs done)",
            )
        path = await self._offload(self.registry.results_path, sub_id)
        data = path.read_bytes() if path is not None else b""
        return _http.response_bytes(
            200, data, content_type="application/x-ndjson"
        )

    # -- health --------------------------------------------------------
    def _health_payload(self) -> dict[str, object]:
        """Blocking (reads the submissions directory) — call off-loop."""
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "streams_active": self._streams,
            "admission": {
                "capacity": self.config.max_inflight,
                "backlog": self.config.accept_backlog,
                "waiting": self._waiting,
                **self.metrics,
            },
            "submissions": len(self.registry.list_ids()),
            "workers": {
                "configured": self.config.workers,
                # Copied in one step: the loop thread mutates the fleet.
                "live": sum(
                    1 for proc in list(self.fleet.held) if proc.poll() is None
                ),
                "stalled_stores": sorted(self._stalled),
            },
        }

    def _readyz_payload(self) -> dict[str, object]:
        """Health payload plus the aggregate queue census (the
        `repro queue status` codepath).  Blocking — call off-loop:
        a fast-probing orchestrator against a root with many
        submissions must never stall the event loop."""
        payload = self._health_payload()
        census = {
            "pending": 0, "claimable": 0, "leased": 0,
            "completed": 0, "failed": 0, "quarantined": 0,
        }
        for sub_id in self.registry.list_ids():
            store_dir = self.registry.store_dir(sub_id)
            if not has_queue(store_dir):
                continue
            status = WorkQueue(store_dir).status()
            for field in census:
                census[field] += int(status[field])  # type: ignore[arg-type]
        payload["queues"] = census
        return payload

    def _metrics_text(self) -> str:
        """Prometheus exposition for every served store.  Blocking
        (reads event sidecars under each store) — call off-loop."""
        from repro.observability.events import (
            fleet_metrics,
            merge_fleet_metrics,
            render_prometheus,
        )

        docs = []
        for sub_id in self.registry.list_ids():
            store_dir = self.registry.store_dir(sub_id)
            if has_queue(store_dir):
                docs.append(fleet_metrics(store_dir))
        merged = merge_fleet_metrics(docs)
        admission = dict(self.metrics)
        admission.update({
            "inflight": self._inflight,
            "waiting": self._waiting,
            "streams_active": self._streams,
            "draining": 1 if self._draining else 0,
        })
        return render_prometheus(merged, admission=admission)

    async def _metrics_response(self) -> bytes:
        from repro.observability.events import PROMETHEUS_CONTENT_TYPE

        text = await self._offload(self._metrics_text)
        return _http.response_bytes(
            200, text.encode("utf-8"), content_type=PROMETHEUS_CONTENT_TYPE
        )

    async def _health_response(self, path: str) -> bytes:
        if path == "/healthz":
            return _http.json_response(
                200, await self._offload(self._health_payload)
            )
        # /readyz: not-ready while draining or saturated.
        payload = await self._offload(self._readyz_payload)
        saturated = (
            self._waiting >= self.config.accept_backlog
            and self._sem.locked()
        )
        ready = not self._draining and not saturated
        payload["ready"] = ready
        return _http.json_response(200 if ready else 503, payload)

    # -- SSE progress streaming ----------------------------------------
    async def _handle_events(self, sub_id: str, writer, release_slot) -> None:
        if await self._offload(self.registry.get, sub_id) is None:
            writer.write(_http.error_response(
                404, "NotFound", f"no submission {sub_id}"
            ))
            await writer.drain()
            return
        self.metrics["streams_opened"] += 1
        self._streams += 1
        loop = asyncio.get_running_loop()
        heartbeat_s = max(0.01, self.config.heartbeat_s)
        poll_s = max(0.01, min(self.config.poll_s, heartbeat_s))
        next_beat = loop.time() + heartbeat_s
        last: dict[str, object] | None = None
        try:
            writer.write(_http.sse_head())
            await writer.drain()
            # Established: hand the admission slot back so long-lived
            # streams cannot starve the request gate (the max_streams
            # cap, counted above, bounds them instead).
            release_slot()
            while True:
                status = await self._offload(self.registry.status, sub_id)
                if status is not None and status != last:
                    last = status
                    failpoint("service.stream.write")
                    writer.write(_http.sse_event("status", status))
                    await writer.drain()
                    next_beat = loop.time() + heartbeat_s
                if status is not None and status.get("state") == "complete":
                    failpoint("service.stream.write")
                    writer.write(_http.sse_event(
                        "complete", {"submission": sub_id}
                    ))
                    await writer.drain()
                    self.metrics["streams_completed"] += 1
                    return
                if self._draining:
                    writer.write(_http.sse_event(
                        "drain", {"reason": self._drain_reason}
                    ))
                    await writer.drain()
                    return
                now = loop.time()
                if now >= next_beat:
                    # The heartbeat is the half-open detector: writing
                    # into a dead connection raises here, at the next
                    # beat, instead of leaking the stream forever.
                    failpoint("service.stream.write")
                    writer.write(_http.sse_heartbeat())
                    await writer.drain()
                    next_beat = now + heartbeat_s
                await asyncio.sleep(poll_s)
        except (ConnectionResetError, BrokenPipeError, OSError):
            self.metrics["streams_reaped"] += 1
        finally:
            self._streams -= 1

    # -- worker fleet supervision --------------------------------------
    def _post(self, fn, *args) -> None:
        """Run a fleet report on the event loop, in arrival order."""
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # the loop closed first
            pass

    def _drain_ended(self, proc, sub_id: str | None, status: str) -> None:
        """Fleet report: each answer frees a worker and each exit a
        slot, so both wake the supervisor; a drain that ended without
        draining is charged to its store."""
        if sub_id is not None and status != "drained":
            self._charge(sub_id)
        self._wake.set()

    def _charge(self, sub_id: str) -> None:
        """Count a drain of *sub_id* that ended without draining it."""
        self._respawns[sub_id] = self._respawns.get(sub_id, 0) + 1
        if self._respawns[sub_id] > WORKER_RESPAWN_BUDGET:
            self._stalled.add(sub_id)
            self._note(
                f"worker respawn budget exhausted for {sub_id}; leaving "
                f"its queue to external workers"
            )

    async def _supervise_workers(self) -> None:
        """Hand submission stores with outstanding queue items to up to
        ``config.workers`` warm drain workers, starting one only when
        a store needs it and every live worker is busy.

        A new submission, a worker's answer and a worker's exit each
        wake the supervisor at once; the ``SUPERVISE_POLL_S`` tick
        remains the fallback for work no event announces, such as the
        stores a restarted server recovers or items other processes
        requeue.
        """
        try:
            members = self.fleet.held
            while not self._draining:
                self._wake.clear()
                for sub_id in self.registry.list_ids():
                    idle = next(
                        (p for p, held in members.items() if held is None),
                        None,
                    )
                    if idle is None and len(members) >= self.config.workers:
                        break
                    if sub_id in members.values() or sub_id in self._stalled:
                        continue
                    store_dir = self.registry.store_dir(sub_id)
                    if not has_queue(store_dir):
                        continue
                    if WorkQueue(store_dir).drained():
                        continue
                    worker = idle or self.fleet.spawn(self.root / WORKER_LOG)
                    self.fleet.hand_off(worker, store_dir, sub_id)
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), SUPERVISE_POLL_S
                    )
                except asyncio.TimeoutError:
                    pass
        except asyncio.CancelledError:
            pass


# ----------------------------------------------------------------------
# Drive mode: the server submits to itself (chaos / CI harness)
# ----------------------------------------------------------------------
async def _drive(service: ReproService, spec_path: str) -> int:
    """Self-drive: submit *spec_path* twice under one idempotency key
    (the duplicate must replay, not re-execute), stream progress to
    completion over SSE, fetch results, then drain.  Returns an exit
    status: 0 all checks passed."""
    from repro.service import client

    loop = asyncio.get_running_loop()
    host, port = service.config.host, service.port

    def _client_work() -> None:
        spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
        status, doc = client.post_json(
            host, port, "/v1/campaigns", spec,
            headers={"Idempotency-Key": "drive"},
        )
        if status not in (200, 201):
            raise RuntimeError(f"submit failed: {status} {doc}")
        sub_id = doc["submission"]
        status, doc = client.post_json(
            host, port, "/v1/campaigns", spec,
            headers={"Idempotency-Key": "drive"},
        )
        if status != 200 or not doc.get("replayed"):
            raise RuntimeError(
                f"duplicate submit was not replayed: {status} {doc}"
            )
        saw_complete = False
        for event, _data in client.stream_sse(
            host, port, f"/v1/campaigns/{sub_id}/events", timeout=120.0
        ):
            if event == "complete":
                saw_complete = True
                break
            if event == "drain":
                raise RuntimeError("server drained mid-stream")
        if not saw_complete:
            raise RuntimeError("SSE stream ended without completion")
        status, _headers, body = client.request(
            host, port, "GET", f"/v1/campaigns/{sub_id}/results"
        )
        if status != 200 or not body:
            raise RuntimeError(f"results fetch failed: {status}")
        status, health = client.get_json(host, port, "/healthz")
        admission = health["admission"]
        balanced = (
            admission["requests"]
            == admission["accepted"] + admission["shed"]
            + admission["rejected_draining"]
        )
        if not balanced:
            raise RuntimeError(f"admission accounting diverged: {admission}")

    try:
        await loop.run_in_executor(None, _client_work)
    except BaseException as exc:  # noqa: BLE001 - report and drain
        service._note(f"drive failed: {exc}")
        service.request_drain("drive-failed")
        return 1
    service.request_drain("drive-complete")
    return 0


# ----------------------------------------------------------------------
# CLI entry
# ----------------------------------------------------------------------
async def _serve_async(
    root: Path,
    config: ServiceConfig,
    drive_spec: str,
    note,
) -> int:
    service = ReproService(root, config, note=note)
    loop = asyncio.get_running_loop()
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum,
                functools.partial(
                    service.request_drain, signal.Signals(signum).name
                ),
            )
    except NotImplementedError:  # pragma: no cover - non-POSIX loops
        pass
    await service.start()
    drive_status = 0
    drive_task = None
    if drive_spec:
        drive_task = asyncio.create_task(_drive(service, drive_spec))
    reason = await service.run_until_drained()
    if drive_task is not None:
        drive_status = await drive_task
    if reason in ("SIGTERM", "SIGINT"):
        from repro.cli import EXIT_SUSPENDED

        return EXIT_SUSPENDED
    return drive_status


def serve_main(
    root: str | Path,
    config: ServiceConfig,
    *,
    drive_spec: str = "",
    quiet: bool = False,
) -> int:
    """Blocking entry behind ``repro serve``; returns an exit status
    per the cli.py table (0 ok, 2 config error, 4 signal drain)."""
    note = (
        (lambda line: None) if quiet
        else (lambda line: print(f"serve: {line}", file=sys.stderr))
    )
    root = Path(root)
    stale = read_service_manifest(root)
    if stale is not None and stale.get("status") == "running":
        pid = int(stale.get("pid", 0) or 0)
        alive = False
        if pid > 0:
            try:
                os.kill(pid, 0)
                alive = pid != os.getpid()
            except OSError:
                alive = False
        if alive:
            print(
                f"serve error: {root} is already served by pid {pid} "
                f"(service.json); stop it first",
                file=sys.stderr,
            )
            return 2
    try:
        return asyncio.run(_serve_async(root, config, drive_spec, note))
    except ConfigError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
