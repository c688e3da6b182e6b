"""serve-submit: one closed-loop client against an in-process service.

A ``ReproService`` with one supervised drain worker runs on its own
event-loop thread.  The single client first submits four tiny
multi-run campaigns one after another, following each until its
results are fetched (the completion phase, timed for throughput; each
followed campaign is one timing unit).  Then, in the first repetition
and in the first traced one, it submits a larger background campaign
and, once the fleet's one worker is draining it, runs a burst of 200
create / idempotent-replay / status-read triples beside that steady
drain.  The burst starts after the completion phase ends, so its
backlog cannot leak into it.  A failed or refused request is charged
the client's timeout; replays and status reads are the reads.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import threading
import time
from http.client import HTTPException
from pathlib import Path

from harness import Rep, paced, reference_run, reference_s, sha256_hex
from layers import tracing
from repro.observability.events import fleet_metrics
from repro.service import client as http
from repro.service.config import ServiceConfig
from repro.service.server import ReproService

NAME = "serve-submit"
FOLLOWED = 4
FOLLOWED_JOBS = 25
BURST = 200
SCALE = {"jobs": FOLLOWED_JOBS, "nodes": 16, "windows": 0,
         "runs": FOLLOWED * 4, "submissions": FOLLOWED + 1 + BURST}
#: No traced layer runs below this workload's spans, so it has no
#: root whose time they must account for.
ROOT_SPAN = None
HOST = "127.0.0.1"
#: Longest wait for the followed campaigns to complete, and again for
#: a worker to pick up the background campaign.
WAIT_S = 30.0


def followed_spec(seed: int, index: int) -> dict:
    """Four runs: two workload seeds by two strategies."""
    return {
        "name": f"perfbench-{seed}-{index}", "jobs": FOLLOWED_JOBS,
        "cluster_sizes": [16],
        "seeds": [seed * 16 + 2 * index, seed * 16 + 2 * index + 1],
        "strategies": ["fcfs", "easy_backfill"],
    }


def background_spec(seed: int) -> dict:
    """Enough work (48 runs of 300 jobs) to keep the fleet's one worker
    busy through the burst, so that burst stores wait in the queue
    instead of each starting its own worker; checked after the burst."""
    return {
        "name": f"background-{seed}", "jobs": 300, "cluster_sizes": [32],
        "seeds": [seed * 24 + i for i in range(24)],
        "strategies": ["easy_backfill", "shared_backfill"],
    }


def burst_spec(seed: int, index: int) -> dict:
    return {
        "name": f"burst-{seed}-{index}", "jobs": 10,
        "cluster_sizes": [16], "seeds": [seed * BURST + index],
        "strategies": ["fcfs"],
    }


class Server:
    """``ReproService`` on an ephemeral port in a background thread.

    ``startup_s`` is the service's own start-up (construction to
    listening) in CPU time of its event-loop thread, which leaves out
    the hand-offs between this thread and the client's and the wait
    for ``service.json`` to reach the disk.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.service: ReproService | None = None
        self.startup_s = 0.0
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        started = time.thread_time()
        self.service = ReproService(
            self.root, ServiceConfig(port=0, poll_s=0.02, workers=1)
        )
        await self.service.start()
        self.startup_s = time.thread_time() - started
        self._ready.set()
        await self.service.run_until_drained()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service did not start within 30 s")

    def stop(self) -> None:
        """Drain: stop accepting, stop the worker fleet, join."""
        if not self._thread.is_alive():
            return
        self.loop.call_soon_threadsafe(
            self.service.request_drain, "perfbench done"
        )
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("service did not drain within 60 s")

    @property
    def port(self) -> int:
        return self.service.port


def start_server(root: Path) -> tuple[Server, float]:
    """A started server and its start-up time in reference seconds,
    against reference runs right before and right after it."""
    server = Server(root)
    before = reference_run()
    server.start()
    after = reference_run()
    return server, reference_s(server.startup_s, before, after)


class Client:
    """Times every request and counts the ones that fail."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0
        self.failed = 0

    def call(self, method: str, path: str, body: dict | None = None,
             key: str | None = None) -> tuple[int, bytes, float | None]:
        """Status, body and latency; the latency is None for a failed
        or refused request."""
        headers = {"Content-Type": "application/json"} if body else {}
        if key is not None:
            headers["Idempotency-Key"] = key
        data = json.dumps(body).encode() if body is not None else None
        started = time.perf_counter()
        try:
            status, _, payload = http.request(
                HOST, self.port, method, path, body=data, headers=headers
            )
        except (OSError, HTTPException):
            status, payload = 0, b""
        elapsed = time.perf_counter() - started
        self.requests += 1
        if not 200 <= status < 300:
            self.failed += 1
            return status, payload, None
        return status, payload, elapsed

    def create(self, spec: dict, key: str) -> str:
        """POST *spec*; the new submission's id, or "" unless created."""
        status, payload, _ = self.call("POST", "/v1/campaigns", spec, key=key)
        return json.loads(payload)["submission"] if status == 201 else ""

    def wait_for(self, sub_id: str, field: str, accept,
                 deadline: float) -> bool:
        """Poll the status of *sub_id* until ``accept(status[field])``
        or the ``time.monotonic()`` *deadline*."""
        while sub_id and time.monotonic() < deadline:
            status, payload, _ = self.call("GET", f"/v1/campaigns/{sub_id}")
            if status == 200 and accept(json.loads(payload).get(field)):
                return True
            time.sleep(0.02)
        return False


def follow(client: Client, seed: int,
           before=lambda: None) -> tuple[list[bytes], list[float]]:
    """Submit each followed campaign, poll it until complete and fetch
    its results, one campaign at a time, calling *before* ahead of
    each; the results (empty where that failed) and each campaign's
    time in reference seconds."""
    def one(index: int) -> bytes:
        sub_id = client.create(followed_spec(seed, index),
                               f"follow-{seed}-{index}")
        client.wait_for(sub_id, "state", lambda state: state == "complete",
                        time.monotonic() + WAIT_S)
        status, payload, _ = client.call(
            "GET", f"/v1/campaigns/{sub_id}/results"
        )
        return payload if sub_id and status == 200 else b""

    results, units = [], []
    for index in range(FOLLOWED):
        before()
        payload, took = paced(lambda: one(index))
        results.append(payload)
        units.append(took)
    return results, units


def burst(client: Client,
          seed: int) -> tuple[list[float | None], list[float | None], int]:
    """Create, replay and read back BURST submissions; returns create
    latencies, read latencies and the number of replays that were not
    recognised as replays."""
    creates: list[float | None] = []
    reads: list[float | None] = []
    missed = 0
    for index in range(BURST):
        spec = burst_spec(seed, index)
        key = f"burst-{seed}-{index}"
        status, payload, elapsed = client.call(
            "POST", "/v1/campaigns", spec, key=key
        )
        creates.append(elapsed)
        sub_id = json.loads(payload).get("submission", "") if status == 201 else ""
        status, payload, elapsed = client.call(
            "POST", "/v1/campaigns", spec, key=key
        )
        reads.append(elapsed)
        if status != 200 or not json.loads(payload).get("replayed"):
            missed += 1
        status, _, elapsed = client.call("GET", f"/v1/campaigns/{sub_id}")
        reads.append(elapsed)
    return creates, reads, missed


def fleet_layer(root: Path) -> dict[str, float]:
    """Queue-layer figures from the sidecars every drain worker writes."""
    out = {"campaign.queue_wait_s": 0.0, "campaign.queue_exec_s": 0.0,
           "campaign.requeues": 0.0, "campaign.reclaims": 0.0}
    pids: set[int] = set()
    for store in sorted((root / "stores").iterdir()):
        doc = fleet_metrics(store)
        out["campaign.queue_wait_s"] += doc["slo"]["queue_wait_seconds"]["sum"]
        out["campaign.queue_exec_s"] += doc["slo"]["execution_seconds"]["sum"]
        out["campaign.requeues"] += doc["counters"]["requeued"]
        out["campaign.reclaims"] += doc["counters"]["reclaimed"]
        pids.update(row["pid"] for row in doc["workers"])
    out["service.worker_spawns"] = float(len(pids))
    return out


def golden_digest(work: Path, seed: int) -> str:
    root = work / "golden-serve"
    shutil.rmtree(root, ignore_errors=True)
    server, _ = start_server(root)
    try:
        results, _ = follow(Client(server.port), seed)
    finally:
        server.stop()
        shutil.rmtree(root, ignore_errors=True)
    return sha256_hex(*results) if all(results) else ""


def rep(work: Path, seed: int, index: int, tracer=None) -> Rep:
    root = work / f"serve-{index}"
    shutil.rmtree(root, ignore_errors=True)
    server, setup_s = start_server(root / "server")
    starts = [setup_s]

    def throwaway_start() -> None:
        """One more set-up attempt before each followed campaign, so
        that the attempts spread over the repetition instead of all
        meeting one stretch of host load."""
        spare, took = start_server(root / f"spare-{len(starts)}")
        spare.stop()
        starts.append(took)

    try:
        client = Client(server.port)
        checks: list[tuple[bool, str]] = []
        creates: list[float | None] = []
        reads: list[float | None] = []
        missed = 0
        with tracing(tracer):
            results, units = follow(client, seed, throwaway_start)
            if index == 0 or (tracer is not None and index == 1):
                background = client.create(background_spec(seed), f"bg-{seed}")
                draining = client.wait_for(background, "leased", bool,
                                           time.monotonic() + WAIT_S)
                creates, reads, missed = burst(client, seed)
                status, payload, _ = client.call(
                    "GET", f"/v1/campaigns/{background}"
                )
                busy = (status == 200
                        and json.loads(payload)["state"] != "complete")
                checks += [
                    (draining, "a worker drained the background campaign"),
                    (busy, "the background campaign kept the worker busy "
                           "through the burst"),
                    (missed == 0,
                     f"{missed} idempotent replays not recognised"),
                ]
        server.stop()
        admission = server.service.metrics
        layer = {}
        if tracer is not None:
            layer = {"service.shed": admission["shed"],
                     **fleet_layer(server.root)}
        runs = sum(body.count(b"\n") for body in results)
        return Rep(
            setups=[min(starts)],
            units=units,
            jobs=FOLLOWED_JOBS * runs,
            create_s=[creates] if creates else [],
            read_s=[reads] if reads else [],
            digest=sha256_hex(*results),
            attempted=client.requests,
            failed=client.failed + missed,
            checks=checks + [
                (all(results), "every followed campaign completed"),
                (runs == SCALE["runs"], f"{runs} result rows fetched"),
                (admission["requests"] == admission["accepted"]
                 + admission["shed"] + admission["rejected_draining"],
                 "admission: requests == accepted + shed + rejected_draining"),
            ],
            layer=layer,
        )
    finally:
        server.stop()
        shutil.rmtree(root, ignore_errors=True)
