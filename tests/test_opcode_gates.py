"""Cost gates on deterministic bytecode counts (:mod:`tests.opcodes`).

Starting and freeing a job does per-node work only on each node's lane
and mode; every index, co-runner map and counter changes once per job
or once per resident.  So the cluster layer's cost grows far slower
than the job: a 64-node job may cost at most ``MAX_RATIO`` times a
1-node job.  A walk that updates the indexes node by node costs about
25 times as much, and fails the gate.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.cluster.machine import Cluster
from tests.opcodes import counting_opcodes, opcodes_in

#: Cluster-layer opcodes to start and free a 64-node job over those for
#: a 1-node job.  About 5 (exclusive) and 3 (a join) on CPython 3.11.
MAX_RATIO = 8.0
CLUSTER_LAYER = f"{os.sep}cluster{os.sep}"


def start_and_free(size: int, join: bool) -> int:
    """Cluster-layer opcodes to allocate and release a *size*-node job,
    exclusively or joining a resident on the same nodes."""
    cluster = Cluster.homogeneous(128)
    if join:
        cluster.allocate(cluster.build_shared(1, range(size)))
    build = cluster.build_shared if join else cluster.build_exclusive
    with counting_opcodes() as counts:
        granted = cluster.allocate(build(2, range(size)))
        cluster.release(2)
    assert granted.is_shared is join
    cluster.check_indexes()
    return opcodes_in(counts, CLUSTER_LAYER)


@pytest.mark.parametrize("join", [False, True], ids=["exclusive", "join"])
def test_start_and_free_cost_barely_grows_with_nodes(join):
    one, wide = start_and_free(1, join), start_and_free(64, join)
    assert start_and_free(64, join) == wide, "counts must be deterministic"
    assert wide / one <= MAX_RATIO, (one, wide)


def test_counting_restores_the_previous_tracer():
    def tracer(frame, event, arg):
        return None

    def work():
        return sum(range(3))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with counting_opcodes() as counts:
            work()
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)
    assert counts[work.__code__] > 0
