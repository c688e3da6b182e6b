"""Shared fixtures for the benchmark/experiment harness.

Each benchmark regenerates one paper artefact (table or figure), times
the underlying computation, prints the artefact, and records it under
``benchmarks/results/`` so EXPERIMENTS.md can quote it verbatim.

Run:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import (
    EVAL_JOBS,
    EVAL_NODES,
    default_campaign,
)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def campaign():
    """The canonical evaluation workload, generated once per session."""
    return default_campaign(num_jobs=EVAL_JOBS, cluster_nodes=EVAL_NODES)


@pytest.fixture(scope="session")
def eval_nodes() -> int:
    return EVAL_NODES


@pytest.fixture
def record_artifact():
    """Save an experiment's printable output for EXPERIMENTS.md."""

    def save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return save
