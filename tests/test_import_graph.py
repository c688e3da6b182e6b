"""Import-graph contracts that keep process start-up cheap.

Every ``repro`` command and every ``repro queue work`` is a fresh
``python -m repro.cli`` process, so whatever it imports at module
load is paid once per process; scipy alone used to cost more than a
second of that.  The drain workers of ``repro campaign --join`` and
``repro serve`` are forks of their supervisor and import nothing of
their own, but they carry whatever the supervisor loaded.  Each
check runs in its own interpreter: the test process has long since
imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Makes ``import scipy`` (and every ``from scipy import ...``) raise
#: ModuleNotFoundError, as on a machine without scipy.
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def _loaded_after(statement: str, *modules: str) -> dict[str, bool]:
    """Which of *modules* are in ``sys.modules`` after *statement*."""
    code = (
        f"import sys\n{statement}\n"
        f"print(' '.join(str(m in sys.modules) for m in {modules!r}))"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    flags = proc.stdout.split()
    return dict(zip(modules, (flag == "True" for flag in flags)))


def test_cli_loads_neither_scipy_nor_analysis():
    loaded = _loaded_after("import repro.cli", "scipy", "repro.analysis")
    assert loaded == {"scipy": False, "repro.analysis": False}


@pytest.mark.parametrize("module", ["repro.cli", "repro.observability"])
def test_startup_loads_no_archive_or_backend_module(module):
    # repro stats aggregates columnar stores through repro.archive; that
    # import must stay inside aggregate_store, off worker start-up.
    code = (
        f"import sys\nimport {module}\n"
        "print(' '.join(sorted(m for m in sys.modules if "
        "m.startswith('repro.archive') or m == 'repro.campaign.backend')))"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_imports_without_scipy():
    proc = _python("-c", BLOCK_SCIPY + "import repro.cli")
    assert proc.returncode == 0, proc.stderr


def test_queue_worker_help_runs_without_scipy():
    proc = _python(
        "-c", BLOCK_SCIPY + "from repro.cli import main\n"
        "raise SystemExit(main(['queue', 'work', '--help']))",
    )
    assert proc.returncode == 0, proc.stderr
    assert "queue" in proc.stdout


def test_confidence_interval_names_missing_scipy():
    proc = _python(
        "-c", BLOCK_SCIPY
        + "from repro.analysis.stats import confidence_interval\n"
        "from repro.errors import ConfigError\n"
        "try:\n"
        "    confidence_interval([1.0, 2.0, 3.0])\n"
        "except ConfigError as exc:\n"
        "    print(exc)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy" in proc.stdout


def test_service_server_does_not_load_cli():
    loaded = _loaded_after("import repro.service.server", "repro.cli")
    assert loaded == {"repro.cli": False}


def test_warm_worker_loads_no_server_code():
    # The queue front ends (campaign --join, a queue-store resume,
    # replay-trace --strategies) import the fleet; the server's modules
    # (asyncio among them) would only add to their resident size, and
    # to that of every worker they fork.
    loaded = _loaded_after(
        "import repro.campaign.warm",
        "repro.service.server", "asyncio", "repro.cli",
    )
    assert not any(loaded.values()), loaded


def test_campaign_runner_warms_numpy_before_forking():
    # Pool children fork from the runner's process; whatever it has not
    # loaded each child imports again on every campaign call.
    loaded = _loaded_after(
        "import repro.campaign.runner", "numpy.random", "numpy.ma"
    )
    assert loaded == {"numpy.random": True, "numpy.ma": True}


def test_experiment_with_confidence_intervals_runs():
    pytest.importorskip("scipy")
    proc = _python("-m", "repro.cli", "experiment", "e19")
    assert proc.returncode == 0, proc.stderr
    assert "95% CI" in proc.stdout
