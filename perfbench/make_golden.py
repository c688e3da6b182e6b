"""Record the golden output digests the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted::

    python3 perfbench/make_golden.py --seeds 0-31
    python3 perfbench/make_golden.py --seeds 5 --workload sim-deep

Each digest comes from the plainest path to the same output (no
progress logs, timers or tracing) and is merged into
``perfbench/golden.json``.  Outputs must stay byte-identical
across optimisations, so a digest only changes when results are meant
to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import GOLDEN, ROOT, THROUGHPUT


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,4,9")
    parser.add_argument("--workload", choices=list(THROUGHPUT))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from run import workloads

    mods = workloads()
    names = [args.workload] if args.workload else list(mods)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    work = ROOT / ".perfbench" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            for seed in parse_seeds(args.seeds):
                digest = mods[name].golden_digest(work, seed)
                if not digest:
                    print(f"{name} seed {seed}: run failed", file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[str(seed)] = digest
                print(f"{name} {seed} {digest}", flush=True)
                GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                                  + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
