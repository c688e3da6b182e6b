"""Rack-level topology used by locality-aware node selection.

The evaluation clusters are fat-tree-ish: nodes grouped into racks
behind leaf switches.  Strategies do not *require* locality, but the
node selector prefers allocations spanning few racks, mirroring
SLURM's topology plugin, and the topology is exercised in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.node import Node


@dataclass
class Topology:
    """Rack membership of each node."""

    rack_of: tuple[int, ...]
    racks: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_nodes(cls, nodes: Sequence[Node]) -> "Topology":
        rack_of = tuple(node.rack for node in nodes)
        racks: dict[int, list[int]] = {}
        for node in nodes:
            racks.setdefault(node.rack, []).append(node.node_id)
        return cls(
            rack_of=rack_of,
            racks={rack: tuple(ids) for rack, ids in racks.items()},
        )

    @property
    def num_racks(self) -> int:
        return len(self.racks)

    def racks_spanned(self, node_ids: Iterable[int]) -> int:
        """Number of distinct racks a node set touches."""
        return len(set(map(self.rack_of.__getitem__, node_ids)))

    def locality_score(self, node_ids: Sequence[int]) -> float:
        """Score in (0, 1]; 1.0 means the set fits a single rack.

        Used as a tie-breaker when several candidate node sets fit a
        request: fewer racks (less inter-switch traffic) wins.
        """
        if not node_ids:
            return 1.0
        return 1.0 / self.racks_spanned(node_ids)
