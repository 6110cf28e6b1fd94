"""Interaction-topology representation and connectivity checks.

Topologies are undirected weighted graphs over agents 1..n with an optional
leader (agent 1 by convention).  The module validates and canonicalizes the
edge list and weights, answers the connectivity questions each protocol
mode requires, and builds the path, cycle, complete and star families.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "TopologyError",
    "Topology",
    "canonical_edge",
    "is_connected",
    "is_leader_reachable",
    "path_topology",
    "cycle_topology",
    "complete_topology",
    "star_topology",
]


class TopologyError(Exception):
    """Invalid topology structure or edge weights."""


def canonical_edge(i: int, k: int) -> tuple[int, int]:
    """Return the undirected edge {i, k} as an ordered (min, max) pair."""
    return (i, k) if i < k else (k, i)


@dataclass(frozen=True)
class Topology:
    """Undirected weighted interaction graph.

    ``edges`` holds canonical (min, max) agent pairs; ``weights`` maps each
    canonical pair to its strictly positive initial weight.  ``leader``
    designates the leader agent for leader-follower mode (agent 1 by
    convention) and is None in leaderless mode.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: Mapping[tuple[int, int], float] = field(default=None)  # type: ignore[assignment]
    leader: Optional[int] = None

    def __post_init__(self):
        if self.n < 2:
            raise TopologyError(f"need at least 2 agents, got n={self.n}")
        canon = []
        seen = set()
        for i, k in self.edges:
            if i == k:
                raise TopologyError(f"self-loop on agent {i}")
            if not (1 <= i <= self.n and 1 <= k <= self.n):
                raise TopologyError(f"edge ({i},{k}) references an agent outside 1..{self.n}")
            pair = canonical_edge(i, k)
            if pair in seen:
                raise TopologyError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))
        weights = self.weights
        if weights is None:
            weights = {pair: 1.0 for pair in canon}
        normalized = {}
        for pair in canon:
            try:
                w = float(weights[pair])
            except KeyError:
                raise TopologyError(f"missing weight for edge {pair}")
            if not w > 0.0:
                raise TopologyError(f"weight for edge {pair} must be positive, got {w}")
            normalized[pair] = w
        object.__setattr__(self, "weights", normalized)
        if self.leader is not None and not (1 <= self.leader <= self.n):
            raise TopologyError(f"leader {self.leader} outside 1..{self.n}")

    def leader_edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edges incident to the leader, in canonical order."""
        if self.leader is None:
            return ()
        return tuple(e for e in self.edges if self.leader in e)

    def initial_weight_vector(self, edges: Sequence[tuple[int, int]]) -> np.ndarray:
        return np.array([self.weights[e] for e in edges], dtype=float)


def _reaches_all(topology: Topology, start: int) -> bool:
    """True when every agent has an undirected path to start.

    Fewer than n - 1 edges cannot connect n agents, so that is decided before
    the search, which then touches only the agents the edges name.
    """
    if len(topology.edges) < topology.n - 1:
        return False
    adjacency: dict[int, list[int]] = defaultdict(list)
    for i, k in topology.edges:
        adjacency[i].append(k)
        adjacency[k].append(i)
    seen = {start}
    queue = deque([start])
    while queue:
        for neighbor in adjacency[queue.popleft()]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return len(seen) == topology.n


def is_connected(topology: Topology) -> bool:
    """Breadth-first connectivity verdict over the undirected edges."""
    return _reaches_all(topology, 1)


def is_leader_reachable(topology: Topology) -> bool:
    """True when every follower has an undirected path to the leader."""
    if topology.leader is None:
        raise TopologyError("topology has no leader")
    return _reaches_all(topology, topology.leader)


def _uniform(edges: Sequence[tuple[int, int]], weight: float) -> dict[tuple[int, int], float]:
    return {canonical_edge(*e): weight for e in edges}


def path_topology(n: int, weight: float = 1.0, leader: Optional[int] = None) -> Topology:
    edges = [(i, i + 1) for i in range(1, n)]
    return Topology(n, tuple(edges), _uniform(edges, weight), leader)


def cycle_topology(n: int, weight: float = 1.0, leader: Optional[int] = None) -> Topology:
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    return Topology(n, tuple(canonical_edge(*e) for e in edges), _uniform(edges, weight), leader)


def complete_topology(n: int, weight: float = 1.0, leader: Optional[int] = None) -> Topology:
    edges = [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)]
    return Topology(n, tuple(edges), _uniform(edges, weight), leader)


def star_topology(n: int, weight: float = 1.0, leader: Optional[int] = None) -> Topology:
    edges = [(1, k) for k in range(2, n + 1)]
    return Topology(n, tuple(edges), _uniform(edges, weight), leader)
