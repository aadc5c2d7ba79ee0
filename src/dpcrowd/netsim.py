"""Synchronous network rounds over random peer topologies.

Topologies are undirected adjacency matrices: each pair joins with the target
density, then isolated nodes are repaired with one random edge. Delivery is
one-hop broadcast; DFAST-style blind flooding relays every newly seen payload
to all neighbors once. Packets count delivered edge-directions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "generate_topology",
    "degrees",
    "TopologySchedule",
    "CommStats",
    "message_num_bytes",
    "flood_payload_bytes",
    "flood_reachability",
    "LatencyPlan",
]

# Wire sizes: every message starts with the sender and timestamp as uint32.
# A one-hop message then carries one (prior, weighted_value, weight) float64
# triple per dimension; a flooded payload carries one float64 estimate.
HEADER_BYTES = 8


def generate_topology(m: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric adjacency with no self-loops and no isolated nodes.

    Each unordered pair is linked with probability `density`; any node left
    isolated gains one edge to a uniformly random other node.
    """
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    upper = rng.random((m, m)) < density
    adj = np.triu(upper, k=1)
    adj = adj | adj.T
    for i in range(m):
        if not adj[i].any():
            j = int(rng.integers(0, m - 1))
            if j >= i:
                j += 1
            adj[i, j] = adj[j, i] = True
    return adj


def degrees(adj: np.ndarray) -> np.ndarray:
    return adj.sum(axis=1).astype(np.int64)


@dataclass
class TopologySchedule:
    """Deterministic adjacency per timestamp.

    Static by default (one draw reused all run); dynamic mode regenerates the
    graph each timestamp from a per-timestamp child seed, so any t can be
    re-derived independently of iteration order.
    """

    m: int
    density: float
    seed: int
    dynamic: bool = False
    _static: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one node, got m={self.m}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density}")

    def adjacency_at(self, t: int) -> np.ndarray:
        if self.m == 1:
            return np.zeros((1, 1), dtype=bool)  # a lone server has no peers
        if not self.dynamic:
            if self._static is None:
                rng = np.random.default_rng(np.random.SeedSequence(self.seed))
                self._static = generate_topology(self.m, self.density, rng)
            return self._static
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, int(t))))
        return generate_topology(self.m, self.density, rng)


@dataclass
class CommStats:
    """Run-level communication accounting."""

    packets: int = 0
    payload_bytes: int = 0
    max_latency_ms: float = 0.0
    broadcasts: np.ndarray | None = None
    packets_by_t: list = field(default_factory=list)

    def record_round(self, packets: int, payload_bytes: int, latency_ms: float) -> None:
        self.packets += int(packets)
        self.payload_bytes += int(payload_bytes)
        self.max_latency_ms = max(self.max_latency_ms, float(latency_ms))
        self.packets_by_t.append(int(packets))


def message_num_bytes(d: int) -> int:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return HEADER_BYTES + 24 * d


def flood_payload_bytes(d: int) -> int:
    return HEADER_BYTES + 8 * d


@dataclass(frozen=True)
class LatencyPlan:
    """Multi-round deliveries laid out once for `_delivery_latency`.

    counts keeps the rounds with deliveries, starts their first stream
    positions (one double per delivery, so starts[-1] is the total) and
    order their indices smallest first. A static flood repeats its rounds
    every timestamp, so the engine builds its plan once per adjacency.
    """

    counts: tuple[int, ...]
    starts: tuple[int, ...]
    order: tuple[int, ...]

    @classmethod
    def of(cls, counts) -> LatencyPlan:
        counts = tuple(int(c) for c in counts if c)
        return cls(counts, tuple(itertools.accumulate(counts, initial=0)),
                   tuple(sorted(range(len(counts)), key=counts.__getitem__)))


def _delivery_latency(
    counts, rng: np.random.Generator, center: float, beat: float = -math.inf
) -> float:
    """Sum over rounds of the max per-delivery latency, uniform within +/-20% of the center.

    counts holds one timestamp's deliveries per round, as a sequence or a
    LatencyPlan; a round with none draws nothing. The rounds take
    consecutive stream positions, and each round's maximum u is mapped to a
    latency the way rng.uniform maps a draw (low + span * u), so the result
    equals a max over per-round uniform draws.

    A caller that keeps only a running maximum passes it as `beat`. Rounds
    are then drawn smallest first, each from its own stream positions, and
    after each one the sum is bounded, in round order, with every undrawn
    round's u set to 1.0. IEEE rounding is monotone and every u is below
    1.0, so the bound is at least the exact sum; once it is <= beat no
    undrawn round can lift the maximum, and the bound is returned. So the
    result is exact whenever it exceeds beat and is <= beat otherwise. With
    every round drawn the bound is the exact sum. Either way rng is left
    past all of the timestamp's draws, as if each had been taken.

    rng must wrap PCG64, as default_rng's do: random() takes one 64-bit
    output per double, so PCG64.advance(n) skips exactly n doubles, and a
    negative n steps back as exactly.
    """
    plan = counts if isinstance(counts, LatencyPlan) else None
    counts = plan.counts if plan else [int(c) for c in counts if c]
    if not counts:
        return 0.0
    low = 0.8 * center
    span = 1.2 * center - low
    if len(counts) == 1:
        return low + span * float(rng.random(counts[0]).max())
    plan = plan or LatencyPlan.of(counts)
    starts = plan.starts
    bit_gen = rng.bit_generator
    saved = bit_gen.state
    # each round's term of the sum; low + span * 1.0 until the round is drawn
    terms = [low + span] * len(counts)
    at = 0  # stream position past the saved state
    for r in plan.order:
        if sum(terms) <= beat:
            break
        bit_gen.advance(starts[r] - at)
        terms[r] = low + span * float(rng.random(counts[r]).max())
        at = starts[r + 1]
    if at < starts[-1]:
        bit_gen.advance(starts[-1] - at)
    if saved["has_uint32"]:
        # advance drops the buffered 32-bit half that random() leaves alone
        bit_gen.state = {**bit_gen.state, "has_uint32": 1, "uinteger": saved["uinteger"]}
    return sum(terms)


def flood_reachability(adj: np.ndarray) -> tuple[np.ndarray, int, int, list[int]]:
    """Blind-flood every node's payload; returns (known, hops, packets, per-round forwards).

    known[i, p] marks that node i holds payload p after flooding completes.
    Each node forwards each newly seen payload (its own included) to all its
    neighbors exactly once; packets count every forward over every edge
    direction. hops is the last round in which any node learned something.
    """
    m = adj.shape[0]
    deg = degrees(adj)
    known = np.eye(m, dtype=bool)
    new = known.copy()
    packets = 0
    hops = 0
    rounds: list[int] = []
    round_no = 0
    while new.any():
        round_no += 1
        forwards = int((deg * new.sum(axis=1)).sum())
        packets += forwards
        rounds.append(forwards)
        received = (adj.astype(np.int64) @ new.astype(np.int64)) > 0
        new = received & ~known
        if new.any():
            hops = round_no
            known |= new
    return known, hops, packets, rounds
