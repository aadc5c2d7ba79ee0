"""Synchronous network rounds over random peer topologies.

Topologies are undirected adjacency matrices: each pair joins with the target
density, then isolated nodes are repaired with one random edge. Delivery is
one-hop broadcast; DFAST-style blind flooding relays every newly seen payload
to all neighbors once. Packets count delivered edge-directions, a flood's
per round. A run's latencies are drawn in one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    "max_delivery_latency",
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


@dataclass(frozen=True)
class TopologySchedule:
    """Deterministic adjacency per timestamp.

    Every t draws from SeedSequence(seed), so a static schedule repeats one
    graph; a dynamic one draws from SeedSequence((seed, t)), so any t can be
    re-derived independently of iteration order.
    """

    m: int
    density: float
    seed: int
    dynamic: bool = False

    def adjacency_at(self, t: int) -> np.ndarray:
        key = (self.seed, int(t)) if self.dynamic else self.seed
        rng = np.random.default_rng(np.random.SeedSequence(key))
        return generate_topology(self.m, self.density, rng)


@dataclass
class CommStats:
    """Run-level communication accounting."""

    packets: int
    payload_bytes: int
    max_latency_ms: float
    broadcasts: np.ndarray
    packets_by_t: list[int]

    @classmethod
    def of(cls, packets_by_t, packet_bytes: int, max_latency_ms: float,
           broadcasts: np.ndarray) -> CommStats:
        """Totals from the per-timestamp packet counts; every packet has packet_bytes."""
        packets_by_t = [int(p) for p in packets_by_t]
        packets = sum(packets_by_t)
        return cls(packets, packets * packet_bytes, float(max_latency_ms), broadcasts,
                   packets_by_t)


def message_num_bytes(d: int) -> int:
    return HEADER_BYTES + 24 * d


def flood_payload_bytes(d: int) -> int:
    return HEADER_BYTES + 8 * d


@dataclass(frozen=True)
class LatencyPlan:
    """One timestamp's deliveries per round, laid out for `max_delivery_latency`.

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


# uniforms drawn per call, so that a draw buffer holds at most 64 KiB
_DRAW_CHUNK = 1 << 13


def _largest_uniform(rng: np.random.Generator, n: int) -> float:
    """The largest of the next n rng.random() doubles, drawn in bounded chunks."""
    if n <= _DRAW_CHUNK:
        return float(rng.random(n).max())
    return max(float(rng.random(min(_DRAW_CHUNK, n - i)).max())
               for i in range(0, n, _DRAW_CHUNK))


def max_delivery_latency(
    plans, rng: np.random.Generator, center: float, best: float = 0.0
) -> float:
    """The largest of best and each timestamp's delivery latency.

    plans holds one LatencyPlan per timestamp, in stream order; each
    delivery takes the next stream position. A timestamp's latency is the
    sum over its rounds of the round's largest per-delivery latency, uniform
    within +/-20% of the center: a round's largest u maps to low + span * u,
    as rng.uniform maps a draw. That map is monotone in u, so single-round
    timestamps in a row (a one-hop exchange) may be passed as one plan of
    their summed deliveries: their largest latency is that of their largest u.

    Only a latency above the running maximum changes the result. So the
    timestamps are taken a buffer at a time: the smallest round of each is
    drawn in bulk, each from its own stream positions, into one buffer of
    _DRAW_CHUNK doubles, as many timestamps as fit (a longer round is drawn
    alone, in chunks, and leaves its largest draw). Each timestamp's
    latency is then bounded, in round order, with every undrawn round's u
    set to 1.0. IEEE rounding is monotone and every u is below 1.0, so the
    bound is at least the exact sum. The timestamps are walked in order,
    and where the bound still beats the running maximum, further rounds are
    drawn smallest first, bounding again after each; once the bound is <=
    the maximum, no undrawn round can lift it. So the result equals the
    maximum over exact latencies. Where rng is left afterwards is undefined.

    rng must wrap PCG64, as default_rng's do: random() takes one 64-bit
    output per double, so PCG64.advance(n) skips exactly n doubles, and a
    negative n steps back as exactly.
    """
    low = 0.8 * center
    span = 1.2 * center - low
    top = low + span  # a round's term until it is drawn
    bit_gen = rng.bit_generator
    draws = np.empty(_DRAW_CHUNK)
    tops = [0.0]  # tops[k]: k undrawn rounds summed from 0.0, as a bound sums them
    at = first = j = 0  # the generator's stream position, timestamp j's first one
    while j < len(plans):
        # (first stream position, plan) of the timestamps drawn into draws
        run, offsets, before, after = [], [0], [], []
        for plan in itertools.islice(plans, j, None):
            if not plan.counts:  # a timestamp without deliveries takes 0.0
                best = max(best, 0.0)
            else:
                r = plan.order[0]
                n = plan.counts[r]
                if run and offsets[-1] + n > _DRAW_CHUNK:
                    break
                bit_gen.advance(first + plan.starts[r] - at)
                at = first + plan.starts[r + 1]
                if n > _DRAW_CHUNK:
                    draws[0], n = _largest_uniform(rng, n), 1
                else:
                    rng.random(out=draws[offsets[-1]:offsets[-1] + n])
                offsets.append(offsets[-1] + n)
                run.append((first, plan))
                while len(tops) < len(plan.counts):
                    tops.append(tops[-1] + top)
                before.append(tops[r])
                after.append(len(plan.counts) - r - 1)
            first += plan.starts[-1]
            j += 1
        if not run:
            break
        terms = low + span * np.maximum.reduceat(draws[:offsets[-1]], offsets[:-1])
        bound, after = np.array(before) + terms, np.array(after)
        for k in range(after.max()):
            bound = np.where(after > k, bound + top, bound)
        # best only grows along the walk, so a timestamp that cannot beat it
        # now never will
        for i in np.flatnonzero(bound > best).tolist():
            start, plan = run[i]
            step_terms = [top] * len(plan.counts)
            step_terms[plan.order[0]] = terms.item(i)
            for r in plan.order[1:]:
                if sum(step_terms) <= best:
                    break
                bit_gen.advance(start + plan.starts[r] - at)
                step_terms[r] = low + span * _largest_uniform(rng, plan.counts[r])
                at = start + plan.starts[r + 1]
            best = max(best, sum(step_terms, 0.0))
    return best


def flood_reachability(adj: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Blind-flood every node's payload; returns (known, per-round forwards).

    known[i, p] marks that node i holds payload p after flooding completes.
    Each node forwards each newly seen payload (its own included) to all its
    neighbors exactly once. rounds holds each round's forwards over every
    edge direction, so sum(rounds) is the packets; the last round teaches no
    node anything, so the last payload arrives in round len(rounds) - 1.
    """
    deg = degrees(adj)
    known = np.eye(adj.shape[0], dtype=bool)
    new = known.copy()
    rounds: list[int] = []
    while new.any():
        rounds.append(int((deg * new.sum(axis=1)).sum()))
        received = (adj.astype(np.int64) @ new.astype(np.int64)) > 0
        new = received & ~known
        known |= new
    return known, rounds
