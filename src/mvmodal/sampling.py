"""Random Kripke models inside a frame class, for property runs.

Relations are sampled edge-wise and then closed into the requested
class; valuations are uniform over the labels.
"""

from __future__ import annotations

import random
from typing import Sequence

from .semantics import FrameClass, KripkeModel, _members, edge_set, frame_check

#: Chance of each edge before the relation is closed into its class.
EDGE_PROBABILITY = 0.4


def random_relation(rng: random.Random, world_count: int,
                    frame_class: FrameClass) -> frozenset[tuple[int, int]]:
    """Edge-wise draws, closed into the class on bitmask successor rows.

    Reflexive loops, then the transpose for symmetry, then Warshall's
    transitive closure, or the euclidean fixpoint (every successor of a
    world sees all of that world's successors); a serial frame gives
    each dead end one random successor.
    """
    worlds = range(world_count)
    rows = [sum(1 << v for v in worlds if rng.random() < EDGE_PROBABILITY)
            for _ in worlds]
    if frame_class in (FrameClass.REFLEXIVE, FrameClass.PREORDER,
                       FrameClass.EQUIVALENCE):
        rows = [r | 1 << u for u, r in enumerate(rows)]
    if frame_class in (FrameClass.SYMMETRIC, FrameClass.EQUIVALENCE):
        rows = [r | sum(1 << v for v in worlds if rows[v] >> u & 1)
                for u, r in enumerate(rows)]
    if frame_class in (FrameClass.TRANSITIVE, FrameClass.PREORDER,
                       FrameClass.EQUIVALENCE):
        for k in worlds:
            for u in worlds:
                if rows[u] >> k & 1:
                    rows[u] |= rows[k]
    if frame_class is FrameClass.EUCLIDEAN:
        changed = True
        while changed:
            changed = False
            for r in list(rows):
                for v in _members(r):
                    if rows[v] | r != rows[v]:
                        rows[v] |= r
                        changed = True
    if frame_class is FrameClass.SERIAL:
        for u in worlds:
            if not rows[u]:
                rows[u] = 1 << rng.randrange(world_count)
    return edge_set(rows)


def random_model(rng: random.Random, variables: Sequence[str], n: int,
                 max_worlds: int, frame_class: FrameClass = FrameClass.ANY
                 ) -> KripkeModel:
    """A model with 1..max_worlds worlds inside the frame class."""
    world_count = rng.randint(1, max_worlds)
    edges = random_relation(rng, world_count, frame_class)
    vals = {(u, p): rng.randint(1, n)
            for u in range(world_count) for p in variables}
    model = KripkeModel(world_count, edges, vals)
    if not frame_check(model, frame_class):
        raise AssertionError(f"sampled model left the {frame_class.value} class")
    return model
