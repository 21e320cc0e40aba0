"""Random Kripke models inside a frame class, for property runs.

Relations are drawn edge-wise and closed into the class by its properties
(semantics._FRAME_PROPERTIES), not taken from the search's generator, one of
whose steps lists 2^23 candidates at 12 worlds.  Valuations are uniform.
"""

from __future__ import annotations

import random
from typing import Sequence

from .semantics import _FRAME_PROPERTIES, FrameClass, KripkeModel, edge_set, frame_check

#: Chance of each edge before the relation is closed into its class.
EDGE_PROBABILITY = 0.4


def random_relation(rng: random.Random, world_count: int,
                    frame_class: FrameClass) -> frozenset[tuple[int, int]]:
    """Edge-wise draws on successor rows, row-major, closed into the class."""
    worlds = range(world_count)
    rows = [sum(1 << v for v in worlds if rng.random() < EDGE_PROBABILITY)
            for _ in worlds]
    for prop in _FRAME_PROPERTIES[frame_class]:
        rows = prop.close(rows, rng)
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
