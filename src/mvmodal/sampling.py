"""Random Kripke models inside a frame class, for property runs.

Relations are sampled edge-wise and then closed into the requested
class; valuations are uniform over the labels.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .semantics import FrameClass, KripkeModel, frame_check

#: Chance of each edge before the relation is closed into its class.
EDGE_PROBABILITY = 0.4


def _transitive_closure(edges: set[tuple[int, int]], worlds: range) -> None:
    changed = True
    while changed:
        changed = False
        for u, v in list(edges):
            for w in worlds:
                if (v, w) in edges and (u, w) not in edges:
                    edges.add((u, w))
                    changed = True


def _euclidean_closure(edges: set[tuple[int, int]], worlds: range) -> None:
    changed = True
    while changed:
        changed = False
        for u in worlds:
            succ = [v for v in worlds if (u, v) in edges]
            for v in succ:
                for w in succ:
                    if (v, w) not in edges:
                        edges.add((v, w))
                        changed = True


def random_relation(rng: random.Random, world_count: int,
                    frame_class: FrameClass) -> frozenset[tuple[int, int]]:
    worlds = range(world_count)
    edges = {(u, v) for u in worlds for v in worlds
             if rng.random() < EDGE_PROBABILITY}
    if frame_class in (FrameClass.REFLEXIVE, FrameClass.PREORDER,
                       FrameClass.EQUIVALENCE):
        edges.update((u, u) for u in worlds)
    if frame_class in (FrameClass.SYMMETRIC, FrameClass.EQUIVALENCE):
        edges.update((v, u) for u, v in list(edges))
    if frame_class in (FrameClass.TRANSITIVE, FrameClass.PREORDER,
                       FrameClass.EQUIVALENCE):
        _transitive_closure(edges, worlds)
    if frame_class is FrameClass.EUCLIDEAN:
        _euclidean_closure(edges, worlds)
    if frame_class is FrameClass.SERIAL:
        for u in worlds:
            if not any(x == u for x, _ in edges):
                edges.add((u, rng.randrange(world_count)))
    return frozenset(edges)


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


def random_models(seed: int, count: int, variables: Sequence[str], n: int,
                  max_worlds: int, frame_class: FrameClass = FrameClass.ANY
                  ) -> Iterable[KripkeModel]:
    rng = random.Random(seed)
    for _ in range(count):
        yield random_model(rng, variables, n, max_worlds, frame_class)
