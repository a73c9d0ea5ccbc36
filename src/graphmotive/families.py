"""Standard graph families and the fixed test catalog.

The catalog deliberately mixes loops, parallel edges, bridges, forests and
2-connected graphs so that every branch of the bridge/loop/regular
trichotomy is exercised somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Multigraph, disjoint_union
from .symanzik import MAX_VARS


def _cycle(m: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % m) for i in range(m)]


# Each family: (its least m, its edge count for m, known before any edge is
# built, and the vertex count and edge ends of its graph for m)
_FAMILIES = {
    "cycle": (3, lambda m: m, lambda m: (m, _cycle(m))),
    "banana": (1, lambda m: m, lambda m: (2, [(0, 1)] * m)),
    "tree_path": (1, lambda m: m, lambda m: (m + 1, [(i, i + 1) for i in range(m)])),
    "bouquet": (1, lambda m: m, lambda m: (1, [(0, 0)] * m)),
    "complete": (3, lambda m: m * (m - 1) // 2, lambda m: (m, [(i, j) for i in range(m) for j in range(i + 1, m)])),
    # rim 0..m-1 (labels 0..m-1), hub m with spokes (labels m..2m-1)
    "wheel": (3, lambda m: 2 * m, lambda m: (m + 1, _cycle(m) + [(i, m) for i in range(m)])),
    "dumbbell": (3, lambda m: m + 1, lambda m: (m, _cycle(m) + [(0, 0)])),
}
FAMILY_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    m: int

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.name!r}; choose from {', '.join(FAMILY_NAMES)}"
            )
        minimum = _FAMILIES[self.name][0]
        if self.m < minimum:
            raise ValueError(f"family {self.name} needs m >= {minimum}, got {self.m}")
        edges = self.edge_count()
        if edges > MAX_VARS:
            raise ValueError(
                f"family {self.name}:{self.m} would have {edges} edges, more than {MAX_VARS}"
            )

    def edge_count(self) -> int:
        """Edges of the generated graph, known before it is built."""
        return _FAMILIES[self.name][1](self.m)

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        name, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"family spec {text!r} is not of the form name:m")
        try:
            m = int(tail)
        except ValueError:
            raise ValueError(f"family size {tail!r} is not an integer") from None
        return cls(name.strip(), m)


def generate_family(spec: FamilySpec) -> Multigraph:
    return Multigraph.from_pairs(*_FAMILIES[spec.name][2](spec.m))


def _family(name: str, m: int) -> Multigraph:
    return generate_family(FamilySpec(name, m))


def standard_catalog() -> list[tuple[str, Multigraph]]:
    """Named graphs, all with at most 8 edges, in a fixed order."""
    cat: list[tuple[str, Multigraph]] = []

    def add(name: str, g: Multigraph) -> None:
        cat.append((name, g))

    add("edgeless", Multigraph(1, ()))
    add("single_edge", Multigraph.from_pairs(2, [(0, 1)]))
    add("single_loop", Multigraph.from_pairs(1, [(0, 0)]))
    add("path_2", _family("tree_path", 2))
    add("path_3", _family("tree_path", 3))
    add("path_5", _family("tree_path", 5))
    add("star_3", Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3)]))
    add("forest_two_paths", Multigraph.from_pairs(5, [(0, 1), (2, 3), (3, 4)]))
    add("bouquet_2", _family("bouquet", 2))
    add("bouquet_3", _family("bouquet", 3))
    add("bouquet_4", _family("bouquet", 4))
    add("banana_2", _family("banana", 2))
    add("banana_3", _family("banana", 3))
    add("banana_4", _family("banana", 4))
    add("banana_5", _family("banana", 5))
    add("cycle_3", _family("cycle", 3))
    add("cycle_4", _family("cycle", 4))
    add("cycle_5", _family("cycle", 5))
    add("cycle_6", _family("cycle", 6))
    add("complete_4", _family("complete", 4))
    add("wheel_4", _family("wheel", 4))
    add("dumbbell_3", _family("dumbbell", 3))
    add("dumbbell_4", _family("dumbbell", 4))
    add("dumbbell_5", _family("dumbbell", 5))
    add("triangle_tail", Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    add(
        "bowtie",
        Multigraph.from_pairs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
    )
    add(
        "theta",
        Multigraph.from_pairs(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]),
    )
    add(
        "diamond",
        Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    )
    add("c3_isolated", Multigraph(4, _family("cycle", 3).edges))
    add("disjoint_c3_edge", disjoint_union(_family("cycle", 3), Multigraph.from_pairs(2, [(0, 1)])))
    add("disjoint_loops", Multigraph.from_pairs(2, [(0, 0), (1, 1)]))
    add("loop_bridge", Multigraph.from_pairs(2, [(0, 0), (0, 1)]))
    add("banana2_loop", Multigraph.from_pairs(2, [(0, 1), (0, 1), (1, 1)]))
    add("k4_loop", Multigraph(4, _family("complete", 4).edges + (Edge(6, 0, 0),)))
    add(
        "two_triangles_bridge",
        Multigraph.from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]),
    )
    add(
        "parallel_path_double",
        Multigraph.from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2)]),
    )
    add("star3_loop", Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (0, 0)]))
    return cat


def catalog_by_name() -> dict[str, Multigraph]:
    return dict(standard_catalog())
