"""Labeled multigraphs with the deletion / contraction operations.

Loops and parallel edges are allowed.  Every edge carries a stable integer
label naming its polynomial variable; deletion and contraction never
renumber surviving edges, so recursive polynomial identities hold in
literally the same variables.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence


MAX_VERTICES = 1 << 16  # parse-time cap; union-find and minors are O(V)
MAX_FOREST_SUBSETS = 10**7  # edge subsets spanning_forests may test, a few us each


class GraphError(ValueError):
    pass


class UnknownLabelError(GraphError):
    pass


class LoopContractionError(GraphError):
    pass


class GraphParseError(GraphError):
    pass


def _check_vertex_count(vc: int) -> None:
    """Refuse oversized input at parse; __post_init__ stays cheap for minors."""
    if vc > MAX_VERTICES:
        raise GraphParseError(f"vertex_count {vc} exceeds the limit {MAX_VERTICES}")


def _json_int(value) -> int:
    """JSON integers only: floats would truncate, and bool is an int subclass."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


class Edge(NamedTuple):
    label: int
    u: int
    v: int

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


class EdgeKind(enum.Enum):
    BRIDGE = "bridge"
    LOOP = "loop"
    REGULAR = "regular"


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph on vertices 0..vertex_count-1.

    Isolated vertices are permitted; they never affect polynomials or
    point counts.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be non-negative")
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))
        seen = set()
        for e in self.edges:
            if e.label < 0:
                raise GraphError(f"negative edge label {e.label}")
            if e.label in seen:
                raise GraphError(f"duplicate edge label {e.label}")
            seen.add(e.label)
            for w in (e.u, e.v):
                if not 0 <= w < self.vertex_count:
                    raise GraphError(
                        f"edge {e.label} endpoint {w} outside 0..{self.vertex_count - 1}"
                    )

    @classmethod
    def from_pairs(cls, vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "Multigraph":
        """Build from (u, v) pairs; labels are assigned 0..n-1 in order."""
        return cls(vertex_count, tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(e.label for e in self.edges)

    def edge_by_label(self, label: int) -> Edge:
        for e in self.edges:
            if e.label == label:
                return e
        raise UnknownLabelError(f"no edge with label {label}")

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "edges": [[e.u, e.v] for e in self.edges],
            "edge_labels": [e.label for e in self.edges],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Multigraph":
        """The to_json_obj form; edge_labels may be absent (labels 0..n-1)."""
        try:
            vc = _json_int(obj["vertex_count"])
            pairs = [(_json_int(u), _json_int(v)) for u, v in obj["edges"]]
            labels = obj.get("edge_labels")
            if labels is None:
                labels = range(len(pairs))
            elif not isinstance(labels, (list, tuple)):
                raise TypeError("edge_labels must be a list")
            labels = [_json_int(label) for label in labels]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphParseError(f"malformed graph JSON: {exc}") from exc
        _check_vertex_count(vc)
        if len(labels) != len(pairs):
            raise GraphParseError("edge_labels length does not match edges")
        return cls(vc, tuple(Edge(l, u, v) for l, (u, v) in zip(labels, pairs)))

    def to_text(self) -> str:
        """Edge-list format: a "vertex_count edge_count" header, then one
        "u v" line per edge. Only representable when labels are 0..n-1 in
        edge order (the format assigns labels by file position).
        """
        if self.labels != tuple(range(self.edge_count)):
            raise GraphError("edge-list text requires labels 0..n-1 in order")
        lines = [f"{self.vertex_count} {self.edge_count}"]
        lines += [f"{e.u} {e.v}" for e in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Multigraph":
        """Parse the edge-list format, reporting 1-based line numbers on error."""
        rows = []
        for num, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((num, line))
        if not rows:
            raise GraphParseError("empty graph file")
        num, header = rows[0]
        parts = header.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"line {num}: expected header 'vertex_count edge_count'"
            )
        try:
            vc, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {num}: header entries must be integers")
        _check_vertex_count(vc)
        if len(rows) - 1 != n:
            raise GraphParseError(
                f"expected {n} edge lines, found {len(rows) - 1}"
            )
        pairs = []
        for num, line in rows[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError(f"line {num}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {num}: endpoints must be integers")
            if not (0 <= u < vc and 0 <= v < vc):
                raise GraphParseError(
                    f"line {num}: endpoint outside 0..{vc - 1}"
                )
            pairs.append((u, v))
        return cls.from_pairs(vc, pairs)

    @classmethod
    def parse(cls, text: str) -> "Multigraph":
        """Accept either the edge-list format or the JSON form."""
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GraphParseError(f"invalid JSON: {exc}") from exc
            return cls.from_json_obj(obj)
        return cls.from_text(text)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def component_count(g: Multigraph, skip_label: int | None = None) -> int:
    uf = _UnionFind(g.vertex_count)
    merges = 0
    for e in g.edges:
        if e.label == skip_label:
            continue
        if uf.union(e.u, e.v):
            merges += 1
    return g.vertex_count - merges


def classify_edge(g: Multigraph, label: int) -> EdgeKind:
    """Bridge, loop, or regular, the trichotomy driving every recursion."""
    e = g.edge_by_label(label)
    if e.is_loop:
        return EdgeKind.LOOP
    if component_count(g, skip_label=label) > component_count(g):
        return EdgeKind.BRIDGE
    return EdgeKind.REGULAR


def delete_edge(g: Multigraph, label: int) -> Multigraph:
    g.edge_by_label(label)
    return Multigraph(g.vertex_count, tuple(e for e in g.edges if e.label != label))


def contract_edge(g: Multigraph, label: int) -> Multigraph:
    """Identify the endpoints of a non-loop edge and drop it.

    Edges parallel to the contracted one become loops; surviving labels are
    untouched.  Contracting a loop is rejected: it is never needed and the
    deletion alias would change graph polynomials.
    """
    e = g.edge_by_label(label)
    if e.is_loop:
        raise LoopContractionError(f"cannot contract looping edge {label}")
    lo, hi = min(e.u, e.v), max(e.u, e.v)

    def remap(w: int) -> int:
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    edges = tuple(
        Edge(f.label, remap(f.u), remap(f.v)) for f in g.edges if f.label != label
    )
    return Multigraph(g.vertex_count - 1, edges)


def betti_1(g: Multigraph) -> int:
    """Cycle rank n - |V| + #components; the degree of the graph polynomial."""
    return g.edge_count - g.vertex_count + component_count(g)


def spanning_forests(g: Multigraph) -> list[tuple[int, ...]]:
    """All maximal spanning forests as sorted label tuples, lexicographic.

    A maximal forest holds one spanning tree per connected component, so its
    size is vertex_count - #components; loops never appear. Refused, before
    any is tested, when there are more than MAX_FOREST_SUBSETS candidates.
    """
    target = g.vertex_count - component_count(g)
    non_loops = sorted(e.label for e in g.edges if not e.is_loop)
    subsets = comb(len(non_loops), target)
    if subsets > MAX_FOREST_SUBSETS:
        raise GraphError(
            f"spanning forests: {subsets} edge subsets exceed the limit {MAX_FOREST_SUBSETS}"
        )
    by_label = {e.label: e for e in g.edges}
    out = []
    for combo in combinations(non_loops, target):
        uf = _UnionFind(g.vertex_count)
        for lab in combo:
            e = by_label[lab]
            if not uf.union(e.u, e.v):
                break
        else:
            out.append(combo)
    return out


def is_forest(g: Multigraph) -> bool:
    return betti_1(g) == 0


def has_non_loop_edge(g: Multigraph) -> bool:
    return any(not e.is_loop for e in g.edges)


def disjoint_union(g1: Multigraph, g2: Multigraph) -> Multigraph:
    """Place g2 next to g1, shifting its vertices and labels past g1's."""
    shift_v = g1.vertex_count
    shift_l = max((e.label for e in g1.edges), default=-1) + 1
    edges = g1.edges + tuple(
        Edge(e.label + shift_l, e.u + shift_v, e.v + shift_v) for e in g2.edges
    )
    return Multigraph(g1.vertex_count + g2.vertex_count, edges)


def relabel_dense(g: Multigraph) -> Multigraph:
    """Renumber labels to 0..n-1 preserving their order (counting plumbing)."""
    rank = {lab: i for i, lab in enumerate(sorted(g.labels))}
    return Multigraph(
        g.vertex_count, tuple(Edge(rank[e.label], e.u, e.v) for e in g.edges)
    )


def graph_id(g: Multigraph) -> str:
    """Compact deterministic identifier used in verdicts and reports."""
    body = ",".join(f"{e.label}:{e.u}-{e.v}" for e in g.edges)
    return f"V{g.vertex_count}[{body}]"


def edge_census(g: Multigraph) -> dict[str, int]:
    census = {"bridge": 0, "loop": 0, "regular": 0}
    for e in g.edges:
        census[classify_edge(g, e.label).value] += 1
    return census
