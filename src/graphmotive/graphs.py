"""Labeled multigraphs with the deletion / contraction operations.

Loops and parallel edges are allowed.  Every edge carries a stable integer
label naming its polynomial variable; deletion and contraction never
renumber surviving edges, so recursive polynomial identities hold in
literally the same variables.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, Iterator, NamedTuple


MAX_VERTICES = 1 << 16  # parse-time cap; every pass over vertices runs on _edge_sized(g)
MAX_EDGES = 63  # parse-time cap; each edge is one of psi's variables (symanzik.MAX_VARS)
MAX_FOREST_SUBSETS = 10**7  # cap on C(non-loop edges, forest size), so on psi's terms (_forest_masks)
CANON_LEAF_BOUND = 720  # leaves a canonical form searches per component; 6! covers <= 6 vertices
_LINE_BREAK = r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]"  # as str.splitlines; compiled on first parse


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


def _check_edge_count(n: int) -> None:
    """Refuse, before any edge is read, more edges than psi has variables."""
    if n > MAX_EDGES:
        raise GraphParseError(f"edge labels exceed {MAX_EDGES - 1}")


def _numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """enumerate(text.splitlines(), start=1), one line at a time."""
    start, num = 0, 0
    for num, end in enumerate(re.finditer(_LINE_BREAK, text), start=1):
        yield num, text[start : end.start()]
        start = end.end()
    if start < len(text):
        yield num + 1, text[start:]


def _json_int_counter():
    """A json.loads parse_int hook that refuses, before the document is
    built, more integers than the largest graph document the package
    writes holds: `family`'s schema number and vertex_count plus two
    endpoints and a label per edge."""
    limit = 2 + 3 * MAX_EDGES
    seen = 0

    def parse_int(text: str) -> int:
        nonlocal seen
        seen += 1
        if seen > limit:
            raise GraphParseError(
                f"edge labels exceed {MAX_EDGES - 1}: graph JSON holds more than {limit} integers"
            )
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise GraphParseError(f"malformed graph JSON: {exc}") from exc

    return parse_int


def _json_non_int(text: str):
    """A json.loads hook for floats and NaN/Infinity, refused at once."""
    raise GraphParseError(f"malformed graph JSON: {text} is not an integer")


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
        vc = self.vertex_count
        if vc < 0:
            raise GraphError("vertex_count must be non-negative")
        edges = self.edges
        if type(edges) is not tuple or not all(type(e) is Edge for e in edges):
            edges = tuple(Edge(*e) for e in edges)
            object.__setattr__(self, "edges", edges)
        seen = set()
        for e in edges:
            if e.label < 0:
                raise GraphError(f"negative edge label {e.label}")
            if e.label in seen:
                raise GraphError(f"duplicate edge label {e.label}")
            seen.add(e.label)
            for w in (e.u, e.v):
                if not 0 <= w < vc:
                    raise GraphError(f"edge {e.label} endpoint {w} outside 0..{vc - 1}")

    @classmethod
    def _trusted(cls, vertex_count: int, edges: tuple[Edge, ...]) -> "Multigraph":
        """A Multigraph with no __post_init__ check, for the graphs that
        delete_edge, contract_edge, _edge_sized and canonical_relabel build
        from a graph already checked. Their input is valid by construction:
        the first three keep a subset of g's edges, so the labels stay
        distinct and non-negative and every edge is an Edge in a tuple;
        deletion keeps every vertex, contraction maps 0..vertex_count-1
        onto 0..vertex_count-2, and _edge_sized maps the vertices the edges
        touch onto 0..k-1. canonical_relabel labels its edges 0..n-1 and
        names the V vertices they touch 0..V-1."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "edges", edges)
        return g

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
        return self.edges[_position(self, label)]

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
            edges = obj["edges"]
            edge_count = len(edges)
        except (KeyError, TypeError) as exc:
            raise GraphParseError(f"malformed graph JSON: {exc}") from exc
        _check_edge_count(edge_count)
        try:
            pairs = [(_json_int(u), _json_int(v)) for u, v in edges]
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
        rows = (
            (num, line)
            for num, raw in _numbered_lines(text)
            if (line := raw.split("#", 1)[0].strip())
        )
        first = next(rows, None)
        if first is None:
            raise GraphParseError("empty graph file")
        num, header = first
        parts = header.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"line {num}: expected header 'vertex_count edge_count'"
            )
        try:
            vc, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {num}: header entries must be integers")
        if vc < 0 or n < 0:
            raise GraphParseError(f"line {num}: header entries must be non-negative")
        _check_vertex_count(vc)
        _check_edge_count(n)
        edge_rows = list(islice(rows, n + 1))
        if len(edge_rows) != n:
            found = len(edge_rows) + sum(1 for _ in rows)
            raise GraphParseError(f"expected {n} edge lines, found {found}")
        pairs = []
        for num, line in edge_rows:
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
                obj = json.loads(
                    text,
                    parse_int=_json_int_counter(),
                    parse_float=_json_non_int,
                    parse_constant=_json_non_int,
                )
            except json.JSONDecodeError as exc:
                raise GraphParseError(f"invalid JSON: {exc}") from exc
            except RecursionError as exc:
                raise GraphParseError("invalid JSON: nested too deeply") from exc
            return cls.from_json_obj(obj)
        return cls.from_text(text)


def _join_ends(g: Multigraph, skip: int | None = None) -> tuple[list[int], int]:
    """A union-find forest over g's vertices after joining the ends of every
    edge except the one labelled skip, and how many joins merged two
    classes. One inline pass with path halving, no object and no method
    calls: classify_edge runs it once per minor of deletion-contraction."""
    root = list(range(g.vertex_count))
    merges = 0
    for label, u, v in g.edges:
        if label == skip:
            continue
        while u != root[u]:
            root[u] = root[root[u]]
            u = root[u]
        while v != root[v]:
            root[v] = root[root[v]]
            v = root[v]
        if u != v:
            root[u] = v
            merges += 1
    return root, merges


def _edge_sized(g: Multigraph) -> Multigraph:
    """g on the vertices its edges touch, renamed 0..k-1 in increasing
    order, with its labels and edge order; g itself when every vertex is
    touched. An untouched vertex changes no polynomial, count or edge
    kind, so every pass over vertices runs on this graph."""
    touched = {w for _, u, v in g.edges for w in (u, v)}
    if len(touched) == g.vertex_count:
        return g
    name = {w: i for i, w in enumerate(sorted(touched))}
    return Multigraph._trusted(len(name), tuple(Edge(f, name[u], name[v]) for f, u, v in g.edges))


def component_count(g: Multigraph) -> int:
    return g.vertex_count - _join_ends(_edge_sized(g))[1]


def classify_edge(g: Multigraph, label: int) -> EdgeKind:
    """Bridge, loop, or regular, the trichotomy driving every recursion.
    A non-loop edge is a bridge exactly when its endpoints stay apart in
    g minus the edge: one union-find pass over the other edges
    (_join_ends), then the root of each endpoint. An unknown label is
    refused (UnknownLabelError)."""
    _, u, v = g.edge_by_label(label)
    if u == v:
        return EdgeKind.LOOP
    root, _ = _join_ends(g, label)
    while u != root[u]:
        u = root[u]
    while v != root[v]:
        v = root[v]
    return EdgeKind.BRIDGE if u != v else EdgeKind.REGULAR


def _position(g: Multigraph, label: int) -> int:
    """The index in g.edges of the edge labelled `label`, found in one scan;
    UnknownLabelError if there is none."""
    for i, e in enumerate(g.edges):
        if e.label == label:
            return i
    raise UnknownLabelError(f"no edge with label {label}")


def delete_edge(g: Multigraph, label: int) -> Multigraph:
    """g without the edge labelled `label` (UnknownLabelError if there is
    none); every other edge, label and vertex is kept."""
    edges = g.edges
    i = _position(g, label)
    return Multigraph._trusted(g.vertex_count, edges[:i] + edges[i + 1 :])


def contract_edge(g: Multigraph, label: int) -> Multigraph:
    """Identify the endpoints of a non-loop edge and drop it.

    Edges parallel to the contracted one become loops; surviving labels are
    untouched.  Contracting a loop is rejected: it is never needed and the
    deletion alias would change graph polynomials, and an unknown label is
    refused (UnknownLabelError). The higher endpoint folds into the lower
    and the vertices above it move down by one, so the minor's vertices
    are again 0..vertex_count-2. An edge with both ends below the higher
    endpoint keeps its names, so the minor holds that very Edge.
    """
    _, u, v = g.edges[_position(g, label)]
    if u == v:
        raise LoopContractionError(f"cannot contract looping edge {label}")
    lo, hi = (u, v) if u < v else (v, u)
    to = [*range(hi), lo, *range(hi, g.vertex_count - 1)]  # hi folds into lo
    edge = tuple.__new__  # Edge(...) without namedtuple's Python-level __new__
    edges = []
    for e in g.edges:
        f, u, v = e
        if f == label:
            continue
        edges.append(e if u < hi and v < hi else edge(Edge, (f, to[u], to[v])))
    return Multigraph._trusted(g.vertex_count - 1, tuple(edges))


def betti_1(g: Multigraph) -> int:
    """Cycle rank n - |V| + #components; the degree of the graph polynomial."""
    return g.edge_count - g.vertex_count + component_count(g)


def _forest_masks(g: Multigraph) -> dict[int, int]:
    """psi's terms, in no particular order: {full ^ forest: 1} for the
    label mask of every maximal spanning forest of g (bit l set for label
    l), where full is the mask of every label of g, loops included.

    The search runs on g's non-loop edges, on the vertices they touch
    (_edge_sized). The caller's label cap (symanzik._ambient_width refuses
    labels past MAX_EDGES - 1) keeps these to at most MAX_EDGES edges, so
    each of at most 2 * MAX_EDGES < 255 vertices has a name below the 0xff
    blank and fits in one byte. The search is refused, before any edge is
    tried, when C(edges, size) exceeds MAX_FOREST_SUBSETS. One union-find
    pass (_join_ends) gives size, that of a maximal forest, as its merge
    count, and the roots that pick the vertex closing each component.

    The search is a frontier sweep (Sekine, Imai and Tani's Tutte
    polynomial computation; Kawahara et al.'s frontier-based search) over
    those edges in vertex-frontier order (_sweep_order). A state is a
    bytes string with one byte per vertex: a live vertex holds the name of
    its piece (its component under the partial forest), the lowest live
    vertex in it, and a retired one, whose edges are all swept, holds
    0xff. Each state maps to the masks of the partial forests that leave
    those pieces, so one step of _forest_step serves them all. When every
    edge is swept one state is left, and its masks are the forests.
    """
    edges = tuple(e for e in g.edges if not e.is_loop)
    h = _edge_sized(Multigraph._trusted(g.vertex_count, edges))
    root, size = _join_ends(h)
    subsets = comb(len(edges), size)
    if subsets > MAX_FOREST_SUBSETS:
        raise GraphError(
            f"spanning forests: {subsets} edge subsets exceed the limit {MAX_FOREST_SUBSETS}"
        )
    ends = {label: (u, v) for label, u, v in h.edges}
    order = _sweep_order(h)
    last = {w: i for i, label in enumerate(order) for w in ends[label]}
    retiring = [[w for w in ends[label] if last[w] == i] for i, label in enumerate(order)]
    final = {}  # each g-component's root -> its last vertex to retire
    for ws in retiring:
        for w in ws:
            r = w
            while r != root[r]:
                r = root[r]
            final[r] = w
    closing = set(final.values())
    full = sum(1 << e.label for e in g.edges)
    frontier = {bytes(range(h.vertex_count)): [full]}
    for label, ws in zip(order, retiring):
        retire = tuple((w, w in closing) for w in ws)
        frontier = _forest_step(frontier, 1 << label, *ends[label], retire)
    (masks,) = frontier.values()
    return dict.fromkeys(masks, 1)


def _forest_step(
    frontier: dict[bytes, list[int]],
    bit: int,
    u: int,
    v: int,
    retire: tuple[tuple[int, bool], ...],
) -> dict[bytes, list[int]]:
    """The frontier after the edge bit = 1 << label from u to v: each
    state's partial forests skip the edge, and, when u and v lie in
    different pieces, also take it (mask ^ bit), merging the two names
    into the lower. Then each vertex in retire, (w, last) in retirement
    order, is blanked (_retire); a state that closes a piece which is not
    the whole of its g-component, a tree that could never grow to span it,
    is dropped. So is every state that skipped a bridge, as the two sides
    of a bridge never join again. Equal states are merged by joining their
    lists (_merge): a parent's list passes to its skip child, not copied,
    once its take child is built."""
    out: dict[bytes, list[int]] = {}
    for comp, masks in frontier.items():
        a, b = comp[u], comp[v]
        if a != b:
            key = _retire(comp.replace(_BYTE[max(a, b)], _BYTE[min(a, b)]), retire)
            if key is not None:
                _merge(out, key, [m ^ bit for m in masks])
        key = _retire(comp, retire)
        if key is not None:
            _merge(out, key, masks)
    return out


def _merge(frontier: dict, key, masks: list[int]) -> None:
    """Add masks to the list of frontier[key]. The first list a key gets
    is kept, not copied, and later ones extend it: each list passed in
    has one owner, whose step is done. Equal masks stay separate entries,
    so a final count adds their coefficients."""
    held = frontier.setdefault(key, masks)
    if held is not masks:
        held.extend(masks)


def _retire(comp: bytes, retire: tuple[tuple[int, bool], ...]) -> bytes | None:
    """comp with each vertex w of retire blanked to 0xff, in order, and
    each piece renamed to its lowest live vertex; None when a piece closes
    (its last live vertex retires) at a w that is not the last vertex of
    its g-component to retire. The test is per vertex: both ends of an
    edge may retire at it, and a piece that closes at the first of two
    ends of one g-component leaves the second end unspanned."""
    for w, last in retire:
        name = comp[w]
        comp = comp[:w] + b"\xff" + comp[w + 1 :]
        if name == w:
            nxt = comp.find(_BYTE[w])
            if nxt >= 0:
                comp = comp.replace(_BYTE[w], _BYTE[nxt])
            elif not last:
                return None
    return comp


_BYTE = [bytes((i,)) for i in range(256)]  # _BYTE[c] is the one-byte string of c


def _sweep_order(g: Multigraph) -> list[int]:
    """g's labels in vertex-frontier order: each next label is the edge
    whose sweep leaves the fewest active vertices (touching both swept and
    unswept edges), ties to the highest label. Only which edges share a
    vertex is read, so the order does not depend on vertex names. Both psi
    builders sweep in this order: the fewer vertices are active, the fewer
    distinct minors or component partitions a step can hold."""
    ends = {e.label: {e.u, e.v} for e in g.edges}
    unswept = [0] * g.vertex_count  # unswept edges at each vertex
    for vs in ends.values():
        for w in vs:
            unswept[w] += 1
    swept = [False] * g.vertex_count  # some swept edge at the vertex
    order = []
    while ends:
        # sweeping an edge activates each end it leaves unfinished and
        # retires each already active end whose last edge it is
        label = min(
            ends,
            key=lambda lab: (sum((unswept[w] > 1) - swept[w] for w in ends[lab]), -lab),
        )
        for w in ends.pop(label):
            unswept[w] -= 1
            swept[w] = True
        order.append(label)
    return order


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


def canonical_relabel(g: Multigraph, mark: int | None = None) -> Multigraph:
    """g renamed into canonical form: isolated vertices dropped, the others
    0..V-1, labels 0..n-1 in edge order, and the edge labelled `mark`, if
    given, last.

    The result is isomorphic to g, by a map that takes the marked edge to
    the last label. Each connected component is put in canonical form on
    its own (_canonical_component) and the components follow in sorted
    order, the marked one last. Isomorphic inputs (with marked edges that
    correspond) give equal results whenever no component's search reaches
    CANON_LEAF_BOUND leaves, as none of at most 6 vertices can.
    """
    if mark is not None:
        g.edge_by_label(mark)
    adjacent: dict[int, list[int]] = {}
    for e in g.edges:
        adjacent.setdefault(e.u, []).append(e.v)
        adjacent.setdefault(e.v, []).append(e.u)
    place: dict[int, tuple[int, int]] = {}  # vertex -> (component, index in it)
    sizes: list[int] = []
    for start in adjacent:
        if start not in place:
            order = [start]
            place[start] = (len(sizes), 0)
            for w in order:  # breadth first; order grows as it is read
                for x in adjacent[w]:
                    if x not in place:
                        place[x] = (len(sizes), len(order))
                        order.append(x)
            sizes.append(len(order))
    split: list[tuple[list, list]] = [([], []) for _ in sizes]  # (unmarked, marked)
    for e in g.edges:
        c, a = place[e.u]
        split[c][e.label == mark].append((a, place[e.v][1]))
    forms, last = [], []
    for vc, (pairs, marked) in zip(sizes, split):
        form = (vc, *_canonical_component(vc, pairs, marked))
        (last if marked else forms).append(form)
    out, offset = [], 0
    for vc, pairs, marked in sorted(forms) + last:
        out += [(u + offset, v + offset) for u, v in (*pairs, *marked)]
        offset += vc
    return Multigraph._trusted(offset, tuple(Edge(i, u, v) for i, (u, v) in enumerate(out)))


def _canonical_component(
    vc: int, pairs: list[tuple[int, int]], marked: list[tuple[int, int]]
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """(sorted unmarked edges, marked edges) of a connected multigraph on
    vertices 0..vc-1 in canonical form, with at most one marked edge.

    Individualisation-refinement (McKay and Piperno, "Practical graph
    isomorphism II"): colour refinement (1-WL) splits the vertices into
    ordered cells, the ends of the marked edge and the loop count of each
    vertex coloured from the start; a search tree then individualises,
    one at a time, each vertex of the smallest leftmost cell that is not a
    singleton, refining again after each, until every cell is one vertex.
    Each leaf orders the vertices, and the least edge list over the leaves
    is the canonical form. Two vertices of a cell with equal multiplicities
    to every other vertex are twins: swapping them is an automorphism that
    fixes the node, so only the first of them is tried. The search stops
    after CANON_LEAF_BOUND leaves; past that the least form found is still
    an isomorphic relabelling, but may not be canonical.
    """
    loops = [0] * vc
    mult: list[dict[int, int]] = [{} for _ in range(vc)]
    for u, v in pairs + marked:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    nbrs = [tuple(m.items()) for m in mult]
    ends = {w for pair in marked for w in pair}
    best = None
    leaves = 0

    def search(colour: list[int]) -> None:
        nonlocal best, leaves
        cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
        for v, c in enumerate(colour):
            cells[c].append(v)
        target = min((cell for cell in cells if len(cell) > 1), key=len, default=None)
        if target is None:
            form = (_sorted_pairs(pairs, colour), _sorted_pairs(marked, colour))
            if best is None or form < best:
                best = form
            leaves += 1
            return
        tried: list[int] = []
        for v in target:
            if leaves >= CANON_LEAF_BOUND:
                return
            if any(_twins(mult, v, t) for t in tried):
                continue
            tried.append(v)
            c = colour[v]  # v before the rest of its cell
            search(_refine([x + (x > c or x == c and w != v) for w, x in enumerate(colour)], nbrs))

    start = [(w in ends, loops[w]) for w in range(vc)]
    rank = {c: i for i, c in enumerate(sorted(set(start)))}
    search(_refine([rank[c] for c in start], nbrs))
    return best


def _sorted_pairs(pairs: list[tuple[int, int]], pos: list[int]) -> tuple[tuple[int, int], ...]:
    """pairs renamed by pos, each pair ascending, in ascending order."""
    renamed = ((pos[u], pos[v]) for u, v in pairs)
    return tuple(sorted((a, b) if a <= b else (b, a) for a, b in renamed))


def _twins(mult: list[dict[int, int]], u: int, v: int) -> bool:
    """Whether u and v, of one cell (so with equal loop counts), have the
    same multiplicity to every other vertex."""
    return {w: m for w, m in mult[u].items() if w != v} == {
        w: m for w, m in mult[v].items() if w != u
    }


def _refine(colour: list[int], nbrs: list[tuple[tuple[int, int], ...]]) -> list[int]:
    """The coarsest equitable refinement of colour (1-WL), whose colours
    must be 0, 1, ...: a vertex's next colour is its colour and the
    multiset of (colour, multiplicity) over its neighbours, renumbered
    0, 1, ... by sorting, so cells keep their order. Stops when no cell
    splits or every cell is one vertex."""
    cells = len(set(colour))
    while cells < len(colour):
        signature = [
            (colour[v], tuple(sorted([(colour[w], m) for w, m in nbrs[v]])))
            for v in range(len(colour))
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signature)))}
        colour = [rank[s] for s in signature]
        if len(rank) == cells:
            break
        cells = len(rank)
    return colour


def graph_id(g: Multigraph) -> str:
    """Compact deterministic identifier used in verdicts and reports."""
    body = ",".join(f"{e.label}:{e.u}-{e.v}" for e in g.edges)
    return f"V{g.vertex_count}[{body}]"


# -- blocks and series reduction ----------------------------------------------
#
# psi_G is the product of psi over G's 2-connected loopless blocks, times
# t_l for each loop; a bridge's variable does not occur in it (Aluffi and
# Marcolli, "Algebro-geometric Feynman rules", arXiv:0811.2514). Two edges
# e, f at a vertex of degree 2 with no loop are in series: psi_G is psi of
# G', G with e and f merged into one edge g, under t_g -> t_e + t_f, a
# q-to-1 linear map (Stembridge 1998), so |Y_G| = q*|Y_G'|. In all, |Y_G|
# is q per bridge and per merge, q-1 per loop, times |Y| of each block once
# no vertex of degree 2 is left; a cycle merges down to a loop.


class _Block(NamedTuple):
    """A 2-connected loopless block of `edges` edges, which `merges` series
    merges take to `reduced`, with no vertex of degree 2; reduced is None
    for a cycle, whose merges leave a loop."""

    edges: int
    merges: int
    reduced: Multigraph | None


class _Reduction(NamedTuple):
    """What count_graph and count_Z count a graph by: its bridges, its loops
    and its blocks of two or more edges, and for each edge of such a block
    (block index, label of the reduced edge it merged into, None in a
    cycle)."""

    bridges: int
    loops: int
    blocks: tuple[_Block, ...]
    home: dict[int, tuple[int, int | None]]


def _find(parent: dict[int, int], x: int) -> int:
    """The root of x's class in the union-find forest `parent`, in which a
    root maps to itself or is absent; each step skips a level (path
    halving). parent[_find(parent, a)] = _find(parent, b) joins two classes."""
    while (up := parent.get(x, x)) != x:
        parent[x] = x = parent.get(up, up)
    return x


def _block_labels(g: Multigraph) -> dict[int, int]:
    """Each non-loop edge's label -> a label naming its 2-connected block.

    Two edges at a vertex v share a block exactly when their far ends stay
    joined in g - v, as a path between them that misses v closes a cycle
    through both. So for each vertex v an edge touches, one union-find
    pass over the edges that miss v joins, at v, the edges whose far ends
    it joins; a bridge stays alone. That is quadratic in the edges, which
    MAX_EDGES bounds, and isolated vertices are never visited.
    """
    edges = [e for e in g.edges if not e.is_loop]
    at: dict[int, list[Edge]] = {}
    for e in edges:
        at.setdefault(e.u, []).append(e)
        at.setdefault(e.v, []).append(e)
    block: dict[int, int] = {}
    for v, incident in at.items():
        rest: dict[int, int] = {}
        for _, a, b in edges:
            if v != a and v != b:
                rest[_find(rest, a)] = _find(rest, b)
        first: dict[int, int] = {}  # class of a far end in g - v -> a label at v
        for label, a, b in incident:
            joined = first.setdefault(_find(rest, a + b - v), label)
            block[_find(block, label)] = _find(block, joined)
    return {e.label: _find(block, e.label) for e in edges}


def _merge_series(vertex_count: int, edges: list[Edge]) -> tuple[Multigraph | None, dict[int, int]]:
    """A 2-connected loopless block with each maximal path through vertices
    of degree 2 merged into one edge between its ends, labelled as the
    path's first edge in `edges`, and each label -> the label it merged
    into; (None, {}) for a cycle. A path is the union-find class that joins
    the two edges at each vertex of degree 2, and its ends are its
    endpoints of other degree, in the order `edges` meets them. The graph
    is on the vertices it touches (_edge_sized), so blocks that differ only
    in untouched vertices are equal graphs."""
    at: dict[int, list[int]] = {}
    for e in edges:
        at.setdefault(e.u, []).append(e.label)
        at.setdefault(e.v, []).append(e.label)
    if all(len(labels) == 2 for labels in at.values()):
        return None, {}
    path: dict[int, int] = {}
    for labels in at.values():
        if len(labels) == 2:
            path[_find(path, labels[0])] = _find(path, labels[1])
    first: dict[int, int] = {}  # path -> its first label
    into: dict[int, int] = {}
    ends: dict[int, list[int]] = {}  # first label of a path -> its ends
    for label, u, v in edges:
        into[label] = head = first.setdefault(_find(path, label), label)
        ends.setdefault(head, []).extend(w for w in (u, v) if len(at[w]) != 2)
    reduced = tuple(Edge(label, *w) for label, w in ends.items())
    return _edge_sized(Multigraph(vertex_count, reduced)), into


def _reduce(g: Multigraph) -> _Reduction:
    """g's loops, bridges and series-reduced blocks of two or more edges."""
    block_of = _block_labels(g)
    members: dict[int, list[Edge]] = {}
    for e in g.edges:
        if not e.is_loop:
            members.setdefault(block_of[e.label], []).append(e)
    bridges, blocks, home = 0, [], {}
    for edges in members.values():
        if len(edges) == 1:
            bridges += 1
            continue
        reduced, into = _merge_series(g.vertex_count, edges)
        for e in edges:
            home[e.label] = (len(blocks), into.get(e.label))
        kept = 1 if reduced is None else reduced.edge_count
        blocks.append(_Block(len(edges), len(edges) - kept, reduced))
    loops = g.edge_count - len(block_of)
    return _Reduction(bridges, loops, tuple(blocks), home)
