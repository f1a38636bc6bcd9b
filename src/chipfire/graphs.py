"""Finite connected loopless multigraphs: parsing, invariants, subdivision, families.

Vertices are identified by string labels; the canonical vertex order is
first-appearance order in the input. Parallel edges are represented by
repetition in the edge list, never by weights.
"""

from __future__ import annotations

import heapq
import warnings
from collections import deque
from fractions import Fraction

from .errors import (
    DisconnectedError,
    EdgeListSyntaxError,
    EmptyGraphError,
    GraphError,
    LoopEdgeError,
    _expect,
    _expect_iterable,
)


class MultiGraph:
    """A finite, unweighted, connected multigraph without loop edges.

    Immutable after construction; all derived structure is computed
    lazily and cached on the instance: adjacency, degrees, hop distances,
    the factor of L_q per root q (filled by the first max-script reduction
    or by jacobian.spanning_tree_count, whichever comes first, and shared
    by both), the Smith normal form, and the state of the graph's finite
    rank session (rank._graph_session): its far-first vertex order, and
    the memos of q-reduced forms keyed by the part away from q, of rank
    bounds keyed by (reduced form, k), and of the burning test of each
    configuration a superstable walk tried.
    Every cached value depends on the graph alone, and a memo entry on the
    graph and its key alone, so work that two queries on one graph share
    is done once. The memos grow with the queries made, and a graph built
    afresh starts with none. They hold int tuples and no reference back
    to the graph, so they die with it.

    Instances are safe to share across threads. Two threads that find a
    slot unset may both fill it; one value wins, and the other thread
    works on its own copy, which is equal (a session on its own memos is
    a fresh session, only unshared). A memo entry is written only once
    its value is complete, and any two writes of one key write the same
    value, so a reader never sees a partial or a wrong entry.
    """

    __slots__ = (
        "vertices",
        "edges",
        "_index",
        "_adj",
        "_degrees",
        "_distances",
        "_factors",
        "_snf_cache",
        "_rank_memos",
    )

    def __init__(self, vertices, edges):
        vertices = tuple(_expect_iterable(vertices, "vertex labels", GraphError))
        if not vertices:
            raise EmptyGraphError("graph has no vertices")
        try:
            index = {v: i for i, v in enumerate(vertices)}
        except TypeError:
            raise GraphError("vertex labels must be hashable") from None
        if len(index) != len(vertices):
            raise GraphError("duplicate vertex labels")
        pairs = []
        for edge in _expect_iterable(edges, "edges", GraphError):
            try:
                u, v = edge
                known = u in index and v in index
            except (TypeError, ValueError):  # no pair, or an unhashable end
                raise GraphError(f"edge {edge!r} is not a pair of vertex labels") from None
            if u == v:
                raise LoopEdgeError(f"loop edge at {u!r}")
            if not known:
                raise GraphError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            pairs.append((u, v))
        edges = tuple(pairs)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_degrees", None)
        object.__setattr__(self, "_distances", {})
        object.__setattr__(self, "_factors", {})
        object.__setattr__(self, "_snf_cache", None)
        object.__setattr__(self, "_rank_memos", None)
        self._check_connected()

    def __setattr__(self, name, value):
        raise AttributeError("MultiGraph is immutable")

    def _check_connected(self):
        n = len(self.vertices)
        if n == 1:
            return
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        adj = self.adjacency()
        count = 1
        while queue:
            i = queue.popleft()
            for j, _ in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    count += 1
                    queue.append(j)
        if count != n:
            raise DisconnectedError("graph is not connected")

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"MultiGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.vertices == other.vertices and sorted(
            tuple(sorted(e)) for e in self.edges
        ) == sorted(tuple(sorted(e)) for e in other.edges)

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(tuple(sorted(e)) for e in self.edges))))

    def index(self, label):
        try:
            return self._index[label]
        except (KeyError, TypeError):  # an unhashable label names no vertex
            raise GraphError(f"unknown vertex {label!r}") from None

    def has_vertex(self, label):
        try:
            return label in self._index
        except TypeError:  # an unhashable label names no vertex
            return False

    def adjacency(self):
        """Per-vertex list of (neighbor index, edge multiplicity)."""
        if self._adj is None:
            n = len(self.vertices)
            counts = [dict() for _ in range(n)]
            for u, v in self.edges:
                i, j = self._index[u], self._index[v]
                counts[i][j] = counts[i].get(j, 0) + 1
                counts[j][i] = counts[j].get(i, 0) + 1
            adj = tuple(tuple(sorted(c.items())) for c in counts)
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def degrees(self):
        """Vertex degrees (parallel edges counted) in canonical order."""
        if self._degrees is None:
            degs = [0] * len(self.vertices)
            for u, v in self.edges:
                degs[self._index[u]] += 1
                degs[self._index[v]] += 1
            object.__setattr__(self, "_degrees", tuple(degs))
        return self._degrees

    def degree(self, label):
        return self.degrees()[self.index(label)]

    def multiplicity(self, u, v):
        """Number of parallel edges between u and v."""
        i, j = self.index(u), self.index(v)
        return dict(self.adjacency()[i]).get(j, 0)

    def distances(self, root=0):
        """Hop distance from the given vertex index to every vertex, by BFS."""
        if root not in self._distances:
            adj = self.adjacency()
            dist = [-1] * len(self.vertices)
            dist[root] = 0
            queue = deque([root])
            while queue:
                i = queue.popleft()
                for j, _ in adj[i]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        queue.append(j)
            self._distances[root] = tuple(dist)
        return self._distances[root]

    def reduced_factor(self, root=0):
        """sparse_factor(self, root), cached per root: the factor the
        max-script route of q-reduction solves through, and at root 0 the
        spanning-tree count (its last pivot)."""
        if root not in self._factors:
            self._factors[root] = sparse_factor(self, root)
        return self._factors[root]


def sparse_factor(g: MultiGraph, root=0):
    """(det L_q, steps): sparse fraction-free (Bareiss) elimination of
    the Laplacian with the row and column of the given vertex index
    deleted. Step k is (v, P_k, row): v is eliminated with the k-th
    pivot P_k, and row lists v's entries (j, a) over the vertices
    eliminated after it, as they stand after k - 1 steps. The last
    pivot is det L_q.

    Each step takes the remaining row with the fewest entries, the
    lowest index on ties, so degree-2 chain interiors go first at O(1)
    each. L_q is positive definite, so every pivot is a positive minor
    whatever the order and no rows are swapped. Every entry is a minor
    too, so a row last updated at step l is brought to step k exactly
    by a * P_k // P_l, with P_0 = 1 and P_k the k-th pivot.
    """
    degs = g.degrees()
    rows = [
        {j: -mult for j, mult in adj if j != root} for adj in g.adjacency()
    ]
    for i, row in enumerate(rows):
        row[i] = degs[i]
    rows[root] = None
    level = [0] * len(rows)
    pivots = [1]
    heap = [(len(row), i) for i, row in enumerate(rows) if row is not None]
    heapq.heapify(heap)
    steps = []
    while heap:
        size, p = heapq.heappop(heap)
        row_p = rows[p]
        if row_p is None or len(row_p) != size:
            continue  # eliminated, or pushed again since with a new size
        rows[p] = None
        k = len(steps)
        prev = pivots[k]
        old = pivots[level[p]]
        row_p = {j: a * prev // old for j, a in row_p.items()}
        pivot = row_p.pop(p)
        for i, a in row_p.items():
            # a = row i's entry in column p, by symmetry of the minors
            row_i = rows[i]
            del row_i[p]
            old = pivots[level[i]]
            for j in row_i.keys() | row_p.keys():
                x = row_i.get(j, 0)
                if old != prev:
                    x = x * prev // old
                row_i[j] = (pivot * x - a * row_p.get(j, 0)) // prev
            level[i] = k + 1
            heapq.heappush(heap, (len(row_i), i))
        steps.append((p, pivot, tuple(row_p.items())))
        pivots.append(pivot)
    return pivots[-1], tuple(steps)


def genus(g: MultiGraph) -> int:
    """Cyclomatic number |E| - |V| + 1."""
    return len(g.edges) - len(g.vertices) + 1


# -- edge-list text format ------------------------------------------------


_UNIT_LENGTH = Fraction(1)


def _parse_edge_list(text: str, with_lengths: bool):
    """The line parser behind parse_graph and metric.parse_qgraph.

    Returns (vertices, edges, lengths). Blank lines and lines starting with
    '#' are ignored, except that a "# vertices: ..." header (as written by
    both serializers) pins the canonical vertex order; otherwise first
    appearance decides it. With with_lengths, a line may carry a third
    column: a rational length (default 1), or "inf" for an unbounded end,
    which is dropped with a warning.
    """
    _expect(text, str, GraphError)
    vertices = []
    seen = set()
    edges = []
    lengths = []
    unbounded = 0
    columns = (2, 3) if with_lengths else (2,)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("# vertices:"):
            for label in line[len("# vertices:"):].split():
                if label in seen:
                    raise EdgeListSyntaxError(
                        f"duplicate vertex {label!r} in header", line=lineno
                    )
                seen.add(label)
                vertices.append(label)
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in columns:
            shape = "'u v [length]'" if with_lengths else "two labels"
            raise EdgeListSyntaxError(
                f"expected {shape}, got {len(parts)} fields: {line!r}", line=lineno
            )
        u, v = parts[0], parts[1]
        length = _UNIT_LENGTH
        if len(parts) == 3:
            if parts[2].lower() in ("inf", "infinity"):
                unbounded += 1
                continue
            try:
                length = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise EdgeListSyntaxError(
                    f"bad length {parts[2]!r}", line=lineno
                ) from None
        if u == v:
            raise LoopEdgeError(f"loop edge at {u!r} (line {lineno})")
        for w in (u, v):
            if w not in seen:
                seen.add(w)
                vertices.append(w)
        edges.append((u, v))
        lengths.append(length)
    if unbounded:
        warnings.warn(
            f"stripped {unbounded} unbounded edge(s); ranks are unchanged",
            stacklevel=3,
        )
    if not vertices:
        raise EmptyGraphError("no bounded edges or vertices in input")
    return vertices, edges, lengths


def parse_graph(text: str) -> MultiGraph:
    """Parse edge-list text: one edge per line, two whitespace-separated labels.

    Blank lines and lines starting with '#' are ignored, except that a
    "# vertices: ..." header (as written by the serializer) pins the
    canonical vertex order; otherwise first appearance decides it.
    Parallel edges are given by repetition.
    """
    vertices, edges, _ = _parse_edge_list(text, with_lengths=False)
    return MultiGraph(vertices, edges)


def serialize_graph(g: MultiGraph) -> str:
    """Inverse of parse_graph: vertex header comment, then edges in canonical order."""
    lines = ["# vertices: " + " ".join(g.vertices)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# -- subdivision -----------------------------------------------------------


def _check_count(value, least, what):
    """GraphError unless value is an int >= least; a bool, float or str
    count is refused, never coerced."""
    if type(value) is not int or value < least:
        raise GraphError(f"{what} must be an int >= {least}, got {value!r}")


def _subdivision_label(u, v, edge_index, j):
    return f"{u}__{v}__{edge_index}__{j}"


def subdivide_edges(g: MultiGraph, counts):
    """Replace edge i by a path of counts[i] >= 1 edges through fresh vertices.

    Returns (new graph, map from old vertex label to its label in the new
    graph). Fresh labels are "<u>__<v>__<edgeIndex>__<j>" with j in
    1..counts[i]-1, in path order from u to v; a vertex of g that already
    has one of these labels is a GraphError. Two fresh labels never
    coincide, since their last two fields (edge index, j) differ.
    """
    counts = list(counts)
    if len(counts) != len(g.edges):
        raise GraphError("one subdivision count per edge required")
    for c in counts:
        _check_count(c, 1, "subdivision count")
    vertices = list(g.vertices)
    edges = []
    for idx, (u, v) in enumerate(g.edges):
        k = counts[idx]
        prev = u
        for j in range(1, k):
            fresh = _subdivision_label(u, v, idx, j)
            if g.has_vertex(fresh):
                raise GraphError(
                    f"vertex label {fresh!r} is also the label of a fresh vertex"
                    f" on edge {idx} ({u!r}, {v!r}); rename that vertex"
                )
            vertices.append(fresh)
            edges.append((prev, fresh))
            prev = fresh
        edges.append((prev, v))
    return MultiGraph(vertices, edges), {v: v for v in g.vertices}


def subdivide(g: MultiGraph, k: int):
    """Subdivide every edge into k edges; genus is preserved."""
    _check_count(k, 1, "subdivision factor")
    return subdivide_edges(g, [k] * len(g.edges))


# -- named families --------------------------------------------------------


def complete_graph(n: int) -> MultiGraph:
    """Complete graph on n >= 2 vertices v1..vn."""
    _check_count(n, 2, "n of complete(n)")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        (vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return MultiGraph(vertices, edges)


def banana_graph(n: int) -> MultiGraph:
    """Two vertices Q1, Q2 joined by n >= 1 parallel edges."""
    _check_count(n, 1, "n of banana(n)")
    return MultiGraph(["Q1", "Q2"], [("Q1", "Q2")] * n)


def banana_lengths_graph(lengths) -> MultiGraph:
    """Banana with the i-th edge subdivided into lengths[i] edges.

    Interior vertices on the i-th edge are labeled R<i>_<j> in path order
    from Q1 to Q2 (1-based i and j).
    """
    lengths = list(lengths)
    if not lengths:
        raise GraphError("banana_lengths requires at least one edge")
    for l in lengths:
        _check_count(l, 1, "edge length")
    vertices = ["Q1", "Q2"]
    edges = []
    for i, l in enumerate(lengths, start=1):
        prev = "Q1"
        for j in range(1, l):
            fresh = f"R{i}_{j}"
            vertices.append(fresh)
            edges.append((prev, fresh))
            prev = fresh
        edges.append((prev, "Q2"))
    return MultiGraph(vertices, edges)


def cycle_graph(n: int) -> MultiGraph:
    """Cycle on n >= 2 vertices (n = 2 gives two parallel edges)."""
    _check_count(n, 2, "n of cycle(n)")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    return MultiGraph(vertices, edges)


def path_graph(n: int) -> MultiGraph:
    """Path on n >= 1 vertices."""
    _check_count(n, 1, "n of path(n)")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(vertices[i], vertices[i + 1]) for i in range(n - 1)]
    return MultiGraph(vertices, edges)


_FAMILIES = {
    "complete": (complete_graph, 1),
    "banana": (banana_graph, 1),
    "banana_lengths": (banana_lengths_graph, None),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
}


def family(name: str, *params: int) -> MultiGraph:
    """Build a named family instance, e.g. family("banana", 3)."""
    if name not in _FAMILIES:
        raise GraphError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}"
        )
    builder, arity = _FAMILIES[name]
    if arity is None:
        return builder(params)
    if len(params) != arity:
        raise GraphError(f"family {name!r} takes {arity} parameter(s)")
    return builder(*params)
