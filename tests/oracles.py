"""Independent brute-force oracles for the test suite.

Equivalence is decided here by exact rational linear algebra on the
reduced Laplacian (a principal divisor is an integer point of its column
space), and ranks by full enumeration of effective divisors. Nothing in
this module touches the burning/reduction machinery it is used to check.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from chipfire import MultiGraph


def reduced_laplacian_matrix(g: MultiGraph, root=0):
    """The Laplacian with the row and column of vertex index root removed."""
    n = len(g.vertices)
    index = {v: i - (i > root) for i, v in enumerate(g.vertices)}
    index[g.vertices[root]] = None
    m = [[0] * (n - 1) for _ in range(n - 1)]
    for u, v in g.edges:
        i, j = index[u], index[v]
        if i is not None:
            m[i][i] += 1
        if j is not None:
            m[j][j] += 1
        if i is not None and j is not None:
            m[i][j] -= 1
            m[j][i] -= 1
    return m


def solve_exact(matrix, rhs):
    """Unique rational solution of a nonsingular integer system."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        # zeros are skipped, not changed: sparse systems stay cheap
        a[col] = [x * inv if x else x for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y if y else x for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def equivalent_oracle(g: MultiGraph, vec1, vec2) -> bool:
    """d1 ~ d2 iff the degree matches and the firing amounts solving the
    reduced Laplacian system are all integers."""
    if sum(vec1) != sum(vec2):
        return False
    n = len(g.vertices)
    if n == 1:
        return True
    b = [vec1[i] - vec2[i] for i in range(1, n)]
    solution = solve_exact(reduced_laplacian_matrix(g), b)
    return all(x.denominator == 1 for x in solution)


def effective_vectors(n, degree):
    """All coefficient vectors of effective divisors of the given degree."""
    if degree < 0:
        return
    for combo in combinations_with_replacement(range(n), degree):
        vec = [0] * n
        for i in combo:
            vec[i] += 1
        yield vec


def winnable_oracle(g: MultiGraph, vec) -> bool:
    d = sum(vec)
    if d < 0:
        return False
    return any(
        equivalent_oracle(g, vec, eff)
        for eff in effective_vectors(len(g.vertices), d)
    )


def rank_oracle(g: MultiGraph, vec) -> int:
    """Rank straight from the definition, degrees enumerated exhaustively."""
    if not winnable_oracle(g, vec):
        return -1
    n = len(g.vertices)
    k = 0
    while True:
        for eff in effective_vectors(n, k + 1):
            if not winnable_oracle(g, [a - b for a, b in zip(vec, eff)]):
                return k
        k += 1


def spanning_tree_oracle(g: MultiGraph) -> int:
    """Count spanning trees by checking every edge subset of size n-1."""
    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    if n == 1:
        return 1
    count = 0
    edges = [(index[u], index[v]) for u, v in g.edges]
    for subset in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for e in subset:
            a, b = edges[e]
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            count += 1
    return count


def treewidth_oracle(g: MultiGraph) -> int:
    """Treewidth by the exact dynamic program over vertex subsets
    (Bodlaender-Fomin-Koster-Kratsch-Thilikos 2006), for at most 8 vertices.

    Eliminating the vertices of S first and v next leaves v adjacent to
    Q(S, v), the vertices outside S + {v} reachable from v through S; so
    TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|) with
    TW(empty) = -1, and the treewidth is TW(V). Parallel edges do not matter.
    """
    n = len(g.vertices)
    if n > 8:
        raise ValueError("treewidth_oracle is for graphs of at most 8 vertices")
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [0] * n  # neighbour bitmasks
    for u, v in g.edges:
        nbrs[index[u]] |= 1 << index[v]
        nbrs[index[v]] |= 1 << index[u]

    def q_size(s, v):
        seen, stack, reach = 1 << v, [v], 0
        while stack:
            u = stack.pop()
            for w in range(n):
                bit = 1 << w
                if nbrs[u] & bit and not seen & bit:
                    seen |= bit
                    if s & bit:
                        stack.append(w)
                    else:
                        reach += 1
        return reach

    tw = [-1] + [n] * ((1 << n) - 1)
    for s in range(1, 1 << n):
        for v in range(n):
            if s >> v & 1:
                rest = s & ~(1 << v)
                tw[s] = min(tw[s], max(tw[rest], q_size(rest, v)))
    return tw[(1 << n) - 1]


def all_small_multigraphs(max_vertices=4, max_edges=6):
    """Every connected loopless multigraph with bounded vertices and edges,
    one representative per labeled edge multiset."""
    from chipfire import DisconnectedError

    for n in range(1, max_vertices + 1):
        labels = [f"v{i}" for i in range(1, n + 1)]
        pairs = list(combinations(range(n), 2))
        for mults in _bounded_vectors(len(pairs), max_edges):
            edges = []
            for (i, j), m in zip(pairs, mults):
                edges.extend([(labels[i], labels[j])] * m)
            if n > 1 and len(edges) < n - 1:
                continue
            try:
                yield MultiGraph(labels, edges)
            except DisconnectedError:
                continue


def _bounded_vectors(slots, total):
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _bounded_vectors(slots - 1, total - first):
            yield (first,) + rest


def unit_model_oracle(qg, scale):
    """The unit-edge subdivision of a QGraph at an integer scale, and a map
    from its rational points to their vertex labels.

    Every edge of scaled length l becomes a path of l unit edges; model
    vertices keep their labels and come first. A point whose scaled
    position is not an integer raises UnrepresentablePointError.
    """
    from chipfire import MetricError, UnrepresentablePointError, subdivide_edges
    from chipfire.graphs import _subdivision_label

    counts = []
    for length in qg.lengths:
        units = length * scale
        if units.denominator != 1:
            raise MetricError(f"scale {scale} does not clear length {length}")
        counts.append(int(units))
    graph, _ = subdivide_edges(qg.model, counts)

    def vertex_of(point):
        if point.vertex is not None:
            return point.vertex
        position = point.offset * scale
        if position.denominator != 1:
            raise UnrepresentablePointError(f"{point!r} is not on the 1/{scale} grid")
        u, v = qg.model.edges[point.edge]
        return _subdivision_label(u, v, point.edge, int(position))

    return graph, vertex_of


def _reduced_on_complete(vec):
    """The q-reduced form (q = vertex 0) of a divisor on K_n, by Dhar
    burning written out for the complete graph: a vertex burns once more
    vertices have burnt than it holds chips, and the unburnt set fires."""
    n = len(vec)
    d = list(vec)
    debt = max([0] + [-c for c in d[1:]])
    d = [d[0] - (n - 1) * debt] + [c + debt for c in d[1:]]  # q fires debt times
    while True:
        burnt = {0}
        grew = True
        while grew:
            grew = False
            for v in range(1, n):
                if v not in burnt and d[v] < len(burnt):
                    burnt.add(v)
                    grew = True
        if len(burnt) == n:
            return d
        for v in range(n):
            # each unburnt vertex sends one chip to every burnt one
            d[v] += n - len(burnt) if v in burnt else -len(burnt)


def complete_graph_rank(vec) -> int:
    """Rank of a divisor on K_n (n >= 2), vec its coefficients with the
    base q at index 0, by the greedy that is exact on complete graphs
    (Cori-Le Borgne, "On computation of Baker and Norine's rank on
    complete graphs", 2016): while the q-reduced form keeps D(q) >= 0,
    remove a chip from a non-q vertex with the fewest chips and reduce
    again; the rank is the number of removals less one. Ties do not
    matter: the automorphisms of K_n permute the non-q vertices."""
    d = _reduced_on_complete(vec)
    removed = 0
    while d[0] >= 0:
        v = min(range(1, len(d)), key=d.__getitem__)
        d[v] -= 1
        d = _reduced_on_complete(d)
        removed += 1
    return removed - 1
