"""Core graph and map types plus the instance file format.

A target is a plane-embedded simple graph: a rotation system listing, for
every vertex, its incident edges in counterclockwise order.  A domain is a
multigraph tagged with a shape (path, cycle or general).  A simplicial map
sends domain vertices to target vertices so that every domain edge either
collapses to a target vertex (degenerate) or lands on a target edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DanglingIdError, InvariantError, ParseError, PreconditionError

SHAPES = ("path", "cycle", "general")


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class UnionFind:
    """Disjoint sets over hashable keys; a key is a singleton until first joined."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = x
        while (up := parent.get(root, root)) != root:
            root = up
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def classes(self, keys) -> list[list]:
        """The given keys grouped by set, in key order, sets ordered by first key."""
        groups: dict = {}
        for k in keys:
            groups.setdefault(self.find(k), []).append(k)
        return list(groups.values())


@dataclass(frozen=True)
class PlaneGraph:
    """Simple graph with a counterclockwise rotation system.

    `edges[i]` is the sorted endpoint pair of edge i.  `rotation[v]` lists the
    edge ids incident to v in counterclockwise order; the listing is cyclic,
    so any rotation of it denotes the same embedding.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]
    vertex_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.rotation) != self.n:
            raise InvariantError("rotation-cover", "one rotation line per vertex required")
        seen: set[tuple[int, int]] = set()
        incident: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DanglingIdError(f"edge {eid} references unknown vertex", 0)
            if u == v:
                raise InvariantError("simple-target", f"loop at vertex {u}")
            if (u, v) != _pair(u, v):
                raise InvariantError("edge-order", f"edge {eid} endpoints not sorted")
            if (u, v) in seen:
                raise InvariantError("simple-target", f"parallel edge {u}-{v}")
            seen.add((u, v))
            incident[u].append(eid)
            incident[v].append(eid)
        for v in range(self.n):
            if sorted(self.rotation[v]) != incident[v]:
                raise InvariantError(
                    "rotation-cover",
                    f"rotation at vertex {v} must list each incident edge exactly once",
                )
        if self.vertex_names and len(self.vertex_names) != self.n:
            raise InvariantError("names", "vertex_names length mismatch")

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids at each vertex (rotation order)."""
        return self.rotation

    @cached_property
    def crossing_memo(self) -> dict:
        """Crossing test results of transversal, keyed by an ordered pair of image subgraphs.

        It lives on the graph so that every map into one target shares it
        and it goes away with the graph; it is not part of equality.
        """
        return {}

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    @cached_property
    def max_degree(self) -> int:
        return max((len(r) for r in self.rotation), default=0)

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if v == u else u

    def name_of(self, v: int) -> str:
        return self.vertex_names[v] if self.vertex_names else str(v)

    def edge_name(self, eid: int) -> str:
        u, v = self.edges[eid]
        return f"{self.name_of(u)}-{self.name_of(v)}"

    def mirrored(self) -> "PlaneGraph":
        """Reverse every rotation: the mirror-image embedding."""
        return PlaneGraph(
            self.n,
            self.edges,
            tuple(tuple(reversed(r)) for r in self.rotation),
            self.vertex_names,
        )


def _shape_of(n: int, edges: tuple[tuple[int, int], ...]) -> str:
    """Recompute the shape tag from structure.

    path  = connected, no loops or parallel edges, a single vertex or exactly
            two degree-1 ends with all other degrees 2;
    cycle = connected simple cycle on >= 3 vertices;
    everything else is general.
    """
    if n == 0:
        return "general"
    deg = [0] * n
    seen = set()
    simple = True
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        if u == v or _pair(u, v) in seen:
            simple = False
        seen.add(_pair(u, v))
    # connectivity over vertices
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack, reached = [0], {0}
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(reached) != n:
        return "general"
    if not simple:
        return "general"
    if n == 1 and not edges:
        return "path"
    if sorted(deg) == [1, 1] + [2] * (n - 2) and len(edges) == n - 1:
        return "path"
    if n >= 3 and all(d == 2 for d in deg) and len(edges) == n:
        return "cycle"
    return "general"


@dataclass(frozen=True)
class DomainGraph:
    """Multigraph domain; loops and parallel edges allowed under shape general.

    `edges[i]` is the sorted endpoint pair of edge i; distinct ids may repeat
    a pair (parallel edges) and a loop has equal endpoints.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    shape: str
    vertex_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise InvariantError("shape", f"unknown shape {self.shape!r}")
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DanglingIdError(f"edge {eid} references unknown vertex", 0)
            if (u, v) != _pair(u, v):
                raise InvariantError("edge-order", f"edge {eid} endpoints not sorted")
        if self.shape != "general" and _shape_of(self.n, self.edges) != self.shape:
            raise InvariantError("shape", f"structure is not a simple {self.shape}")
        if self.vertex_names and len(self.vertex_names) != self.n:
            raise InvariantError("names", "vertex_names length mismatch")

    @classmethod
    def from_structure(
        cls, n: int, edges: tuple[tuple[int, int], ...], vertex_names: tuple[str, ...] = ()
    ) -> "DomainGraph":
        """The domain on these edges, tagged with the shape its structure has.

        The shape is computed once, by `_shape_of`, instead of being passed
        in and recomputed to check it.
        """
        graph = cls(n, edges, "general", vertex_names)
        object.__setattr__(graph, "shape", _shape_of(n, edges))
        return graph

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids at each vertex; loops listed once."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            out[u].append(eid)
            if v != u:
                out[v].append(eid)
        return tuple(tuple(x) for x in out)

    def degree(self, v: int) -> int:
        """Topological degree: loops count twice."""
        edges = self.edges
        return sum(2 if edges[e][0] == edges[e][1] else 1 for e in self.incident[v])

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if v == u else u

    def name_of(self, v: int) -> str:
        return self.vertex_names[v] if self.vertex_names else str(v)

    def components(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """Connected components as (vertex set, edge set) pairs, by smallest vertex."""
        sets = UnionFind()
        for u, v in self.edges:
            sets.union(u, v)
        classes = sets.classes(range(self.n))
        class_of = [0] * self.n
        for i, vs in enumerate(classes):
            for v in vs:
                class_of[v] = i
        edges: list[list[int]] = [[] for _ in classes]
        for eid, (u, _) in enumerate(self.edges):
            edges[class_of[u]].append(eid)
        return [(frozenset(vs), frozenset(es)) for vs, es in zip(classes, edges)]

    def is_circle(self) -> bool:
        """Homeomorphic to a circle: connected, every vertex of degree 2."""
        return (
            self.n >= 1
            and len(self.edges) >= 1
            and len(self.components()) == 1
            and all(self.degree(v) == 2 for v in range(self.n))
        )


@dataclass(frozen=True)
class WalkArc:
    """Vertex-aligned subwalk of a domain: v0 e0 v1 e1 ... v_m."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    closed: bool = False

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + (0 if self.closed else 1):
            raise InvariantError("walk", "vertex/edge count mismatch")


@dataclass(frozen=True)
class SimplicialMap:
    """Vertex assignment under which every domain edge maps to a target edge or vertex."""

    domain: DomainGraph
    target: PlaneGraph
    vertex_image: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertex_image) != self.domain.n:
            raise InvariantError("map-cover", "every domain vertex needs an image")
        for v, img in enumerate(self.vertex_image):
            if not (0 <= img < self.target.n):
                raise DanglingIdError(f"vertex {v} maps to unknown target vertex {img}", 0)
        idx = self.target.edge_index
        for eid, (u, v) in enumerate(self.domain.edges):
            a, b = self.vertex_image[u], self.vertex_image[v]
            if a != b and _pair(a, b) not in idx:
                raise InvariantError(
                    "simplicial",
                    f"domain edge {eid} ({u},{v}) maps to non-adjacent pair ({a},{b})",
                )

    @cached_property
    def edge_image(self) -> tuple[int | None, ...]:
        """Target edge id per domain edge, or None when degenerate."""
        idx = self.target.edge_index
        out = []
        for u, v in self.domain.edges:
            a, b = self.vertex_image[u], self.vertex_image[v]
            out.append(None if a == b else idx[_pair(a, b)])
        return tuple(out)

    @cached_property
    def witness_memo(self) -> dict:
        """First crossing witnesses of transversal, keyed by its disjoint_only flag.

        One scan of the arcs fills both entries; like the target's
        crossing_memo it goes away with the map and is not part of equality.
        """
        return {}

    @cached_property
    def degenerate_edges(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.edge_image) if e is None)

    def is_nondegenerate(self) -> bool:
        return not self.degenerate_edges

    def is_injective(self) -> bool:
        """Embedding test: injective on vertices and edges."""
        if len(set(self.vertex_image)) != self.domain.n:
            return False
        imgs = self.edge_image
        return None not in imgs and len(set(imgs)) == len(imgs)

    def arc_image(self, arc: WalkArc) -> tuple[frozenset[int], frozenset[int]]:
        """Image subgraph of an arc as (target vertex set, target edge set)."""
        vs = frozenset(self.vertex_image[v] for v in arc.vertices)
        es = frozenset(self.edge_image[e] for e in arc.edges if self.edge_image[e] is not None)
        return vs, es


# ---------------------------------------------------------------------------
# instance files


def _parse_edge_name(tok: str, names: dict[str, int], lineno: int) -> tuple[int, int]:
    parts = tok.split("-")
    if len(parts) != 2:
        raise ParseError(f"edge name {tok!r} is not of the form u-v", lineno)
    try:
        u, v = names[parts[0]], names[parts[1]]
    except KeyError as exc:
        raise DanglingIdError(f"edge name {tok!r} references unknown vertex {exc.args[0]}", lineno)
    if u > v:
        raise ParseError(f"edge name {tok!r} must list the smaller vertex first", lineno)
    return (u, v)


def parse_instance(text: str) -> SimplicialMap:
    """Parse the sectioned instance format.

    Sections, in order: #target (edge lines), #rotation (rot lines),
    #domain (shape line then edge lines), #map (``dv -> tv`` lines).
    Blank lines and ``%`` comments are ignored anywhere.
    """
    section = None
    t_edges: list[tuple[int, int]] = []
    t_edge_lines: list[int] = []
    rot_lines: dict[int, tuple[int, ...]] = {}
    d_edges: list[tuple[int, int]] = []
    shape: str | None = None
    vmap: dict[int, int] = {}
    t_names: dict[str, int] = {}
    d_max = -1

    def t_vertex(tok: str) -> int:
        if tok not in t_names:
            t_names[tok] = len(t_names)
        return t_names[tok]

    pending_rot: list[tuple[int, int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            section = line[1:].strip()
            if section not in ("target", "rotation", "domain", "map"):
                raise ParseError(f"unknown section {section!r}", lineno)
            continue
        if section == "target":
            toks = line.split()
            if len(toks) != 3 or toks[0] != "edge":
                raise ParseError("expected 'edge u v'", lineno)
            u, v = t_vertex(toks[1]), t_vertex(toks[2])
            if u == v:
                raise InvariantError("simple-target", f"line {lineno}: loop at {toks[1]}")
            t_edges.append(_pair(u, v))
            t_edge_lines.append(lineno)
        elif section == "rotation":
            toks = line.split()
            if len(toks) < 3 or toks[0] != "rot" or toks[2] != ":":
                raise ParseError("expected 'rot v : e1 e2 ...'", lineno)
            if toks[1] not in t_names:
                raise DanglingIdError(f"rotation for unknown vertex {toks[1]!r}", lineno)
            pending_rot.append((lineno, t_names[toks[1]], toks[3:]))
        elif section == "domain":
            toks = line.split()
            if toks[0] == "shape":
                if len(toks) != 2 or toks[1] not in SHAPES:
                    raise ParseError("expected 'shape path|cycle|general'", lineno)
                shape = toks[1]
            elif toks[0] == "edge":
                if len(toks) != 3:
                    raise ParseError("expected 'edge u v'", lineno)
                try:
                    u, v = int(toks[1]), int(toks[2])
                except ValueError:
                    raise ParseError("domain vertex ids must be integers", lineno)
                if u < 0 or v < 0:
                    raise ParseError("domain vertex ids must be non-negative", lineno)
                d_edges.append(_pair(u, v))
                d_max = max(d_max, u, v)
            else:
                raise ParseError("expected 'shape ...' or 'edge u v'", lineno)
        elif section == "map":
            toks = line.split()
            if len(toks) != 3 or toks[1] != "->":
                raise ParseError("expected 'dv -> tv'", lineno)
            try:
                dv = int(toks[0])
            except ValueError:
                raise ParseError("domain vertex ids must be integers", lineno)
            if toks[2] not in t_names:
                raise DanglingIdError(f"map targets unknown vertex {toks[2]!r}", lineno)
            if dv in vmap:
                raise ParseError(f"duplicate map line for vertex {dv}", lineno)
            vmap[dv] = t_names[toks[2]]
            d_max = max(d_max, dv)
        else:
            raise ParseError("content before any section header", lineno)

    if shape is None:
        raise ParseError("missing 'shape' line in #domain", len(text.splitlines()) or 1)
    n_t = len(t_names)
    edge_ids = {}
    for i, e in enumerate(t_edges):
        if e in edge_ids:
            raise InvariantError("simple-target", f"line {t_edge_lines[i]}: parallel edge")
        edge_ids[e] = i
    rotation: list[tuple[int, ...] | None] = [None] * n_t
    for lineno, v, toks in pending_rot:
        ids = []
        for tok in toks:
            e = _parse_edge_name(tok, t_names, lineno)
            if e not in edge_ids:
                raise DanglingIdError(f"rotation references unknown edge {tok!r}", lineno)
            ids.append(edge_ids[e])
        if rotation[v] is not None:
            raise ParseError(f"duplicate rotation for vertex {v}", lineno)
        rotation[v] = tuple(ids)
    for v in range(n_t):
        if rotation[v] is None:
            raise ParseError(f"missing rotation line for target vertex {v}", 1)
    name_list = [""] * n_t
    for name, i in t_names.items():
        name_list[i] = name
    target = PlaneGraph(n_t, tuple(t_edges), tuple(rotation), tuple(name_list))

    k = d_max + 1
    if k <= 0:
        raise ParseError("empty domain", 1)
    images = []
    for v in range(k):
        if v not in vmap:
            raise DanglingIdError(f"domain vertex {v} has no map line", 1)
        images.append(vmap[v])
    domain = DomainGraph(k, tuple(d_edges), shape, tuple(str(v) for v in range(k)))
    return SimplicialMap(domain, target, tuple(images))


def format_instance(phi: SimplicialMap) -> str:
    """Inverse of parse_instance for fixture generation."""
    g, d = phi.target, phi.domain
    out = ["#target"]
    for u, v in g.edges:
        out.append(f"edge {g.name_of(u)} {g.name_of(v)}")
    out.append("#rotation")
    for v in range(g.n):
        names = " ".join(g.edge_name(e) for e in g.rotation[v])
        out.append(f"rot {g.name_of(v)} : {names}")
    out.append("#domain")
    out.append(f"shape {d.shape}")
    for u, v in d.edges:
        out.append(f"edge {u} {v}")
    out.append("#map")
    for v in range(d.n):
        out.append(f"{v} -> {g.name_of(phi.vertex_image[v])}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# contraction and quotients


def contract_edge(phi: SimplicialMap, eid: int) -> SimplicialMap:
    """Contract one degenerate domain edge.

    A loop is simply removed; otherwise the endpoints merge into the smaller
    id and the remaining edges are re-targeted, keeping any multiplicity.
    """
    d = phi.domain
    if not (0 <= eid < len(d.edges)):
        raise PreconditionError(f"no such edge {eid}")
    if phi.edge_image[eid] is not None:
        raise PreconditionError(f"edge {eid} is not degenerate")
    u, v = d.edges[eid]
    if u == v:
        relabel = list(range(d.n))
        new_n = d.n
    else:
        relabel = [x if x < v else (u if x == v else x - 1) for x in range(d.n)]
        new_n = d.n - 1
    new_edges = tuple(
        _pair(relabel[a], relabel[b]) for i, (a, b) in enumerate(d.edges) if i != eid
    )
    old_names = d.vertex_names or tuple(str(i) for i in range(d.n))
    names = [""] * new_n
    for x in range(d.n):
        y = relabel[x]
        names[y] = old_names[x] if not names[y] else f"{names[y]}+{old_names[x]}"
    images = [0] * new_n
    for x in range(d.n):
        images[relabel[x]] = phi.vertex_image[x]
    new_domain = DomainGraph.from_structure(new_n, new_edges, tuple(names))
    return SimplicialMap(new_domain, phi.target, tuple(images))


def zero_components(phi: SimplicialMap) -> tuple[SimplicialMap, tuple[int, ...]]:
    """Quotient the domain by the components of the degenerate part.

    Each class of domain vertices connected through degenerate edges collapses
    to one vertex; every nondegenerate edge survives, so parallel edges are
    kept.  Returns the quotient map and, per original vertex, its class id.
    """
    d = phi.domain
    sets = UnionFind()
    for eid in phi.degenerate_edges:
        sets.union(*d.edges[eid])
    classes = sets.classes(range(d.n))
    member_of = [0] * d.n
    for i, xs in enumerate(classes):
        for x in xs:
            member_of[x] = i
    member = tuple(member_of)
    new_n = len(classes)
    old_names = d.vertex_names or tuple(str(i) for i in range(d.n))
    names = [""] * new_n
    for x in range(d.n):
        y = member[x]
        names[y] = old_names[x] if not names[y] else f"{names[y]}+{old_names[x]}"
    new_edges = tuple(
        _pair(member[u], member[v])
        for eid, (u, v) in enumerate(d.edges)
        if phi.edge_image[eid] is not None
    )
    images = [0] * new_n
    for x in range(d.n):
        images[member[x]] = phi.vertex_image[x]
    new_domain = DomainGraph.from_structure(new_n, new_edges, tuple(names))
    return SimplicialMap(new_domain, phi.target, tuple(images)), member


def normalize_nondegenerate(phi: SimplicialMap) -> SimplicialMap:
    """Contract all degenerate edges; the result has none.

    Equal (up to relabeling) to contracting degenerate edges one at a time in
    any order.
    """
    if phi.is_nondegenerate():
        return phi
    return zero_components(phi)[0]


def mirrored_map(phi: SimplicialMap) -> SimplicialMap:
    """Same map into the mirror-image embedding of the target."""
    return SimplicialMap(phi.domain, phi.target.mirrored(), phi.vertex_image)


# ---------------------------------------------------------------------------
# walks along degree-<=2 pieces


def _component_walk(graph, vertices: frozenset[int], edges: frozenset[int], closed: bool):
    """Traverse a path- or circle-like piece of any graph with .edges/.other_end."""
    inc: dict[int, list[int]] = {v: [] for v in vertices}
    for eid in sorted(edges):
        u, v = graph.edges[eid]
        inc[u].append(eid)
        if v != u:
            inc[v].append(eid)
    if not edges:
        if closed:
            raise PreconditionError("a closed walk needs at least one edge")
        return [min(vertices)], []
    if closed:
        start = min(vertices)
    else:
        ends = sorted(v for v in vertices if len(inc[v]) == 1)
        if len(ends) != 2:
            raise PreconditionError("an open walk needs exactly two degree-1 ends")
        start = ends[0]
    walk_vertices = [start]
    walk_edges: list[int] = []
    used: set[int] = set()
    cur = start
    while len(walk_edges) < len(edges):
        try:
            nxt = next(e for e in inc[cur] if e not in used)
        except StopIteration:
            raise PreconditionError("component is not a single path or circle")
        used.add(nxt)
        walk_edges.append(nxt)
        cur = graph.other_end(nxt, cur)
        walk_vertices.append(cur)
    if closed:
        if cur != start:
            raise PreconditionError("component is not a single circle")
        walk_vertices.pop()
    elif cur == start or len(walk_vertices) != len(vertices):
        raise PreconditionError("component is not a single path")
    return walk_vertices, walk_edges


def open_walk(graph, vertices: frozenset[int], edges: frozenset[int]):
    """End-to-end traversal of a path piece, starting at its smaller end.

    Returns (vertex list, edge id list); a single isolated vertex gives
    ([v], []).  Works on DomainGraph and PlaneGraph alike.
    """
    return _component_walk(graph, vertices, edges, closed=False)


def closed_walk(graph, vertices: frozenset[int], edges: frozenset[int]):
    """Traversal once around a circle piece.

    Starts at the smallest vertex and leaves along its smallest incident edge
    id, which fixes one of the two directions deterministically.  Returns
    (vertex list, edge id list) with len(vertices) == len(edges).
    """
    return _component_walk(graph, vertices, edges, closed=True)
