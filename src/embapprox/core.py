"""Core graph and map types plus the instance file format.

A target is a plane-embedded simple graph: a rotation system listing, for
every vertex, its incident edges in counterclockwise order.  A domain is a
multigraph; its shape (path, cycle or general) is a fact about its edges.
A simplicial map sends domain vertices to target vertices so that every
domain edge either collapses to a target vertex (degenerate) or lands on a
target edge.

A path or cycle is read off one walk, `simple_walk`: it decides a domain's
`shape` and is the domain's `walk`, and nothing else decides a shape;
`derivative.winding_report` walks circle components with it, and `decide`
checks a cycle target with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DanglingIdError, InvariantError, ParseError, PreconditionError

SHAPES = ("path", "cycle", "general")


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class computed_once:
    """A value computed on first access and then stored on the instance.

    A non-data descriptor: it stores the value with `object.__setattr__`
    (the dataclasses here are frozen) under its own name, so every later
    load finds the value on the instance and never reaches the descriptor.
    Unlike `functools.cached_property` it neither reads `__dict__`, which on
    CPython 3.11 materializes it and slows every later attribute load on
    the instance, nor takes a lock (two threads racing on a first access
    may both compute; every value here is pure or an empty memo, so either
    serves).  It is not a dataclass field, so the value stays out of
    equality, hashing and repr.

    CPython 3.11 keeps an instance's attributes inline only while its
    class's shared key table has room, and once a class has many instances
    that room is one name beyond those already stored: for `SimplicialMap`,
    five names with its four fields.  An instance that stores a second
    computed value gets a dict of its own (about 270 bytes), so a class
    whose instances are many should store at most one.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.compute(obj)
        object.__setattr__(obj, self.name, value)
        return value


class FieldState:
    """Pickles a frozen dataclass by its field values alone.

    Values computed once stay behind, so a copy sent to a worker process
    carries no memo, and the copy's fields are restored with
    `object.__setattr__`, so, like the original, it has no materialized
    instance `__dict__`.
    """

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__dataclass_fields__, state):
            object.__setattr__(self, name, value)


def classes(n: int, pairs) -> tuple[list[int], int]:
    """Group 0 .. n - 1 by the pairs that join them: (class of each, class count).

    A union-find on an int array with path halving: every element points to
    a smaller one or to itself, so each class is rooted at its smallest
    member, and one pass numbers the classes by their smallest members.
    """
    parent = list(range(n))
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    member = [0] * n
    count = 0
    for x, p in enumerate(parent):
        if p == x:
            member[x] = count
            count += 1
        else:
            member[x] = member[p]
    return member, count


def backtrack(order, candidates, complete, vmap: list[int], inverse: list[int]):
    """Yield a copy of vmap for every assignment of the keys in order that complete accepts.

    vmap[key] is the value chosen for key and inverse[value] the key holding
    it, both -1 when unset.  candidates(key) iterates the values key may take
    given the keys already assigned; it resumes after the value is unset
    again, so it may undo its own bookkeeping there.  An explicit stack of
    those iterators replaces recursion, so the depth is not bounded by the
    interpreter's recursion limit.
    """
    if not order:
        if complete():
            yield []
        return
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if vmap[v] >= 0:
            inverse[vmap[v]] = -1
            vmap[v] = -1
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        vmap[v] = w
        inverse[w] = v
        if len(stack) < len(order):
            stack.append(candidates(order[len(stack)]))
        elif complete():
            yield list(vmap)


@dataclass(frozen=True)
class PlaneGraph(FieldState):
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
        if self.vertex_names and len(self.vertex_names) != self.n:
            raise InvariantError("names", "vertex_names length mismatch")
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
                who = repr(self.name_of(v)) if self.vertex_names else v
                raise InvariantError(
                    "rotation-cover",
                    f"rotation at vertex {who} must list each incident edge exactly once",
                )

    @computed_once
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @computed_once
    def crossing_memo(self) -> dict:
        """Crossing test results of transversal, per interned image subgraph.

        Each distinct image subgraph, keyed by its cells as a bit set (vertex
        c, edge n + a), maps to (id, sort key, row, subgraph): a small int
        given once, the key that orders the engine's two arguments, a dict
        from the larger id of a tested pair to its result, kept in the row
        of the pair's smaller id, and the (vertex set, edge set) itself.  It lives on the graph so that every
        map into one target shares it and it goes away with the graph; it is
        not part of equality.
        """
        return {}

    @computed_once
    def boundary_memo(self) -> dict:
        """Boundary circles of `ribbon.boundary_walks`, per intersection component.

        `transversal` keys each component sigma of two image subgraphs by its
        (vertex set, edge set) and traces its circles on first sight, so
        every image pair that meets in sigma reads them here.  Like
        crossing_memo it goes away with the graph and is not part of
        equality.
        """
        return {}

    @computed_once
    def derived_memo(self) -> dict:
        """Derived targets of this graph, keyed by what determines one.

        `derivative` keys each G' by its realized edges and realized pairs,
        so every map into this graph shares one tower of derived targets.
        Like crossing_memo it goes away with the graph and is not part of
        equality.
        """
        return {}

    @computed_once
    def decide_memo(self) -> dict:
        """Derivative runs of `decide`, per normalized map into this graph.

        Keyed by the normalized map's domain edges and vertex image, which
        fix its domain's shape too; each value is (clean passes, final
        events, approximable, flagged for review), never maps or graphs.
        Derived targets keep none.  Like crossing_memo it goes away with the
        graph and is not part of equality.
        """
        return {}

    @computed_once
    def obstruction_memo(self) -> dict:
        """Mod-2 obstruction verdicts of `decide`, per normalized map into this graph.

        Keyed by the normalized map's domain edges and vertex image; each
        value is (vanishes, witness cells), ints and tuples only.  Like
        crossing_memo it goes away with the graph and is not part of
        equality.
        """
        return {}

    @computed_once
    def oracle_memo(self) -> dict:
        """Lift searches of `oracle`, per normalized map into this graph and prune flag.

        Keyed by the normalized map's domain edges, vertex image and the
        search's `prune` flag, which changes how many lifts it examines;
        each value is (approximable, the accepted lift's lane rows or None,
        lifts examined, total lifts), ints and tuples only.  Like
        crossing_memo it goes away with the graph and is not part of
        equality.
        """
        return {}

    @computed_once
    def instance_sections(self) -> str:
        """The #target and #rotation sections of an instance file, with no final newline.

        Target edges are written in edge-id order.  The parser numbers
        target vertices by first appearance, so where an edge line would
        name a vertex ahead of a smaller unnamed one, `vertex` lines name
        the smaller ones first; vertices without edges are named at the end.
        """
        names = self.vertex_names or tuple(map(str, range(self.n)))
        out = ["#target"]
        named = 0  # vertices 0 .. named - 1 have appeared
        for u, v in self.edges:  # u < v
            if v >= named:
                if v > named and (u, v) != (named, named + 1):
                    out.extend(f"vertex {names[x]}" for x in range(named, v))
                named = v + 1
            out.append(f"edge {names[u]} {names[v]}")
        out.extend(f"vertex {names[x]}" for x in range(named, self.n))
        out.append("#rotation")
        edge_names = [f"{names[u]}-{names[v]}" for u, v in self.edges]
        for v in range(self.n):
            out.append(f"rot {names[v]} : " + " ".join(edge_names[e] for e in self.rotation[v]))
        return "\n".join(out)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    @computed_once
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

    @classmethod
    def _built(
        cls,
        n: int,
        edges: tuple[tuple[int, int], ...],
        rotation: tuple[tuple[int, ...], ...],
    ) -> "PlaneGraph":
        """A graph whose construction already proves it a valid plane graph; nothing is checked.

        Use it only where the caller's construction gives sorted, distinct,
        loop-free edges on vertices below n, and a rotation that lists each
        vertex's incident edges once, as `derivative` does for every derived
        target.  Graphs from outside the program go through
        `PlaneGraph(...)`, which checks all of this.
        """
        graph = object.__new__(cls)
        fields = (("n", n), ("edges", edges), ("rotation", rotation), ("vertex_names", ()))
        for name, value in fields:
            object.__setattr__(graph, name, value)
        return graph


def simple_walk(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The walk of a simple path or cycle on 0 .. n - 1: (vertices, edge ids), or None.

    A path starts at its smaller end, and a single vertex is the path
    ((0,), ()).  A cycle has at least three vertices; it starts at vertex 0
    and leaves along its smaller edge id, and its vertex list does not
    repeat vertex 0 at the end.  Any other graph gives None.

    A path has n - 1 edges and a cycle n, and both have degrees at most 2,
    so each vertex keeps at most two edge ids, the smaller first; a loop or
    a third edge rules the graph out.  Then one walk decides: from a vertex
    of degree below 2 on n - 1 edges (an end, or an isolated vertex), or
    from vertex 0 on n edges (where every degree is 2), it runs to a dead
    end or back to its start, and the graph is a path or cycle exactly when
    the walk reached all n vertices.  On n = 2 vertices two edges can only
    be parallel, so no cycle has fewer than three.
    """
    m = len(edges)
    if n == 0 or (m != n - 1 and m != n) or m == n < 3:
        return None
    first = [-1] * n
    second = [-1] * n
    for eid, (u, v) in enumerate(edges):
        if u == v:
            return None
        for a in (u, v):
            if first[a] < 0:
                first[a] = eid
            elif second[a] < 0:
                second[a] = eid
            else:
                return None
    start = second.index(-1) if m < n else 0
    vertices = [start]
    order: list[int] = []
    cur, e = start, first[start]
    while e >= 0:
        order.append(e)
        u, w = edges[e]
        cur = w if cur == u else u
        if cur == start:
            break
        vertices.append(cur)
        e = second[cur] if first[cur] == e else first[cur]
    if len(vertices) != n:
        return None
    return (tuple(vertices), tuple(order))


@dataclass(frozen=True)
class DomainGraph(FieldState):
    """Multigraph domain; loops and parallel edges allowed.

    `edges[i]` is the sorted endpoint pair of edge i; distinct ids may repeat
    a pair (parallel edges) and a loop has equal endpoints.  Vertices are
    numbered, not named: a printer names what it prints.  The domain's
    `shape` is its structure's, read off `simple_walk`.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DanglingIdError(f"edge {eid} references unknown vertex", 0)
            if (u, v) != _pair(u, v):
                raise InvariantError("edge-order", f"edge {eid} endpoints not sorted")
        self.shape  # read while the domain is built, not by the first route to use it

    @classmethod
    def _built(
        cls,
        n: int,
        edges: tuple[tuple[int, int], ...],
        walk: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    ) -> "DomainGraph":
        """A domain whose construction already proves its edges valid; nothing is checked.

        A caller that already knows the domain's `simple_walk` passes it as
        `walk`, and the shape is read off it instead of walking again.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        if walk is None:
            graph.shape
        else:
            object.__setattr__(graph, "shape", graph._shape_of(walk))
        return graph

    def _shape_of(self, walk: tuple[tuple[int, ...], tuple[int, ...]] | None) -> str:
        """The shape that `simple_walk`'s result on this domain gives.

        A path or cycle stores that result as its `walk`.
        """
        if walk is None:
            return "general"
        object.__setattr__(self, "walk", walk)
        return "cycle" if len(walk[1]) == self.n else "path"

    @computed_once
    def shape(self) -> str:
        """"path", "cycle" or "general": the structure's shape, stored with the walk.

        Every domain reads it when it is built, off the walk `_built` was
        given or else from `simple_walk`.  An unpickled domain reads both
        again here: `FieldState` restores fields alone.
        """
        return self._shape_of(simple_walk(self.n, self.edges))

    @computed_once
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids at each vertex; loops listed once."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            out[u].append(eid)
            if v != u:
                out[v].append(eid)
        return tuple(tuple(x) for x in out)

    @computed_once
    def walk(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A path or cycle domain as one walk: (vertices, edges) in traversal order.

        The walk `simple_walk` gives: a path starts at its smaller end; a
        cycle starts at vertex 0 and leaves along its smaller edge id, and
        its vertex list does not repeat vertex 0 at the end.  `shape`
        stores it, so only a general domain, or an unpickled one whose shape
        is not read yet, reaches here.
        """
        if self.shape == "general":
            raise PreconditionError("only path and cycle domains are one walk")
        return self.walk

    def degree(self, v: int) -> int:
        """Topological degree: loops count twice."""
        edges = self.edges
        return sum(2 if edges[e][0] == edges[e][1] else 1 for e in self.incident[v])

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if v == u else u

    def components(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """Connected components as (vertex set, edge set) pairs, by smallest vertex."""
        member, count = classes(self.n, self.edges)
        vertices: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(member):
            vertices[c].append(v)
        edges: list[list[int]] = [[] for _ in range(count)]
        for eid, (u, _) in enumerate(self.edges):
            edges[member[u]].append(eid)
        return [(frozenset(vs), frozenset(es)) for vs, es in zip(vertices, edges)]


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
class SimplicialMap(FieldState):
    """Vertex assignment under which every domain edge maps to a target edge or vertex."""

    domain: DomainGraph
    target: PlaneGraph
    vertex_image: tuple[int, ...]
    # target edge id per domain edge, or None when degenerate; set while
    # the edges are checked, or given by `_built`
    edge_image: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        image, target, edges = self.vertex_image, self.target, self.domain.edges
        if len(image) != self.domain.n:
            raise InvariantError("map-cover", "every domain vertex needs an image")
        n_target = target.n
        for v, img in enumerate(image):
            if not (0 <= img < n_target):
                raise DanglingIdError(f"vertex {v} maps to unknown target vertex {img}", 0)
        idx = target.edge_index
        out: list[int | None] = [None] * len(edges)
        try:
            for eid, (u, v) in enumerate(edges):
                a, b = image[u], image[v]
                if a != b:
                    out[eid] = idx[(a, b) if a < b else (b, a)]
        except KeyError:
            raise InvariantError(
                "simplicial",
                f"domain edge {eid} ({u},{v}) maps to non-adjacent pair ({a},{b})",
            ) from None
        object.__setattr__(self, "edge_image", tuple(out))

    @classmethod
    def _built(
        cls,
        domain: DomainGraph,
        target: PlaneGraph,
        vertex_image: tuple[int, ...],
        edge_image: tuple[int | None, ...],
    ) -> "SimplicialMap":
        """A map whose construction already proves it simplicial; nothing is checked.

        Use it only where the caller's construction gives one image per
        domain vertex, in the target's range, and reads each edge's image
        from the target itself: `target.edge_index` of the edge's image
        pair, or None where both ends share an image.  Maps from outside
        the program (parsed text, a caller's tuples) go through
        `SimplicialMap(...)`, which checks all of this.
        """
        phi = object.__new__(cls)
        set_field = object.__setattr__
        set_field(phi, "domain", domain)
        set_field(phi, "target", target)
        set_field(phi, "vertex_image", vertex_image)
        set_field(phi, "edge_image", edge_image)
        return phi

    @computed_once
    def witness_memo(self) -> dict:
        """First crossing witnesses of transversal, keyed by its disjoint_only flag.

        One scan of the arcs fills both entries; the branch vertices of the
        image, which the scan reads first, are kept under "branch".  Like
        the target's crossing_memo it goes away with the map and is not part
        of equality.
        """
        return {}

    @computed_once
    def normalized(self) -> "SimplicialMap":
        """The quotient by the degenerate edges, kept for `normalize_nondegenerate`.

        Only a degenerate map stores one: a nondegenerate map is its own
        normalization, and storing it on itself would make a reference
        cycle that only the cyclic collector frees.
        """
        if self.is_nondegenerate():
            raise PreconditionError("a nondegenerate map is its own normalization")
        return zero_components(self)[0]

    @property
    def degenerate_edges(self) -> tuple[int, ...]:
        """Ids of the domain edges that collapse to a target vertex.

        Not stored: a map keeps at most one computed value inline (see
        `computed_once`), and `normalized` or `witness_memo` is that one.
        """
        return tuple(i for i, e in enumerate(self.edge_image) if e is None)

    def is_nondegenerate(self) -> bool:
        return None not in self.edge_image

    def is_injective(self) -> bool:
        """Embedding test: injective on vertices and edges."""
        if len(set(self.vertex_image)) != self.domain.n:
            return False
        imgs = self.edge_image
        return None not in imgs and len(set(imgs)) == len(imgs)


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

    Sections, in order: #target (edge lines, and vertex lines that name a
    vertex before its first edge does), #rotation (rot lines),
    #domain (shape line then edge lines), #map (``dv -> tv`` lines).
    Blank lines and ``%`` comments are ignored anywhere.  A declared path
    or cycle must be the domain's structure; a declared general takes any
    multigraph, and the domain has its structure's shape either way.
    """
    section = None
    t_edges: list[tuple[int, int]] = []
    t_edge_lines: list[int] = []
    d_edges: list[tuple[int, int]] = []
    shape: str | None = None
    vmap: dict[int, int] = {}
    t_names: dict[str, int] = {}
    d_max = -1

    pending_rot: list[tuple[int, int, list[str]]] = []

    lines = text.splitlines()
    if "%" in text:
        lines = [raw.split("%", 1)[0] for raw in lines]
    # sections are tested by how many lines they usually hold: a map line
    # per domain vertex, a domain line per edge, then the target's lines
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        if toks[0][0] == "#":
            section = raw.strip()[1:].strip()
            if section not in ("target", "rotation", "domain", "map"):
                raise ParseError(f"unknown section {section!r}", lineno)
            continue
        if section == "map":
            if len(toks) != 3 or toks[1] != "->":
                raise ParseError("expected 'dv -> tv'", lineno)
            try:
                dv = int(toks[0])
            except ValueError:
                raise ParseError("domain vertex ids must be integers", lineno)
            if dv < 0:
                raise ParseError("domain vertex ids must be non-negative", lineno)
            tv = t_names.get(toks[2])
            if tv is None:
                raise DanglingIdError(f"map targets unknown vertex {toks[2]!r}", lineno)
            if dv in vmap:
                raise ParseError(f"duplicate map line for vertex {dv}", lineno)
            vmap[dv] = tv
            if dv > d_max:
                d_max = dv
        elif section == "domain":
            if toks[0] == "edge":
                if len(toks) != 3:
                    raise ParseError("expected 'edge u v'", lineno)
                try:
                    u, v = int(toks[1]), int(toks[2])
                except ValueError:
                    raise ParseError("domain vertex ids must be integers", lineno)
                if u < 0 or v < 0:
                    raise ParseError("domain vertex ids must be non-negative", lineno)
                if u > v:
                    u, v = v, u
                d_edges.append((u, v))
                if v > d_max:
                    d_max = v
            elif toks[0] == "shape":
                if len(toks) != 2 or toks[1] not in SHAPES:
                    raise ParseError("expected 'shape path|cycle|general'", lineno)
                if shape is not None:
                    raise ParseError("duplicate 'shape' line in #domain", lineno)
                shape = toks[1]
            else:
                raise ParseError("expected 'shape ...' or 'edge u v'", lineno)
        elif section == "target":
            if len(toks) == 2 and toks[0] == "vertex":
                t_names.setdefault(toks[1], len(t_names))
                continue
            if len(toks) != 3 or toks[0] != "edge":
                raise ParseError("expected 'edge u v' or 'vertex v'", lineno)
            # a vertex is numbered by its first appearance
            u = t_names.setdefault(toks[1], len(t_names))
            v = t_names.setdefault(toks[2], len(t_names))
            if u == v:
                raise InvariantError("simple-target", f"line {lineno}: loop at {toks[1]}")
            t_edges.append(_pair(u, v))
            t_edge_lines.append(lineno)
        elif section == "rotation":
            if len(toks) < 3 or toks[0] != "rot" or toks[2] != ":":
                raise ParseError("expected 'rot v : e1 e2 ...'", lineno)
            if toks[1] not in t_names:
                raise DanglingIdError(f"rotation for unknown vertex {toks[1]!r}", lineno)
            pending_rot.append((lineno, t_names[toks[1]], toks[3:]))
        else:
            raise ParseError("content before any section header", lineno)

    if shape is None:
        raise ParseError("missing 'shape' line in #domain", len(lines) or 1)
    n_t = len(t_names)
    edge_ids = {}
    for i, e in enumerate(t_edges):
        if e in edge_ids:
            raise InvariantError("simple-target", f"line {t_edge_lines[i]}: parallel edge")
        edge_ids[e] = i
    name_list = [""] * n_t
    for name, i in t_names.items():
        name_list[i] = name
    rotation: list[tuple[int, ...] | None] = [None] * n_t
    for lineno, v, toks in pending_rot:
        ids = []
        for tok in toks:
            e = _parse_edge_name(tok, t_names, lineno)
            if e not in edge_ids:
                raise DanglingIdError(f"rotation references unknown edge {tok!r}", lineno)
            ids.append(edge_ids[e])
        if rotation[v] is not None:
            raise ParseError(f"duplicate rotation for vertex {name_list[v]!r}", lineno)
        rotation[v] = tuple(ids)
    for v in range(n_t):
        if rotation[v] is None:
            raise ParseError(f"missing rotation line for target vertex {name_list[v]!r}", 1)
    target = PlaneGraph(n_t, tuple(t_edges), tuple(rotation), tuple(name_list))

    k = d_max + 1
    if k <= 0:
        raise ParseError("empty domain", 1)
    images = []
    for v in range(k):
        if v not in vmap:
            raise DanglingIdError(f"domain vertex {v} has no map line", 1)
        images.append(vmap[v])
    domain = DomainGraph(k, tuple(d_edges))
    if shape != "general" and domain.shape != shape:
        raise InvariantError("shape", f"structure is not a simple {shape}")
    return SimplicialMap(domain, target, tuple(images))


def format_instance(phi: SimplicialMap) -> str:
    """Inverse of parse_instance for fixture generation; the shape line is the structure's.

    The #target and #rotation sections are the target's own
    (`PlaneGraph.instance_sections`), written once per target; each call
    writes the #domain and #map sections.
    """
    g, d = phi.target, phi.domain
    names = g.vertex_names or tuple(map(str, range(g.n)))
    out = [g.instance_sections, "#domain", f"shape {d.shape}"]
    out += [f"edge {u} {v}" for u, v in d.edges]
    out.append("#map")
    out += [f"{v} -> {names[img]}" for v, img in enumerate(phi.vertex_image)]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# quotients


def zero_components(phi: SimplicialMap) -> tuple[SimplicialMap, tuple[int, ...]]:
    """Quotient the domain by the components of the degenerate part.

    Each class of domain vertices connected through degenerate edges collapses
    to one vertex; every nondegenerate edge survives, so parallel edges are
    kept.  Classes are numbered by their smallest vertex.  A path's quotient
    is a path and a cycle's is a cycle when three or more classes remain.
    Returns the quotient map and, per original vertex, its class id.

    On a path or cycle a class is a maximal run of degenerate edges along
    `DomainGraph.walk`, and on a cycle the last run wraps into the first.
    Where the walk visits the vertices in id order, as on every
    `catalog.path_domain` and `catalog.cycle_domain`, the runs come in the
    order of their smallest vertices, so one pass along the walk numbers
    the classes and reads each class's image; a path whose edge ids also
    follow the walk gets the edges (i, i + 1) and its walk.  General
    domains, and walks in another order (a parsed domain), group their
    vertices by the degenerate edges with `classes`, which numbers the
    classes the same way.
    """
    d = phi.domain
    n = d.n
    eimg, vimg = phi.edge_image, phi.vertex_image
    ids = tuple(range(n))
    order = None  # the walk's edge ids, where it visits the vertices in id order
    if d.shape == "general" or d.walk[0] != ids:
        member, count = classes(n, (ends for ends, a in zip(d.edges, eimg) if a is None))
        images = [0] * count
        for x, img in enumerate(vimg):
            images[member[x]] = img
    else:
        order = d.walk[1]
        member = [0] * n
        images = [vimg[0]]
        c = 0  # the class of vertex x
        for x in range(1, n):
            if eimg[order[x - 1]] is not None:
                images.append(vimg[x])
                c += 1
            member[x] = c
        count = c + 1
        if d.shape == "cycle" and c and eimg[order[-1]] is None:
            # the last run wraps into the first, which holds vertex 0
            images.pop()
            count = c
            x = n - 1
            while member[x] == c:
                member[x] = 0
                x -= 1
    # a class is joined through degenerate edges, so its vertices share one
    # image, and each surviving edge keeps its target edge
    edge_image = tuple([a for a in eimg if a is not None])
    walk = None
    if d.shape == "path" and order == ids[:-1]:
        edges = tuple(zip(range(count - 1), range(1, count)))
        walk = (ids[:count], ids[: count - 1])
    else:
        edges = []
        for (u, v), a in zip(d.edges, eimg):
            if a is not None:
                u, v = member[u], member[v]
                edges.append((u, v) if u < v else (v, u))
        edges = tuple(edges)
    domain = DomainGraph._built(count, edges, walk)
    return SimplicialMap._built(domain, phi.target, tuple(images), edge_image), tuple(member)


def normalize_nondegenerate(phi: SimplicialMap) -> SimplicialMap:
    """Contract all degenerate edges; the result has none.

    Equal (up to relabeling) to contracting degenerate edges one at a time in
    any order.  A nondegenerate map is returned as it is; a degenerate one
    builds its quotient once and keeps it as `phi.normalized`, so every
    route deciding one map shares one normalized map.
    """
    return phi if phi.is_nondegenerate() else phi.normalized
