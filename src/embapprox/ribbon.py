"""Boundary circles of regular neighborhoods inside a plane graph.

A subgraph sigma of a plane graph G thickens to a ribbon: a disc for every
vertex, a strip for every edge.  The boundary of that ribbon is a disjoint
union of circles, and every edge of G that leaves sigma at one of its
vertices stabs the boundary in a single point, a *port*.  The cyclic order
of ports along each circle is what the crossing tests downstream consume.

The walk convention: a state is (v, e), "standing at the corner of the
vertex disc of v just past the end of e", where e is any edge of G incident
to v.  The successor of e in the counterclockwise rotation at v is the next
feature along the boundary.  If that successor belongs to sigma we slide
along its strip to the far endpoint; otherwise it is a stub, we record a
port and bounce to its corner at the same vertex.  This is face tracing
with the ribbon kept on the left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PlaneGraph
from .errors import PreconditionError


@dataclass(frozen=True, order=True)
class Port:
    """Crossing of a stub edge through the boundary, at its attachment vertex."""

    edge: int
    at: int


@dataclass(frozen=True)
class BoundaryCircle:
    """One boundary component, corners in walk order, canonical rotation.

    corners are (vertex, arrived_along_edge) states; a bare isolated vertex
    (no incident edges at all) is encoded as the single corner (v, -1).
    """

    corners: tuple[tuple[int, int], ...]
    ports: tuple[Port, ...]


def _min_rotation(seq: tuple) -> int:
    best = 0
    n = len(seq)
    for i in range(1, n):
        if seq[i:] + seq[:i] < seq[best:] + seq[:best]:
            best = i
    return best


def boundary_walks(
    g: PlaneGraph,
    sigma_vertices: frozenset[int],
    sigma_edges: frozenset[int],
) -> tuple[BoundaryCircle, ...]:
    """All boundary circles of the regular neighborhood of sigma in g.

    sigma_edges must be edges of g with both endpoints in sigma_vertices;
    sigma_vertices may include isolated vertices.  Circles are returned in a
    deterministic order with deterministic starting corners.
    """
    if not sigma_vertices:
        raise PreconditionError("sigma is empty")
    for eid in sigma_edges:
        u, v = g.edges[eid]
        if u not in sigma_vertices or v not in sigma_vertices:
            raise PreconditionError(f"edge {eid} leaves the vertex set of sigma")
    for v in sigma_vertices:
        if not 0 <= v < g.n:
            raise PreconditionError(f"vertex {v} outside the plane graph")
    # a plain search, not `core.classes`: an input check on a small sigma, where it timed faster
    reached = {min(sigma_vertices)}
    frontier = [min(sigma_vertices)]
    while frontier:
        x = frontier.pop()
        for e in sigma_edges:
            if x in g.edges[e]:
                y = g.other_end(e, x)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    if reached != sigma_vertices:
        raise PreconditionError("sigma is disconnected")

    states: list[tuple[int, int]] = []
    for v in sorted(sigma_vertices):
        for e in g.rotation[v]:
            states.append((v, e))

    succ_index = {}
    for v in sigma_vertices:
        rot = g.rotation[v]
        for i, e in enumerate(rot):
            succ_index[(v, e)] = rot[(i + 1) % len(rot)]

    def step(state: tuple[int, int]) -> tuple[int, int]:
        v, e = state
        f = succ_index[(v, e)]
        if f in sigma_edges:
            a, b = g.edges[f]
            return (b if a == v else a, f)
        return (v, f)

    circles: list[BoundaryCircle] = []
    seen: set[tuple[int, int]] = set()
    for start in states:
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = step(start)
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = step(cur)
        corners = tuple(cycle)
        off = _min_rotation(corners)
        corners = corners[off:] + corners[:off]
        ports = tuple(Port(edge=e, at=v) for v, e in corners if e not in sigma_edges)
        circles.append(BoundaryCircle(corners=corners, ports=ports))

    for v in sorted(sigma_vertices):
        if not g.rotation[v]:
            circles.append(BoundaryCircle(corners=((v, -1),), ports=()))

    circles.sort(key=lambda c: c.corners)
    return tuple(circles)


def alternating_ports(circle: BoundaryCircle, a_edges: frozenset[int], b_edges: frozenset[int]):
    """Four ports in cyclic order A, B, A, B along the circle, or None.

    A port is marked A when its edge is in a_edges, else B when it is in
    b_edges; unmarked ports are ignored.  The marks alternate when the
    cyclic word of marks has at least four maximal blocks: the picks start
    at the first A that follows a B and take the next B, A and B.
    """
    marked = [(p, p.edge in a_edges) for p in circle.ports if p.edge in a_edges or p.edge in b_edges]
    if len(marked) < 4:
        return None
    start = None
    for i, (_, is_a) in enumerate(marked):
        if is_a and not marked[i - 1][1]:
            start = i
            break
    if start is None:
        return None
    seq = marked[start:] + marked[:start]
    picks = []
    want_a = True
    for p, is_a in seq:
        if is_a == want_a:
            picks.append(p)
            want_a = not want_a
            if len(picks) == 4:
                return tuple(picks)
    return None
