"""Named plane targets and instance builders shared by tests and the CLI.

Targets: the cycles C3..C6, the theta graph (two vertices joined by three
strands), the wheel W4, the two-triangles-with-pendants graph used by the
linked-pair fixture, and the 5-od (five-edge star).  Builders produce the
standard windings, the degree-zero fold, Euler cycle and path examples, the
crossing X path, and the linked path pair.
"""

from __future__ import annotations

from .core import DomainGraph, PlaneGraph, SimplicialMap, _pair


def cycle_target(length: int) -> PlaneGraph:
    if length < 3:
        raise ValueError("a simple cycle needs at least 3 vertices")
    edges = tuple(sorted(_pair(i, (i + 1) % length) for i in range(length)))
    index = {e: i for i, e in enumerate(edges)}
    rotation = tuple(
        (index[_pair(v, (v - 1) % length)], index[_pair(v, (v + 1) % length)])
        for v in range(length)
    )
    names = tuple(f"v{i}" for i in range(length))
    return PlaneGraph(length, edges, rotation, names)


def theta_target() -> PlaneGraph:
    """Two degree-3 vertices joined by a direct edge and two 2-edge strands."""
    # 0=u, 1=v, 2=a (upper), 3=b (lower)
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    rotation = (
        (0, 1, 2),  # at u: direct, up, down
        (3, 0, 4),  # at v: up, direct, down
        (1, 3),
        (4, 2),
    )
    return PlaneGraph(4, edges, rotation, ("u", "v", "a", "b"))


def wheel_target() -> PlaneGraph:
    """4-cycle rim around a hub, eight edges."""
    # 0=hub, rim 1..4 counterclockwise
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4))
    rotation = (
        (0, 1, 2, 3),
        (4, 0, 5),
        (6, 1, 4),
        (7, 2, 6),
        (5, 3, 7),
    )
    return PlaneGraph(5, edges, rotation, ("h", "r1", "r2", "r3", "r4"))


def ex33_target() -> PlaneGraph:
    """Two triangles sharing an edge, plus one pendant edge at each end.

    Vertices a1..a6; a1a2 is the shared edge, a4/a3 the triangle apexes
    above/below it, a5 pendant at a1, a6 pendant at a2.
    """
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5))
    rotation = (
        (0, 2, 3, 1),  # at a1: a2, a4(up), a5(left), a3(down)
        (0, 4, 6, 5),  # at a2: a1, a3(down), a6(right), a4(up)
        (1, 4),
        (2, 5),
        (3,),
        (6,),
    )
    return PlaneGraph(6, edges, rotation, ("a1", "a2", "a3", "a4", "a5", "a6"))


def fiveod_target() -> PlaneGraph:
    """The 5-od: five edges from one center."""
    edges = tuple((0, i) for i in range(1, 6))
    rotation = ((0, 1, 2, 3, 4), (0,), (1,), (2,), (3,), (4,))
    return PlaneGraph(6, edges, rotation, ("c", "t1", "t2", "t3", "t4", "t5"))


TARGETS = {
    "C3": lambda: cycle_target(3),
    "C4": lambda: cycle_target(4),
    "C5": lambda: cycle_target(5),
    "C6": lambda: cycle_target(6),
    "theta": theta_target,
    "W4": wheel_target,
    "ex33": ex33_target,
    "fiveod": fiveod_target,
}


def small_targets(max_edges: int = 6) -> dict[str, PlaneGraph]:
    out = {}
    for name, build in TARGETS.items():
        g = build()
        if len(g.edges) <= max_edges:
            out[name] = g
    return out


def cycle_domain(m: int) -> DomainGraph:
    return DomainGraph(m, tuple(sorted(_pair(i, (i + 1) % m) for i in range(m))))


def path_domain(m: int) -> DomainGraph:
    return DomainGraph(m, tuple((i, i + 1) for i in range(m - 1)))


def winding_map(d: int, length: int = 3) -> SimplicialMap:
    """The standard d-winding of a circle around the cycle of given length.

    d = 0 produces the there-and-back fold of a 2*length-cycle, the simplest
    nondegenerate degree-zero circle map.
    """
    target = cycle_target(length)
    if d == 0:
        images = list(range(length)) + [0] + list(range(length - 1, 0, -1))
        return SimplicialMap(cycle_domain(2 * length), target, tuple(images))
    m = abs(d) * length
    if d > 0:
        images = tuple(i % length for i in range(m))
    else:
        images = tuple((-i) % length for i in range(m))
    return SimplicialMap(cycle_domain(m), target, images)


def euler_cycle_map() -> SimplicialMap:
    """An Euler cycle around the figure-eight (two triangles sharing a vertex)."""
    # target: 0 center; triangle 0-1-2 on the left, 0-3-4 on the right
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))
    rotation = ((3, 0, 1, 2), (0, 4), (1, 4), (2, 5), (3, 5))
    target = PlaneGraph(5, edges, rotation, ("c", "p", "q", "r", "s"))
    return SimplicialMap(cycle_domain(6), target, (0, 1, 2, 0, 3, 4))


def euler_path_map() -> SimplicialMap:
    """An Euler path through the theta graph."""
    # u, a, v, u, b, v walks every edge once
    return SimplicialMap(path_domain(6), theta_target(), (0, 2, 1, 0, 3, 1))


def x_cross_path() -> SimplicialMap:
    """A path forced to cross itself at the degree-4 center of its image."""
    # target: center 0, leaves 1..4 counterclockwise, chord between 2 and 3
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (2, 3))
    rotation = ((0, 1, 2, 3), (0,), (4, 1), (2, 4), (3,))
    target = PlaneGraph(5, edges, rotation, ("c", "u1", "u2", "u3", "u4"))
    return SimplicialMap(path_domain(6), target, (1, 0, 3, 2, 0, 4))


def whole_fold() -> SimplicialMap:
    """A 4-cycle folded onto a single edge; its second derivative is empty."""
    target = PlaneGraph(2, ((0, 1),), ((0,), (0,)), ("x", "y"))
    return SimplicialMap(cycle_domain(4), target, (0, 1, 0, 1))


def terminal_flower() -> SimplicialMap:
    """A 4-cycle folded over a 2-edge path; its derivative is the terminal flower."""
    target = PlaneGraph(3, ((0, 1), (1, 2)), ((0,), (0, 1), (1,)), ("x", "y", "z"))
    return SimplicialMap(cycle_domain(4), target, (1, 0, 1, 2))


def ex33_pair() -> tuple[SimplicialMap, SimplicialMap]:
    """The linked path pair: even pairwise crossings, yet never disjoint."""
    target = ex33_target()
    phi = SimplicialMap(path_domain(5), target, (0, 1, 2, 0, 1))
    psi = SimplicialMap(path_domain(7), target, (4, 0, 1, 3, 0, 1, 5))
    return phi, psi


FIXTURES = {
    "winding-4": lambda: winding_map(-4),
    "winding-3": lambda: winding_map(-3),
    "winding-2": lambda: winding_map(-2),
    "winding-1": lambda: winding_map(-1),
    "winding0": lambda: winding_map(0),
    "winding1": lambda: winding_map(1),
    "winding2": lambda: winding_map(2),
    "winding3": lambda: winding_map(3),
    "winding4": lambda: winding_map(4),
    "euler-cycle": euler_cycle_map,
    "euler-path": euler_path_map,
    "x-cross": x_cross_path,
    "whole-fold": whole_fold,
    "terminal-flower": terminal_flower,
    "ex33-phi": lambda: ex33_pair()[0],
    "ex33-psi": lambda: ex33_pair()[1],
}
