"""The vertex disc shared by the mod-2 drawing and the lift search.

Every strand (a domain edge) runs through the strip of its image edge in
its own lane, so strands meet only inside the small disc around each
target vertex.  A point is an int position on that disc's boundary, the
positions increasing counterclockwise; `disc_ports` lists where the
strands enter.  A star (a domain vertex over the disc) is drawn as chords
from its ports to its centre, itself a boundary position, so two chords
with four distinct ends cross exactly when their ends alternate.
"""

from __future__ import annotations


def disc_ports(g, lanes) -> tuple[tuple[tuple, ...], ...]:
    """Each target vertex's (edge, strand) ports in counterclockwise order.

    ``lanes`` maps a target edge to its strands in lane order; an edge it
    leaves out carries none.  Each edge's slot in the rotation expands into
    its lane block, read in order at the smaller endpoint and reversed at
    the larger one, which is how nested parallel strips meet a disc.
    """
    discs = []
    for v in range(g.n):
        row = []
        for a in g.rotation[v]:
            block = lanes.get(a)
            if block:
                row += [(a, s) for s in (block if v == g.edges[a][0] else block[::-1])]
        discs.append(tuple(row))
    return tuple(discs)


def proper_crossing(p1: int, p2: int, q1: int, q2: int) -> bool:
    """Do the chords p1-p2 and q1-q2, with four distinct ends, cross?"""
    lo, hi = (p1, p2) if p1 < p2 else (p2, p1)
    return (lo < q1 < hi) != (lo < q2 < hi)
