"""Isomorphism of labeled maps.

Two maps are isomorphic when there are vertex bijections of the domains and
of the targets that carry edges to edges (with multiplicity), preserve every
target rotation as a cyclic sequence (same orientation), and commute with the
maps.  It ignores target vertex names.  Derivative iteration asks it whether
a stage of a general domain (the degree-3 route, or a closed walk that
normalizes to a doubled edge) repeats its source; path and cycle stages
settle that by counts (`derivative._stabilized`), and the tests compare
those counts with this search.
"""

from __future__ import annotations

from .core import DomainGraph, PlaneGraph, SimplicialMap, _pair, backtrack


def _cyclic_variants(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [seq[i:] + seq[:i] for i in range(len(seq))] or [()]


def _rotation_respected(g1: PlaneGraph, g2: PlaneGraph, vmap: list[int], emap: dict[int, int]) -> bool:
    for v in range(g1.n):
        image = tuple(emap[e] for e in g1.rotation[v])
        rot2 = g2.rotation[vmap[v]]
        if len(image) != len(rot2):
            return False
        if len(image) <= 2:
            if sorted(image) != sorted(rot2):
                return False
            continue
        if image not in _cyclic_variants(rot2):
            return False
    return True


def _plane_isos(g1: PlaneGraph, g2: PlaneGraph):
    """Yield rotation-preserving isomorphisms g1 -> g2 as vertex lists.

    Vertices are mapped by decreasing degree.  A vertex with a mapped
    neighbour takes its candidates from the neighbours of that neighbour's
    image in increasing order, the order a scan of every vertex of g2
    would find them in.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return
    deg1 = [g1.degree(v) for v in range(g1.n)]
    deg2 = [g2.degree(v) for v in range(g2.n)]
    if sorted(deg1) != sorted(deg2):
        return
    order = sorted(range(g1.n), key=lambda v: -deg1[v])
    nbrs1 = [{g1.other_end(e, v) for e in g1.rotation[v]} for v in range(g1.n)]
    nbrs2 = [{g2.other_end(e, w) for e in g2.rotation[w]} for w in range(g2.n)]
    vmap: list[int] = [-1] * g1.n
    inverse: list[int] = [-1] * g2.n

    def candidates(v: int):
        # w must be adjacent to the images of v's mapped neighbours, and the
        # mapped neighbours of w must be images of neighbours of v
        mapped = [vmap[u] for u in nbrs1[v] if vmap[u] >= 0]
        for w in sorted(nbrs2[mapped[0]]) if mapped else range(g2.n):
            if inverse[w] >= 0 or deg1[v] != deg2[w]:
                continue
            if any(x not in nbrs2[w] for x in mapped):
                continue
            if any(inverse[x] >= 0 and inverse[x] not in nbrs1[v] for x in nbrs2[w]):
                continue
            yield w

    def complete() -> bool:
        emap = {}
        for eid, (u, v) in enumerate(g1.edges):
            key = _pair(vmap[u], vmap[v])
            if key not in g2.edge_index:
                return False
            emap[eid] = g2.edge_index[key]
        return _rotation_respected(g1, g2, vmap, emap)

    yield from backtrack(order, candidates, complete, vmap, inverse)


def _edge_multiset(d: DomainGraph, vmap: list[int]) -> list[tuple[int, int]]:
    return sorted(_pair(vmap[u], vmap[v]) for u, v in d.edges)


def _domain_isos(d1: DomainGraph, d2: DomainGraph):
    """Yield multigraph isomorphisms d1 -> d2 as vertex lists."""
    if d1.n != d2.n or len(d1.edges) != len(d2.edges):
        return
    deg1 = [d1.degree(v) for v in range(d1.n)]
    deg2 = [d2.degree(v) for v in range(d2.n)]
    if sorted(deg1) != sorted(deg2):
        return
    target_multiset = sorted(d2.edges)
    order = sorted(range(d1.n), key=lambda v: -deg1[v])
    adj1 = _multiplicities(d1)
    adj2 = _multiplicities(d2)
    nbrs1 = [{d1.other_end(e, v) for e in d1.incident[v]} for v in range(d1.n)]
    nbrs2 = [{d2.other_end(e, w) for e in d2.incident[w]} for w in range(d2.n)]
    vmap: list[int] = [-1] * d1.n
    inverse: list[int] = [-1] * d2.n

    def candidates(v: int):
        # mapped neighbours must keep their multiplicity, and the mapped
        # neighbours of w must be images of neighbours of v
        mapped = [(vmap[u], adj1[_pair(u, v)]) for u in nbrs1[v] if vmap[u] >= 0]
        for w in sorted(nbrs2[mapped[0][0]]) if mapped else range(d2.n):
            if inverse[w] >= 0 or deg1[v] != deg2[w]:
                continue
            if any(adj2.get(_pair(x, w), 0) != count for x, count in mapped):
                continue
            if any(inverse[x] >= 0 and inverse[x] not in nbrs1[v] for x in nbrs2[w]):
                continue
            yield w

    def complete() -> bool:
        return _edge_multiset(d1, vmap) == target_multiset

    yield from backtrack(order, candidates, complete, vmap, inverse)


def _multiplicities(d: DomainGraph) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for u, v in d.edges:
        counts[_pair(u, v)] = counts.get(_pair(u, v), 0) + 1
    return counts


def maps_isomorphic(m1: SimplicialMap, m2: SimplicialMap) -> bool:
    """True when some pair of bijections exhibits m1 and m2 as the same labeled map."""
    if m1.domain.n != m2.domain.n or len(m1.domain.edges) != len(m2.domain.edges):
        return False
    if m1.target.n != m2.target.n or len(m1.target.edges) != len(m2.target.edges):
        return False
    image2 = m2.vertex_image
    for gmap in _plane_isos(m1.target, m2.target):
        want = [gmap[a] for a in m1.vertex_image]
        for dmap in _domain_isos(m1.domain, m2.domain):
            if all(image2[y] == a for y, a in zip(dmap, want)):
                return True
    return False
