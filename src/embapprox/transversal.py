"""Transversal crossing detection for arc images in a plane graph.

Two arcs drawn along a graph cross transversally when no small perturbation
can pull their images apart.  Combinatorially that happens at a connected
component sigma of the image intersection: the arcs enter and leave the
regular neighborhood of sigma through ports, and they cross if the ports of
one arc interleave with the ports of the other around a boundary circle, or
if sigma contains a cycle and both arcs thread every boundary circle of it.

That test reads nothing but the two image subgraphs.  The search over arc
pairs therefore groups arcs by image and tests each pair of distinct images
once; results are memoized on the target graph (`PlaneGraph.crossing_memo`),
so maps into one target share them and no cache outlives the target.  The
first witnesses of a map are memoized on the map itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import PlaneGraph, SimplicialMap, WalkArc, closed_walk, open_walk
from .errors import PreconditionError
from .ribbon import Port, boundary_walks, circle_touches_both

Subgraph = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class CrossingWitness:
    """A crossing pair: two domain arcs, the intersection component, ports."""

    arc_p: WalkArc
    arc_q: WalkArc
    component_vertices: frozenset[int]
    component_edges: frozenset[int]
    kind: str  # "interleaved" or "annulus"
    ports: tuple[Port, ...]


def _intersection_components(g: PlaneGraph, a: Subgraph, b: Subgraph) -> list[Subgraph]:
    vs = a[0] & b[0]
    es = a[1] & b[1]
    if not vs:
        return []
    parent = {v: v for v in vs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in es:
        u, v = g.edges[e]
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in sorted(vs):
        groups.setdefault(find(v), []).append(v)
    out = []
    for root in sorted(groups, key=lambda r: groups[r][0]):
        cvs = frozenset(groups[root])
        ces = frozenset(e for e in es if g.edges[e][0] in cvs)
        out.append((cvs, ces))
    return out


def _alternating_ports(circle, a_edges: frozenset[int], b_edges: frozenset[int]):
    """Four ports in cyclic order A, B, A, B, or None."""
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


def _crossing_component(g: PlaneGraph, a: Subgraph, b: Subgraph):
    """Shared engine behind the crossing tests; returns (sigma, kind, ports) or None.

    Ports of a come first in an "interleaved" witness, so swapping a and b
    can change the ports but never the answer.
    """
    if g.max_degree() <= 2:
        # every intersection component has at most two ports: nothing can alternate
        return None
    a_es, b_es = a[1], b[1]
    for sigma_vs, sigma_es in _intersection_components(g, a, b):
        a_stubs = frozenset(e for e in a_es - sigma_es if sigma_vs & set(g.edges[e]))
        b_stubs = frozenset(e for e in b_es - sigma_es if sigma_vs & set(g.edges[e]))
        if not a_stubs or not b_stubs:
            continue
        circles = boundary_walks(g, sigma_vs, sigma_es)
        for c in circles:
            picks = _alternating_ports(c, a_stubs, b_stubs)
            if picks is not None:
                return (sigma_vs, sigma_es, "interleaved", picks)
        if len(sigma_es) >= len(sigma_vs) and len(circles) >= 2:
            a_ports = frozenset(p for c in circles for p in c.ports if p.edge in a_stubs)
            b_ports = frozenset(p for c in circles for p in c.ports if p.edge in b_stubs)
            if all(circle_touches_both(c, a_ports, b_ports) for c in circles):
                picks = []
                for c in circles:
                    picks.append(next(p for p in c.ports if p in a_ports))
                    picks.append(next(p for p in c.ports if p in b_ports))
                return (sigma_vs, sigma_es, "annulus", tuple(picks))
    return None


def _sort_key(image: Subgraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(sorted(image[0])), tuple(sorted(image[1])))


def _crossing(g: PlaneGraph, a: Subgraph, b: Subgraph, a_first: bool):
    """The engine on (a, b), or on (b, a) unless a_first, memoized on g.

    Callers pass a_first = sort key of a <= sort key of b, so each unordered
    image pair is tested in one orientation and its witness ports are fixed.
    """
    pair = (a, b) if a_first else (b, a)
    memo = g.crossing_memo
    if pair not in memo:
        memo[pair] = _crossing_component(g, *pair)
    return memo[pair]


def images_cross(g: PlaneGraph, a: Subgraph, b: Subgraph) -> bool:
    """Do two arc images cross transversally somewhere?

    a and b are (vertex set, edge set) subgraphs of g, each the image of an
    arc.  Symmetric, and false whenever the subgraphs are disjoint.
    """
    return _crossing(g, a, b, _sort_key(a) <= _sort_key(b)) is not None


def _grown(image: Subgraph, v: int, e: int) -> Subgraph:
    """image plus target vertex v and target edge e; image itself when it has both."""
    vs, es = image
    if v in vs and e in es:
        return image
    return (vs | {v}, es | {e})


def _domain_arcs(phi: SimplicialMap) -> list[tuple[WalkArc, Subgraph]]:
    """Vertex-aligned arcs of the domain with at least one edge, in stable order.

    Path and cycle shapes enumerate contiguous subwalks; general shapes
    enumerate all simple paths (each taken once, smaller endpoint first).
    Each arc comes with its image subgraph, grown one step at a time from the
    arc's start; a step that adds no new target vertex or edge reuses the
    previous image object.  Requires a nondegenerate map.
    """
    d = phi.domain
    vimg, eimg = phi.vertex_image, phi.edge_image
    arcs: list[tuple[WalkArc, Subgraph]] = []
    if d.shape == "path":
        order, eids = open_walk(d, frozenset(range(d.n)), frozenset(range(len(d.edges))))
        for i in range(len(order)):
            image: Subgraph = (frozenset((vimg[order[i]],)), frozenset())
            for j in range(i + 1, len(order)):
                image = _grown(image, vimg[order[j]], eimg[eids[j - 1]])
                arcs.append((WalkArc(tuple(order[i : j + 1]), tuple(eids[i:j])), image))
        return arcs
    if d.shape == "cycle":
        order, eids = closed_walk(d, frozenset(range(d.n)), frozenset(range(len(d.edges))))
        m = len(order)
        for s in range(m):
            image = (frozenset((vimg[order[s]],)), frozenset())
            for length in range(1, m):
                image = _grown(image, vimg[order[(s + length) % m]], eimg[eids[(s + length - 1) % m]])
                vs = tuple(order[(s + t) % m] for t in range(length + 1))
                es = tuple(eids[(s + t) % m] for t in range(length))
                arcs.append((WalkArc(vs, es), image))
        return arcs
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def extend(vs: list[int], es: list[int], image: Subgraph):
        if es:
            key = (tuple(vs), tuple(es))
            rkey = (tuple(reversed(vs)), tuple(reversed(es)))
            if rkey not in seen:
                seen.add(key)
                arcs.append((WalkArc(tuple(vs), tuple(es)), image))
        cur = vs[-1]
        for e in d.incident[cur]:
            if e in es:
                continue
            u, v = d.edges[e]
            if u == v:
                continue
            nxt = d.other_end(e, cur)
            if nxt in vs:
                continue
            extend(vs + [nxt], es + [e], _grown(image, vimg[nxt], eimg[e]))

    for v in range(d.n):
        extend([v], [], (frozenset((vimg[v],)), frozenset()))
    arcs.sort(key=lambda pair: (pair[0].vertices, pair[0].edges))
    return arcs


def find_crossing_pair(phi: SimplicialMap, disjoint_only: bool) -> CrossingWitness | None:
    """First crossing arc pair in enumeration order, or None.

    With disjoint_only the search realizes the transversal self-intersection
    predicate; without it, the stronger any-two-arcs condition that guards
    the derivative construction.  One scan answers both and is memoized on
    the map (`SimplicialMap.witness_memo`), so a derivative stage that asks
    both questions enumerates its arcs once.
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    if phi.target.max_degree() <= 2:
        return None
    memo = phi.witness_memo
    if not memo:
        memo[False], memo[True] = _first_crossings(phi)
    return memo[disjoint_only]


def _first_crossings(phi: SimplicialMap) -> tuple[CrossingWitness | None, CrossingWitness | None]:
    """The first crossing arc pair and the first vertex-disjoint one.

    Whether two arcs cross depends only on their images, and a small target
    has few distinct images, so arcs are grouped by image and each image
    pair is tested once, through the memo on the target that instances
    sharing it also reuse.  An arc whose image crosses no image is skipped;
    for the others the later arcs are scanned for a crossing partner, which
    keeps the first witnesses of the plain scan over all arc pairs.  A
    disjoint crossing pair is a crossing pair, so the disjoint witness never
    comes before the other and the scan stops once it has both.
    """
    g = phi.target
    arcs = _domain_arcs(phi)
    ids: dict[Subgraph, int] = {}
    image_id = [ids.setdefault(image, len(ids)) for _, image in arcs]
    images = list(ids)
    keys = [_sort_key(image) for image in images]
    crossers: dict[int, frozenset[int]] = {}
    first = None
    for i, a in enumerate(image_id):
        if a not in crossers:
            crossers[a] = frozenset(
                b for b in range(len(images))
                if _crossing(g, images[a], images[b], keys[a] <= keys[b]) is not None
            )
        partners = crossers[a]
        if not partners:
            continue
        vi = set(arcs[i][0].vertices)
        for j in range(i + 1, len(arcs)):
            b = image_id[j]
            if b not in partners:
                continue
            disjoint = vi.isdisjoint(arcs[j][0].vertices)
            if first is not None and not disjoint:
                continue
            svs, ses, kind, ports = _crossing(g, images[a], images[b], keys[a] <= keys[b])
            witness = CrossingWitness(arcs[i][0], arcs[j][0], svs, ses, kind, ports)
            if first is None:
                first = witness
            if disjoint:
                return first, witness
    return first, None


def has_transversal_self_intersection(phi: SimplicialMap) -> CrossingWitness | None:
    """Witness of two vertex-disjoint domain arcs with crossing images, or None."""
    return find_crossing_pair(phi, disjoint_only=True)


def contains_simple_triod(phi: SimplicialMap) -> bool:
    """Does some domain vertex send three edges to three distinct target edges?"""
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    for v in range(phi.domain.n):
        imgs = {phi.edge_image[e] for e in phi.domain.incident[v]}
        if len(imgs) >= 3:
            return True
    return False


def _triods(phi: SimplicialMap) -> list[tuple[frozenset[int], frozenset[int | None]]]:
    out = []
    d = phi.domain
    for v in range(d.n):
        for trio in combinations(d.incident[v], 3):
            imgs = {phi.edge_image[e] for e in trio}
            if len(imgs) == 3:
                vs = {v}
                for e in trio:
                    vs.add(d.other_end(e, v))
                out.append((frozenset(vs), frozenset(imgs)))
    return out


def identifies_triods(phi: SimplicialMap) -> bool:
    """Two vertex-disjoint simple triods in the domain with the same image?"""
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    triods = _triods(phi)
    for i in range(len(triods)):
        for j in range(i + 1, len(triods)):
            if triods[i][1] == triods[j][1] and not (triods[i][0] & triods[j][0]):
                return True
    return False
