"""Transversal crossing detection for arc images in a plane graph.

Two arcs drawn along a graph cross transversally when no small perturbation
can pull their images apart.  Combinatorially that happens at a connected
component sigma of the image intersection: the arcs enter and leave the
regular neighborhood of sigma through ports, and they cross if the ports of
one arc interleave with the ports of the other around a boundary circle, or
if sigma contains a cycle and both arcs thread every boundary circle of it.

That test reads nothing but the two image subgraphs.  The search over arc
pairs therefore groups arcs by image and tests each pair of distinct images
once.  The target graph (`PlaneGraph.crossing_memo`) keys each distinct
image by its cells as a bit set, gives it a small int id once, with its
subgraph and sort key, and keeps the results by id pair, so a scan maps
each image to its id once and then looks pairs up by int.  The boundary
circles depend on sigma and the target alone, so each sigma is traced
once per target (`PlaneGraph.boundary_memo`), however many image pairs
meet in it.  Maps into one target share both tables and no
cache outlives the target.  The first witnesses of a map are memoized on
the map itself.

Arcs can cross only at a branch vertex of the map: a vertex of degree 3
or more in its image subgraph U, the edge images and their ends.  Every
component sigma of two arc images lies in U.  If sigma holds no branch
vertex, it is a path or a cycle of U, so at most two edges of U leave it,
and none when it is a cycle.  An edge of both images that meets sigma lies
in sigma, so each image leaves sigma through its own edges, and an edge
with both ends on sigma takes up both exits.  When both images leave sigma
at all, each therefore leaves through one port: two ports cannot
alternate, and a cycle, the only sigma the annulus test accepts, has no
exits to thread.  So a crossing component holds a branch vertex, which
then lies in both images.  A map with no branch vertex is not scanned, and
the scans test only images that contain one.

The search scans walks: path and cycle domains.  Moving an arc's end away
from its start only grows its image, so the arcs from one start fall into
a few runs of one image.  One sweep of the walk from the right finds each
start's runs in O(|V(G)| + |E(G)|), and the search scans those runs and
builds only the two arcs of each witness; it never lists the O(k^2) arcs.
No route needs a general domain scanned: `derive` takes general domains
only into targets of maximum degree 2, where no image branches, and the
one general stage `decide` meets, a closed walk normalized to a doubled
edge, has no branch vertex.  So a general domain is answered only when its
image cannot branch, and refused otherwise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import PlaneGraph, SimplicialMap, WalkArc, classes
from .errors import PreconditionError
from .ribbon import Port, alternating_ports, boundary_walks

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
    if not vs:
        return []
    es = a[1] & b[1]
    order = sorted(vs)  # sigma's vertices numbered locally, so no call costs O(|V(G)|)
    local = {v: i for i, v in enumerate(order)}
    ends = g.edges
    member, count = classes(len(order), [(local[u], local[v]) for u, v in (ends[e] for e in es)])
    if count == 1:  # the common case: sigma is connected
        return [(frozenset(order), frozenset(list(es)))]
    groups: list[list[int]] = [[] for _ in range(count)]
    for v, c in zip(order, member):
        groups[c].append(v)
    shared: list[list[int]] = [[] for _ in range(count)]
    for e in es:
        shared[member[local[ends[e][0]]]].append(e)
    return [(frozenset(cvs), frozenset(ces)) for cvs, ces in zip(groups, shared)]


def _circles(g: PlaneGraph, sigma_vs: frozenset[int], sigma_es: frozenset[int]):
    """The boundary circles of sigma in g, traced once per target (`PlaneGraph.boundary_memo`)."""
    memo = g.boundary_memo
    sigma = (sigma_vs, sigma_es)
    circles = memo.get(sigma)
    if circles is None:
        circles = memo[sigma] = boundary_walks(g, sigma_vs, sigma_es)
    return circles


def _crossing_component(g: PlaneGraph, a: Subgraph, b: Subgraph):
    """Shared engine behind the crossing tests; returns (sigma, kind, ports) or None.

    Ports of a come first in an "interleaved" witness, so swapping a and b
    can change the ports but never the answer.
    """
    a_es, b_es = a[1], b[1]
    for sigma_vs, sigma_es in _intersection_components(g, a, b):
        a_stubs = frozenset(e for e in a_es - sigma_es if sigma_vs & set(g.edges[e]))
        b_stubs = frozenset(e for e in b_es - sigma_es if sigma_vs & set(g.edges[e]))
        if not a_stubs or not b_stubs:
            continue
        circles = _circles(g, sigma_vs, sigma_es)
        for c in circles:
            picks = alternating_ports(c, a_stubs, b_stubs)
            if picks is not None:
                return (sigma_vs, sigma_es, "interleaved", picks)
        if len(sigma_es) >= len(sigma_vs) and len(circles) >= 2:
            picks = []
            for c in circles:
                a_port = next((p for p in c.ports if p.edge in a_stubs), None)
                b_port = next((p for p in c.ports if p.edge in b_stubs), None)
                if a_port is None or b_port is None:
                    break
                picks += (a_port, b_port)
            else:
                return (sigma_vs, sigma_es, "annulus", tuple(picks))
    return None


def branch_vertices(phi: SimplicialMap) -> frozenset[int]:
    """Vertices of degree 3 or more in phi's image subgraph; arcs cross only at one.

    Found once per map and kept in its `witness_memo` beside the witnesses
    of `find_crossing_pair`, whose scan reads them first; a target of
    maximum degree 2 has none, and they are not looked for there.
    Requires a nondegenerate map.
    """
    g = phi.target
    if g.max_degree <= 2:
        return frozenset()
    memo = phi.witness_memo
    branch = memo.get("branch")
    if branch is None:
        ends = g.edges
        degree = [0] * g.n
        found = []
        for e in set(phi.edge_image):
            for v in ends[e]:
                degree[v] += 1
                if degree[v] == 3:
                    found.append(v)
        branch = memo["branch"] = frozenset(found)
    return branch


def _interned(
    g: PlaneGraph, images: list[tuple[int, list[int]]], branch: frozenset[int]
) -> list[tuple[int, tuple, dict, Subgraph] | None]:
    """The (id, sort key, row, image subgraph) entry of each image in g's crossing_memo.

    An image comes as `_runs` gives it, its cells as a bit set and as a
    list, and the bit set is its key: the subgraph and its sort key are
    built only for a new entry.  An image that holds none of the branch
    vertices in branch crosses nothing; it gets None and no entry.
    """
    memo = g.crossing_memo
    n = g.n
    mask = sum(1 << v for v in branch)
    entries = []
    for bits, cells in images:
        if not bits & mask:
            entries.append(None)
            continue
        entry = memo.get(bits)
        if entry is None:
            vs = sorted([c for c in cells if c < n])
            es = sorted([c - n for c in cells if c >= n])
            image = (frozenset(vs), frozenset(es))
            entry = memo[bits] = (len(memo), (tuple(vs), tuple(es)), {}, image)
        entries.append(entry)
    return entries


def _walk(phi: SimplicialMap) -> tuple[tuple[int, ...], tuple[int, ...], int, bool]:
    """A path or cycle domain as one walk: (vertices, edges, m, closed).

    Position p holds vertices[p], entered along edges[p - 1], and the arc
    (s, e) is the subwalk from position s to position e.  Arcs start at the
    m positions s < m.  A path's arcs from s end at s + 1 ... m - 1; a
    cycle's walk is unrolled twice and its arcs from s end at
    s + 1 ... s + m - 1, so arcs are enumerated by start, then by end.
    """
    order, eids = phi.domain.walk
    if phi.domain.shape == "path":
        return order, eids, len(order), False
    return order * 2, eids * 2, len(order), True


def _runs(phi: SimplicialMap, vertices, edges, m: int, closed: bool):
    """Runs of arcs with one image: (runs, images), runs as (start, first end, image id).

    Runs come in arc order, by start and then by first end, and images[id]
    holds the cells of a run's arcs' image as a bit set and as a list.  A
    target cell is an int: vertex c, or edge |V(G)| + a.  The arc (s, e)
    covers the vertex at s and, at each position p in s + 1 .. e, the
    vertex at p and the edge entering it, so from a fixed start a later end
    only adds to the image, and it adds exactly at the next position after
    s where a cell not yet covered enters.  The runs from s are therefore
    the groups of cells with one next entry, in order, up to the last end
    (m - 1 on a path, s + m - 1 on a cycle's doubled walk); this is the one
    place that key is computed.

    One sweep from the right keeps every cell seen so far in a list ordered
    by its next entry: going from start s + 1 to s moves the edge entering
    s + 1 and then the vertex at s to the front.  So each start costs
    O(|V(G)| + |E(G)|), however long its image takes to stop growing, and
    each distinct image's cells are listed once, found by their bit set,
    which also keys the image in the target's crossing_memo (`_interned`).
    """
    vimg, eimg = phi.vertex_image, phi.edge_image
    n = phi.target.n
    last = len(vertices) - 1  # no arc starts there
    cells = [vimg[vertices[last]]]  # every cell seen so far, by decreasing next entry: front last
    entries = [last]  # the next entry of each
    seen = [False] * (n + len(phi.target.edges))
    seen[cells[0]] = True
    ids: dict[int, int] = {}  # an image as a bit set of cells -> its id
    images: list[tuple[int, list[int]]] = []
    by_start: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for s in range(last - 1, -1, -1):
        for c, p in ((n + eimg[edges[s]], s + 1), (vimg[vertices[s]], s)):
            if seen[c]:
                i = cells.index(c)
                del cells[i], entries[i]
            seen[c] = True
            cells.append(c)
            entries.append(p)
        if s >= m:
            continue
        bound = s + m - 1 if closed else last
        image = 1 << cells[-1]  # the vertex at s
        j = len(cells) - 2
        while j >= 0 and entries[j] <= bound:
            e = entries[j]
            image |= 1 << cells[j]
            j -= 1
            if j >= 0 and entries[j] == e:
                continue
            x = ids.get(image)
            if x is None:
                x = ids[image] = len(images)
                images.append((image, cells[j + 1 :]))
            by_start[s].append((s, e, x))
    return [run for here in by_start for run in here], images


def find_crossing_pair(phi: SimplicialMap, disjoint_only: bool) -> CrossingWitness | None:
    """First crossing arc pair in enumeration order, or None.

    With disjoint_only the search realizes the transversal self-intersection
    predicate; without it, the stronger any-two-arcs condition that guards
    the derivative construction.  One scan answers both and is memoized on
    the map (`SimplicialMap.witness_memo`), so a derivative stage that asks
    both questions scans its domain once.  Both are None, with no scan,
    when no vertex has degree 3 or more in the map's image subgraph; a
    target of maximum degree 2 has no such vertex, so it is not even looked
    for there.  Any other map needs a path or cycle domain: a general
    domain raises `PreconditionError`.
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    if phi.target.max_degree <= 2:
        # no image can branch; answering here keeps no memo on the map
        return None
    memo = phi.witness_memo
    if disjoint_only not in memo:
        memo[False], memo[True] = _first_crossings(phi)
    return memo[disjoint_only]


_UNTESTED = object()


def _partners(g: PlaneGraph, entries, a: int) -> tuple[int, ...]:
    """Ids of the images that cross image a; an image never crosses itself.

    Each pair's result is read from g's crossing_memo, or tested once and
    kept there: the image with the smaller sort key goes first, so each
    unordered image pair is tested in one orientation and its witness ports
    are fixed, and the result sits in the row of the smaller interned id.
    An image without a branch vertex (entry None) crosses nothing and is
    never tested.
    """
    if entries[a] is None:
        return ()
    ia, ka, row_a, image = entries[a]
    found = []
    for b, entry in enumerate(entries):
        if entry is None or b == a:
            continue
        ib, kb, row_b, other_image = entry
        row, other = (row_a, ib) if ia < ib else (row_b, ia)
        result = row.get(other, _UNTESTED)
        if result is _UNTESTED:
            pair = (image, other_image) if ka <= kb else (other_image, image)
            result = row[other] = _crossing_component(g, *pair)
        if result is not None:
            found.append(b)
    return tuple(found)


def _witness(entries, arc_p: WalkArc, a: int, arc_q: WalkArc, b: int):
    """The witness for arcs arc_p and arc_q, whose images are image a and its partner image b."""
    (ia, _, row_a, _), (ib, _, row_b, _) = entries[a], entries[b]
    svs, ses, kind, ports = row_a[ib] if ia < ib else row_b[ia]
    return CrossingWitness(arc_p, arc_q, svs, ses, kind, ports)


def _first_crossings(phi: SimplicialMap) -> tuple[CrossingWitness | None, CrossingWitness | None]:
    """The first crossing arc pair and the first vertex-disjoint one.

    Whether two arcs cross depends only on their images, so each pair of
    distinct images is tested once, through the memo on the target that
    instances sharing it also reuse.  An image never crosses itself.  A
    disjoint crossing pair is a crossing pair, so the disjoint witness never
    comes before the other.  A map whose image has no branch vertex has
    neither, and its arcs are not listed; any other map must have a path or
    cycle domain, and a general domain raises `PreconditionError`.

    The walk is scanned by runs (`_runs`) and never lists its O(k^2) arcs.
    The first arc (s, lo) of a run comes before the run's other arcs, has
    every later partner they have, and is contained in each of them, so it
    has their vertex-disjoint partners too.  Hence both witnesses pair the
    first arcs of two runs, and only those two arcs are built.  A later
    run's first arc (t, e) is disjoint from (s, lo) iff t > lo, and on a
    cycle of length m also e <= s + m - 1.  The first ends of one image's
    runs never decrease as their starts grow (if t < t' and e' < e, the arc
    (t, e') would reach that image before e), so the first run of a partner
    image that starts after lo is the only one to test.
    """
    branch = branch_vertices(phi)
    if not branch:
        return None, None
    if phi.domain.shape not in ("path", "cycle"):
        raise PreconditionError("crossing scan of a branching map needs a path or cycle domain")
    g = phi.target
    vertices, edges, m, closed = _walk(phi)
    runs, images = _runs(phi, vertices, edges, m, closed)
    entries = _interned(g, images, branch)
    # the positions of each image's runs, and their starts
    at: list[list[int]] = [[] for _ in images]
    for r, run in enumerate(runs):
        at[run[2]].append(r)
    starts = [[runs[r][0] for r in rs] for rs in at]

    def arc(r: int) -> WalkArc:
        s, lo, _ = runs[r]
        return WalkArc(vertices[s : lo + 1], edges[s:lo])

    def next_disjoint(b: int, lo: int, bound: int) -> int | None:
        """Position of the first run of image b that starts after lo and ends by bound."""
        x = bisect_right(starts[b], lo)
        if x < len(at[b]) and runs[at[b][x]][1] <= bound:
            return at[b][x]
        return None

    crossers: dict[int, tuple[int, ...]] = {}
    first = None
    for i, (s, lo, a) in enumerate(runs):
        if a not in crossers:
            crossers[a] = _partners(g, entries, a)
        partners = crossers[a]
        if not partners:
            continue
        if first is None:
            later = [at[b][x] for b in partners if (x := bisect_right(at[b], i)) < len(at[b])]
            if not later:
                continue
            j = min(later)
            first = _witness(entries, arc(i), a, arc(j), runs[j][2])
        bound = s + m - 1 if closed else m - 1
        disjoint = [j for b in partners if (j := next_disjoint(b, lo, bound)) is not None]
        if disjoint:
            j = min(disjoint)
            return first, _witness(entries, arc(i), a, arc(j), runs[j][2])
    return first, None
