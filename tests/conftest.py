"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from hypothesis import assume
from hypothesis import strategies as st

from embapprox import gf2, transversal, vankampen
from embapprox.catalog import (
    TARGETS,
    cycle_domain,
    cycle_target,
    path_domain,
    small_targets,
    theta_target,
)
from embapprox.core import DomainGraph, PlaneGraph, SimplicialMap, WalkArc, _pair, normalize_nondegenerate
from embapprox.decide import Event, Verdict
from embapprox.derivative import ComponentWinding, WindingReport, derivative_stages, winding_report
from embapprox.errors import DerivePreconditionError, InvariantError, PreconditionError
from embapprox.geometry import disc_ports, proper_crossing
from embapprox.oracle import oracle_result
from embapprox.transversal import CrossingWitness, find_crossing_pair


def contract_edge(phi: SimplicialMap, eid: int) -> tuple[SimplicialMap, tuple[int, ...]]:
    """Contract one degenerate domain edge: the map and, per old vertex, its new vertex.

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
    images = [0] * new_n
    for x in range(d.n):
        images[relabel[x]] = phi.vertex_image[x]
    new_domain = DomainGraph(new_n, new_edges)
    return SimplicialMap(new_domain, phi.target, tuple(images)), tuple(relabel)


def mirrored(g: PlaneGraph) -> PlaneGraph:
    """Reverse every rotation: the mirror-image embedding."""
    return PlaneGraph(g.n, g.edges, tuple(tuple(reversed(r)) for r in g.rotation), g.vertex_names)


def mirrored_map(phi: SimplicialMap) -> SimplicialMap:
    """Same map into the mirror-image embedding of the target."""
    return SimplicialMap(phi.domain, mirrored(phi.target), phi.vertex_image)


def arc_image(phi: SimplicialMap, arc: WalkArc) -> tuple[frozenset[int], frozenset[int]]:
    """Image subgraph of an arc as (target vertex set, target edge set)."""
    vs = frozenset(phi.vertex_image[v] for v in arc.vertices)
    es = frozenset(phi.edge_image[e] for e in arc.edges if phi.edge_image[e] is not None)
    return vs, es


def random_lane_orders(phi: SimplicialMap, rng: random.Random):
    """A uniformly shuffled lane permutation for every realized target edge."""
    lanes: dict[int, list[int]] = {}
    for eid, img in enumerate(phi.edge_image):
        if img is not None:
            lanes.setdefault(img, []).append(eid)
    return {a: tuple(rng.sample(block, len(block))) for a, block in lanes.items()}


def drawn_verdict(phi: SimplicialMap, orders) -> tuple[bool, tuple[int, ...] | None]:
    """(vanishes, cut vector or None) of a nondegenerate map drawn in the given lane orders.

    The cut vector is read for path domains only.
    """
    system = vankampen.obstruction_system(phi, orders)
    a = gf2.Columns(len(system.rows), system.columns)
    _, cert = gf2.solve_or_certify(a, system.rhs, solve=False)
    cuts = vankampen.cut_components(system) if phi.domain.shape == "path" else None
    return cert is None, cuts


def random_walk_map(
    rng: random.Random, target, k: int, closed: bool, force_stay: bool = False
) -> SimplicialMap:
    """A random walk map on k vertices; steps may stay put (degenerate edges).

    With force_stay the walk is redrawn until at least one step stays, so the
    resulting map has a degenerate edge to contract.
    """
    while True:
        images = [rng.randrange(target.n)]
        for _ in range(k - 1):
            v = images[-1]
            images.append(rng.choice([v] + [target.other_end(e, v) for e in target.rotation[v]]))
        if closed:
            u, v = images[0], images[-1]
            if u != v and (min(u, v), max(u, v)) not in target.edge_index:
                continue
        steps = list(zip(images, images[1:]))
        if closed:
            steps.append((images[-1], images[0]))
        if force_stay and all(a != b for a, b in steps):
            continue
        domain = cycle_domain(k) if closed else path_domain(k)
        return SimplicialMap(domain, target, tuple(images))


def way_back(g: PlaneGraph, u: int, v: int) -> list[int]:
    """The inner vertices of a shortest walk from u to v in g."""
    prev = {u: None}
    queue = [u]
    for x in queue:
        for e in g.rotation[x]:
            y = g.other_end(e, x)
            if y not in prev:
                prev[y] = x
                queue.append(y)
    inner = []
    x = v if v == u else prev[v]
    while x != u:
        inner.append(x)
        x = prev[x]
    return inner[::-1]


@st.composite
def walk_maps(draw, k_max: int, k_min: int = 1, closed: bool = True):
    """Walks into theta, W4 or ex33; a step may stay put.

    With closed=False every walk is a path; otherwise walks with k >= 3 may
    close up.
    """
    g = TARGETS[draw(st.sampled_from(("theta", "W4", "ex33")))]()
    k = draw(st.integers(k_min, k_max))
    images = [draw(st.integers(0, g.n - 1))]
    for _ in range(k - 1):
        v = images[-1]
        choice = draw(st.integers(0, len(g.rotation[v])))
        images.append(v if choice == 0 else g.other_end(g.rotation[v][choice - 1], v))
    closed = closed and k >= 3 and draw(st.booleans())
    if closed:
        u, v = images[-1], images[0]
        assume(u == v or _pair(u, v) in g.edge_index)
    domain = cycle_domain(k) if closed else path_domain(k)
    return SimplicialMap(domain, g, tuple(images))


def sample_corpus(shape: str, count: int, seed: int, k_max: int = 6):
    """A deterministic mixed sample of exhaustive corpus instances."""
    from embapprox.corpus import CorpusSpec, generate

    spec = CorpusSpec(
        shape=shape, targets=tuple(small_targets()), k_min=3 if shape == "cycle" else 1,
        k_max=k_max,
    )
    items = list(generate(spec))
    rng = random.Random(seed)
    return rng.sample(items, count)


def theta_fold(k: int, closed: bool = False) -> SimplicialMap:
    """The approximable path u a v b u b v a ... of k vertices on theta.

    With closed the same walk is a cycle; k must then be a multiple of 8, so
    that its last step a u closes it.
    """
    g = theta_target()
    index = {name: v for v, name in enumerate(g.vertex_names)}
    period = ("u", "a", "v", "b", "u", "b", "v", "a")
    domain = cycle_domain(k) if closed else path_domain(k)
    return SimplicialMap(domain, g, tuple(index[period[i % 8]] for i in range(k)))


def back_and_forth(k: int) -> SimplicialMap:
    """The path u a u a ... of k - 1 vertices on theta, then one step to v.

    Its image is the path a u v (or u a v), with no vertex of degree 3.
    """
    g = theta_target()
    u, v, a = (g.vertex_names.index(name) for name in ("u", "v", "a"))
    return SimplicialMap(path_domain(k), g, tuple(a if i % 2 else u for i in range(k - 1)) + (v,))


def branching_back_and_forth(k: int) -> SimplicialMap:
    """The path u a u a ... u v b u of k vertices on theta, k even.

    Its image is u a, u v, v b and b u, so u has degree 3 and every stage
    is scanned; the first k - 3 vertices stay inside the image u a.
    """
    g = theta_target()
    u, v, a, b = (g.vertex_names.index(name) for name in ("u", "v", "a", "b"))
    images = tuple(a if i % 2 else u for i in range(k - 3)) + (v, b, u)
    return SimplicialMap(path_domain(k), g, images)


@st.composite
def lingering_walks(draw, k_max: int):
    """Walks of 2 to k_max vertices into theta, W4 or ex33 that move at every step.

    The walk takes one random step at a time, and after a step it may go
    back and forth along that edge for up to 32 more steps: from each start
    in such a stretch the image stays one edge for long, the case where
    walking forward from every start takes time quadratic in k.  A closed
    walk (k >= 3) closes by a shortest way back to its start, so it may end
    with more than k vertices; one that ends where it started has its last
    vertex dropped.
    """
    g = TARGETS[draw(st.sampled_from(("theta", "W4", "ex33")))]()
    k = draw(st.integers(2, k_max))
    images = [draw(st.integers(0, g.n - 1))]
    while len(images) < k:
        v = images[-1]
        w = g.other_end(g.rotation[v][draw(st.integers(0, len(g.rotation[v]) - 1))], v)
        images += [w, v] * draw(st.sampled_from((0, 0, 0, 1, 4, 16))) + [w]
    images = images[:k]
    if k >= 3 and draw(st.booleans()):
        images += way_back(g, images[-1], images[0])
        if images[-1] == images[0]:
            images.pop()
        if len(images) >= 3:
            return SimplicialMap(cycle_domain(len(images)), g, tuple(images))
    return SimplicialMap(path_domain(len(images)), g, tuple(images))


@st.composite
def closed_walks(draw, k_max: int, targets=("theta", "W4", "ex33", "C3", "C4", "C5", "C6")):
    """Closed walks of 3 to k_max vertices into the named targets; Cn is `cycle_target(n)`.

    A step may stay put.  A random walk closes by a shortest way back to
    its start, and one of fewer than three vertices stays put until it has
    three.
    """
    name = draw(st.sampled_from(targets))
    g = TARGETS[name]() if name in TARGETS else cycle_target(int(name[1:]))
    images = [draw(st.integers(0, g.n - 1))]
    for _ in range(draw(st.integers(0, k_max - g.n))):
        v = images[-1]
        choice = draw(st.integers(0, len(g.rotation[v])))
        images.append(v if choice == 0 else g.other_end(g.rotation[v][choice - 1], v))
    images += way_back(g, images[-1], images[0])
    images += images[-1:] * (3 - len(images))
    return SimplicialMap(cycle_domain(len(images)), g, tuple(images))


# --- reference walks -----------------------------------------------------------
# A path or circle piece of any graph, traversed edge by edge with a used-edge
# set, independently of core.simple_walk: the reference for DomainGraph.walk,
# the arc enumeration and the winding report.


def _component_walk(graph, vertices: frozenset[int], edges: frozenset[int], closed: bool):
    """Traverse a path- or circle-like piece of any graph with .edges/.other_end.

    An open piece starts at its smaller end; a closed one at its smallest
    vertex, leaving along its smallest incident edge id.  Returns (vertex
    list, edge id list); a closed walk does not repeat its start.
    """
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


def reference_walk(d: DomainGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The walk a path or cycle domain should give as `DomainGraph.walk`."""
    every = (frozenset(range(d.n)), frozenset(range(len(d.edges))))
    vs, es = _component_walk(d, *every, closed=d.shape == "cycle")
    return tuple(vs), tuple(es)


def reference_winding_report(phi: SimplicialMap) -> WindingReport:
    """`derivative.winding_report` by walking the image circle in the target.

    A component winds when it is a circle, its image subgraph is a circle,
    and the walk around the domain steps through the image in one constant
    direction, read off positions along the image's own walk.  Both circles
    are traversed from their smallest vertex along their smallest incident
    edge id.
    """
    d, g = phi.domain, phi.target
    out = []
    if d.shape in ("path", "cycle"):
        pieces = [(frozenset(range(d.n)), frozenset(range(len(d.edges))), d.shape == "cycle")]
    else:
        pieces = [
            (vs, es, bool(es) and all(d.degree(v) == 2 for v in vs)) for vs, es in d.components()
        ]
    for vs, es, circ in pieces:
        img_vs = frozenset(phi.vertex_image[v] for v in vs)
        img_es = frozenset(phi.edge_image[e] for e in es if phi.edge_image[e] is not None)
        entry = ComponentWinding(vs, es, circ, False, 0, img_vs, img_es)
        if circ and img_es:
            img_degree = dict.fromkeys(img_vs, 0)
            for e in img_es:
                for v in g.edges[e]:
                    img_degree[v] += 1
            if all(x == 2 for x in img_degree.values()) and len(img_es) == len(img_vs):
                try:
                    img_order, _ = _component_walk(g, img_vs, img_es, closed=True)
                except PreconditionError:
                    img_order = None
                if img_order is not None:
                    pos = {v: i for i, v in enumerate(img_order)}
                    length = len(img_order)
                    walk_vs, walk_es = _component_walk(d, vs, es, closed=True)
                    sign = 0
                    ok = all(phi.edge_image[e] is not None for e in walk_es)
                    if ok:
                        for t in range(len(walk_vs)):
                            a = pos[phi.vertex_image[walk_vs[t]]]
                            b = pos[phi.vertex_image[walk_vs[(t + 1) % len(walk_vs)]]]
                            step = (b - a) % length
                            s = 1 if step == 1 else (-1 if step == length - 1 else 0)
                            if s == 0 or (sign and s != sign):
                                ok = False
                                break
                            sign = s
                    if ok:
                        entry = ComponentWinding(
                            vs, es, True, True, sign * len(es) // length, img_vs, img_es
                        )
        out.append(entry)
    return WindingReport(tuple(out))


# --- reference crossing scan -----------------------------------------------
# Every arc pair in enumeration order, with arcs listed from the reference
# walk, independently of the run scan and of DomainGraph.walk.


def subwalks(phi: SimplicialMap) -> list[WalkArc]:
    """Every arc of a path or cycle domain in enumeration order.

    These are the domain's contiguous subwalks, listed here independently of
    the run scan.  The crossing scan covers walks only, so a general domain
    is refused.
    """
    d = phi.domain
    if d.shape == "path":
        order, eids = reference_walk(d)
        return [
            WalkArc(order[i : j + 1], eids[i:j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
        ]
    if d.shape == "cycle":
        order, eids = reference_walk(d)
        m = len(order)
        order2, eids2 = order * 2, eids * 2
        return [
            WalkArc(order2[s : e + 1], eids2[s:e]) for s in range(m) for e in range(s + 1, s + m)
        ]
    raise PreconditionError(f"arcs of a {d.shape} domain are not scanned")


def reference_runs(phi: SimplicialMap):
    """`transversal._runs` by walking forward from every start, as (start, first end, image).

    The walk from s steps through every end in arc order and yields where
    the image grows, so it takes O(k) steps per start however soon the image
    stops growing.  Takes `transversal._walk`'s unrolled walk.
    """
    vertices, edges, m, closed = transversal._walk(phi)
    vimg, eimg = phi.vertex_image, phi.edge_image
    for s in range(m):
        vs: frozenset[int] = frozenset((vimg[vertices[s]],))
        es: frozenset[int] = frozenset()
        for e in range(s + 1, s + m if closed else m):
            v, x = vimg[vertices[e]], eimg[edges[e - 1]]
            if v in vs and x in es:
                continue
            vs, es = vs | {v}, es | {x}
            yield s, e, (vs, es)


def reference_scan(
    phi: SimplicialMap, disjoint_only: bool, tested: dict | None = None
) -> CrossingWitness | None:
    """The plain scan: every arc pair in enumeration order, images from arc_image.

    `tested` keeps crossing test results by ordered image pair; callers may
    share one dict between maps into equal targets.
    """
    g = phi.target
    arcs = subwalks(phi)
    images = [arc_image(phi, arc) for arc in arcs]
    keys = [(tuple(sorted(a[0])), tuple(sorted(a[1]))) for a in images]
    tested = {} if tested is None else tested
    for i in range(len(arcs)):
        vi = set(arcs[i].vertices)
        for j in range(i + 1, len(arcs)):
            if disjoint_only and not vi.isdisjoint(arcs[j].vertices):
                continue
            a, b = images[i], images[j]
            pair = (a, b) if keys[i] <= keys[j] else (b, a)
            if pair not in tested:
                tested[pair] = transversal._crossing_component(g, *pair)
            if tested[pair] is not None:
                return CrossingWitness(arcs[i], arcs[j], *tested[pair])
    return None



# --- reference stage check ---------------------------------------------------


def reference_rejection(phi: SimplicialMap) -> Event | None:
    """The stage check of `decide` with no winding gate.

    The disjoint crossing scan, then, on any domain but a path, the whole
    `winding_report`: the first winding of degree |d| >= 2 rejects.
    """
    witness = find_crossing_pair(phi, disjoint_only=True)
    if witness is not None:
        return Event("transversal-self-intersection", witness)
    if phi.domain.shape != "path":
        for comp in winding_report(phi).components:
            if comp.is_winding and abs(comp.degree) >= 2:
                return Event("forbidden-winding", comp.degree)
    return None


def reference_decide(phi: SimplicialMap) -> Verdict:
    """`decide_path` or `decide_cycle` stage by stage, on the whole tower.

    Every stage is checked by `reference_rejection` until one rejects or
    the tower ends: a terminal or stabilized stage is not checked, and an
    empty one ends the run.  A refused derive asks the oracle and flags the
    verdict.  No stage is settled from the turns of its walk and no memo
    is read, so the run derives every stage it passes; one that passes
    the stage its budget of n derives reaches raises `InvariantError`.
    """
    criterion = f"{phi.domain.shape}-derivatives"
    trace = []
    try:
        for i, (stage, _, end) in enumerate(derivative_stages(phi, phi.domain.n)):
            if end == "terminal":
                return Verdict(True, criterion, (*trace, (i, Event("terminal-approximable"))))
            if end == "stabilized":
                return Verdict(True, criterion, tuple(trace))
            if end == "empty-domain":
                return Verdict(True, criterion, (*trace, (i, Event("empty-domain"))))
            event = reference_rejection(stage)
            if event is not None:
                return Verdict(False, criterion, (*trace, (i, event)))
            trace.append((i, Event("clean-pass")))
    except DerivePreconditionError as err:
        ok = oracle_result(stage).approximable
        if not ok:
            trace.append((i, Event("transversal-self-intersection", err.witness)))
        return Verdict(ok, criterion, tuple(trace), flagged_for_review=True)
    raise InvariantError("derive-bound", f"{phi.domain.n} derives left a stage undecided")


# --- reference quotient --------------------------------------------------------


def reference_zero_components(phi: SimplicialMap) -> tuple[SimplicialMap, tuple[int, ...]]:
    """`core.zero_components` by a stack search over the degenerate edges, blind to the walk.

    Classes are numbered by their smallest vertex.  Every nondegenerate
    edge survives in its order, and the quotient is built and checked from
    scratch, its shape computed from its structure.
    """
    d = phi.domain
    glued: list[list[int]] = [[] for _ in range(d.n)]
    for eid in phi.degenerate_edges:
        u, v = d.edges[eid]
        glued[u].append(v)
        glued[v].append(u)
    member = [-1] * d.n
    classes: list[list[int]] = []  # by smallest vertex
    for x in range(d.n):
        if member[x] >= 0:
            continue
        member[x] = len(classes)
        reached, stack = [x], [x]
        while stack:
            for y in glued[stack.pop()]:
                if member[y] < 0:
                    member[y] = member[x]
                    reached.append(y)
                    stack.append(y)
        classes.append(reached)
    edges = tuple(
        _pair(member[u], member[v]) for (u, v), a in zip(d.edges, phi.edge_image) if a is not None
    )
    domain = DomainGraph(len(classes), edges)
    images = tuple(phi.vertex_image[xs[0]] for xs in classes)
    return SimplicialMap(domain, phi.target, images), tuple(member)


def reference_components(d: DomainGraph) -> list[tuple[frozenset[int], frozenset[int]]]:
    """`DomainGraph.components` by a depth-first search from each unreached vertex in id order.

    Every step scans the whole edge list, so nothing is shared with the
    domain's own incidence lists.
    """
    reached = [False] * d.n
    out = []
    for start in range(d.n):
        if reached[start]:
            continue
        reached[start] = True
        vertices, edges, stack = {start}, set(), [start]
        while stack:
            x = stack.pop()
            for eid, (u, v) in enumerate(d.edges):
                if x in (u, v):
                    edges.add(eid)
                    y = v if x == u else u
                    if not reached[y]:
                        reached[y] = True
                        vertices.add(y)
                        stack.append(y)
        out.append((frozenset(vertices), frozenset(edges)))
    return out


def reference_cut_components(edges, complex, values) -> tuple[int, ...]:
    """`vankampen.cut_components` by a breadth-first search over the equations.

    `edges` are a path domain's edges, `complex` its `DeletedProduct` and
    `values` the parity of every 2-cell.  A non-red 2-cell (s, t) is an
    equation in its non-red faces (x, t), x on s, and (z, s), z on t, the
    unknowns.  Equations that share an unknown are one component; a
    component holding an unknown of weight 1 (in one equation only) is
    exposed.  Each red 2-cell reads 0, and each unexposed component reads
    the sum of its parities once, at its first 2-cell.
    """
    unknowns = {c for c, red in zip(complex.cells1, complex.red1) if not red}
    faces = []
    holding: dict[tuple[int, int], list[int]] = {}  # unknown -> the equations holding it
    for i, ((s, t), red) in enumerate(zip(complex.cells2, complex.red2)):
        here = [] if red else [(x, t) for x in edges[s]] + [(z, s) for z in edges[t]]
        here = [c for c in here if c in unknowns]
        faces.append(here)
        for c in here:
            holding.setdefault(c, []).append(i)
    vector = []
    done = [False] * len(faces)
    for i, red in enumerate(complex.red2):
        if red:
            vector.append(0)
            continue
        if done[i]:
            continue
        done[i] = True
        queue, parity, exposed = deque([i]), 0, False
        while queue:
            j = queue.popleft()
            parity ^= values[j]
            for c in faces[j]:
                exposed = exposed or len(holding[c]) == 1
                for other in holding[c]:
                    if not done[other]:
                        done[other] = True
                        queue.append(other)
        if not exposed:
            vector.append(parity)
    return tuple(vector)


def path_cut_components(phi: SimplicialMap) -> tuple[int, ...]:
    """`vankampen.cut_components` of a path map's normalized drawing."""
    return vankampen.cut_components(vankampen.obstruction_system(normalize_nondegenerate(phi)))


def ints_and_tuples(value) -> bool:
    """Does value hold only ints (bools among them), None and tuples of them?

    Memo values of this kind keep no graph or map alive and, once the
    cyclic collector has seen them, cost it nothing.
    """
    if isinstance(value, tuple):
        return all(ints_and_tuples(v) for v in value)
    return value is None or isinstance(value, int)


def kept(g: PlaneGraph, route: str) -> list:
    """The (key, value) entries `core.verdict_once` keeps in g for route, keys without the route."""
    return [(key[1:], value) for key, value in g.verdicts.items() if key[0] == route]


def relabelled(phi: SimplicialMap, vertex_ids, edge_order) -> SimplicialMap:
    """phi with domain vertex x renumbered vertex_ids[x] and its edges listed as edge_order says.

    New edge i is old edge edge_order[i].
    """
    d = phi.domain
    image = [0] * d.n
    for x, y in enumerate(vertex_ids):
        image[y] = phi.vertex_image[x]
    edges = tuple(_pair(vertex_ids[u], vertex_ids[v]) for u, v in (d.edges[e] for e in edge_order))
    return SimplicialMap(DomainGraph(d.n, edges), phi.target, tuple(image))


# --- reference numbering -------------------------------------------------------


def reference_number(phi: SimplicialMap) -> tuple[list[int], list[int], list[list[int]]]:
    """`vankampen._number` by an n * |E| table of unknowns and a scan of all edge pairs.

    `var[x * |E| + t]` is the unknown of the 1-cell (x, t), or -1 when that
    cell is red or no cell (x on t).  Every pair s < t of domain edges whose
    images share an end and whose ends are disjoint is an equation, in the
    order of s, then t.
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    edges = d.edges
    width = len(edges)
    target_edges = phi.target.edges
    over: list[list[int]] = [[] for _ in range(phi.target.n)]  # edges by image end
    masks = []  # each edge's image ends as a bit set
    for t, img in enumerate(phi.edge_image):
        c, e = target_edges[img]
        over[c].append(t)
        over[e].append(t)
        masks.append(1 << c | 1 << e)
    var = [-1] * (d.n * width)
    cells = []
    for x, fx in enumerate(phi.vertex_image):
        base = x * width
        for t in over[fx]:
            z, w = edges[t]
            if z != x and w != x:
                var[base + t] = len(cells)
                cells.append(base + t)
    columns: list[list[int]] = [[] for _ in cells]
    rows = []
    for s, (x, y) in enumerate(edges):
        ms = masks[s]
        xs, ys, ss = x * width, y * width, s * width
        for t in range(s + 1, width):
            if not ms & masks[t]:
                continue
            z, w = edges[t]
            if z == x or z == y or w == x or w == y:
                continue
            r = len(rows)
            rows.append(ss + t)
            # the faces (x, t), (y, t), (z, s) and (w, s), unknowns only
            for j in (var[xs + t], var[ys + t], var[z * width + s], var[w * width + s]):
                if j >= 0:
                    columns[j].append(r)
    return cells, rows, columns


# --- reference lift search -----------------------------------------------------


def reference_lift_crossing(phi: SimplicialMap, by_edge) -> tuple | None:
    """The least crossing of a lift of the normalized phi, or None when it crosses nowhere.

    Read from the definition in `oracle`'s module docstring: ``by_edge[a]``
    lists the domain edges on the lanes of target edge a, and `disc_ports`
    places the lanes around each target vertex's disc.  Each domain vertex
    over the disc is a star with a port per edge, and two stars cross when
    two ports of one alternate with two of the other, shared domain
    vertices or not.  Discs are scanned in id order, and within the first
    disc that crosses the least sorted quadruple of positions wins.  The
    crossing is (disc, positions, the two arcs as (end, centre, end)
    domain vertex triples).
    """
    g, edges = phi.target, phi.domain.edges
    ports = disc_ports(g, {a: range(len(row)) for a, row in enumerate(by_edge) if row})
    for v, row in enumerate(ports):
        stars: dict[int, list[tuple[int, int]]] = {}  # centre -> (position, far end)
        for pos, (a, lane) in enumerate(row):
            x, y = edges[by_edge[a][lane]]
            centre, far = (x, y) if phi.vertex_image[x] == v else (y, x)
            stars.setdefault(centre, []).append((pos, far))
        best = None
        for x, y in combinations(sorted(stars), 2):
            for (pa, ea), (pb, eb) in combinations(stars[x], 2):
                for (qa, ec), (qb, ed) in combinations(stars[y], 2):
                    if proper_crossing(pa, pb, qa, qb):
                        key = tuple(sorted((pa, pb, qa, qb)))
                        if best is None or key < best[1]:
                            best = (v, key, (ea, x, eb), (ec, y, ed))
        if best is not None:
            return best
    return None


def reference_lifts(phi: SimplicialMap):
    """Every lift of the normalized phi as `Lift.by_edge` rows, unpruned, in search order.

    Domain edges take lanes of their image edge in increasing edge id, each
    trying the free lanes in increasing order, which is the order the
    oracle's search visits complete lifts in.
    """
    img = phi.edge_image
    rows = [[-1] * img.count(a) for a in range(len(phi.target.edges))]

    def place(e: int):
        if e == len(img):
            yield tuple(map(tuple, rows))
            return
        row = rows[img[e]]
        for lane, rider in enumerate(row):
            if rider < 0:
                row[lane] = e
                yield from place(e + 1)
                row[lane] = -1

    yield from place(0)


def reference_oracle(phi: SimplicialMap) -> tuple:
    """The unpruned search with the strict disc check: (approximable, first lift or None, lifts examined)."""
    phi = normalize_nondegenerate(phi)
    examined = 0
    for by_edge in reference_lifts(phi):
        examined += 1
        if reference_lift_crossing(phi, by_edge) is None:
            return True, by_edge, examined
    return False, None, examined
