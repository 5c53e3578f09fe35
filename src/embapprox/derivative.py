"""The derivative of a simplicial map, iteration, windings, singular set.

For a nondegenerate map phi: K -> G, each target edge a pulls back to a
subgraph of K; its connected components that actually cover a are the
phi-components.  They become the vertices of a new domain K', adjacent when
the components touch, and the covered target edges become the vertices of a
new plane target G', adjacent when some touching pair realizes the
adjacency.  The derivative phi' sends each component to its covered edge.
G' inherits an embedding: around the vertex for edge a = xy, the strips to
edges through x attach in counterclockwise order after a at x, followed by
the strips to edges through y in counterclockwise order after a at y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    DomainGraph,
    PlaneGraph,
    SimplicialMap,
    UnionFind,
    _pair,
    closed_walk,
    normalize_nondegenerate,
)
from .errors import DerivePreconditionError, PreconditionError
from .iso import maps_isomorphic
from .transversal import CrossingWitness, find_crossing_pair


@dataclass(frozen=True)
class PhiComponent:
    """A connected piece of the preimage of one target edge, covering it."""

    target_edge: int
    vertices: frozenset[int]
    edges: frozenset[int]


@dataclass(frozen=True)
class DerivativeStep:
    source: SimplicialMap
    components: tuple[PhiComponent, ...]
    kprime: DomainGraph
    gprime: PlaneGraph
    map: SimplicialMap
    terminal_approximable: bool
    realized_edges: tuple[int, ...]  # target edge id per gprime vertex


def phi_components(phi: SimplicialMap) -> tuple[PhiComponent, ...]:
    """All phi-components, ordered by (target edge, smallest domain vertex).

    The preimage subgraph of a closed edge a also contains the degenerate
    edges sitting over a's endpoints; they can join pieces together but a
    component must contain at least one edge mapped onto a to count.  One
    union-find keyed by (target edge, domain vertex) finds the pieces over
    every target edge at once.
    """
    d, g = phi.domain, phi.target
    members: dict[int, list[int]] = {}  # target edge -> its edges onto it, then its glue
    for eid, a in enumerate(phi.edge_image):
        if a is not None:
            members.setdefault(a, []).append(eid)
    onto = {a: len(eids) for a, eids in members.items()}
    for eid in phi.degenerate_edges:
        for a in g.incident[phi.vertex_image[d.edges[eid][0]]]:
            if a in onto:
                members[a].append(eid)
    sets = UnionFind()
    for a, eids in members.items():
        for eid in eids:
            u, v = d.edges[eid]
            sets.union((a, u), (a, v))
    pieces: dict[tuple[int, int], tuple[set[int], set[int]]] = {}
    for a, eids in members.items():
        for i, eid in enumerate(eids):
            u, v = d.edges[eid]
            root = sets.find((a, u))
            if i < onto[a]:
                vs, es = pieces.setdefault(root, (set(), set()))
            elif root in pieces:
                # glue comes after every onto edge, so a missing piece has none
                vs, es = pieces[root]
            else:
                continue
            vs.add(u)
            vs.add(v)
            es.add(eid)
    out = [PhiComponent(a, frozenset(vs), frozenset(es)) for (a, _), (vs, es) in pieces.items()]
    out.sort(key=lambda c: (c.target_edge, min(c.vertices)))
    return tuple(out)


def derived_rotation(
    g: PlaneGraph,
    realized_edges: tuple[int, ...],
    realized_pairs: frozenset[tuple[int, int]],
    far_end_clockwise: bool = False,
) -> tuple[tuple[int, ...], ...]:
    """Rotation system of the derived target.

    realized_edges lists the target edge ids that become vertices, in order;
    realized_pairs holds the adjacencies {a, b} (as sorted target-edge-id
    pairs) that become edges.  The far_end_clockwise switch flips the second
    endpoint's block to the mirrored reading; it exists so the corpus suite
    can demonstrate that only the default convention matches the oracle.
    """
    pair_ids = {p: i for i, p in enumerate(sorted(realized_pairs))}

    def ccw_after(v: int, a: int) -> list[int]:
        rot = g.rotation[v]
        i = rot.index(a)
        return [rot[(i + t) % len(rot)] for t in range(1, len(rot))]

    rotation: list[tuple[int, ...]] = []
    for a in realized_edges:
        x, y = g.edges[a]
        at_x = [b for b in ccw_after(x, a) if _pair(a, b) in pair_ids]
        at_y = [c for c in ccw_after(y, a) if _pair(a, c) in pair_ids]
        if far_end_clockwise:
            at_y = list(reversed(at_y))
        rotation.append(tuple(pair_ids[_pair(a, b)] for b in at_x + at_y))
    return tuple(rotation)


def derive(phi: SimplicialMap, far_end_clockwise: bool = False) -> DerivativeStep:
    """One derivative step.

    Requires a nondegenerate map whose arc images never cross pairwise, a
    condition checked over all vertex-aligned arc pairs for path and cycle
    domains and vacuous when the target has maximum degree 2 (arcs and
    circles leave no room for two images to alternate around any vertex);
    other general-domain inputs are refused since no in-scope construction
    covers them.  Iterated derivatives of maps into a circle stay inside
    this class: realized images are unions of arcs and circles.
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    if not d.edges:
        pass  # no edges means no arcs: the derivative is empty over any target
    elif d.shape in ("path", "cycle"):
        witness = find_crossing_pair(phi, disjoint_only=False)
        if witness is not None:
            raise DerivePreconditionError(
                "arc images cross; the derivative is undefined", witness
            )
    elif phi.target.max_degree > 2:
        raise DerivePreconditionError(
            "derivative of a general domain is only constructed over targets "
            "of maximum degree 2",
            None,
        )

    comps = phi_components(phi)
    m = len(comps)
    # every edge lies in exactly one component, so components touch only at vertices
    at_vertex: dict[int, list[int]] = {}
    for i, c in enumerate(comps):
        for v in c.vertices:
            at_vertex.setdefault(v, []).append(i)
    shared = sorted({pair for ids in at_vertex.values() for pair in combinations(ids, 2)})

    terminal = (
        m == 2
        and d.is_circle()
        and len(comps[0].vertices & comps[1].vertices) == 2
    )

    realized_edges = tuple(sorted({c.target_edge for c in comps}))
    vertex_of = {a: i for i, a in enumerate(realized_edges)}
    realized_pairs = frozenset(
        _pair(comps[i].target_edge, comps[j].target_edge) for i, j in shared
    )
    rotation = derived_rotation(phi.target, realized_edges, realized_pairs, far_end_clockwise)
    # derived_rotation numbers edges by sorted realized pair; vertex_of is
    # increasing, so that is also the sorted order of the G' edges
    gp_edges = tuple((vertex_of[a], vertex_of[b]) for a, b in sorted(realized_pairs))
    gprime = PlaneGraph(
        len(realized_edges),
        gp_edges,
        rotation,
        tuple(phi.target.edge_name(a) for a in realized_edges),
    )

    per_edge_counter: dict[int, int] = {}
    names = []
    for c in comps:
        j = per_edge_counter.get(c.target_edge, 0)
        per_edge_counter[c.target_edge] = j + 1
        names.append(f"{phi.target.edge_name(c.target_edge)}#{j}")
    kprime = DomainGraph.from_structure(m, tuple(shared), tuple(names))
    phiprime = SimplicialMap(
        kprime, gprime, tuple(vertex_of[c.target_edge] for c in comps)
    )
    return DerivativeStep(phi, comps, kprime, gprime, phiprime, terminal, realized_edges)


def _target_is_circle(g: PlaneGraph) -> bool:
    if g.n < 3 or len(g.edges) != g.n:
        return False
    if any(g.degree(v) != 2 for v in range(g.n)):
        return False
    try:
        closed_walk(g, frozenset(range(g.n)), frozenset(range(len(g.edges))))
    except PreconditionError:
        return False
    return True


@dataclass(frozen=True)
class IterationResult:
    steps: tuple[DerivativeStep, ...]
    status: str  # budget-exhausted | empty-domain | terminal | stabilized | precondition-failed
    failure: CrossingWitness | None
    failure_step: int | None
    maps: tuple[SimplicialMap, ...]  # phi^(0) .. phi^(len(steps))


def iterate_derivative(
    phi: SimplicialMap, max_steps: int, far_end_clockwise: bool = False
) -> IterationResult:
    """Derivative sequence phi^(0), phi^(1), ... with early exits.

    Stops after max_steps derivations, or earlier on an empty domain, the
    terminal-approximable configuration, a derive precondition failure
    (recorded, not raised), or stabilization up to labeled isomorphism.
    """
    current = normalize_nondegenerate(phi)
    maps = [current]
    steps: list[DerivativeStep] = []
    status = "budget-exhausted"
    failure = None
    failure_step = None
    for i in range(max_steps):
        if current.domain.n == 0:
            status = "empty-domain"
            break
        try:
            step = derive(current, far_end_clockwise)
        except DerivePreconditionError as exc:
            status = "precondition-failed"
            failure = exc.witness
            failure_step = i
            break
        steps.append(step)
        maps.append(step.map)
        if step.terminal_approximable:
            status = "terminal"
            break
        if maps_isomorphic(current, step.map):
            status = "stabilized"
            break
        current = step.map
    else:
        if current.domain.n == 0:
            status = "empty-domain"
    return IterationResult(tuple(steps), status, failure, failure_step, tuple(maps))


@dataclass(frozen=True)
class ComponentWinding:
    vertices: frozenset[int]
    edges: frozenset[int]
    is_circle: bool
    is_winding: bool
    degree: int
    image_vertices: frozenset[int]
    image_edges: frozenset[int]


@dataclass(frozen=True)
class WindingReport:
    components: tuple[ComponentWinding, ...]

    def winding_degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components if c.is_winding)

    def is_standard_winding(self) -> bool:
        """Every component a winding of nonzero degree (and there is at least one)."""
        return bool(self.components) and all(c.is_winding for c in self.components)


def winding_report(phi: SimplicialMap) -> WindingReport:
    """Classify each domain component as a standard winding or not.

    A component winds when it is a circle, its image subgraph is a circle,
    and the walk around the domain steps through the image in one constant
    direction (which is exactly ultra-nondegeneracy over a cycle image).
    The sign convention: both circles are traversed starting from their
    smallest vertex along their smallest incident edge id.
    """
    d, g = phi.domain, phi.target
    out = []
    for vs, es in d.components():
        # a component holds every edge at its vertices
        circ = bool(es) and all(d.degree(v) == 2 for v in vs)
        img_vs = frozenset(phi.vertex_image[v] for v in vs)
        img_es = frozenset(
            phi.edge_image[e] for e in es if phi.edge_image[e] is not None
        )
        entry = ComponentWinding(vs, es, circ, False, 0, img_vs, img_es)
        if circ and img_es:
            img_degree = dict.fromkeys(img_vs, 0)
            for e in img_es:
                for v in g.edges[e]:
                    img_degree[v] += 1
            deg_ok = all(x == 2 for x in img_degree.values()) and len(img_es) == len(img_vs)
            if deg_ok:
                try:
                    img_order, _ = closed_walk(g, img_vs, img_es)
                except PreconditionError:
                    img_order = None
                if img_order is not None:
                    pos = {v: i for i, v in enumerate(img_order)}
                    length = len(img_order)
                    walk_vs, walk_es = closed_walk(d, vs, es)
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


def singular_set(phi: SimplicialMap) -> tuple[frozenset[int], frozenset[int]]:
    """Closed subgraph of the domain whose points have extra preimages."""
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    edge_count: dict[int, int] = {}
    for img in phi.edge_image:
        edge_count[img] = edge_count.get(img, 0) + 1
    sing_edges = frozenset(
        e for e, img in enumerate(phi.edge_image) if edge_count[img] >= 2
    )
    vertex_count: dict[int, int] = {}
    for img in phi.vertex_image:
        vertex_count[img] = vertex_count.get(img, 0) + 1
    sing_vertices = set()
    for v in range(phi.domain.n):
        if vertex_count[phi.vertex_image[v]] >= 2:
            sing_vertices.add(v)
    for e in sing_edges:
        sing_vertices.update(phi.domain.edges[e])
    return frozenset(sing_vertices), sing_edges
