"""The derivative of a simplicial map, its iteration and windings.

For a nondegenerate map phi: K -> G, each target edge a pulls back to a
subgraph of K; its connected components that actually cover a are the
phi-components.  They become the vertices of a new domain K', adjacent when
the components touch, and the covered target edges become the vertices of a
new plane target G', adjacent when some touching pair realizes the
adjacency.  The derivative phi' sends each component to its covered edge.
G' inherits an embedding: around the vertex for edge a = xy, the strips to
edges through x attach in counterclockwise order after a at x, followed by
the strips to edges through y in counterclockwise order after a at y.

On a path or cycle domain the phi-components are the maximal runs of one
edge image along the domain's walk, and two components touch exactly when
their runs are consecutive, so such a stage is built in one pass over the
walk, and the runs in walk order are K''s own walk.  Such a stage builds
only what the next one reads: K' with its walk, G' and phi'.  Other
domains group the preimage of every target edge at once with
`core.classes` (`phi_components`).  Derived targets carry no vertex names
and domains none at all, so nothing grows from stage to stage; `cli
derive --dot` names their vertices after the target edges they come from.

`derivative_stages` iterates the derivative.  Whether a stage repeats its
source is read off counts for a path or cycle (`_stabilized`: only a
winding of a cycle target does); other domains ask `iso.maps_isomorphic`.

`winding_report` reads each winding off the domain's walk alone: a circle
component, walked by `core.simple_walk`, winds when its walk never steps
back within an image whose vertices all have degree 2, and its degree is
the walk's length over the image's vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    DomainGraph,
    PlaneGraph,
    SimplicialMap,
    classes,
    normalize_nondegenerate,
    simple_walk,
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
    map: SimplicialMap
    terminal_approximable: bool
    realized_edges: tuple[int, ...]  # target edge id per gprime vertex

    @property
    def kprime(self) -> DomainGraph:
        return self.map.domain

    @property
    def gprime(self) -> PlaneGraph:
        return self.map.target


def phi_components(phi: SimplicialMap) -> tuple[PhiComponent, ...]:
    """All phi-components, ordered by (target edge, smallest domain vertex).

    The preimage subgraph of a closed edge a also contains the degenerate
    edges sitting over a's endpoints; they can join pieces together but a
    component must contain at least one edge mapped onto a to count.  Each
    (target edge, domain vertex) slot those edges reach is numbered once,
    and one `core.classes` call over the slots finds the pieces over every
    target edge at once.
    """
    d, g = phi.domain, phi.target
    members: dict[int, list[int]] = {}  # target edge -> its edges onto it, then its glue
    for eid, a in enumerate(phi.edge_image):
        if a is not None:
            members.setdefault(a, []).append(eid)
    onto = {a: len(eids) for a, eids in members.items()}
    for eid in phi.degenerate_edges:
        for a in g.rotation[phi.vertex_image[d.edges[eid][0]]]:
            if a in onto:
                members[a].append(eid)
    slot: dict[tuple[int, int], int] = {}
    pairs = []
    for a, eids in members.items():
        for eid in eids:
            u, v = d.edges[eid]
            pairs.append((slot.setdefault((a, u), len(slot)), slot.setdefault((a, v), len(slot))))
    member, count = classes(len(slot), pairs)
    covered = [-1] * count  # the target edge of a piece with an edge onto it
    edges: list[list[int]] = [[] for _ in range(count)]
    for a, eids in members.items():
        for i, eid in enumerate(eids):
            c = member[slot[a, d.edges[eid][0]]]
            if i < onto[a]:
                covered[c] = a
            edges[c].append(eid)
    vertices: list[list[int]] = [[] for _ in range(count)]
    for (_, x), s in slot.items():
        vertices[member[s]].append(x)
    out = [
        PhiComponent(a, frozenset(vs), frozenset(es))
        for a, vs, es in zip(covered, vertices, edges)
        if a >= 0
    ]
    out.sort(key=lambda c: (c.target_edge, min(c.vertices)))
    return tuple(out)


def derived_rotation(
    g: PlaneGraph,
    realized_edges: tuple[int, ...],
    realized_pairs: frozenset[tuple[int, int]],
) -> tuple[tuple[int, ...], ...]:
    """Rotation system of the derived target.

    realized_edges lists the target edge ids that become vertices, in order;
    realized_pairs holds the adjacencies {a, b} (as sorted target-edge-id
    pairs) that become edges.  Both endpoint blocks read counterclockwise.
    """
    pair_id = {p: i for i, p in enumerate(sorted(realized_pairs))}.get
    rotation: list[tuple[int, ...]] = []
    for a in realized_edges:
        ids = []
        for v in g.edges[a]:  # x, then y
            rot = g.rotation[v]
            i = rot.index(a)
            for b in rot[i + 1 :] + rot[:i]:  # counterclockwise after a
                pid = pair_id((a, b) if a < b else (b, a))
                if pid is not None:
                    ids.append(pid)
        rotation.append(tuple(ids))
    return tuple(rotation)


def derive(phi: SimplicialMap) -> DerivativeStep:
    """One derivative step.

    Requires a nondegenerate map whose arc images never cross pairwise, a
    condition checked over all vertex-aligned arc pairs for path and cycle
    domains and vacuous when no vertex has degree 3 or more in the map's
    image (arcs cross only at such a vertex; see `transversal`).  A general
    domain is taken only into a target of maximum degree 2, where no image
    branches; other general-domain inputs are refused since no in-scope
    construction covers them.  Iterated derivatives of maps into a circle
    stay inside this class: realized images are unions of arcs and circles.

    A general domain never derives to the terminal configuration, a circle
    domain in exactly two phi-components.  A domain's shape is its
    structure's, so the only circles that are general are the doubled edge
    and a loop.  The doubled edge's two edges join the same two vertices,
    so a nondegenerate map sends them onto one target edge, in one
    component; a loop is degenerate.
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    if d.shape in ("path", "cycle"):
        if d.edges:
            witness = find_crossing_pair(phi, disjoint_only=False)
            if witness is not None:
                raise DerivePreconditionError(
                    "arc images cross; the derivative is undefined", witness
                )
        return _derive_runs(phi)
    if not d.edges:
        pass  # no edges means no arcs: the derivative is empty over any target
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
    kprime = DomainGraph._built(m, tuple(shared))
    return _stage(phi, [c.target_edge for c in comps], shared, kprime, False)


def _derive_runs(phi: SimplicialMap) -> DerivativeStep:
    """`derive` of a nondegenerate path or cycle map.

    Its components are the maximal runs of one edge image along the walk;
    on a cycle a run that wraps past the walk's start is one run, and one
    image all round is one component.  Touching components are consecutive
    runs, so K' is a path, or a cycle when a cycle domain has three runs or
    more; a cycle domain with exactly two runs is the terminal case.  A
    single vertex has no runs and an empty derivative.  The runs in walk
    order are K''s own walk, so K' stores it (`DomainGraph.walk`).
    """
    vertices, edges = phi.domain.walk
    if not edges:
        empty = DomainGraph._built(0, ())
        return _stage(phi, (), [], empty, False)
    eimg = phi.edge_image
    closed = phi.domain.shape == "cycle"
    length = len(edges)
    if closed:
        # start at a run boundary so that no run wraps past the end
        first = eimg[edges[0]]
        offset = length
        while offset and eimg[edges[offset - 1]] == first:
            offset -= 1
        if offset < length:
            vertices = vertices[offset:] + vertices[:offset]
            edges = edges[offset:] + edges[:offset]
        vertices += vertices[:1]
    # each run's target edge and smallest vertex; the vertex between edges
    # p - 1 and p lies on both their runs
    images = [eimg[edges[0]]]
    lows = []
    low = vertices[0]
    for x, e in zip(vertices[1:length], edges[1:]):
        if x < low:
            low = x
        a = eimg[e]
        if a != images[-1]:
            images.append(a)
            lows.append(low)
            low = x
    x = vertices[length]
    lows.append(x if x < low else low)
    runs = len(images)
    # K' numbers the components by (target edge, smallest domain vertex)
    order = [i for _, _, i in sorted(zip(images, lows, range(runs)))]
    rank = [0] * runs
    for r, i in enumerate(order):
        rank[i] = r
    cyclic = closed and runs >= 3
    steps = [(a, b) if a < b else (b, a) for a, b in zip(rank, rank[1:])]
    if cyclic:
        a, b = rank[-1], rank[0]
        steps.append((a, b) if a < b else (b, a))
    shared = sorted(steps)
    edge_id = {pair: i for i, pair in enumerate(shared)}
    walk_edges = [edge_id[pair] for pair in steps]
    if cyclic:
        # DomainGraph.walk's convention: from vertex 0 towards its smaller neighbour
        p = order[0]
        walk_vertices = rank[p:] + rank[:p]
        walk_edges = walk_edges[p:] + walk_edges[:p]
        if walk_vertices[-1] < walk_vertices[1]:
            walk_vertices = walk_vertices[:1] + walk_vertices[:0:-1]
            walk_edges.reverse()
    else:
        # a path's walk starts at its smaller end
        walk_vertices = rank
        if rank[0] > rank[-1]:
            walk_vertices = rank[::-1]
            walk_edges.reverse()
    kprime = DomainGraph._built(runs, tuple(shared), (tuple(walk_vertices), tuple(walk_edges)))
    terminal = closed and runs == 2
    return _stage(phi, [images[i] for i in order], shared, kprime, terminal)


def _stage(phi, edge_of, shared, kprime, terminal) -> DerivativeStep:
    """G', its rotation and phi' from each K' vertex's target edge and the pairs that touch.

    G' depends only on the target and the realized edges and pairs, so it
    is built once per key and kept in the target's `derived_memo`: all maps
    into one target share their derived targets, and with them those
    targets' own memos.  G' is built unchecked (`PlaneGraph._built`): its
    vertices are the distinct realized edges, its edges the sorted distinct
    realized pairs between them, and `derived_rotation` lists at each vertex
    exactly the pairs that hold it.  Derived targets carry no names.
    """
    g = phi.target
    realized_edges = tuple(sorted(set(edge_of)))
    vertex_of = {a: i for i, a in enumerate(realized_edges)}
    # the realized pair of each K' edge, in K' edge order
    pairs = []
    for i, j in shared:
        a, b = edge_of[i], edge_of[j]
        pairs.append((a, b) if a < b else (b, a))
    realized_pairs = frozenset(pairs)
    key = (realized_edges, realized_pairs)
    gprime = g.derived_memo.get(key)
    if gprime is None:
        rotation = derived_rotation(g, realized_edges, realized_pairs)
        # derived_rotation numbers edges by sorted realized pair; vertex_of is
        # increasing, so that is also the sorted order of the G' edges
        gp_edges = tuple((vertex_of[a], vertex_of[b]) for a, b in sorted(realized_pairs))
        gprime = g.derived_memo[key] = PlaneGraph._built(len(realized_edges), gp_edges, rotation)
    # two touching K' vertices realize their pair of target edges, which is a
    # G' edge; vertex_of is increasing, so it keeps each pair sorted
    image = tuple(vertex_of[a] for a in edge_of)
    idx = gprime.edge_index
    edge_image = tuple([idx[vertex_of[a], vertex_of[b]] for a, b in pairs])
    phiprime = SimplicialMap._built(kprime, gprime, image, edge_image)
    return DerivativeStep(phi, phiprime, terminal, realized_edges)


def _stabilized(step: DerivativeStep) -> bool:
    """Whether step's map is its source up to isomorphism.

    A path stage never stabilizes: K' has a vertex per run of its n - 1
    edges, fewer than n.  A cycle stage is decided by counts, in O(1): it
    stabilizes exactly when every edge is its own run
    (|K'| = |K|), its target G has maximum degree 2 and |V(G)| = |E(G)|,
    and every edge of G is covered (|V(G')| = |E(G)|), which makes it a
    winding of a cycle target.  Proof: every stage after the first maps
    onto its whole target (G' is the realized edges and pairs), so an
    isomorphism to it forces |K'| = |K|, which is no backtrack, and a
    source onto G with |V(G)| = |V(G')| = |E(G)|.  A closed walk that never
    backtracks leaves each vertex by another edge than it came in on, so
    every vertex of G has degree at least 2, with |V| = |E| exactly 2, and
    the walk's connected image makes G one cycle.  Conversely, under the
    counts G has no path component (maximum degree 2, |V| = |E|), so the
    connected image that covers every edge is all of G, one cycle, and the
    walk winds round it without backtracking; a winding of degree d onto
    an m-cycle derives to a winding of degree d onto G', again an m-cycle.
    Other domains (the degree-3 route, closed walks that normalize to a
    doubled edge) ask `maps_isomorphic`.
    """
    source = step.source
    shape = source.domain.shape
    if shape == "path":
        return False
    if shape == "cycle":
        g = source.target
        return (
            step.kprime.n == source.domain.n
            and g.max_degree <= 2
            and g.n == len(g.edges) == step.gprime.n
        )
    return maps_isomorphic(source, step.map)


def derivative_stages(phi: SimplicialMap, max_steps: int):
    """Yield (stage map, step, end) for phi^(0), phi^(1), ..., each derived when asked for.

    Stage 0 is the normalized phi, with step None; every later stage comes
    with the `DerivativeStep` that made it.  `end` is None until the last
    stage, where it names the exit: "empty-domain", "terminal" or
    "stabilized" (the derive that made the stage is the terminal
    configuration, or repeats its source up to isomorphism, `_stabilized`),
    or "budget-exhausted" after max_steps derives.  A refused derive raises
    `DerivePreconditionError` out of the generator.

    The generator keeps no reference to phi once stage 0 is built, and
    holds only the current stage and the step that made it (whose source
    is the stage before).  Every target keeps the targets derived from it
    (`PlaneGraph.derived_memo`), so a caller that holds phi, or any early
    stage, keeps the tower built so far alive; one that holds neither
    streams the tower in the memory of a few stages.
    """
    stage = normalize_nondegenerate(phi)
    del phi
    step = None
    for i in range(max_steps + 1):
        if step is not None and step.terminal_approximable:
            end = "terminal"
        elif step is not None and _stabilized(step):
            end = "stabilized"
        elif not stage.domain.n:
            end = "empty-domain"
        elif i == max_steps:
            end = "budget-exhausted"
        else:
            end = None
        yield stage, step, end
        if end:
            return
        step = derive(stage)
        stage = step.map


@dataclass(frozen=True)
class IterationResult:
    steps: tuple[DerivativeStep, ...]
    status: str  # budget-exhausted | empty-domain | terminal | stabilized | precondition-failed
    failure: CrossingWitness | None
    failure_step: int | None
    maps: tuple[SimplicialMap, ...]  # phi^(0) .. phi^(len(steps))


def iterate_derivative(phi: SimplicialMap, max_steps: int) -> IterationResult:
    """Every stage of `derivative_stages(phi, max_steps)`, with the exit it ends on.

    A refused derive is recorded, not raised: the status is then
    "precondition-failed" and failure_step the stage it refused.  The
    result holds the whole tower at once; the library itself streams
    `derivative_stages` instead.
    """
    maps, steps = [], []
    failure = failure_step = None
    try:
        for stage, step, status in derivative_stages(phi, max_steps):
            maps.append(stage)
            if step is not None:
                steps.append(step)
    except DerivePreconditionError as exc:
        status, failure, failure_step = "precondition-failed", exc.witness, len(steps)
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

    A component is a circle when it has an edge and every vertex has degree
    2 (a cycle domain is one).  A circle winds when none of its edges is
    degenerate, every vertex of its image has degree 2 in the image, and
    its walk x_0 .. x_(L-1) never steps straight back: x_(i-1) != x_(i+1),
    indices mod L.  Then the walk leaves each vertex by the image edge it
    did not arrive on, so it runs round the image, a single cycle, in one
    direction, and |d| = L / |V(image)|.  The sign is + when the walk
    leaves the image's smallest vertex along that vertex's smaller image
    edge id.  The walk is `core.simple_walk`'s: from the smallest vertex
    along its smaller edge id, on a general domain's component renumbered
    in increasing order.
    """
    d = phi.domain
    if d.shape == "general":
        # a component holds every edge at its vertices
        pieces = [
            (vs, es, bool(es) and all(d.degree(v) == 2 for v in vs)) for vs, es in d.components()
        ]
    else:
        pieces = [(frozenset(range(d.n)), frozenset(range(len(d.edges))), d.shape == "cycle")]
    out = []
    for vs, es, circ in pieces:
        img_vs = frozenset(phi.vertex_image[v] for v in vs)
        img_es = frozenset(
            phi.edge_image[e] for e in es if phi.edge_image[e] is not None
        )
        degree = _winding_degree(phi, vs, es, img_vs, img_es) if circ else 0
        out.append(ComponentWinding(vs, es, circ, degree != 0, degree, img_vs, img_es))
    return WindingReport(tuple(out))


def _winding_degree(phi: SimplicialMap, vs, es, img_vs, img_es) -> int:
    """The degree of the circle component (vs, es) as a winding, or 0 where it does not wind."""
    d, eimg = phi.domain, phi.edge_image
    if any(eimg[e] is None for e in es):
        return 0
    image_degree = dict.fromkeys(img_vs, 0)
    for a in img_es:
        for x in phi.target.edges[a]:
            image_degree[x] += 1
    if any(c != 2 for c in image_degree.values()):
        return 0
    if d.shape == "cycle":
        vertices, edges = d.walk
    else:
        local, ids = sorted(vs), sorted(es)
        at = {v: i for i, v in enumerate(local)}
        walk = simple_walk(len(local), tuple((at[u], at[v]) for u, v in (d.edges[e] for e in ids)))
        if walk is None:
            return 0
        vertices, edges = [local[v] for v in walk[0]], [ids[e] for e in walk[1]]
    x = [phi.vertex_image[v] for v in vertices]
    y = x[-1:] + x + x[:1]  # y[i] = x[i - 1] and y[i + 2] = x[i + 1]
    if any(a == b for a, b in zip(y, y[2:])):
        return 0
    i = x.index(min(img_vs))
    sign = 1 if eimg[edges[i]] < eimg[edges[i - 1]] else -1
    return sign * len(x) // len(img_vs)
