"""Derivatives of simplicial maps: components, iteration, winding analysis."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embapprox.catalog import (
    TARGETS,
    cycle_domain,
    cycle_target,
    euler_cycle_map,
    ex33_pair,
    path_domain,
    small_targets,
    terminal_flower,
    theta_target,
    whole_fold,
    winding_map,
)
from embapprox.core import (
    DomainGraph,
    PlaneGraph,
    SimplicialMap,
    _pair,
    _shape_of,
    normalize_nondegenerate,
)
from embapprox.corpus import CorpusSpec, generate, random_deg3_map
from embapprox.derivative import (
    DerivativeStep,
    PhiComponent,
    derive,
    derived_rotation,
    iterate_derivative,
    phi_components,
    singular_set,
    winding_report,
)
from embapprox.errors import DerivePreconditionError, PreconditionError
from embapprox.transversal import find_crossing_pair


def test_phi_components_of_a_double_winding():
    phi = winding_map(2)
    comps = phi_components(phi)
    assert len(comps) == 6
    per_edge: dict[int, int] = {}
    for c in comps:
        per_edge[c.target_edge] = per_edge.get(c.target_edge, 0) + 1
        assert len(c.edges) == 1 and len(c.vertices) == 2
    assert per_edge == {0: 2, 1: 2, 2: 2}


def test_degenerate_edges_join_preimage_pieces():
    g = small_targets()["C4"]
    # the middle edge collapses over vertex 1 and glues both halves together
    glued = SimplicialMap(path_domain(4), g, (0, 1, 1, 0))
    comps = phi_components(glued)
    assert len(comps) == 1
    assert comps[0].vertices == frozenset(range(4))
    assert comps[0].edges == frozenset(range(3))
    # without the glue the two halves stay separate components
    split = SimplicialMap(path_domain(5), g, (0, 1, 2, 1, 0))
    over_first = [c for c in phi_components(split) if c.target_edge == comps[0].target_edge]
    assert len(over_first) == 2


def test_euler_cycle_first_derivative_realizes_every_target_edge():
    phi = euler_cycle_map()
    step = derive(phi)
    assert step.realized_edges == tuple(range(len(phi.target.edges)))
    assert step.map.is_injective()
    assert step.kprime.n == len(phi.target.edges)


def test_whole_fold_derives_to_empty_in_two_steps():
    res = iterate_derivative(whole_fold(), 5)
    assert res.status == "empty-domain"
    assert res.maps[-1].domain.n == 0
    assert len(res.steps) == 2


def test_terminal_flower_is_terminal():
    step = derive(terminal_flower())
    assert step.terminal_approximable is True
    res = iterate_derivative(terminal_flower(), 5)
    assert res.status == "terminal"


def test_windings_stabilize_under_iteration():
    res = iterate_derivative(winding_map(2), 8)
    assert res.status == "stabilized"
    assert res.maps[-1].domain.n == res.maps[-2].domain.n


def test_iteration_records_precondition_failures_without_raising():
    _, psi = ex33_pair()
    res = iterate_derivative(psi, 8)
    assert res.status == "precondition-failed"
    assert res.failure is not None
    assert res.failure_step == 0
    with pytest.raises(DerivePreconditionError):
        derive(psi)


def test_zero_budget_is_budget_exhausted():
    res = iterate_derivative(winding_map(2), 0)
    assert res.status == "budget-exhausted"
    assert len(res.maps) == 1


def test_far_end_convention_changes_the_derived_rotation():
    # the walk meets vertex 1 from both remaining edges, so the derived
    # vertex for the first edge reads a two-entry block at its far end
    phi = SimplicialMap(path_domain(5), theta_target(), (2, 1, 0, 1, 3))
    default = derive(phi).gprime
    flipped = derive(phi, far_end_clockwise=True).gprime
    assert default.edges == flipped.edges
    assert default.rotation != flipped.rotation


def test_edgeless_domain_derives_to_empty_over_any_target():
    pt = DomainGraph(1, (), "general", ("p",))
    phi = SimplicialMap(pt, theta_target(), (0,))
    step = derive(phi)
    assert step.kprime.n == 0 and step.map.domain.n == 0


def test_general_domain_with_edges_needs_a_low_degree_target():
    y = DomainGraph(4, ((0, 1), (0, 2), (0, 3)), "general")
    g = theta_target()
    phi = SimplicialMap(y, g, (0, 1, 2, 3))
    with pytest.raises(DerivePreconditionError):
        derive(phi)


def test_winding_report_classifies_each_component():
    # disjoint union of a plain cycle and a double cover, both over C3
    g = small_targets()["C3"]
    dom = DomainGraph(
        9,
        ((0, 1), (0, 2), (1, 2), (3, 4), (3, 8), (4, 5), (5, 6), (6, 7), (7, 8)),
        "general",
    )
    phi = SimplicialMap(dom, g, (0, 1, 2, 0, 1, 2, 0, 1, 2))
    report = winding_report(phi)
    assert sorted(abs(c.degree) for c in report.components) == [1, 2]
    assert report.is_standard_winding() is True
    assert sorted(map(abs, report.winding_degrees())) == [1, 2]


def test_folds_are_not_windings():
    report = winding_report(whole_fold())
    assert report.winding_degrees() == ()
    assert report.is_standard_winding() is False
    (comp,) = report.components
    assert comp.is_circle is True and comp.is_winding is False


def test_paths_are_never_windings():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(4), g, (0, 1, 2, 3))
    report = winding_report(phi)
    assert report.is_standard_winding() is False
    assert report.components[0].is_circle is False


def test_empty_domain_is_not_a_standard_winding():
    g = small_targets()["C3"]
    phi = SimplicialMap(DomainGraph(0, (), "general"), g, ())
    assert winding_report(phi).is_standard_winding() is False


def test_singular_set_of_an_injective_map_is_empty():
    vs, es = singular_set(euler_cycle_map())
    # the euler map identifies vertices (it visits some twice) but after one
    # derivative nothing is singular
    first = derive(euler_cycle_map()).map
    assert singular_set(first) == (frozenset(), frozenset())
    assert vs  # the euler walk itself does repeat vertices


def test_singular_set_is_closed_and_tracks_doubled_edges():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(4), g, (0, 1, 2, 1))
    vs, es = singular_set(phi)
    assert es == frozenset({1, 2})
    assert vs == frozenset({1, 2, 3})


def test_winding_degrees_cover_both_orientations():
    for d in (-3, -2, -1, 1, 2, 3):
        report = winding_report(winding_map(d))
        assert abs(report.winding_degrees()[0]) == abs(d)
        assert report.is_standard_winding()
    # and the two orientations of the same |d| are distinguished consistently
    plus = winding_report(winding_map(2)).winding_degrees()[0]
    minus = winding_report(winding_map(-2)).winding_degrees()[0]
    assert plus == -minus


# --- reference stage construction ---------------------------------------------
# The plain per-target-edge scans that phi_components and derive replaced:
# O(|E(G)|(|V(K)| + |E(K)|)) components, O(m^2) adjacency, a renumbering
# pass.  The stage code must build every DerivativeStep equal to these.


def _reference_phi_components(phi: SimplicialMap) -> tuple[PhiComponent, ...]:
    d, g = phi.domain, phi.target
    out: list[PhiComponent] = []
    for a, (x, y) in enumerate(g.edges):
        vs = [v for v in range(d.n) if phi.vertex_image[v] in (x, y)]
        if not vs:
            continue
        in_pre = set(vs)
        parent = {v: v for v in vs}

        def find(z: int) -> int:
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            return z

        member_edges: dict[int, list[int]] = {}
        onto: set[int] = set()
        for eid, (u, v) in enumerate(d.edges):
            img = phi.edge_image[eid]
            keep = img == a or (img is None and u in in_pre)
            if not keep:
                continue
            member_edges.setdefault(eid, [u, v])
            parent[find(u)] = find(v)
            if img == a:
                onto.add(eid)
        groups: dict[int, tuple[set[int], set[int]]] = {}
        for v in vs:
            groups.setdefault(find(v), (set(), set()))[0].add(v)
        for eid, (u, _) in member_edges.items():
            groups[find(u)][1].add(eid)
        for root in sorted(groups, key=lambda r: min(groups[r][0])):
            gvs, ges = groups[root]
            if ges & onto:
                out.append(PhiComponent(a, frozenset(gvs), frozenset(ges)))
    out.sort(key=lambda c: (c.target_edge, min(c.vertices)))
    return tuple(out)


def _reference_derive(phi: SimplicialMap) -> DerivativeStep:
    d = phi.domain
    if not d.edges:
        pass
    elif d.shape in ("path", "cycle"):
        witness = find_crossing_pair(phi, disjoint_only=False)
        if witness is not None:
            raise DerivePreconditionError("arc images cross", witness)
    elif phi.target.max_degree > 2:
        raise DerivePreconditionError("general domain over a branching target", None)
    comps = _reference_phi_components(phi)
    m = len(comps)
    shared = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if comps[i].vertices & comps[j].vertices or comps[i].edges & comps[j].edges
    ]
    degree = [0] * d.n
    for u, v in d.edges:
        degree[u] += 1
        degree[v] += 1
    circle = (
        d.n >= 1 and d.edges and len(d.components()) == 1 and all(x == 2 for x in degree)
    )
    terminal = bool(circle and m == 2 and len(comps[0].vertices & comps[1].vertices) == 2)
    realized_edges = tuple(sorted({c.target_edge for c in comps}))
    vertex_of = {a: i for i, a in enumerate(realized_edges)}
    realized_pairs = frozenset(
        _pair(comps[i].target_edge, comps[j].target_edge) for i, j in shared
    )
    rotation = derived_rotation(phi.target, realized_edges, realized_pairs)
    gp_edges = tuple(sorted(_pair(vertex_of[a], vertex_of[b]) for a, b in realized_pairs))
    gp_index = {e: i for i, e in enumerate(gp_edges)}
    renum = {
        old: gp_index[_pair(vertex_of[p[0]], vertex_of[p[1]])]
        for old, p in enumerate(sorted(realized_pairs))
    }
    gprime = PlaneGraph(
        len(realized_edges),
        gp_edges,
        tuple(tuple(renum[e] for e in rot) for rot in rotation),
        tuple(phi.target.edge_name(a) for a in realized_edges),
    )
    per_edge_counter: dict[int, int] = {}
    names = []
    for c in comps:
        j = per_edge_counter.get(c.target_edge, 0)
        per_edge_counter[c.target_edge] = j + 1
        names.append(f"{phi.target.edge_name(c.target_edge)}#{j}")
    kp_edges = tuple(sorted(_pair(i, j) for i, j in shared))
    kprime = DomainGraph(m, kp_edges, _shape_of(m, kp_edges), tuple(names))
    phiprime = SimplicialMap(kprime, gprime, tuple(vertex_of[c.target_edge] for c in comps))
    return DerivativeStep(phi, comps, kprime, gprime, phiprime, terminal, realized_edges)


def _assert_stages_match_reference(phi: SimplicialMap, max_stages: int) -> int:
    """Compare components and every derivative stage; returns the stages derived."""
    assert phi_components(phi) == _reference_phi_components(phi)
    cur = normalize_nondegenerate(phi)
    for i in range(max_stages):
        if cur.domain.n == 0:
            return i
        try:
            want = _reference_derive(cur)
        except DerivePreconditionError as exc:
            with pytest.raises(DerivePreconditionError) as got:
                derive(cur)
            assert got.value.witness == exc.witness
            return i
        assert derive(cur) == want
        if want.terminal_approximable:
            return i + 1
        cur = want.map
    return max_stages


def test_stages_match_reference_over_small_corpora():
    stages = 0
    names = tuple(small_targets())
    assert len(names) == 6
    for shape in ("path", "cycle"):
        spec = CorpusSpec(shape, names, k_min=3 if shape == "cycle" else 1, k_max=5)
        for _, phi in generate(spec):
            stages += _assert_stages_match_reference(phi, max_stages=phi.domain.n + 1)
    assert stages > 5000


def test_stages_match_reference_on_degree_three_maps():
    rng = random.Random(3)
    stages = 0
    for name in ("C3", "C4", "C5"):
        g = TARGETS[name]()
        for _ in range(150):
            phi = random_deg3_map(g, rng)
            stages += _assert_stages_match_reference(phi, max_stages=phi.domain.n + 1)
    assert stages > 450


@st.composite
def _walk_maps(draw):
    """Walks into theta, W4 or ex33 with k <= 40; a step may stay put."""
    g = TARGETS[draw(st.sampled_from(("theta", "W4", "ex33")))]()
    k = draw(st.integers(1, 40))
    images = [draw(st.integers(0, g.n - 1))]
    for _ in range(k - 1):
        v = images[-1]
        choice = draw(st.integers(0, len(g.incident[v])))
        images.append(v if choice == 0 else g.other_end(g.incident[v][choice - 1], v))
    closed = k >= 3 and draw(st.booleans())
    if closed:
        u, v = images[-1], images[0]
        assume(u == v or _pair(u, v) in g.edge_index)
    domain = cycle_domain(k) if closed else path_domain(k)
    return SimplicialMap(domain, g, tuple(images))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_walk_maps())
def test_stages_match_reference_on_random_walks(phi):
    _assert_stages_match_reference(phi, max_stages=3)


# --- linear-time guards ------------------------------------------------------


K_LARGE = 4000
LARGE_STAGES = {
    # each took 1 to 10 s while a stage rescanned the domain per target edge
    "normalize-half-stationary-cycle-C5": (
        normalize_nondegenerate,
        lambda: SimplicialMap(
            cycle_domain(K_LARGE), cycle_target(5), tuple((i // 2) % 5 for i in range(K_LARGE))
        ),
    ),
    "derive-path-C5": (
        derive,
        lambda: SimplicialMap(path_domain(K_LARGE), cycle_target(5), tuple(i % 5 for i in range(K_LARGE))),
    ),
    "derive-identity-cycle-C4000": (
        derive,
        lambda: SimplicialMap(cycle_domain(K_LARGE), cycle_target(K_LARGE), tuple(range(K_LARGE))),
    ),
}


@pytest.mark.parametrize("case", sorted(LARGE_STAGES))
def test_stage_work_is_linear_at_k4000(case):
    stage, build = LARGE_STAGES[case]
    phi = build()
    start = time.perf_counter()
    stage(phi)
    assert time.perf_counter() - start < 0.5
