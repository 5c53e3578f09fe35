"""Derivatives of simplicial maps: components, iteration, winding analysis."""

from __future__ import annotations

import random
import time
import weakref
from collections import Counter
from dataclasses import fields
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_walks,
    mirrored,
    random_walk_map,
    reference_scan,
    reference_winding_report,
    walk_maps,
    way_back,
)

from embapprox import derivative
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
    normalize_nondegenerate,
)
from embapprox.corpus import CorpusSpec, generate, random_deg3_map
from embapprox.derivative import (
    DerivativeStep,
    PhiComponent,
    derivative_stages,
    derive,
    derived_rotation,
    iterate_derivative,
    phi_components,
    winding_report,
)
from embapprox.errors import DerivePreconditionError, PreconditionError
from embapprox.decide import decide_cycle, decide_path
from embapprox.iso import _domain_isos, _plane_isos, maps_isomorphic
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


def test_stages_hold_neither_the_input_nor_earlier_stages():
    # phi's target keeps every target derived from it (derived_memo), so a
    # stream over the tower must let phi and each passed stage go
    phi = SimplicialMap(path_domain(9), cycle_target(8), (0, 0, 1, 2, 3, 4, 5, 6, 7))
    gone = weakref.ref(phi)
    stages = derivative_stages(phi, 9)
    del phi
    stage0, _, _ = next(stages)
    assert gone() is None
    gone = weakref.ref(stage0)
    del stage0
    next(stages)
    next(stages)
    assert gone() is None


def test_zero_budget_is_budget_exhausted():
    res = iterate_derivative(winding_map(2), 0)
    assert res.status == "budget-exhausted"
    assert len(res.maps) == 1


def test_far_end_block_reads_counterclockwise():
    # the walk a v u v b meets v from both remaining edges, so the derived
    # vertex for the direct edge u-v reads a two-entry block at its far end
    # v; theta's rotation at v is (v-a, u-v, v-b), so counterclockwise after
    # u-v come v-b and then v-a
    phi = SimplicialMap(path_domain(5), theta_target(), (2, 1, 0, 1, 3))
    step = derive(phi)
    assert step.realized_edges == (0, 3, 4)  # u-v, v-a, v-b
    # G' edge 0 joins u-v to v-a and G' edge 1 joins u-v to v-b
    assert step.gprime.edges == ((0, 1), (0, 2))
    edges = step.realized_edges
    pairs = frozenset((edges[i], edges[j]) for i, j in step.gprime.edges)
    rotation = derived_rotation(phi.target, edges, pairs)
    # nothing is realized at u, so u-v's block at v is all it reads; the
    # mirrored far-end reading would give (0, 1)
    assert rotation == ((1, 0), (0,), (1,))
    assert rotation == step.gprime.rotation


def test_edgeless_domain_derives_to_empty_over_any_target():
    pt = DomainGraph(1, ())
    phi = SimplicialMap(pt, theta_target(), (0,))
    step = derive(phi)
    assert step.kprime.n == 0 and step.map.domain.n == 0


def test_general_domain_with_edges_needs_a_low_degree_target():
    y = DomainGraph(4, ((0, 1), (0, 2), (0, 3)))
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
    phi = SimplicialMap(DomainGraph(0, ()), g, ())
    assert winding_report(phi).is_standard_winding() is False


def test_winding_degrees_cover_both_orientations():
    for d in (-3, -2, -1, 1, 2, 3):
        report = winding_report(winding_map(d))
        assert abs(report.winding_degrees()[0]) == abs(d)
        assert report.is_standard_winding()
    # and the two orientations of the same |d| are distinguished consistently
    plus = winding_report(winding_map(2)).winding_degrees()[0]
    minus = winding_report(winding_map(-2)).winding_degrees()[0]
    assert plus == -minus


def test_standard_windings_have_their_own_degree():
    for length in (3, 4, 7):
        for d in range(-6, 7):
            phi = winding_map(d, length)
            report = winding_report(phi)
            assert report.winding_degrees() == ((d,) if d else ())
            assert report == reference_winding_report(phi)


def test_interleaved_circles_of_a_general_domain_wind_by_their_own_walks():
    # two disjoint cycles on interleaved ids round C3: 0 5 2 7 4 8 winds +2
    # and 1 6 3 winds -1.  Each is walked from its smallest vertex along its
    # smaller edge id; renumbered in any order but increasing (decreasing,
    # or by first appearance in the edge list), a walk here reverses and
    # flips its sign
    edges = ((4, 7), (1, 6), (4, 8), (0, 5), (2, 7), (0, 8), (3, 6), (2, 5), (1, 3))
    phi = SimplicialMap(DomainGraph(9, edges), cycle_target(3), (0, 0, 2, 1, 1, 1, 2, 0, 2))
    report = winding_report(phi)
    assert [(sorted(c.vertices), c.degree) for c in report.components] == [
        ([0, 2, 4, 5, 7, 8], 2),
        ([1, 3, 6], -1),
    ]
    assert report == reference_winding_report(phi)


@st.composite
def _windings_with_back_steps(draw):
    """The d-winding round C3-C8, d in -5 .. 5, with up to three detours inserted.

    A detour after x_i is a back-step x_i x_(i+1) x_i x_(i+1), or a stay
    x_i x_i.
    """
    phi = winding_map(draw(st.sampled_from(range(-5, 6))), draw(st.integers(3, 8)))
    images = list(phi.vertex_image)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(images) - 1))
        detour = [images[(i + 1) % len(images)], images[i]] if draw(st.booleans()) else [images[i]]
        images[i + 1 : i + 1] = detour
    return SimplicialMap(cycle_domain(len(images)), phi.target, tuple(images))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        closed_walks(k_max=64, targets=("C3", "C4", "C5", "C6", "C7", "C8", "theta", "W4")),
        _windings_with_back_steps(),
    )
)
def test_winding_report_matches_the_image_walking_reference(phi):
    # phi itself may have degenerate edges; its stages start from its quotient
    for stage in (phi, *iterate_derivative(phi, phi.domain.n + 1).maps):
        assert winding_report(stage) == reference_winding_report(stage), stage.vertex_image


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
    )
    kp_edges = tuple(sorted(_pair(i, j) for i, j in shared))
    kprime = DomainGraph(m, kp_edges)
    phiprime = SimplicialMap(kprime, gprime, tuple(vertex_of[c.target_edge] for c in comps))
    return DerivativeStep(phi, kprime, gprime, phiprime, terminal, realized_edges)


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
        got = derive(cur)
        assert got == want
        assert phi_components(cur) == _reference_phi_components(cur)
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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(walk_maps(k_max=40))
def test_stages_match_reference_on_random_walks(phi):
    _assert_stages_match_reference(phi, max_stages=3)


def test_stages_and_witnesses_match_reference_on_seeded_walks():
    # the k <= 5 corpora reach no crossing at any stage, so witnesses are
    # compared here, on walks long enough to cross, through every stage the
    # decision procedure reaches
    rng = random.Random(8)
    targets = {name: TARGETS[name]() for name in ("theta", "W4", "ex33")}
    tested: dict = {}
    witnesses = 0
    for _ in range(400):
        g = targets[rng.choice(sorted(targets))]
        phi = random_walk_map(rng, g, rng.randint(8, 20), rng.random() < 0.5)
        cur = normalize_nondegenerate(phi)
        for _ in range(phi.domain.n + 1):
            if not cur.domain.edges:
                break
            if cur.target.max_degree > 2:
                memo = tested.setdefault(cur.target, {})
                want_any = reference_scan(cur, disjoint_only=False, tested=memo)
                # a disjoint crossing pair is a crossing pair
                want = (want_any, want_any and reference_scan(cur, True, tested=memo))
                got = tuple(find_crossing_pair(cur, disjoint_only=flag) for flag in (False, True))
                assert got == want
                witnesses += sum(w is not None for w in want)
            try:
                step = _reference_derive(cur)
            except DerivePreconditionError as exc:
                with pytest.raises(DerivePreconditionError) as got:
                    derive(cur)
                assert got.value.witness == exc.witness
                break
            assert derive(cur) == step
            if step.terminal_approximable or maps_isomorphic(cur, step.map):
                break
            cur = step.map
    assert witnesses >= 100


def test_maps_into_one_target_share_each_derived_target(monkeypatch):
    # G' depends only on (parent target, realized edges, realized pairs), so
    # the stages of every walk into one target share one tower of derived
    # targets and each G' is built once
    stage, rotation = derivative._stage, derivative.derived_rotation
    stages = []  # (source map, key, G')
    rotations = []

    def recorded_stage(phi, edge_of, shared, *rest):
        step = stage(phi, edge_of, shared, *rest)
        pairs = frozenset(_pair(edge_of[i], edge_of[j]) for i, j in shared)
        stages.append((phi, (id(phi.target), step.realized_edges, pairs), step.gprime))
        return step

    def counted_rotation(g, realized_edges, realized_pairs, *rest):
        rotations.append((id(g), realized_edges, realized_pairs))
        return rotation(g, realized_edges, realized_pairs, *rest)

    monkeypatch.setattr(derivative, "_stage", recorded_stage)
    monkeypatch.setattr(derivative, "derived_rotation", counted_rotation)
    for shape, decide in (("path", decide_path), ("cycle", decide_cycle)):
        spec = CorpusSpec(shape, ("theta", "W4", "ex33"), k_min=3 if shape == "cycle" else 1, k_max=5)
        for _, phi in generate(spec):
            decide(phi)
    monkeypatch.undo()
    # every parent target stays alive in `stages`, so no id is reused
    by_key: dict = {}
    for _, key, gprime in stages:
        assert by_key.setdefault(key, gprime) is gprime
    assert len(rotations) == len(set(rotations)) and set(rotations) == set(by_key)
    assert len(stages) > 2 * len(by_key) > 200
    for phi, _, gprime in stages:
        want = _reference_derive(phi).gprime
        for f in fields(PlaneGraph):
            assert getattr(gprime, f.name) == getattr(want, f.name), f.name


def test_every_unchecked_derived_target_is_a_valid_plane_graph():
    # each G' is built with PlaneGraph._built; the checking constructor must
    # accept it unchanged, at every depth of every target's derived tower.
    # decide settles a branch-free path stage without deriving it, so the
    # path maps build their towers through iterate_derivative
    targets = {}
    builds = (("path", lambda phi: iterate_derivative(phi, phi.domain.n)), ("cycle", decide_cycle))
    for shape, build in builds:
        for _, phi in generate(CorpusSpec(shape, tuple(TARGETS), k_max=5)):
            build(phi)
            targets[id(phi.target)] = phi.target
    pending = list(targets.values())
    rebuilt = deepest = 0
    depth = {id(g): 0 for g in pending}
    while pending:
        g = pending.pop()
        for gprime in g.derived_memo.values():
            assert PlaneGraph(gprime.n, gprime.edges, gprime.rotation) == gprime
            depth[id(gprime)] = depth[id(g)] + 1
            deepest = max(deepest, depth[id(gprime)])
            rebuilt += 1
            pending.append(gprime)
    assert len(targets) == 2 * len(TARGETS)  # one copy of each per corpus
    assert rebuilt > 1000 and deepest >= 4


# --- stabilization by counts -------------------------------------------------
# derivative_stages decides whether a walk stage repeats its source from
# counts on the DerivativeStep (`derivative._stabilized`); maps_isomorphic
# stays the reference.


@st.composite
def catalog_walks(draw, k_max: int):
    """A path, or a walk closed by a shortest way back, into any catalog target.

    A step may stay put, and both kinds have at most k_max vertices.
    """
    g = TARGETS[draw(st.sampled_from(sorted(TARGETS)))]()
    closed = draw(st.booleans())
    images = [draw(st.integers(0, g.n - 1))]
    for _ in range(draw(st.integers(0, k_max - (g.n if closed else 1)))):
        v = images[-1]
        choice = draw(st.integers(0, len(g.rotation[v])))
        images.append(v if choice == 0 else g.other_end(g.rotation[v][choice - 1], v))
    if not closed:
        return SimplicialMap(path_domain(len(images)), g, tuple(images))
    images += way_back(g, images[-1], images[0])
    images += images[-1:] * (3 - len(images))
    return SimplicialMap(cycle_domain(len(images)), g, tuple(images))


def _assert_counts_decide_stabilization(phi: SimplicialMap) -> int:
    """Compare the count rule with maps_isomorphic at every derive; returns how many stabilized."""
    cur = normalize_nondegenerate(phi)
    for _ in range(cur.domain.n + 1):
        if not cur.domain.n:
            return 0
        try:
            step = derive(cur)
        except DerivePreconditionError:
            return 0
        if step.terminal_approximable:
            return 0
        stabilized = derivative._stabilized(step)
        assert stabilized == maps_isomorphic(step.source, step.map), phi.vertex_image
        if stabilized:
            return 1
        cur = step.map
    raise AssertionError("no exit within n + 1 derives")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        catalog_walks(k_max=64),
        st.builds(winding_map, st.integers(-4, 4), st.integers(3, 12)).filter(
            lambda phi: phi.domain.n <= 64
        ),
    )
)
def test_count_rule_agrees_with_isomorphism_at_every_derive(phi):
    _assert_counts_decide_stabilization(phi)


def test_count_rule_stabilizes_windings_of_every_degree():
    stabilized = sum(
        _assert_counts_decide_stabilization(winding_map(d, length))
        for d in (-3, -2, -1, 1, 2, 3)
        for length in (3, 4, 7)
    )
    assert stabilized == 18


def test_a_walk_with_no_backtrack_stabilizes_only_when_it_winds_a_cycle_target():
    # theta plus an isolated vertex has as many vertices as edges (5), and
    # the closed walk u a v u b v covers every edge with no backtrack: every
    # count holds but the maximum degree, and the stage is no winding.  The
    # crossing check refuses the derive, so the stage is built directly
    theta = theta_target()
    g = PlaneGraph(5, theta.edges, theta.rotation + ((),))
    phi = SimplicialMap(cycle_domain(6), g, (0, 2, 1, 0, 3, 1))
    step = derivative._derive_runs(phi)
    assert step.kprime.n == phi.domain.n and g.n == len(g.edges) == step.gprime.n == 5
    assert g.max_degree == 3
    assert not maps_isomorphic(step.source, step.map)
    assert not derivative._stabilized(step)
    # a winding of a triangle beside a second triangle leaves edges
    # uncovered, and beside an isolated vertex has |V| > |E|
    triangle = ((0, 1), (0, 2), (1, 2))
    two = PlaneGraph(6, triangle + ((3, 4), (3, 5), (4, 5)), triangle + ((3, 4), (3, 5), (4, 5)))
    lone = PlaneGraph(4, triangle, triangle + ((),))
    for g in (two, lone):
        step = derive(SimplicialMap(cycle_domain(3), g, (0, 1, 2)))
        assert step.kprime.n == 3 and step.gprime.n == 3 and g.max_degree == 2
        assert not maps_isomorphic(step.source, step.map)
        assert not derivative._stabilized(step)


def test_no_walk_stage_reaches_the_isomorphism_search(monkeypatch):
    # only a closed walk that normalizes to a doubled edge, a general
    # domain, may still ask the search
    general = Counter()

    def general_only(phi, psi):
        assert phi.domain.shape == "general", phi.domain.shape
        general[phi.domain.n, len(phi.domain.edges)] += 1
        return maps_isomorphic(phi, psi)

    monkeypatch.setattr(derivative, "maps_isomorphic", general_only)
    seen = Counter()
    for shape, judge in (("path", decide_path), ("cycle", decide_cycle)):
        for _, phi in generate(CorpusSpec(shape, tuple(TARGETS), k_max=5)):
            judge(phi)
            seen[iterate_derivative(phi, phi.domain.n).status] += 1
    assert {"stabilized", "empty-domain", "terminal", "precondition-failed"} <= set(seen)
    assert set(general) == {(2, 2)}


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
    "normalize-half-stationary-path-C5": (
        normalize_nondegenerate,
        lambda: SimplicialMap(
            path_domain(K_LARGE), cycle_target(5), tuple((i // 2) % 5 for i in range(K_LARGE))
        ),
    ),
    "derive-cycle-C5": (
        derive,
        lambda: SimplicialMap(cycle_domain(K_LARGE), cycle_target(5), tuple(i % 5 for i in range(K_LARGE))),
    ),
}


@pytest.mark.parametrize("case", sorted(LARGE_STAGES))
def test_stage_work_is_linear_at_k4000(case):
    stage, build = LARGE_STAGES[case]
    phi = build()
    start = time.perf_counter()
    stage(phi)
    assert time.perf_counter() - start < 0.5


def test_cycle_isomorphism_check_is_not_cubic():
    # the stabilization check compares a map with its derivative; it took
    # 3 s at k=250 while each candidate vertex was checked against every
    # mapped vertex
    phi = SimplicialMap(cycle_domain(250), cycle_target(250), tuple(range(250)))
    derived = derive(phi).map
    start = time.perf_counter()
    assert maps_isomorphic(phi, phi)
    assert maps_isomorphic(phi, derived)
    assert time.perf_counter() - start < 1.0


def test_identity_cycle_stabilization_is_linear_at_k2000():
    # the stabilization check recursed once per vertex and raised
    # RecursionError from C1200 up
    phi = SimplicialMap(cycle_domain(2000), cycle_target(2000), tuple(range(2000)))
    start = time.perf_counter()
    verdict = decide_cycle(phi)
    assert time.perf_counter() - start < 2.0
    assert verdict.approximable is True
    assert [e.kind for _, e in verdict.trace] == ["clean-pass"]


def test_long_path_isomorphism_check_at_k4000():
    phi = SimplicialMap(path_domain(4000), cycle_target(5), tuple(i % 5 for i in range(4000)))
    start = time.perf_counter()
    assert maps_isomorphic(phi, phi)
    assert time.perf_counter() - start < 0.5


def _reference_domain_isos(d1: DomainGraph, d2: DomainGraph) -> list[list[int]]:
    """Every vertex bijection that carries the edge multiset of d1 onto that of d2."""
    want = sorted(d2.edges)
    return sorted(
        list(p)
        for p in permutations(range(d1.n))
        if sorted(_pair(p[u], p[v]) for u, v in d1.edges) == want
    )


def _relabelled(d: DomainGraph, rng: random.Random) -> DomainGraph:
    perm = list(range(d.n))
    rng.shuffle(perm)
    edges = tuple(sorted(_pair(perm[u], perm[v]) for u, v in d.edges))
    return DomainGraph(d.n, edges)


def test_domain_isomorphisms_match_the_permutation_reference():
    rng = random.Random(4)
    domains = [path_domain(n) for n in range(1, 7)] + [cycle_domain(n) for n in range(3, 7)]
    deg3 = 0
    while deg3 < 60:
        d = random_deg3_map(TARGETS["C4"](), rng, max_vertices=6).domain
        deg3 += any(d.degree(v) == 3 for v in range(d.n))
        domains.append(d)
    # the doubled edge, the one general stage a closed walk normalizes to
    domains.append(DomainGraph(2, ((0, 1), (0, 1))))
    shapes: dict[str, int] = {}
    for d in domains:
        for e in (d, _relabelled(d, rng), path_domain(d.n)):
            got = [list(x) for x in _domain_isos(d, e)]
            assert len(got) == len({tuple(x) for x in got})
            assert sorted(got) == _reference_domain_isos(d, e)
            shapes[d.shape] = shapes.get(d.shape, 0) + bool(got)
    assert min(shapes.values()) >= 8


def _reference_plane_isos(g1: PlaneGraph, g2: PlaneGraph) -> list[list[int]]:
    """Every vertex bijection carrying edges to edges and each rotation to a cyclic shift of one."""
    out = []
    for p in permutations(range(g1.n)):
        pairs = [_pair(p[u], p[v]) for u, v in g1.edges]
        if sorted(pairs) != sorted(g2.edges):
            continue
        emap = [g2.edges.index(pair) for pair in pairs]
        ok = True
        for v in range(g1.n):
            image = [emap[e] for e in g1.rotation[v]]
            rot = list(g2.rotation[p[v]])
            shifts = [rot[i:] + rot[:i] for i in range(len(rot))] or [[]]
            ok = ok and (sorted(image) == sorted(rot) if len(rot) <= 2 else image in shifts)
        if ok:
            out.append(list(p))
    return sorted(out)


def _relabelled_plane(g: PlaneGraph, rng: random.Random) -> PlaneGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = tuple(sorted(_pair(perm[u], perm[v]) for u, v in g.edges))
    new_id = [edges.index(_pair(perm[u], perm[v])) for u, v in g.edges]
    rotation: list[tuple[int, ...]] = [()] * g.n
    for v in range(g.n):
        rotation[perm[v]] = tuple(new_id[e] for e in g.rotation[v])
    return PlaneGraph(g.n, edges, tuple(rotation))


def test_plane_isomorphisms_match_the_permutation_reference():
    rng = random.Random(5)
    found = 0
    for name in sorted(TARGETS):
        g = TARGETS[name]()
        for h in (g, mirrored(g), _relabelled_plane(g, rng), _relabelled_plane(mirrored(g), rng)):
            got = [list(x) for x in _plane_isos(g, h)]
            assert len(got) == len({tuple(x) for x in got})
            assert sorted(got) == _reference_plane_isos(g, h), name
            found += bool(got)
    assert found == 32
