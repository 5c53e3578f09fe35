"""Transversal crossing detection between arc images inside vertex discs."""

from __future__ import annotations

import random

import pytest

from conftest import random_walk_map, theta_fold

from embapprox import transversal
from embapprox.catalog import (
    TARGETS,
    euler_cycle_map,
    euler_path_map,
    ex33_pair,
    fiveod_target,
    path_domain,
    small_targets,
    whole_fold,
    winding_map,
    x_cross_path,
)
from embapprox.core import DomainGraph, SimplicialMap, WalkArc, closed_walk, normalize_nondegenerate
from embapprox.corpus import CorpusSpec, generate
from embapprox.decide import decide_path
from embapprox.derivative import iterate_derivative
from embapprox.errors import PreconditionError
from embapprox.ribbon import interleaves
from embapprox.transversal import (
    CrossingWitness,
    contains_simple_triod,
    find_crossing_pair,
    has_transversal_self_intersection,
    identifies_triods,
    images_cross,
)


def test_x_cross_path_has_a_transversal_self_intersection():
    phi = x_cross_path()
    wit = has_transversal_self_intersection(phi)
    assert wit is not None
    assert wit.kind == "interleaved"
    assert set(wit.arc_p.vertices).isdisjoint(wit.arc_q.vertices)
    # the witness images really do cross
    a = phi.arc_image(wit.arc_p)
    b = phi.arc_image(wit.arc_q)
    assert images_cross(phi.target, a, b) is True


def test_witness_matches_predicate_alias():
    phi = x_cross_path()
    assert has_transversal_self_intersection(phi) == find_crossing_pair(
        phi, disjoint_only=True
    )


def test_clean_catalog_maps_have_no_crossing():
    for phi in (euler_cycle_map(), euler_path_map(), whole_fold(), winding_map(3)):
        assert find_crossing_pair(phi, disjoint_only=False) is None


def test_targets_of_maximum_degree_two_never_cross():
    g = small_targets()["C4"]
    # an aggressive back-and-forth walk still cannot cross inside a circle
    phi = SimplicialMap(path_domain(7), g, (0, 1, 0, 1, 2, 1, 0))
    assert find_crossing_pair(phi, disjoint_only=False) is None


def test_disjoint_only_flag_separates_the_two_conditions():
    # this map's only crossing arcs share a domain vertex, so the
    # self-intersection predicate stays quiet while the stronger any-two-arcs
    # check used by the derivative guard fires
    _, psi = ex33_pair()
    assert find_crossing_pair(psi, disjoint_only=True) is None
    wit = find_crossing_pair(psi, disjoint_only=False)
    assert wit is not None
    assert set(wit.arc_p.vertices) & set(wit.arc_q.vertices)


def test_degenerate_maps_are_refused():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(3), g, (0, 0, 1))
    with pytest.raises(PreconditionError):
        find_crossing_pair(phi, disjoint_only=True)


def test_images_cross_is_symmetric_and_false_on_disjoint():
    phi = x_cross_path()
    wit = has_transversal_self_intersection(phi)
    a = phi.arc_image(wit.arc_p)
    b = phi.arc_image(wit.arc_q)
    assert images_cross(phi.target, a, b) == images_cross(phi.target, b, a)
    g = small_targets()["C6"]
    one = (frozenset({0, 1}), frozenset({g.edge_index[(0, 1)]}))
    other = (frozenset({3, 4}), frozenset({g.edge_index[(3, 4)]}))
    assert images_cross(g, one, other) is False


def test_simple_triod_detection():
    star3 = DomainGraph(4, ((0, 1), (0, 2), (0, 3)), "general")
    g = fiveod_target()
    center = max(range(g.n), key=g.degree)
    leaves = [g.other_end(e, center) for e in g.incident[center]]
    phi = SimplicialMap(star3, g, (center, leaves[0], leaves[1], leaves[2]))
    assert contains_simple_triod(phi) is True
    assert identifies_triods(phi) is False  # only one triod present
    # paths never contain triods
    assert contains_simple_triod(x_cross_path()) is False


def test_identified_triods_need_disjoint_supports_and_equal_images():
    g = fiveod_target()
    center = max(range(g.n), key=g.degree)
    leaves = [g.other_end(e, center) for e in g.incident[center]]
    # two disjoint 3-stars with identical image stars
    two = DomainGraph(
        8, ((0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)), "general"
    )
    images = (center, leaves[0], leaves[1], leaves[2]) * 2
    phi = SimplicialMap(two, g, images)
    assert identifies_triods(phi) is True
    # same image stars but sharing the branch vertex: not disjoint
    shared = DomainGraph(7, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)), "general")
    phi2 = SimplicialMap(
        shared, g, (center, leaves[0], leaves[1], leaves[2], leaves[0], leaves[1], leaves[2])
    )
    assert identifies_triods(phi2) is False


def test_crossing_results_are_memoized_on_the_target(monkeypatch):
    engine = transversal._crossing_component
    calls = []

    def counted(g, a, b):
        calls.append((a, b))
        return engine(g, a, b)

    monkeypatch.setattr(transversal, "_crossing_component", counted)
    phi = x_cross_path()
    wit = find_crossing_pair(phi, disjoint_only=True)
    assert calls and len(calls) == len(set(calls))
    # a second map into the same target object reuses every result
    n = len(calls)
    again = SimplicialMap(phi.domain, phi.target, phi.vertex_image)
    assert find_crossing_pair(again, disjoint_only=True) == wit
    assert len(calls) == n
    # an equal but separately built target starts with its own empty memo
    fresh = x_cross_path()
    assert fresh.target == phi.target and not fresh.target.crossing_memo
    assert find_crossing_pair(fresh, disjoint_only=True) == wit
    assert len(calls) == 2 * n


def test_each_derivative_stage_enumerates_its_arcs_once(monkeypatch):
    phi = theta_fold(32)
    # the search enumerates arcs only on stages whose target has a vertex of
    # degree 3 or more; arcs in a target of maximum degree 2 cannot cross
    # (computed on a copy: the stage maps keep their witnesses memoized)
    stages = iterate_derivative(theta_fold(32), max_steps=phi.domain.n).maps
    branching = [m for m in stages if m.target.max_degree > 2]
    enumerate_arcs = transversal._domain_arcs
    scanned = []

    def counted(phi):
        scanned.append(phi)
        return enumerate_arcs(phi)

    monkeypatch.setattr(transversal, "_domain_arcs", counted)
    verdict = decide_path(phi)
    assert verdict.approximable is True
    assert [e.kind for _, e in verdict.trace] == ["clean-pass"] * 5 + ["empty-domain"]
    # each of those stages asks for the disjoint and then the any-pair witness
    assert len(stages) == 6 and len(branching) >= 1
    assert [m.target for m in scanned] == [m.target for m in branching]


def test_cycle_arcs_are_the_proper_cyclic_subwalks():
    rng = random.Random(5)
    checked = 0
    for k in range(3, 15):
        phi = normalize_nondegenerate(random_walk_map(rng, TARGETS["W4"](), k, closed=True))
        if phi.domain.shape != "cycle":
            continue
        checked += 1
        d = phi.domain
        order, eids = closed_walk(d, frozenset(range(d.n)), frozenset(range(len(d.edges))))
        m = len(order)
        want = [
            WalkArc(
                tuple(order[(s + t) % m] for t in range(length + 1)),
                tuple(eids[(s + t) % m] for t in range(length)),
            )
            for s in range(m)
            for length in range(1, m)
        ]
        arcs = transversal._domain_arcs(phi)
        assert [arc for arc, _ in arcs] == want
        assert all(image == phi.arc_image(arc) for arc, image in arcs)
    assert checked >= 5


def _reference_scan(phi: SimplicialMap, disjoint_only: bool) -> CrossingWitness | None:
    """The plain scan: every arc pair in enumeration order, images from arc_image."""
    g = phi.target
    arcs = [arc for arc, _ in transversal._domain_arcs(phi)]
    images = [phi.arc_image(arc) for arc in arcs]
    tested = {}
    for i in range(len(arcs)):
        vi = set(arcs[i].vertices)
        for j in range(i + 1, len(arcs)):
            if disjoint_only and not vi.isdisjoint(arcs[j].vertices):
                continue
            a, b = images[i], images[j]
            key_a = (tuple(sorted(a[0])), tuple(sorted(a[1])))
            key_b = (tuple(sorted(b[0])), tuple(sorted(b[1])))
            pair = (a, b) if key_a <= key_b else (b, a)
            if pair not in tested:
                tested[pair] = transversal._crossing_component(g, *pair)
            if tested[pair] is not None:
                return CrossingWitness(arcs[i], arcs[j], *tested[pair])
    return None


def _witness_maps() -> list[SimplicialMap]:
    """Seeded walks into theta, W4 and ex33 (k = 6..14) and two catalog crossings."""
    rng = random.Random(2)
    maps = [x_cross_path(), ex33_pair()[1]]
    for name in ("theta", "W4", "ex33"):
        g = TARGETS[name]()
        for _ in range(40):
            closed = rng.random() < 0.5
            maps.append(random_walk_map(rng, g, rng.randint(6, 14), closed))
    return [psi for psi in map(normalize_nondegenerate, maps) if psi.domain.edges]


def test_grouped_search_returns_the_reference_witness():
    found = {True: 0, False: 0}
    for phi in _witness_maps():
        for disjoint_only in (True, False):
            want = _reference_scan(phi, disjoint_only)
            assert find_crossing_pair(phi, disjoint_only) == want
            found[disjoint_only] += want is not None
    assert min(found.values()) >= 5


def test_alternating_ports_agrees_with_interleaves(monkeypatch):
    engine = transversal._alternating_ports
    outcomes = set()

    def checked(circle, a_edges, b_edges):
        picks = engine(circle, a_edges, b_edges)
        a_ports = frozenset(p for p in circle.ports if p.edge in a_edges)
        b_ports = frozenset(p for p in circle.ports if p.edge in b_edges)
        assert (picks is not None) == interleaves(circle, a_ports, b_ports)
        outcomes.add(picks is not None)
        return picks

    monkeypatch.setattr(transversal, "_alternating_ports", checked)
    # the k <= 5 corpora reach no alternating circle on these targets; the
    # seeded walks do
    maps = _witness_maps()
    for shape in ("path", "cycle"):
        for _, phi in generate(CorpusSpec(shape, ("theta", "W4", "ex33"), k_max=5)):
            psi = normalize_nondegenerate(phi)
            if psi.domain.edges:
                maps.append(psi)
    for phi in maps:
        find_crossing_pair(phi, disjoint_only=True)
    assert outcomes == {True, False}
