"""Boundary circles of thickened subgraphs and the port-alternation test."""

from __future__ import annotations

import pytest

from embapprox.catalog import small_targets, theta_target
from embapprox.errors import PreconditionError
from embapprox.ribbon import BoundaryCircle, Port, alternating_ports, boundary_walks


def _circle_count(g, vs, es):
    return len(boundary_walks(g, frozenset(vs), frozenset(es)))


def test_whole_cycle_bounds_an_annulus():
    g = small_targets()["C4"]
    circles = boundary_walks(g, frozenset(range(4)), frozenset(range(4)))
    assert len(circles) == 2
    assert all(len(c.ports) == 0 for c in circles)


def test_whole_theta_has_three_boundary_circles():
    g = theta_target()
    # V - E + F = 2 for a planar embedding: F = 2 - 4 + 5 = 3
    assert _circle_count(g, range(g.n), range(len(g.edges))) == 3


def test_tree_subgraph_bounds_one_circle():
    g = theta_target()
    # a single edge plus both endpoints is a tree: one boundary circle
    (u, v) = g.edges[0]
    circles = boundary_walks(g, frozenset({u, v}), frozenset({0}))
    assert len(circles) == 1
    # every other edge-end at u or v stabs the circle once
    expected = sorted(
        Port(e, x) for x in (u, v) for e in g.rotation[x] if e != 0
    )
    assert sorted(circles[0].ports) == expected


def test_single_vertex_ports_follow_rotation():
    g = theta_target()
    circles = boundary_walks(g, frozenset({0}), frozenset())
    assert len(circles) == 1
    ports = circles[0].ports
    assert len(ports) == g.degree(0)
    order = tuple(p.edge for p in ports)
    rot = g.rotation[0]
    # some cyclic rotation of the vertex rotation
    doubled = rot + rot
    assert any(doubled[i : i + len(rot)] == order for i in range(len(rot)))


def test_isolated_vertex_is_a_degenerate_circle():
    g = small_targets()["C3"]
    circles = boundary_walks(g, frozenset({2}), frozenset())
    assert len(circles) == 1
    assert circles[0].ports and all(p.at == 2 for p in circles[0].ports)


def test_disconnected_subgraph_is_refused():
    g = small_targets()["C4"]
    with pytest.raises(PreconditionError):
        boundary_walks(g, frozenset({0, 2}), frozenset())


def test_subgraph_must_contain_edge_endpoints():
    g = small_targets()["C4"]
    with pytest.raises(PreconditionError):
        boundary_walks(g, frozenset({0}), frozenset({0}))


def test_alternating_ports_detects_alternation():
    circle = BoundaryCircle(
        corners=((0, 0),) * 4,
        ports=(Port(1, 0), Port(2, 0), Port(3, 0), Port(4, 0)),
    )
    picks = (Port(1, 0), Port(2, 0), Port(3, 0), Port(4, 0))
    assert alternating_ports(circle, frozenset({1, 3}), frozenset({2, 4})) == picks
    # the picks start at the first A port that follows a B port
    rotated = (Port(2, 0), Port(3, 0), Port(4, 0), Port(1, 0))
    assert alternating_ports(circle, frozenset({2, 4}), frozenset({1, 3})) == rotated
    assert alternating_ports(circle, frozenset({1, 2}), frozenset({3, 4})) is None
    assert alternating_ports(circle, frozenset({1, 3}), frozenset()) is None


def test_alternating_ports_ignores_unmarked_ports_and_skips_repeated_marks():
    circle = BoundaryCircle(
        corners=((0, 0),) * 6,
        ports=tuple(Port(e, 0) for e in range(6)),
    )
    # marked subword around the circle is a b a b: interleaved
    picks = (Port(0, 0), Port(2, 0), Port(3, 0), Port(5, 0))
    assert alternating_ports(circle, frozenset({0, 3}), frozenset({2, 5})) == picks
    # a a b a b b: the second a and the last b are passed over
    picks = (Port(0, 0), Port(2, 0), Port(3, 0), Port(4, 0))
    assert alternating_ports(circle, frozenset({0, 1, 3}), frozenset({2, 4, 5})) == picks


def test_boundary_circle_count_tracks_euler_formula():
    # connected subgraphs of a plane-embedded graph: circles = E - V + 2
    g = theta_target()
    cases = [
        (frozenset({0, 1}), frozenset({0})),  # one edge
        (frozenset({0, 1, 2}), frozenset({0, 1})),  # a path
        (frozenset({0, 1, 2}), frozenset({0, 1, 3})),  # a triangle
    ]
    for vs, es in cases:
        assert _circle_count(g, vs, es) == len(es) - len(vs) + 2
