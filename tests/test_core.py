"""Graph and map model: validation, parsing, and elementary operations."""

from __future__ import annotations

import pytest

from embapprox.catalog import (
    FIXTURES,
    cycle_domain,
    cycle_target,
    path_domain,
    small_targets,
    theta_target,
    winding_map,
)
from embapprox.core import (
    DomainGraph,
    PlaneGraph,
    SimplicialMap,
    closed_walk,
    contract_edge,
    format_instance,
    mirrored_map,
    normalize_nondegenerate,
    open_walk,
    parse_instance,
    zero_components,
)
from embapprox.errors import (
    DanglingIdError,
    InvariantError,
    ParseError,
    PreconditionError,
)


# --- graph invariants -------------------------------------------------------


def test_plane_graph_rejects_loops_and_parallel_edges():
    with pytest.raises(InvariantError):
        PlaneGraph(2, ((0, 0), (0, 1)), ((0, 1), (1,)))
    with pytest.raises(InvariantError):
        PlaneGraph(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))


def test_plane_graph_rotation_must_permute_incident_edges():
    # vertex 0 lists a non-incident edge
    with pytest.raises(InvariantError):
        PlaneGraph(3, ((0, 1), (1, 2)), ((1,), (0, 1), (1,)))
    # vertex 1 omits one incident edge
    with pytest.raises(InvariantError):
        PlaneGraph(3, ((0, 1), (1, 2)), ((0,), (0,), (1,)))


def test_domain_graph_shape_tag_is_checked():
    with pytest.raises(InvariantError):
        DomainGraph(3, ((0, 1), (1, 2)), "cycle")
    with pytest.raises(InvariantError):
        DomainGraph(3, ((0, 1), (0, 2), (1, 2)), "path")
    # general accepts anything, including multigraphs
    DomainGraph(2, ((0, 1), (0, 1)), "general")


def test_degrees_count_loops_twice_in_domains():
    d = DomainGraph(1, ((0, 0),), "general")
    assert d.degree(0) == 2


def test_incidence_helpers():
    g = theta_target()
    assert g.max_degree == 3
    for eid, (u, v) in enumerate(g.edges):
        assert g.other_end(eid, u) == v and g.other_end(eid, v) == u
    c = cycle_domain(4)
    assert c.is_circle() and c.shape == "cycle"
    assert not path_domain(3).is_circle()
    assert path_domain(1).shape == "path"  # a single vertex is a (trivial) path


def test_simplicial_map_images_must_span_edges():
    d = path_domain(3)
    g = small_targets()["C4"]
    with pytest.raises(InvariantError):
        SimplicialMap(d, g, (0, 2, 0))  # 0 and 2 are not adjacent in C4
    with pytest.raises(InvariantError):
        SimplicialMap(d, g, (0, 1))  # wrong arity


def test_edge_image_and_degenerate_edges():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(4), g, (0, 0, 1, 2))
    assert phi.edge_image[0] is None
    assert phi.degenerate_edges == (0,)
    assert not phi.is_nondegenerate()
    assert phi.edge_image[1] == g.edge_index[(0, 1)]
    assert winding_map(2).is_nondegenerate()
    assert winding_map(1).is_injective()
    assert not winding_map(2).is_injective()


# --- parse / format ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_format_parse_round_trip(name):
    phi = FIXTURES[name]()
    text = format_instance(phi)
    back = parse_instance(text)
    assert back.vertex_image == phi.vertex_image
    assert back.domain.edges == phi.domain.edges
    assert back.domain.shape == phi.domain.shape
    assert back.target.edges == phi.target.edges
    assert back.target.rotation == phi.target.rotation
    # formatting the re-parsed map is a fixed point
    assert format_instance(back) == text


def test_parse_rejects_unknown_section_and_bad_lines():
    with pytest.raises(ParseError):
        parse_instance("#nonsense\n")
    with pytest.raises(ParseError):
        parse_instance("#target\nedge v0\n")
    with pytest.raises(ParseError):
        parse_instance("#target\nedge a b\n#domain\nshape path\nedge 0 one\n")


def test_parse_rejects_dangling_names():
    base = (
        "#target\nedge a b\n#rotation\nrot a : a-b\nrot b : a-b\n"
        "#domain\nshape path\nedge 0 1\n#map\n0 -> a\n1 -> c\n"
    )
    with pytest.raises(DanglingIdError):
        parse_instance(base)


def test_parse_rejects_loops_in_target():
    with pytest.raises(InvariantError):
        parse_instance("#target\nedge a a\n")


def test_parse_ignores_comments_and_blank_lines():
    phi = winding_map(1)
    text = format_instance(phi)
    noisy = "% a comment\n\n" + text.replace("\n", "  % trailing\n", 1)
    assert parse_instance(noisy).vertex_image == phi.vertex_image


# --- elementary operations --------------------------------------------------


def test_contract_edge_merges_and_requires_degeneracy():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(4), g, (0, 0, 1, 2))
    out = contract_edge(phi, 0)
    assert out.domain.n == 3
    assert out.vertex_image == (0, 1, 2)
    assert out.domain.shape == "path"
    assert "+" in out.domain.name_of(0)
    with pytest.raises(PreconditionError):
        contract_edge(phi, 1)  # not degenerate
    with pytest.raises(PreconditionError):
        contract_edge(phi, 99)


def test_normalize_removes_all_degenerate_edges_and_is_idempotent():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(6), g, (0, 0, 1, 1, 2, 2))
    norm = normalize_nondegenerate(phi)
    assert norm.is_nondegenerate()
    assert norm.domain.n == 3 and norm.vertex_image == (0, 1, 2)
    again = normalize_nondegenerate(norm)
    assert again.vertex_image == norm.vertex_image
    assert again.domain.edges == norm.domain.edges


def test_normalize_constant_cycle_collapses_to_a_point():
    g = small_targets()["C3"]
    phi = SimplicialMap(cycle_domain(4), g, (1, 1, 1, 1))
    norm = normalize_nondegenerate(phi)
    assert norm.domain.n == 1 and norm.domain.edges == ()
    assert norm.vertex_image == (1,)


def test_zero_components_keeps_parallel_edges():
    g = small_targets()["C3"]
    # cycle 0-1-2-3 with images 0,0,1,1: two degenerate classes, two
    # surviving edges between them (a 2-cycle)
    phi = SimplicialMap(cycle_domain(4), g, (0, 0, 1, 1))
    out, classes = zero_components(phi)
    assert out.domain.n == 2
    assert len(out.domain.edges) == 2
    assert out.domain.edges[0] == out.domain.edges[1]
    assert len(set(classes)) == 2


def test_mirrored_map_is_an_involution_and_reverses_rotations():
    g = theta_target()
    m = g.mirrored()
    assert m.edges == g.edges
    for v in range(g.n):
        assert m.rotation[v] == tuple(reversed(g.rotation[v]))
    phi = FIXTURES["x-cross"]()
    assert mirrored_map(mirrored_map(phi)) == phi


def test_walk_extraction():
    d = path_domain(4)
    vs, es = open_walk(d, frozenset(range(4)), frozenset(range(3)))
    assert list(vs) in ([0, 1, 2, 3], [3, 2, 1, 0])
    c = cycle_domain(4)
    vs2, es2 = closed_walk(c, frozenset(range(4)), frozenset(range(4)))
    assert len(vs2) == 4 and len(es2) == 4
    with pytest.raises(PreconditionError):
        closed_walk(d, frozenset(range(4)), frozenset(range(3)))


def test_cycle_target_and_catalog_targets_are_valid():
    for name, g in small_targets().items():
        assert isinstance(g, PlaneGraph)
        assert len(g.edges) <= 6, name
    assert cycle_target(5).n == 5
    assert all(len(r) == 2 for r in cycle_target(5).rotation)
