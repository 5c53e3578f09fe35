"""Graph and map model: validation, parsing, and elementary operations."""

from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import fields
from itertools import permutations

import pytest
from hypothesis import given, settings

from conftest import theta_fold, walk_maps

from embapprox.catalog import (
    FIXTURES,
    TARGETS,
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
    backtrack,
    closed_walk,
    computed_once,
    contract_edge,
    format_instance,
    mirrored_map,
    normalize_nondegenerate,
    open_walk,
    parse_instance,
    zero_components,
)
from embapprox.corpus import CorpusSpec, generate
from embapprox.decide import decide_path, decide_path_via_vk
from embapprox.derivative import iterate_derivative
from embapprox.errors import (
    DanglingIdError,
    InvariantError,
    ParseError,
    PreconditionError,
)
from embapprox.oracle import is_approximable_oracle


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


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_format_parse_round_trip_into_every_catalog_target(name):
    g = TARGETS[name]()
    phi = SimplicialMap(path_domain(2), g, g.edges[-1])
    text = format_instance(phi)
    back = parse_instance(text)
    assert back.target == g
    assert format_instance(back) == text


def test_format_names_a_vertex_before_an_edge_would_name_it_out_of_order():
    # vertex 2 has no edge, and edge 0 names vertex 3 before vertex 1
    g = PlaneGraph(4, ((0, 3), (1, 3)), ((0,), (1,), (), (0, 1)), ("a", "b", "c", "d"))
    text = format_instance(SimplicialMap(path_domain(2), g, (0, 3)))
    assert text.startswith("#target\nvertex a\nvertex b\nvertex c\nedge a d\nedge b d\n#rotation\n")
    back = parse_instance(text)
    assert back.target == g
    assert format_instance(back) == text


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


def test_parse_rejects_a_negative_domain_vertex_on_a_map_line():
    # like an edge line's; it was dropped and the rest decided without it
    text = (
        "#target\nedge a b\n#rotation\nrot a : a-b\nrot b : a-b\n"
        "#domain\nshape path\nedge 0 1\n#map\n0 -> a\n1 -> b\n-1 -> a\n"
    )
    with pytest.raises(ParseError, match="line 12, col 1: domain vertex ids must be non-negative"):
        parse_instance(text)


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


def _reference_walk(d: DomainGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    every = (frozenset(range(d.n)), frozenset(range(len(d.edges))))
    vs, es = (open_walk if d.shape == "path" else closed_walk)(d, *every)
    return tuple(vs), tuple(es)


def _assert_stage_walks_match(phi: SimplicialMap, walks: dict[str, int]) -> None:
    """DomainGraph.walk equals the reference walk on every path or cycle stage of phi."""
    for m in (phi, *iterate_derivative(phi, phi.domain.n + 1).maps):
        d = m.domain
        if d.shape in walks:
            assert d.walk == _reference_walk(d), (d.n, d.edges)
            walks[d.shape] += 1


def test_walk_is_the_reference_walk_on_every_stage_of_the_small_corpora():
    walks = {"path": 0, "cycle": 0}
    for shape in ("path", "cycle"):
        spec = CorpusSpec(shape, tuple(small_targets()), k_min=3 if shape == "cycle" else 1, k_max=6)
        for _, phi in generate(spec):
            _assert_stage_walks_match(phi, walks)
    assert min(walks.values()) > 10000


@settings(max_examples=60, deadline=None, derandomize=True)
@given(walk_maps(k_max=40))
def test_walk_is_the_reference_walk_on_every_stage_of_random_walks(phi):
    _assert_stage_walks_match(phi, {"path": 0, "cycle": 0})


def test_walk_is_only_defined_on_paths_and_cycles():
    assert path_domain(1).walk == ((0,), ())
    with pytest.raises(PreconditionError):
        DomainGraph(2, ((0, 1), (0, 1)), "general").walk


def test_cycle_target_and_catalog_targets_are_valid():
    for name, g in small_targets().items():
        assert isinstance(g, PlaneGraph)
        assert len(g.edges) <= 6, name
    assert cycle_target(5).n == 5
    assert all(len(r) == 2 for r in cycle_target(5).rotation)


# --- values computed once ---------------------------------------------------

COMPUTED_ONCE = {
    PlaneGraph: (
        "edge_index", "incident", "max_degree", "crossing_memo", "derived_memo", "decide_memo",
        "obstruction_memo",
    ),
    DomainGraph: ("incident", "walk"),
    SimplicialMap: ("degenerate_edges", "witness_memo", "normalized"),
}


def _theta_fold_with_a_stay() -> SimplicialMap:
    """theta_fold(16) with its first vertex doubled, so one edge is degenerate."""
    fold = theta_fold(16)
    return SimplicialMap(path_domain(17), fold.target, fold.vertex_image[:1] + fold.vertex_image)


def test_values_computed_once_stay_out_of_equality_hash_repr_and_fields():
    phi = _theta_fold_with_a_stay()
    verdict = decide_path(phi)
    vk_verdict = decide_path_via_vk(phi)
    # the fold's image never branches, so its stages test no image pair; the
    # path a v b u v b u into the same target fills crossing_memo
    branched = SimplicialMap(path_domain(7), phi.target, (2, 1, 3, 0, 1, 3, 0))
    assert decide_path(branched).approximable
    objects = {PlaneGraph: phi.target, DomainGraph: phi.domain, SimplicialMap: phi}
    for cls, names in COMPUTED_ONCE.items():
        assert not set(names) & {f.name for f in fields(cls)}
        for name in names:
            assert isinstance(vars(cls)[name], computed_once)
            value = getattr(objects[cls], name)
            assert getattr(objects[cls], name) is value
    target = phi.target
    assert target.crossing_memo and target.derived_memo and target.decide_memo
    assert target.obstruction_memo and phi.normalized.witness_memo
    fresh = _theta_fold_with_a_stay()
    # only the fields are pickled, so no memo and no normalized map travels with a copy
    assert pickle.dumps(phi) == pickle.dumps(fresh)
    pickled = pickle.loads(pickle.dumps(phi))
    assert pickled.witness_memo == {}
    for name in ("crossing_memo", "derived_memo", "decide_memo", "obstruction_memo"):
        assert getattr(pickled.target, name) == {}
    assert pickled.normalized == phi.normalized and pickled.normalized is not phi.normalized
    for other in (fresh, pickled):
        pairs = ((phi.target, other.target), (phi.domain, other.domain), (phi, other))
        for filled, same in pairs:
            assert filled == same and hash(filled) == hash(same)
            assert repr(filled) == repr(same)
    assert decide_path(pickled) == decide_path(fresh) == verdict
    assert decide_path_via_vk(pickled) == decide_path_via_vk(fresh) == vk_verdict


def test_a_degenerate_map_keeps_its_normalization_and_a_nondegenerate_one_is_its_own():
    phi = _theta_fold_with_a_stay()
    normal = normalize_nondegenerate(phi)
    assert normalize_nondegenerate(phi) is normal is phi.normalized
    assert normalize_nondegenerate(normal) is normal
    with pytest.raises(PreconditionError):
        normal.normalized
    # with the cyclic collector off, dropping the last reference frees a
    # decided map: nothing that the decide routes and the oracle keep on maps
    # and targets refers back to it, and no call leaves a reference cycle
    gc.disable()
    try:
        for make in (theta_fold, lambda k: SimplicialMap(path_domain(k), theta_target(), (0,) * k)):
            phi = make(16)
            for route in (decide_path, decide_path_via_vk, is_approximable_oracle):
                route(phi)
            refs = [weakref.ref(phi), weakref.ref(normalize_nondegenerate(phi))]
            del phi
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_backtrack_yields_injective_assignments_in_candidate_order():
    vmap, inverse = [-1] * 3, [-1] * 3
    unset_on_resume = []

    def candidates(key):
        for w in range(3):
            if inverse[w] < 0:
                yield w
                # callers undo their own bookkeeping here, after the value is unset
                unset_on_resume.append(vmap[key] == inverse[w] == -1)

    found = list(backtrack([0, 1, 2], candidates, lambda: True, vmap, inverse))
    assert found == [list(p) for p in permutations(range(3))]
    assert unset_on_resume and all(unset_on_resume)
    assert vmap == inverse == [-1] * 3
    assert list(backtrack([1, 0, 2], candidates, lambda: vmap[1] == 2, vmap, inverse)) == [
        [0, 2, 1],
        [1, 2, 0],
    ]
    assert list(backtrack([], candidates, lambda: True, [], [])) == [[]]
    assert list(backtrack([], candidates, lambda: False, [], [])) == []
