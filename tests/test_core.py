"""Graph and map model: validation, parsing, and elementary operations."""

from __future__ import annotations

import gc
import pickle
import random
import weakref
from dataclasses import fields
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    contract_edge,
    ints_and_tuples,
    mirrored,
    mirrored_map,
    reference_components,
    reference_walk,
    reference_zero_components,
    relabelled,
    theta_fold,
    walk_maps,
)

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
    _pair,
    backtrack,
    classes,
    computed_once,
    format_instance,
    normalize_nondegenerate,
    parse_instance,
    simple_walk,
    zero_components,
)
from embapprox.corpus import CorpusSpec, generate, random_deg3_map
from embapprox.decide import decide_path, decide_path_via_vk
from embapprox.derivative import iterate_derivative
from embapprox.errors import (
    DanglingIdError,
    EmbapproxError,
    InvariantError,
    ParseError,
    PreconditionError,
)
from embapprox.oracle import is_approximable_oracle, oracle_result


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


def _domain_text(shape: str, n: int, edges: tuple[tuple[int, int], ...]) -> str:
    """An instance with this shape line and domain, every domain vertex onto one target vertex."""
    lines = ["#target", "edge a b", "#rotation", "rot a : a-b", "rot b : a-b", "#domain"]
    lines += [f"shape {shape}", *(f"edge {u} {v}" for u, v in edges), "#map"]
    lines += [f"{v} -> a" for v in range(n)]
    return "\n".join(lines) + "\n"


def test_domain_graph_shape_tag_is_checked():
    # a file's shape line: path and cycle must be the structure's shape
    with pytest.raises(InvariantError):
        parse_instance(_domain_text("cycle", 3, ((0, 1), (1, 2))))
    with pytest.raises(InvariantError):
        parse_instance(_domain_text("path", 3, ((0, 1), (0, 2), (1, 2))))
    # general accepts anything, including multigraphs
    doubled = parse_instance(_domain_text("general", 2, ((0, 1), (0, 1))))
    assert doubled.domain.shape == "general"


def test_a_general_shape_line_takes_the_structure_shape():
    path = parse_instance(_domain_text("general", 3, ((1, 2), (0, 1))))
    assert path.domain.shape == "path" and path.domain.walk == ((0, 1, 2), (1, 0))
    cycle = parse_instance(_domain_text("general", 3, ((0, 1), (0, 2), (1, 2))))
    assert cycle.domain.shape == "cycle" and cycle.domain.walk == ((0, 1, 2), (0, 2, 1))
    # the file written back names the structure's shape
    assert "\nshape path\n" in format_instance(path)
    assert "\nshape cycle\n" in format_instance(cycle)


def test_a_path_shape_line_on_a_cycle_still_raises():
    with pytest.raises(InvariantError) as caught:
        parse_instance(_domain_text("path", 4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    assert str(caught.value) == "shape: structure is not a simple path"


def test_a_pickled_domain_keeps_its_shape_and_walk():
    # only the fields travel, so the copy reads its shape and walk again
    square = DomainGraph(4, ((0, 2), (0, 3), (1, 2), (1, 3)))  # walked 0 2 1 3
    for d in (path_domain(1), path_domain(5), cycle_domain(6), square):
        copy = pickle.loads(pickle.dumps(d))
        assert d.__getstate__() == (d.n, d.edges)
        assert copy.walk == d.walk == simple_walk(d.n, d.edges)
        assert copy.shape == d.shape != "general"
    for d in (DomainGraph(2, ((0, 1), (0, 1))), DomainGraph(0, ()), DomainGraph(1, ((0, 0),))):
        copy = pickle.loads(pickle.dumps(d))
        assert copy.shape == d.shape == "general"
        with pytest.raises(PreconditionError):
            copy.walk


def test_degrees_count_loops_twice_in_domains():
    d = DomainGraph(1, ((0, 0),))
    assert d.degree(0) == 2


def test_incidence_helpers():
    g = theta_target()
    assert g.max_degree == 3
    for eid, (u, v) in enumerate(g.edges):
        assert g.other_end(eid, u) == v and g.other_end(eid, v) == u
    assert cycle_domain(4).shape == "cycle"
    assert path_domain(3).shape == "path"
    assert path_domain(1).shape == "path"  # a single vertex is a (trivial) path


def test_classes_on_hand_cases():
    assert classes(0, []) == ([], 0)
    assert classes(3, []) == ([0, 1, 2], 3)
    # repeated pairs, both orders of one pair and loops join nothing more
    assert classes(5, [(2, 2), (3, 1), (1, 3), (1, 3), (0, 0)]) == ([0, 1, 2, 1, 3], 4)
    # a later pair lowers the root of a class already joined
    assert classes(5, [(3, 4), (1, 4), (0, 2)]) == ([0, 1, 0, 1, 1], 2)
    assert classes(4, iter([(0, 3), (3, 2)])) == ([0, 1, 0, 0], 2)


@st.composite
def _general_domains(draw):
    """Domains of up to 64 vertices with loops, parallel edges and isolated vertices."""
    n = draw(st.integers(0, 64))
    if n == 0:
        return DomainGraph(0, ())
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=n + 8))
    pairs += draw(st.lists(ends.map(lambda v: (v, v)), max_size=3))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    order = draw(st.permutations(range(len(pairs))))
    return DomainGraph(n, tuple(_pair(*pairs[i]) for i in order))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_general_domains())
def test_domain_components_match_a_depth_first_search(d):
    # equal lists: the same vertex and edge sets, ordered by smallest vertex
    expected = reference_components(d)
    assert d.components() == expected
    circle = (
        len(expected) == 1 and len(d.edges) >= 1 and all(d.degree(v) == 2 for v in range(d.n))
    )
    # a circle has the shape cycle unless it is a loop or the doubled edge
    loop_or_doubled = (d.n, d.edges) in ((1, ((0, 0),)), (2, ((0, 1), (0, 1))))
    assert circle == (d.shape == "cycle" or loop_or_doubled)


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


def test_is_nondegenerate_exactly_when_no_edge_is_degenerate():
    # is_nondegenerate reads the edge images; degenerate_edges lists them
    # again on every read and is stored nowhere
    assert isinstance(vars(SimplicialMap)["degenerate_edges"], property)
    seen = {True: 0, False: 0}
    for shape in ("path", "cycle"):
        for _, phi in generate(CorpusSpec(shape, tuple(TARGETS), k_max=5)):
            assert phi.is_nondegenerate() == (phi.degenerate_edges == ())
            seen[phi.is_nondegenerate()] += 1
    rng = random.Random(7)
    names = sorted(TARGETS)
    for i in range(300):
        phi = random_deg3_map(TARGETS[names[i % len(names)]](), rng)
        assert phi.is_nondegenerate() == (phi.degenerate_edges == ())
        seen[phi.is_nondegenerate()] += 1
    assert min(seen.values()) > 1000


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


_TARGET = "#target\nedge a b\nedge b c\nedge a c\n"  # lines 1-4
_ROTATION = "#rotation\nrot a : a-b a-c\nrot b : a-b b-c\nrot c : a-c b-c\n"  # lines 5-8
_DOMAIN = "#domain\nshape path\nedge 0 1\nedge 1 2\n"  # lines 9-12
_MAP = "#map\n0 -> a\n1 -> b\n2 -> c\n"  # lines 13-16
_VALID = _TARGET + _ROTATION + _DOMAIN + _MAP

# (text, exception type, message, line) for every raise site reachable
# from parse_instance; line is None where the error carries none
PARSE_ERRORS = [
    ("#nonsense\n", ParseError, "unknown section 'nonsense'", 1),
    ("edge a b\n", ParseError, "content before any section header", 1),
    ("#target\nedge v0\n", ParseError, "expected 'edge u v' or 'vertex v'", 2),
    ("#target\nvertex\n", ParseError, "expected 'edge u v' or 'vertex v'", 2),
    ("#target\nedge a a\n", InvariantError, "simple-target: line 2: loop at a", None),
    (_TARGET + "#rotation\nrot a a-b\n", ParseError, "expected 'rot v : e1 e2 ...'", 6),
    (_TARGET + "#rotation\nrot z : a-b\n", DanglingIdError, "rotation for unknown vertex 'z'", 6),
    ("#domain\nshape blob\n", ParseError, "expected 'shape path|cycle|general'", 2),
    ("#domain\nshape\n", ParseError, "expected 'shape path|cycle|general'", 2),
    ("#domain\nedge 0\n", ParseError, "expected 'edge u v'", 2),
    ("#domain\nedge 0 one\n", ParseError, "domain vertex ids must be integers", 2),
    ("#domain\nedge 0 -1\n", ParseError, "domain vertex ids must be non-negative", 2),
    ("#domain\nvertex 0\n", ParseError, "expected 'shape ...' or 'edge u v'", 2),
    (_TARGET + "#map\n0 a\n", ParseError, "expected 'dv -> tv'", 6),
    (_TARGET + "#map\nx -> a\n", ParseError, "domain vertex ids must be integers", 6),
    (_TARGET + "#map\n-1 -> a\n", ParseError, "domain vertex ids must be non-negative", 6),
    (_TARGET + "#map\n0 -> z\n", DanglingIdError, "map targets unknown vertex 'z'", 6),
    (_TARGET + "#map\n0 -> a\n0 -> b\n", ParseError, "duplicate map line for vertex 0", 7),
    (
        _TARGET + _ROTATION + "#domain\nedge 0 1\nedge 1 2\n" + _MAP,
        ParseError,
        "missing 'shape' line in #domain",
        15,
    ),
    (
        "#target\nedge a b\nedge b a\n" + _DOMAIN,
        InvariantError,
        "simple-target: line 3: parallel edge",
        None,
    ),
    (
        _VALID.replace("rot a : a-b a-c", "rot a : ab a-c"),
        ParseError,
        "edge name 'ab' is not of the form u-v",
        6,
    ),
    (
        _VALID.replace("rot a : a-b a-c", "rot a : a-b a-z"),
        DanglingIdError,
        "edge name 'a-z' references unknown vertex z",
        6,
    ),
    (
        _VALID.replace("rot a : a-b a-c", "rot a : b-a a-c"),
        ParseError,
        "edge name 'b-a' must list the smaller vertex first",
        6,
    ),
    (
        _VALID.replace("edge a c\n", "").replace("rot c : a-c b-c", "rot c : b-c"),
        DanglingIdError,
        "rotation references unknown edge 'a-c'",
        5,
    ),
    (
        _VALID.replace("rot b : a-b b-c", "rot a : a-b a-c"),
        ParseError,
        "duplicate rotation for vertex 'a'",
        7,
    ),
    (
        _VALID.replace("rot c : a-c b-c\n", ""),
        ParseError,
        "missing rotation line for target vertex 'c'",
        1,
    ),
    (_TARGET + _ROTATION + "#domain\nshape path\n", ParseError, "empty domain", 1),
    (
        _VALID.replace("1 -> b\n", ""),
        DanglingIdError,
        "domain vertex 1 has no map line",
        1,
    ),
    (
        _VALID.replace("rot a : a-b a-c", "rot a : a-b"),
        InvariantError,
        "rotation-cover: rotation at vertex 'a' must list each incident edge exactly once",
        None,
    ),
    (
        _VALID.replace("shape path", "shape cycle"),
        InvariantError,
        "shape: structure is not a simple cycle",
        None,
    ),
    (
        _VALID.replace("edge a c\n", "")
        .replace("rot a : a-b a-c", "rot a : a-b")
        .replace("rot c : a-c b-c", "rot c : b-c")
        .replace("1 -> b", "1 -> c"),
        InvariantError,
        "simplicial: domain edge 0 (0,1) maps to non-adjacent pair (0,2)",
        None,
    ),
]


@pytest.mark.parametrize("text, kind, message, line", PARSE_ERRORS)
def test_parse_errors_keep_their_type_message_and_line(text, kind, message, line):
    with pytest.raises(EmbapproxError) as caught:
        parse_instance(text)
    exc = caught.value
    assert type(exc) is kind
    if line is None:
        assert str(exc) == message
    else:
        assert str(exc) == f"line {line}, col 1: {message}"
        assert exc.line == line


def test_parse_rejects_a_second_shape_line():
    # a second shape line used to override the first, so this parsed as a path
    text = _VALID.replace("shape path\n", "shape cycle\nshape path\n")
    with pytest.raises(ParseError) as caught:
        parse_instance(text)
    assert type(caught.value) is ParseError
    assert str(caught.value) == "line 11, col 1: duplicate 'shape' line in #domain"
    assert caught.value.line == 11


def test_parse_error_table_is_anchored_on_a_valid_instance():
    phi = parse_instance(_VALID)
    assert phi.vertex_image == (0, 1, 2)
    assert parse_instance("% header\n" + _VALID.replace("\n", " % note\n")) == phi


def test_parse_ignores_comments_and_blank_lines():
    phi = winding_map(1)
    text = format_instance(phi)
    noisy = "% a comment\n\n" + text.replace("\n", "  % trailing\n", 1)
    assert parse_instance(noisy).vertex_image == phi.vertex_image


# --- elementary operations --------------------------------------------------


def test_contract_edge_merges_and_requires_degeneracy():
    g = small_targets()["C4"]
    phi = SimplicialMap(path_domain(4), g, (0, 0, 1, 2))
    out, member = contract_edge(phi, 0)
    assert out.domain.n == 3
    assert out.vertex_image == (0, 1, 2)
    assert out.domain.shape == "path"
    assert member == (0, 0, 1, 2)
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
    m = mirrored(g)
    assert m.edges == g.edges
    for v in range(g.n):
        assert m.rotation[v] == tuple(reversed(g.rotation[v]))
    phi = FIXTURES["x-cross"]()
    assert mirrored_map(mirrored_map(phi)) == phi


def test_walk_extraction():
    assert simple_walk(4, path_domain(4).edges) == ((0, 1, 2, 3), (0, 1, 2))
    c = cycle_domain(4)  # edges (0,1) (0,3) (1,2) (2,3)
    assert simple_walk(4, c.edges) == ((0, 1, 2, 3), (0, 2, 3, 1)) == c.walk
    assert simple_walk(1, ()) == ((0,), ())
    # two parallel edges, a loop, a path plus an isolated vertex, two triangles
    assert simple_walk(2, ((0, 1), (0, 1))) is None
    assert simple_walk(1, ((0, 0),)) is None
    assert simple_walk(3, ((1, 2),)) is None
    assert simple_walk(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))) is None


def _assert_stage_walks_match(phi: SimplicialMap, walks: dict[str, int]) -> None:
    """DomainGraph.walk equals the reference walk on every path or cycle stage of phi."""
    for m in (phi, *iterate_derivative(phi, phi.domain.n + 1).maps):
        d = m.domain
        if d.shape in walks:
            assert d.walk == reference_walk(d), (d.n, d.edges)
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
        DomainGraph(2, ((0, 1), (0, 1))).walk


def test_quotients_and_stage_maps_equal_validated_ones():
    # _quotient and derivative stages build their maps unchecked
    built = 0
    for shape in ("path", "cycle"):
        for _, phi in generate(CorpusSpec(shape, tuple(TARGETS), k_max=5)):
            maps = [zero_components(phi)[0], *iterate_derivative(phi, phi.domain.n + 1).maps]
            for m in maps:
                checked = SimplicialMap(m.domain, m.target, m.vertex_image)
                assert m == checked and m.edge_image == checked.edge_image
                built += 1
    assert built > 30000


def _assert_quotient_pinned(phi: SimplicialMap) -> str:
    """The quotient of a degenerate phi has its structure's shape and classes by smallest vertex.

    The classes come from a DFS over the degenerate edges, started at each
    vertex in increasing order, so each class is numbered by its smallest
    vertex, and `zero_components` gives each vertex that class.  Returns the
    quotient's shape.
    """
    d = phi.domain
    adjacent: list[list[int]] = [[] for _ in range(d.n)]
    for eid in phi.degenerate_edges:
        u, v = d.edges[eid]
        adjacent[u].append(v)
        adjacent[v].append(u)
    root = [-1] * d.n
    for s in range(d.n):
        if root[s] < 0:
            root[s], stack = s, [s]
            while stack:
                for y in adjacent[stack.pop()]:
                    if root[y] < 0:
                        root[y] = s
                        stack.append(y)
    number = {r: i for i, r in enumerate(dict.fromkeys(root))}
    q = normalize_nondegenerate(phi)
    assert zero_components(phi) == (q, tuple(number[r] for r in root))
    assert q.vertex_image == tuple(phi.vertex_image[r] for r in number)
    assert q.domain.shape == DomainGraph(q.domain.n, q.domain.edges).shape
    return q.domain.shape


def test_quotient_shapes_and_numbering_over_the_k6_corpora():
    # a cycle tagged "general" would pass validation, so the tag is compared
    # with the structure's shape directly
    shapes: dict[tuple[str, str], int] = {}
    for shape in ("path", "cycle"):
        for _, phi in generate(CorpusSpec(shape, tuple(TARGETS), k_max=6)):
            if not phi.is_nondegenerate():
                key = (shape, _assert_quotient_pinned(phi))
                shapes[key] = shapes.get(key, 0) + 1
    # a constant closed walk collapses to a point, which is a path
    assert set(shapes) == {
        ("path", "path"), ("cycle", "cycle"), ("cycle", "general"), ("cycle", "path")
    }
    assert min(shapes.values()) > 100


@st.composite
def _run_walks(draw):
    """Walks of k <= 64 vertices into a catalog target, made of runs of one image.

    One or two runs collapse the walk to one or two classes.  A closed walk
    is rotated by a random shift, so it may start and end inside one run:
    then its first and last steps both stay put and its last class wraps
    into its first.
    """
    g = TARGETS[draw(st.sampled_from(sorted(TARGETS)))]()
    k = draw(st.integers(1, 64))
    runs = draw(st.sampled_from(("any", "one", "two")))
    if runs == "any":
        moves = [draw(st.booleans()) for _ in range(k - 1)]
    else:
        cut = draw(st.integers(1, k - 1)) if runs == "two" and k > 1 else 0
        moves = [i + 1 == cut for i in range(k - 1)]
    images = [draw(st.integers(0, g.n - 1))]
    for move in moves:
        v = images[-1]
        if move:
            at = g.rotation[v]
            v = g.other_end(at[draw(st.integers(0, len(at) - 1))], v)
        images.append(v)
    u, v = images[-1], images[0]
    closed = k >= 3 and draw(st.integers(0, 3)) > 0
    if closed and (u == v or _pair(u, v) in g.edge_index):
        shift = draw(st.integers(0, k - 1))
        return SimplicialMap(cycle_domain(k), g, tuple(images[shift:] + images[:shift]))
    return SimplicialMap(path_domain(k), g, tuple(images))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_run_walks())
def test_quotient_shapes_and_numbering_on_random_run_walks(phi):
    if not phi.is_nondegenerate():
        _assert_quotient_pinned(phi)


def _quotient_fields(q: SimplicialMap, member: tuple[int, ...]) -> tuple:
    d = q.domain
    walk = d.walk if d.shape != "general" else None
    return (d.n, d.edges, d.shape, walk, q.vertex_image, q.edge_image, member)


def _assert_collapse_is_the_reference(phi: SimplicialMap) -> tuple:
    got = _quotient_fields(*zero_components(phi))
    assert got == _quotient_fields(*reference_zero_components(phi)), phi
    return got


@st.composite
def _relabelled_run_walks(draw):
    """`_run_walks` with its vertex ids and its edge ids each permuted at random."""
    phi = draw(_run_walks())
    d = phi.domain
    vertex_ids = draw(st.permutations(range(d.n)))
    edge_order = draw(st.permutations(range(len(d.edges))))
    return relabelled(phi, vertex_ids, edge_order)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_relabelled_run_walks())
def test_walk_collapse_is_the_union_find_quotient_on_relabelled_walks(phi):
    # the walk visits the ids in no particular order, so classes are runs of
    # the walk numbered by smallest vertex
    _assert_collapse_is_the_reference(phi)


def test_walk_collapse_is_the_union_find_quotient_on_hand_cases():
    c3 = small_targets()["C3"]
    # every edge degenerate: one class, a point
    point = SimplicialMap(cycle_domain(4), c3, (1, 1, 1, 1))
    assert _assert_collapse_is_the_reference(point) == (
        1, (), "path", ((0,), ()), (1,), (), (0, 0, 0, 0)
    )
    # two classes joined by two edges: a doubled edge, shape general
    doubled = SimplicialMap(cycle_domain(4), c3, (0, 0, 1, 1))
    got = _assert_collapse_is_the_reference(doubled)
    assert got[:3] == (2, ((0, 1), (0, 1)), "general") and got[-1] == (0, 0, 1, 1)
    # the last run wraps past vertex 0 into the first class
    wrap = SimplicialMap(cycle_domain(5), c3, (0, 1, 2, 0, 0))
    got = _assert_collapse_is_the_reference(wrap)
    assert got[:3] == (3, ((0, 1), (1, 2), (0, 2)), "cycle")
    assert got[-1] == (0, 1, 2, 0, 0)
    # the same cycle walked from inside the wrapping run, its ids reversed
    backwards = relabelled(wrap, (4, 3, 2, 1, 0), range(5))
    got = _assert_collapse_is_the_reference(backwards)
    assert got[-1] == (0, 0, 1, 2, 0)
    # one vertex and a nondegenerate map: every vertex is its own class
    one = SimplicialMap(path_domain(1), c3, (2,))
    assert _assert_collapse_is_the_reference(one) == (1, (), "path", ((0,), ()), (2,), (), (0,))
    plain = FIXTURES["x-cross"]()
    got = _assert_collapse_is_the_reference(plain)
    assert got[1] == plain.domain.edges and got[-1] == tuple(range(plain.domain.n))


def test_walk_collapse_is_the_union_find_quotient_up_to_k5():
    rng = random.Random(25)
    checked = 0
    for shape in ("path", "cycle"):
        for _, phi in generate(CorpusSpec(shape, tuple(TARGETS), k_max=5)):
            n, m = phi.domain.n, len(phi.domain.edges)
            vertex_ids = rng.sample(range(n), n)
            for psi in (phi, relabelled(phi, vertex_ids, rng.sample(range(m), m))):
                _assert_collapse_is_the_reference(psi)
                checked += 1
    assert checked > 19000


def _reference_shape_of(n: int, edges: tuple[tuple[int, int], ...]) -> str:
    """The shape tag computed with sets, a sort and a DFS, blind to `simple_walk`."""
    if n == 0:
        return "general"
    deg = [0] * n
    seen = set()
    simple = True
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        if u == v or _pair(u, v) in seen:
            simple = False
        seen.add(_pair(u, v))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack, reached = [0], {0}
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(reached) != n or not simple:
        return "general"
    if n == 1 and not edges:
        return "path"
    if sorted(deg) == [1, 1] + [2] * (n - 2) and len(edges) == n - 1:
        return "path"
    if n >= 3 and all(d == 2 for d in deg) and len(edges) == n:
        return "cycle"
    return "general"


@st.composite
def _multigraphs(draw):
    """Up to 9 vertices: a path, a cycle or nothing on a random order, then
    extra edges (loops and parallel edges included), shuffled, minus a few."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, ()
    order = draw(st.permutations(range(n)))
    base = draw(st.sampled_from(("path", "cycle", "none")))
    edges = []
    if base != "none":
        edges = list(zip(order, order[1:] + (order[:1] if base == "cycle" else [])))
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    edges = draw(st.permutations(edges))
    edges = edges[draw(st.integers(0, min(2, len(edges)))) :]
    return n, tuple(_pair(u, v) for u, v in edges)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_multigraphs())
def test_shape_of_matches_the_reference(graph):
    # the shape, a file's declared shape's check and the stored walk all
    # read simple_walk, which must give the reference walk
    n, edges = graph
    shape = _reference_shape_of(n, edges)
    d = DomainGraph(n, edges)
    assert d.shape == shape
    if n:
        for declared in ("path", "cycle", "general"):
            text = _domain_text(declared, n, edges)
            if declared in (shape, "general"):
                parsed = parse_instance(text).domain
                assert parsed == d and parsed.shape == shape
            else:
                with pytest.raises(InvariantError):
                    parse_instance(text)
    if shape == "general":
        assert simple_walk(n, edges) is None
    else:
        assert simple_walk(n, edges) == d.walk == reference_walk(d)


def test_cycle_target_and_catalog_targets_are_valid():
    for name, g in small_targets().items():
        assert isinstance(g, PlaneGraph)
        assert len(g.edges) <= 6, name
    assert cycle_target(5).n == 5
    assert all(len(r) == 2 for r in cycle_target(5).rotation)


# --- values computed once ---------------------------------------------------

COMPUTED_ONCE = {
    PlaneGraph: (
        "edge_index", "max_degree", "crossing_memo", "boundary_memo", "derived_memo",
        "decide_memo", "obstruction_memo", "oracle_memo", "instance_sections",
    ),
    DomainGraph: ("incident", "shape", "walk"),
    SimplicialMap: ("witness_memo", "normalized"),
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
    # path a v b u v b u into the same target fills crossing_memo and
    # boundary_memo
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
    assert target.crossing_memo and target.boundary_memo
    assert target.derived_memo and target.decide_memo
    assert target.obstruction_memo and phi.normalized.witness_memo
    # no stage of the fold is refused, so only an oracle call fills oracle_memo
    assert target.oracle_memo == {}
    searched = oracle_result(phi)
    assert target.oracle_memo and all(ints_and_tuples(entry) for entry in target.oracle_memo.items())
    fresh = _theta_fold_with_a_stay()
    # only the fields are pickled, so no memo and no normalized map travels with a copy
    assert pickle.dumps(phi) == pickle.dumps(fresh)
    pickled = pickle.loads(pickle.dumps(phi))
    assert pickled.witness_memo == {}
    memos = (
        "crossing_memo", "boundary_memo", "derived_memo", "decide_memo", "obstruction_memo", "oracle_memo",
    )
    for name in memos:
        assert getattr(pickled.target, name) == {}
    assert pickled.normalized == phi.normalized and pickled.normalized is not phi.normalized
    for other in (fresh, pickled):
        pairs = ((phi.target, other.target), (phi.domain, other.domain), (phi, other))
        for filled, same in pairs:
            assert filled == same and hash(filled) == hash(same)
            assert repr(filled) == repr(same)
    assert decide_path(pickled) == decide_path(fresh) == verdict
    assert decide_path_via_vk(pickled) == decide_path_via_vk(fresh) == vk_verdict
    assert oracle_result(pickled) == oracle_result(fresh) == searched


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
