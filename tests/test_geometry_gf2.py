"""The disc's chord-crossing predicate and the GF(2) solve-or-certify kernel."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np

from embapprox.catalog import small_targets
from embapprox.geometry import disc_ports, proper_crossing
from embapprox import gf2
from embapprox.gf2 import solve_or_certify, verify_certificate


# --- geometry ---------------------------------------------------------------


def _on_ccw_arc(p: int, start: int, end: int, n: int) -> bool:
    """Is p strictly inside the counterclockwise arc from start to end?"""
    return 0 < (p - start) % n < (end - start) % n


def test_proper_crossing_is_alternation_on_the_circle():
    n = 8
    crossing = 0
    for p1, p2, q1, q2 in permutations(range(n), 4):
        want = _on_ccw_arc(q1, p1, p2, n) != _on_ccw_arc(q2, p1, p2, n)
        assert proper_crossing(p1, p2, q1, q2) is want, (p1, p2, q1, q2)
        crossing += want
    assert crossing == 8 * 7 * 6 * 5 // 3  # one of three pairings of four ends crosses


def test_disc_ports_read_lane_blocks_in_order_at_the_smaller_end():
    g = small_targets()["C3"]
    a, b = g.edge_index[(0, 1)], g.edge_index[(0, 2)]
    discs = disc_ports(g, {a: ["x", "y"], b: ["z"]})
    assert sorted(discs[0]) == [(a, "x"), (a, "y"), (b, "z")]
    assert [s for e, s in discs[0] if e == a] == ["x", "y"]
    assert discs[1] == ((a, "y"), (a, "x"))
    assert discs[2] == ((b, "z"),)


# --- GF(2) ------------------------------------------------------------------


def test_solve_returns_checking_solution():
    a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    b = np.array([1, 0], dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert cert is None
    assert np.array_equal((a @ x) % 2, b)


def test_unsolvable_returns_verifying_certificate():
    # rows sum to an inconsistent equation: x0 = 0 and x0 = 1
    a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    b = np.array([0, 1], dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert x is None
    assert verify_certificate(a, b, cert)
    assert (cert @ a % 2 == 0).all()
    assert cert @ b % 2 == 1


def test_empty_system_is_solvable():
    a = np.zeros((0, 4), dtype=np.uint8)
    b = np.zeros((0,), dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert cert is None and x.shape == (4,)


def test_zero_columns_system():
    a = np.zeros((2, 0), dtype=np.uint8)
    x, cert = solve_or_certify(a, np.array([0, 0], dtype=np.uint8))
    assert cert is None and x.shape == (0,)
    x, cert = solve_or_certify(a, np.array([0, 1], dtype=np.uint8))
    assert x is None and verify_certificate(a, np.array([0, 1], dtype=np.uint8), cert)


def test_solve_or_certify_random_systems_always_decided():
    rng = random.Random(20260817)
    for trial in range(200):
        m = rng.randrange(0, 9)
        n = rng.randrange(0, 9)
        a = np.array(
            [[rng.randrange(2) for _ in range(n)] for _ in range(m)], dtype=np.uint8
        ).reshape(m, n)
        b = np.array([rng.randrange(2) for _ in range(m)], dtype=np.uint8)
        x, cert = solve_or_certify(a, b)
        if x is not None:
            assert cert is None
            assert np.array_equal((a @ x) % 2, b % 2), trial
        else:
            assert verify_certificate(a, b, cert), trial


def test_solvable_systems_never_certified():
    rng = random.Random(7)
    for trial in range(100):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        a = np.array(
            [[rng.randrange(2) for _ in range(n)] for _ in range(m)], dtype=np.uint8
        )
        x0 = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
        b = (a @ x0) % 2  # solvable by construction
        x, cert = solve_or_certify(a, b)
        assert cert is None and np.array_equal((a @ x) % 2, b), trial


def _graphic_system(rng: random.Random, ne: int, nv: int):
    """A random system whose columns have weight 0, 1 or 2."""
    a = np.zeros((ne, nv), dtype=np.uint8)
    for col in range(nv):
        weight = min(rng.choice((0, 1, 2, 2, 2)), ne)
        for r in rng.sample(range(ne), weight):
            a[r, col] = 1
    b = np.array([rng.randrange(2) for _ in range(ne)], dtype=np.uint8)
    return a, b


def _same_result(got, want) -> bool:
    return all(
        (g is None and w is None) or (g.dtype == w.dtype and np.array_equal(g, w))
        for g, w in zip(got, want)
    )


def test_graphic_systems_match_dense_elimination_bit_for_bit():
    rng = random.Random(5)
    certified = 0
    for trial in range(3000):
        a, b = _graphic_system(rng, rng.randrange(0, 13), rng.randrange(0, 15))
        want = gf2._solve_dense(a, b)
        assert _same_result(solve_or_certify(a, b), want), trial
        # entries are read mod 2
        assert _same_result(solve_or_certify(a + 2 * (a ^ 1), b + 2), want), trial
        certified += want[1] is not None
    assert 1000 < certified < 2000


def test_graphic_certificate_is_the_first_odd_component_left_by_elimination():
    # column 0 joins equations 0 and 3 and leaves their sum at row 3; column 1
    # grounds equation 2 and swaps equation 1's row into row 2, so the odd
    # component {1} precedes the odd component {0, 3}
    a = np.array([[1, 0], [0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    b = np.array([1, 1, 1, 0], dtype=np.uint8)
    x, cert = solve_or_certify(a, b)
    assert x is None and cert.tolist() == [0, 1, 0, 0]
    assert _same_result((x, cert), gf2._solve_dense(a, b))


def test_graphic_branch_handles_edge_shapes():
    for ne, nv in ((0, 0), (0, 3), (3, 0), (1, 1)):
        for bits in range(2 ** ne):
            b = np.array([(bits >> i) & 1 for i in range(ne)], dtype=np.uint8)
            for fill in (0, 1):
                a = np.full((ne, nv), fill, dtype=np.uint8)
                assert _same_result(solve_or_certify(a, b), gf2._solve_dense(a, b))


def test_heavy_columns_use_dense_elimination(monkeypatch):
    a = np.array([[1, 0], [1, 1], [1, 0]], dtype=np.uint8)
    b = np.array([1, 0, 1], dtype=np.uint8)
    want = gf2._solve_dense(a, b)

    def no_graphic(*args):
        raise AssertionError("a weight-3 column must be eliminated densely")

    monkeypatch.setattr(gf2, "_solve_graphic", no_graphic)
    assert _same_result(solve_or_certify(a, b), want)
