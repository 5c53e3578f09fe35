"""The disc's chord-crossing predicate and the GF(2) solve-or-certify kernel."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

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


def _columns(a) -> gf2.Columns:
    """The sparse form of a dense 0/1 matrix, entries read mod 2."""
    a = np.asarray(a) % 2
    return gf2.Columns(a.shape[0], [np.flatnonzero(a[:, c]).tolist() for c in range(a.shape[1])])


def _dense(cols: gf2.Columns) -> np.ndarray:
    a = np.zeros(cols.shape, dtype=np.uint8)
    for col, rs in enumerate(cols.rows):
        a[rs, col] = 1
    return a


def _dense_reference(a: np.ndarray, b):
    """Gauss-Jordan elimination of the uint8 matrix [a | b | I], column by column.

    The reference that both of gf2's branches must match bit for bit.
    """
    ne, nv = a.shape
    m = np.concatenate(
        [a, np.array(b, dtype=np.uint8).reshape(-1, 1), np.eye(ne, dtype=np.uint8)], axis=1
    )
    row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(nv):
        hits = np.nonzero(m[row:, col])[0]
        if hits.size == 0:
            continue
        piv = row + int(hits[0])
        if piv != row:
            m[[row, piv]] = m[[piv, row]]
        mask = m[:, col].astype(bool)
        mask[row] = False
        m[mask] ^= m[row]
        pivots.append((row, col))
        row += 1
        if row == ne:
            break
    for r in range(row, ne):
        if m[r, nv]:
            return None, m[r, nv + 1 :].tolist()
    sol = [0] * nv
    for r, c in pivots:
        sol[c] = int(m[r, nv])
    return sol, None


def _product(a, x) -> list[int]:
    return ((np.asarray(a, dtype=np.int64) @ np.asarray(x, dtype=np.int64)) % 2).tolist()


def test_columns_shape_and_dense_round_trip():
    a = np.array([[1, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=np.uint8)
    cols = _columns(a)
    assert cols.rows == [[0, 2], [], [0, 1]]
    assert cols.shape == (3, 3)
    assert np.array_equal(_dense(cols), a)
    assert _dense(gf2.Columns(0, [[], []])).shape == (0, 2)


def test_solve_returns_checking_solution():
    a = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    b = [1, 0]
    x, cert = solve_or_certify(_columns(a), b)
    assert cert is None
    assert _product(a, x) == b


def test_unsolvable_returns_verifying_certificate():
    # rows sum to an inconsistent equation: x0 = 0 and x0 = 1
    a = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    b = [0, 1]
    x, cert = solve_or_certify(_columns(a), b)
    assert x is None
    assert verify_certificate(_columns(a), b, cert)
    assert _product(a.T, cert) == [0, 0]
    assert sum(c * v for c, v in zip(cert, b)) % 2 == 1


def test_empty_system_is_solvable():
    x, cert = solve_or_certify(gf2.Columns(0, [[], [], [], []]), [])
    assert cert is None and x == [0, 0, 0, 0]


def test_zero_columns_system():
    a = gf2.Columns(2, [])
    x, cert = solve_or_certify(a, [0, 0])
    assert cert is None and x == []
    x, cert = solve_or_certify(a, [0, 1])
    assert x is None and verify_certificate(a, [0, 1], cert)


def test_rhs_length_must_match_the_rows():
    with pytest.raises(ValueError):
        solve_or_certify(gf2.Columns(2, [[0]]), [1])


def test_solve_or_certify_random_systems_always_decided():
    rng = random.Random(20260817)
    for trial in range(200):
        m = rng.randrange(0, 9)
        n = rng.randrange(0, 9)
        a = np.array(
            [[rng.randrange(2) for _ in range(n)] for _ in range(m)], dtype=np.uint8
        ).reshape(m, n)
        b = [rng.randrange(2) for _ in range(m)]
        x, cert = solve_or_certify(_columns(a), b)
        if x is not None:
            assert cert is None
            assert _product(a, x) == b, trial
        else:
            assert verify_certificate(_columns(a), b, cert), trial


def test_solvable_systems_never_certified():
    rng = random.Random(7)
    for trial in range(100):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        a = np.array(
            [[rng.randrange(2) for _ in range(n)] for _ in range(m)], dtype=np.uint8
        )
        x0 = [rng.randrange(2) for _ in range(n)]
        b = _product(a, x0)  # solvable by construction
        x, cert = solve_or_certify(_columns(a), b)
        assert cert is None and _product(a, x) == b, trial


def _graphic_system(rng: random.Random, ne: int, nv: int):
    """A random system whose columns have weight 0, 1 or 2."""
    a = np.zeros((ne, nv), dtype=np.uint8)
    for col in range(nv):
        weight = min(rng.choice((0, 1, 2, 2, 2)), ne)
        for r in rng.sample(range(ne), weight):
            a[r, col] = 1
    b = [rng.randrange(2) for _ in range(ne)]
    return a, b


def _same_result(got, want) -> bool:
    """Equal bits, and every returned vector a plain list of ints."""
    return all(
        (g is None and w is None)
        or (type(g) is list and all(type(v) is int for v in g) and g == w)
        for g, w in zip(got, want)
    )


def test_graphic_systems_match_dense_elimination_bit_for_bit():
    rng = random.Random(5)
    certified = 0
    for trial in range(3000):
        a, b = _graphic_system(rng, rng.randrange(0, 13), rng.randrange(0, 15))
        want = _dense_reference(a, b)
        cols = _columns(a)
        assert _same_result(solve_or_certify(cols, b), want), trial
        assert _same_result(gf2._solve_graphic(cols.rows, b), want), trial
        assert _same_result(gf2._solve_dense(cols, b), want), trial
        # the rhs is read mod 2
        assert _same_result(solve_or_certify(cols, [v + 2 for v in b]), want), trial
        certified += want[1] is not None
    assert 1000 < certified < 2000


def test_graphic_certificate_is_the_first_odd_component_left_by_elimination():
    # column 0 joins equations 0 and 3 and leaves their sum at row 3; column 1
    # grounds equation 2 and swaps equation 1's row into row 2, so the odd
    # component {1} precedes the odd component {0, 3}
    a = np.array([[1, 0], [0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    b = [1, 1, 1, 0]
    x, cert = solve_or_certify(_columns(a), b)
    assert x is None and cert == [0, 1, 0, 0]
    assert _same_result((x, cert), _dense_reference(a, b))


def test_graphic_branch_handles_edge_shapes():
    for ne, nv in ((0, 0), (0, 3), (3, 0), (1, 1)):
        for bits in range(2 ** ne):
            b = [(bits >> i) & 1 for i in range(ne)]
            for fill in (0, 1):
                a = np.full((ne, nv), fill, dtype=np.uint8)
                assert _same_result(solve_or_certify(_columns(a), b), _dense_reference(a, b))
                assert _same_result(gf2._solve_dense(_columns(a), b), _dense_reference(a, b))


def test_heavy_columns_use_dense_elimination(monkeypatch):
    dense = gf2._solve_dense
    reached = []

    def counted(a, b):
        reached.append(a.shape)
        return dense(a, b)

    def no_graphic(*args):
        raise AssertionError("a weight-3 column must be eliminated densely")

    monkeypatch.setattr(gf2, "_solve_dense", counted)
    monkeypatch.setattr(gf2, "_solve_graphic", no_graphic)
    a = np.array([[1, 0], [1, 1], [1, 0]], dtype=np.uint8)
    b = [1, 0, 1]
    assert _same_result(solve_or_certify(_columns(a), b), _dense_reference(a, b))
    assert reached == [(3, 2)]
    rng = random.Random(11)
    for trial in range(300):
        ne, nv = rng.randrange(3, 10), rng.randrange(1, 10)
        rows = [sorted(rng.sample(range(ne), rng.choice((0, 1, 2, 3)))) for _ in range(nv)]
        rows[rng.randrange(nv)] = sorted(rng.sample(range(ne), 3))
        cols = gf2.Columns(ne, rows)
        b = [rng.randrange(2) for _ in range(ne)]
        got = solve_or_certify(cols, b)
        assert reached.pop() == (ne, nv), trial
        assert _same_result(got, _dense_reference(_dense(cols), b)), trial
        x, cert = got
        if x is None:
            assert verify_certificate(cols, b, cert), trial
        else:
            assert _product(_dense(cols), x) == b, trial


def test_int_row_elimination_matches_the_numpy_reference_bit_for_bit():
    rng = random.Random(13)
    certified = 0
    for trial in range(3000):
        ne, nv = rng.randrange(0, 41), rng.randrange(0, 41)
        density = rng.random()
        rows = [[r for r in range(ne) if rng.random() < density] for _ in range(nv)]
        cols = gf2.Columns(ne, rows)
        b = [rng.randrange(2) for _ in range(ne)]
        want = _dense_reference(_dense(cols), b)
        assert _same_result(gf2._solve_dense(cols, b), want), trial
        certified += want[1] is not None
    assert 300 < certified < 2700


def test_a_verdict_without_the_solution_keeps_the_certificate():
    # graphic systems (weight <= 2) and random dense ones, heavy columns and all
    rng = random.Random(17)
    systems = []
    for _ in range(1500):
        a, b = _graphic_system(rng, rng.randrange(0, 13), rng.randrange(0, 15))
        systems.append((_columns(a), b))
    for _ in range(1500):
        ne, nv = rng.randrange(0, 13), rng.randrange(0, 15)
        density = rng.random()
        rows = [[r for r in range(ne) if rng.random() < density] for _ in range(nv)]
        systems.append((gf2.Columns(ne, rows), [rng.randrange(2) for _ in range(ne)]))
    certified = {True: 0, False: 0}  # by graphic branch
    for trial, (cols, b) in enumerate(systems):
        x, cert = solve_or_certify(cols, b)
        assert solve_or_certify(cols, b, solve=False) == (None, cert), trial
        graphic = max(map(len, cols.rows), default=0) <= 2
        if graphic:
            assert gf2._solve_graphic(cols.rows, b, False) == (None, cert), trial
        if cert is not None:
            assert verify_certificate(cols, b, cert), trial
            certified[graphic] += 1
        else:
            assert _product(_dense(cols), x) == b, trial
    assert min(certified.values()) > 300
