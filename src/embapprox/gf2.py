"""GF(2) linear algebra with solvability certificates.

A system whose columns each have at most two ones is a graph: equations are
nodes, a weight-2 column is an edge between its two equations and a weight-1
column is an edge to a virtual ground node.  Such systems (every mod-2
obstruction over a path or cycle domain) are decided by union-find in
near-linear time; any other system is eliminated densely.  Both branches
return the same solution and the same certificate, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .core import UnionFind


def solve_or_certify(a: np.ndarray, b: np.ndarray):
    """Solve a @ w = b over GF(2).

    Returns (solution, None) when consistent, else (None, certificate) where
    the certificate y is a 0/1 vector over equations with y @ a = 0 and
    y @ b = 1: an odd-looking combination proving unsolvability.  The
    solution sets every free variable to 0; the certificate is the first
    inconsistent row left by column-order Gauss-Jordan elimination.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8) % 2
    ne, nv = a.shape
    if b.shape != (ne,):
        raise ValueError("rhs length mismatch")
    ends: list[list[int]] = [[] for _ in range(nv)]
    if a.size:
        if a.max() > 1:
            a = a % 2
        # scanning the 0/1 matrix flat, as bools, is much faster than np.nonzero
        for i in np.flatnonzero(a.view(np.bool_)).tolist():
            r, c = divmod(i, nv)
            ends[c].append(r)
    if any(len(e) > 2 for e in ends):
        return _solve_dense(a, b)
    return _solve_graphic(ends, b)


def _solve_dense(a: np.ndarray, b: np.ndarray):
    """Gauss-Jordan elimination of [a | b | I], pivoting column by column."""
    ne, nv = a.shape
    m = np.concatenate([a, b.reshape(-1, 1), np.eye(ne, dtype=np.uint8)], axis=1)
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
            return None, m[r, nv + 1 :].copy()
    sol = np.zeros(nv, dtype=np.uint8)
    for r, c in pivots:
        sol[c] = m[r, nv]
    return sol, None


def _solve_graphic(ends: list[list[int]], b: np.ndarray):
    """The dense elimination's result for columns of weight <= 2, by union-find.

    `ends[col]` lists the rows where column col has a one, in row order.

    Replays the elimination on clusters of equations.  Every row not yet
    used as a pivot is the sum of one cluster's equations, so a column hits
    the rows of the ungrounded clusters holding exactly one of its ends.
    The hit at the lower position is the pivot: it swaps into position
    `row` and leaves the unpivoted rows, the other hit absorbs it, and a
    cluster whose row was pivoted with no other hit is grounded.  The pivot
    columns form the spanning forest that Kruskal builds in column order,
    so the solution is read off that forest by peeling leaves.
    """
    ne, nv = len(b), len(ends)
    ground = ne
    parity = b.tolist()
    sets = UnionFind()
    at = list(range(ne))  # at[pos]: cluster root whose row sits at pos >= row
    pos = list(range(ne))  # pos[root]: position of an ungrounded cluster's row
    grounded = [False] * ne + [True]
    forest: list[tuple[int, int, int]] = []
    row = 0
    for col, hit in enumerate(ends):
        if not hit:
            continue
        p = hit[0]
        q = hit[1] if len(hit) == 2 else ground
        rp, rq = sets.find(p), sets.find(q)
        if rp == rq:
            continue
        live = sorted((r for r in (rp, rq) if not grounded[r]), key=pos.__getitem__)
        if not live:
            continue
        pivot = live[0]
        moved = at[row]
        at[pos[pivot]] = moved
        pos[moved] = pos[pivot]
        row += 1
        forest.append((col, p, q))
        sets.union(rp, rq)
        root = sets.find(p)
        if len(live) == 2:
            other = live[1]
            at[pos[other]] = root
            pos[root] = pos[other]
            parity[root] = parity[rp] ^ parity[rq]
        else:
            grounded[root] = True
    for r in at[row:]:
        if parity[r]:
            cert = np.fromiter((sets.find(e) == r for e in range(ne)), np.uint8, ne)
            return None, cert

    # peel the forest from its leaves; a node's remaining edge is the xor of
    # its unpeeled edge ids while its degree is 1
    degree = [0] * (ne + 1)
    edge_xor = [0] * (ne + 1)
    for k, (_col, p, q) in enumerate(forest):
        for v in (p, q):
            degree[v] += 1
            edge_xor[v] ^= k
    residual = b.tolist() + [0]
    sol = [0] * nv
    leaves = [v for v in range(ne) if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:
            continue
        k = edge_xor[v]
        col, p, q = forest[k]
        u = p + q - v
        sol[col] = residual[v]
        residual[u] ^= residual[v]
        degree[v] = 0
        degree[u] -= 1
        edge_xor[u] ^= k
        if degree[u] == 1 and u != ground:
            leaves.append(u)
    return np.array(sol, dtype=np.uint8), None


def verify_certificate(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.uint8) % 2
    b = np.asarray(b, dtype=np.uint8) % 2
    y = np.asarray(y, dtype=np.uint8) % 2
    return not (y @ a % 2).any() and int(y @ b % 2) == 1
