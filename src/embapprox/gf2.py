"""GF(2) linear algebra with solvability certificates.

A system a @ w = b comes in as `Columns`: the rows where each column has a
one.  A system whose columns each have at most two ones is a graph:
equations are nodes, a weight-2 column is an edge between its two
equations and a weight-1 column is an edge to a virtual ground node.  Such
systems (every mod-2 obstruction over a path or cycle domain) are decided
by union-find on plain int lists in near-linear time and never allocate a
matrix.  A heavier column sends the system to Gauss-Jordan elimination on
one Python int per row, holding that row of [a | b | I].  Both branches
return the same solution and the same certificate, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Columns:
    """A 0/1 matrix as the rows of each column's ones, increasing in each column."""

    nrows: int
    rows: list[list[int]]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, len(self.rows))


def solve_or_certify(a: Columns, b, *, solve: bool = True):
    """Solve a @ w = b over GF(2); b is read mod 2.

    Returns (solution, None) when consistent, else (None, certificate) where
    the certificate y is a 0/1 list over equations with y @ a = 0 and
    y @ b = 1: an odd-looking combination proving unsolvability.  The
    solution sets every free variable to 0; the certificate is the first
    inconsistent row left by column-order Gauss-Jordan elimination.  With
    solve False a consistent system returns (None, None): only the
    certificate is computed, and the graphic branch skips its forest peel.
    """
    b = [int(x) % 2 for x in b]
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    if max(map(len, a.rows), default=0) > 2:
        sol, cert = _solve_dense(a, b)
        return (sol if solve else None), cert
    return _solve_graphic(a.rows, b, solve)


def _solve_dense(a: Columns, b: list[int]):
    """Gauss-Jordan elimination of [a | b | I], pivoting column by column.

    Row r of the workspace is one int: bit c < nv is a[r, c], bit nv is
    b[r], and bit nv + 1 + e records that equation e is summed into it.
    """
    ne, nv = a.shape
    m = [(b[r] << nv) | (1 << (nv + 1 + r)) for r in range(ne)]
    for col, rs in enumerate(a.rows):
        for r in rs:
            m[r] |= 1 << col
    row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(nv):
        if row == ne:
            break
        bit = 1 << col
        piv = next((r for r in range(row, ne) if m[r] & bit), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pivot = m[row]
        for r in range(ne):
            if r != row and m[r] & bit:
                m[r] ^= pivot
        pivots.append((row, col))
        row += 1
    for r in range(row, ne):
        if m[r] >> nv & 1:
            return None, [m[r] >> (nv + 1 + e) & 1 for e in range(ne)]
    sol = [0] * nv
    for r, c in pivots:
        sol[c] = m[r] >> nv & 1
    return sol, None


def _solve_graphic(ends: list[list[int]], b: list[int], solve: bool = True):
    """The dense elimination's result for columns of weight <= 2, by union-find.

    `ends[col]` lists the rows where column col has a one, in row order.

    Replays the elimination on clusters of equations.  Every row not yet
    used as a pivot is the sum of one cluster's equations, so a column hits
    the rows of the ungrounded clusters holding exactly one of its ends.
    The hit at the lower position is the pivot: it swaps into position
    `row` and leaves the unpivoted rows, the other hit absorbs it, and a
    cluster whose row was pivoted with no other hit is grounded.  The pivot
    columns form the spanning forest that Kruskal builds in column order,
    so the solution is read off that forest by peeling leaves, unless solve
    is False and (None, None) stands for consistent.
    """
    ne, nv = len(b), len(ends)
    ground = ne
    parity = b + [0]
    # not `core.classes`: roots follow the pivot rule, not the smallest member,
    # and a shared find call in this innermost loop made the vk route slower
    parent = list(range(ne + 1))  # the clusters, by path-halving union-find
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
        rp = p
        while parent[rp] != rp:
            parent[rp] = rp = parent[parent[rp]]
        rq = q
        while parent[rq] != rq:
            parent[rq] = rq = parent[parent[rq]]
        if rp == rq:
            continue
        # the pivot cluster joins the other one, whose root stays
        if grounded[rp]:
            if grounded[rq]:
                continue
            pivot, other = rq, rp
        elif grounded[rq] or pos[rp] < pos[rq]:
            pivot, other = rp, rq
        else:
            pivot, other = rq, rp
        moved = at[row]
        at[pos[pivot]] = moved
        pos[moved] = pos[pivot]
        row += 1
        if solve:
            forest.append((col, p, q))
        parent[pivot] = other
        parity[other] ^= parity[pivot]
    for r in at[row:]:
        if parity[r]:
            cert = []
            for e in range(ne):
                root = e
                while parent[root] != root:
                    parent[root] = root = parent[parent[root]]
                cert.append(1 if root == r else 0)
            return None, cert
    if not solve:
        return None, None

    # peel the forest from its leaves; a node's remaining edge is the xor of
    # its unpeeled edge ids while its degree is 1
    degree = [0] * (ne + 1)
    edge_xor = [0] * (ne + 1)
    for k, (_col, p, q) in enumerate(forest):
        degree[p] += 1
        edge_xor[p] ^= k
        degree[q] += 1
        edge_xor[q] ^= k
    residual = b + [0]
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
    return sol, None


def verify_certificate(a: Columns, b, y) -> bool:
    """Is y a certificate for a @ w = b: y @ a = 0 and y @ b = 1 over GF(2)?"""
    y = [int(x) % 2 for x in y]
    if any(sum(y[r] for r in rs) % 2 for rs in a.rows):
        return False
    return sum(yi & int(bi) for yi, bi in zip(y, b)) % 2 == 1
