"""Deleted products and the mod-2 obstruction to pulling curves apart.

The deleted product of a domain keeps only pairs of disjoint simplices; a
pair is painted red when the images are disjoint too, since nothing can
force those curves to meet.  Drawing the map with chords in the vertex
discs of `geometry`, the discs the lift search reads too, gives a
crossing-parity cochain on the non-red pairs, and the map passes the
obstruction test when that cochain is a coboundary relative to the red
part.  That is a GF(2) system with one equation per non-red 2-cell and one
unknown per non-red 1-cell.  `Drawing` draws one map, and `pair_report`
draws two as their disjoint union; only `obstruction_system` takes lane
orders, a drawing choice that no verdict depends on.

`ObstructionSystem` numbers the cells by ints: the 1-cell (x, t) is
x * |E| + t and the 2-cell (s, t), s < t, is s * |E| + t.  Only non-red
cells are listed, and only they are visited: a non-red cell pairs
simplices whose images share a vertex, so the domain edges are bucketed
by the ends of their images, each vertex keeps a table of its own cells
over its image's bucket, and the equations are read from the edge pairs
within each bucket.  The system costs time and space in its cells, not in
the square of the domain.  Each equation goes to the columns of its
faces' unknowns, which go to `gf2` as `gf2.Columns`.  Over a path or cycle
domain each 1-cell bounds at most two 2-cells, so `gf2` solves the system
by union-find and no matrix is ever allocated; only degree-3 domains reach
its elimination.  A verdict needs no solving cochain, so
`obstruction_vanishes` asks `gf2` for the certificate alone, and only
`obstruction_report` solves.  Over a path domain the same
columns regroup into per-component parities split along the red cells.
The tuple-celled `DeletedProduct` with its red cells, and the cochain on
all of them, are expanded from the same numbering only where a caller
reads them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import DomainGraph, SimplicialMap, classes, computed_once, normalize_nondegenerate
from .errors import PreconditionError
from .geometry import disc_ports, proper_crossing
from .gf2 import Columns, solve_or_certify


# ---------------------------------------------------------------------------
# single-map deleted product


@dataclass(frozen=True)
class DeletedProduct:
    """Cells of disjoint simplex pairs with their red (disjoint-image) flags."""

    cells2: tuple[tuple[int, int], ...]  # (edge, edge), first id smaller
    red2: tuple[bool, ...]
    cells1: tuple[tuple[int, int], ...]  # (vertex, edge), vertex not on edge
    red1: tuple[bool, ...]


def _image_ends(phi: SimplicialMap) -> list[tuple[int, int]]:
    """Endpoints of each domain edge's image edge, indexed by domain edge."""
    target_edges = phi.target.edges
    return [target_edges[img] for img in phi.edge_image]


def _over(phi: SimplicialMap) -> list[list[int]]:
    """Domain edges by the ends of their images, per target vertex, increasing."""
    over: list[list[int]] = [[] for _ in range(phi.target.n)]
    for t, (c, e) in enumerate(_image_ends(phi)):
        over[c].append(t)
        over[e].append(t)
    return over


def _disjoint(e: tuple[int, int], f: tuple[int, int]) -> bool:
    return e[0] not in f and e[1] not in f


@dataclass(frozen=True)
class ObstructionSystem:
    """The relative-coboundary system of one nondegenerate map, numbered by ints.

    `cells` lists the unknowns' (non-red) 1-cells and `rows` the equations'
    (non-red) 2-cells, both increasing; `columns[j]` lists the equations
    whose faces contain unknown j, increasing.  `rhs` holds each equation's
    crossing parity, None until the map is drawn.
    """

    domain: DomainGraph
    cells: list[int]
    rows: list[int]
    columns: list[list[int]]
    rhs: list[int] | None = None

    @computed_once
    def layout(self) -> tuple[tuple[tuple[int, int], ...], tuple[bool, ...]]:
        """Every 2-cell (s, t) in numbering order with its red flag, built once, no 1-cells."""
        edges = self.domain.edges
        width = len(edges)
        kept = set(self.rows)
        cells2 = tuple(
            (s, t)
            for s in range(width)
            for t in range(s + 1, width)
            if _disjoint(edges[s], edges[t])
        )
        return cells2, tuple(s * width + t not in kept for s, t in cells2)

    @computed_once
    def values(self) -> tuple[int, ...]:
        """The crossing parity of every 2-cell in `layout` order, red ones 0."""
        drawn = iter(self.rhs)
        return tuple(0 if red else next(drawn) for red in self.layout[1])

    def deleted_product(self) -> DeletedProduct:
        """All cells as tuples, in numbering order, red where the system keeps none."""
        edges = self.domain.edges
        width = len(edges)
        kept = set(self.cells)
        cells1 = [(x, t) for x in range(self.domain.n) for t, e in enumerate(edges) if x not in e]
        return DeletedProduct(
            *self.layout,
            tuple(cells1),
            tuple(x * width + t not in kept for x, t in cells1),
        )


def _number(phi: SimplicialMap) -> tuple[list[int], list[int], list[list[int]]]:
    """`ObstructionSystem`'s (cells, rows, columns), from non-red cells only.

    A non-red 1-cell (x, t) has t's image touching f(x), so it is one of
    the edges `over[f(x)]`; `var[x]` maps each such t off x to its unknown.
    A non-red 2-cell (s, t) has images sharing an end, so for each s the
    rows are read from the edges t > s over either image end of s, the two
    sorted bucket tails merged; an edge over both ends (the same image
    edge) is met twice and kept once.  Nothing is allocated per pair of a
    vertex and an edge, and rows come in the order of the all-pairs scan.
    """
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    d = phi.domain
    edges = d.edges
    width = len(edges)
    over = _over(phi)
    var: list[dict[int, list[int]]] = []  # per vertex x: t -> the column of (x, t)
    cells = []
    columns: list[list[int]] = []
    vimg = phi.vertex_image
    for x, fx in enumerate(vimg):
        base = x * width
        own = {}
        for t in over[fx]:
            z, w = edges[t]
            if z != x and w != x:
                own[t] = column = []
                columns.append(column)
                cells.append(base + t)
        var.append(own)
    rows = []
    r = 0
    for s, (x, y) in enumerate(edges):
        bucket_x, bucket_y = over[vimg[x]], over[vimg[y]]
        candidates = bucket_x[bisect_right(bucket_x, s):] + bucket_y[bisect_right(bucket_y, s):]
        if not candidates:
            continue
        candidates.sort()
        var_x, var_y, ss = var[x], var[y], s * width
        last = -1
        for t in candidates:
            if t == last:
                continue
            last = t
            z, w = edges[t]
            if z == x or z == y or w == x or w == y:
                continue
            rows.append(ss + t)
            # the faces (x, t), (y, t), (z, s) and (w, s), unknowns only
            column = var_x.get(t)
            if column is not None:
                column.append(r)
            column = var_y.get(t)
            if column is not None:
                column.append(r)
            column = var[z].get(s)
            if column is not None:
                column.append(r)
            column = var[w].get(s)
            if column is not None:
                column.append(r)
            r += 1
    return cells, rows, columns


def build_deleted_product(phi: SimplicialMap) -> DeletedProduct:
    """All disjoint simplex pairs of the domain with the red mask."""
    return ObstructionSystem(phi.domain, *_number(phi)).deleted_product()


# ---------------------------------------------------------------------------
# canonical drawing


def _lanes(phi: SimplicialMap, lane_orders) -> dict[int, list[int]]:
    """Domain edges in each target edge's strip, in lane order.

    Checks that phi has no degenerate edges and that every given lane order
    permutes its strip's edges; a strip without one reads its edges by id.
    """
    lanes: dict[int, list[int]] = {}
    for eid, img in enumerate(phi.edge_image):
        if img is None:
            raise PreconditionError("map has degenerate edges; normalize first")
        lanes.setdefault(img, []).append(eid)
    if lane_orders is not None:
        for a, order in lane_orders.items():
            if sorted(order) != lanes.get(a, []):
                raise PreconditionError(f"lane order for target edge {a} is not a permutation")
            lanes[a] = list(order)
    return lanes


class Drawing:
    """The chord drawing of one nondegenerate map into its target.

    Every strand (a domain edge) runs through the strip of its image edge
    in its own lane; lanes never cross inside a strip, so all crossings
    happen inside vertex discs, between the chords joining strand ends to
    the star centres of their domain vertices.  In the disc of v the i-th
    port of `disc_ports` sits at boundary position 2i + 1, and each star's
    centre at 2j, just before its first port j.  A star's chords then fan
    out over its own ports only, so two stars cross exactly when their
    ports alternate, as in the lift search.

    The pair of strands a < b is a * `strands` + b.  One sweep over each
    disc's chords XORs every crossing into its pair's slot, so `odd` holds
    the pairs whose curves cross an odd number of times.
    """

    def __init__(self, phi: SimplicialMap, lane_orders=None):
        edges, image = phi.domain.edges, phi.vertex_image
        total = self.strands = len(edges)
        odd = self.odd = set()
        for v, ports in enumerate(disc_ports(phi.target, _lanes(phi, lane_orders))):
            starts: dict[int, int] = {}  # star: its first port
            first = []
            strand = [eid for _a, eid in ports]
            for i, eid in enumerate(strand):
                u, w = edges[eid]
                first.append(starts.setdefault(u if image[u] == v else w, i))
            # the chord of port i runs from 2 * first[i] to 2i + 1, so a
            # chord i < j ends below chord j's centre unless first[j] <= i
            for j, fj in enumerate(first):
                if fj < j:
                    b = strand[j]
                    for i in range(fj, j):
                        if proper_crossing(2 * first[i], 2 * i + 1, 2 * fj, 2 * j + 1):
                            a = strand[i]
                            odd ^= {a * total + b if a < b else b * total + a}

    def parities(self, pairs) -> list[int]:
        """Mod-2 crossing count of each numbered strand pair's full curves."""
        odd = self.odd
        return [1 if pair in odd else 0 for pair in pairs]


def _parities(phi: SimplicialMap, pairs, lane_orders=None) -> list[int]:
    """Crossing parities for the numbered strand pairs.

    With no pairs nothing is drawn, but the drawing's input checks still run.
    """
    if not pairs:
        _lanes(phi, lane_orders)
        return []
    return Drawing(phi, lane_orders).parities(pairs)


def obstruction_system(phi: SimplicialMap, lane_orders=None) -> ObstructionSystem:
    """The system of a nondegenerate map with its crossing parities drawn.

    A strand pair (s, t) is numbered s * |E| + t, like its 2-cell, so the
    rows are the pairs to draw.  Red cells are never drawn: their curves
    live in disjoint neighborhoods by construction.  `lane_orders`, if
    given, maps target edges to their domain edges in lane order, as the
    rows of the oracle's `Lift.by_edge` do; the verdict does not depend on
    it, and it is the one place a drawing choice enters.
    """
    cells, rows, columns = _number(phi)
    return ObstructionSystem(phi.domain, cells, rows, columns, _parities(phi, rows, lane_orders))


def intersection_cochain(phi: SimplicialMap):
    """(complex, parity per 2-cell) for the canonical drawing of one map."""
    system = obstruction_system(phi)
    return system.deleted_product(), system.values


# ---------------------------------------------------------------------------
# relative coboundary solve


@dataclass(frozen=True)
class ObstructionReport:
    system: ObstructionSystem
    vanishes: bool
    solving_cells: tuple[tuple[int, int], ...] | None
    certificate_cells: tuple[tuple[int, int], ...] | None


def _solve(phi: SimplicialMap, solve: bool):
    """(drawn system of the normalized phi, solution, certificate) from `solve_or_certify`."""
    system = obstruction_system(normalize_nondegenerate(phi))
    a = Columns(len(system.rows), system.columns)
    return (system, *solve_or_certify(a, system.rhs, solve=solve))


def _cells(numbers: list[int], bits: list[int], width: int) -> tuple[tuple[int, int], ...]:
    """The cells of the set bits, each number s * width + t read back as (s, t)."""
    return tuple(divmod(numbers[i], width) for i, bit in enumerate(bits) if bit)


def obstruction_report(phi: SimplicialMap) -> ObstructionReport:
    """The drawn system with its verdict and witness: a solving 1-cochain or a certificate."""
    system, sol, cert = _solve(phi, solve=True)
    width = len(system.domain.edges)
    if cert is None:
        return ObstructionReport(system, True, _cells(system.cells, sol, width), None)
    return ObstructionReport(system, False, None, _cells(system.rows, cert, width))


def obstruction_vanishes(phi: SimplicialMap):
    """Is the crossing cochain a relative coboundary?  (verdict, certificate).

    The certificate is None when true, else the 2-cells whose equations sum
    inconsistently.  No solving cochain is computed; `obstruction_report`
    gives one.
    """
    system, _, cert = _solve(phi, solve=False)
    if cert is None:
        return True, None
    return False, _cells(system.rows, cert, len(system.domain.edges))


def path_cut_components(phi: SimplicialMap) -> tuple[int, ...]:
    """Per-component crossing parities of a path domain, cut along red cells.

    Components of 2-cells glued across non-red 1-cells qualify when every
    1-cell they expose on the outer boundary of the square complex is red;
    parities of qualifying components are invariant across drawings, and the
    vector is zero exactly when the obstruction vanishes.
    """
    if phi.domain.shape != "path":
        raise PreconditionError("cut components are defined for path domains")
    phi = normalize_nondegenerate(phi)
    return cut_components(obstruction_system(phi))


def cut_components(system: ObstructionSystem) -> tuple[int, ...]:
    """`path_cut_components` of a path's already drawn system.

    On a path each 1-cell bounds at most two 2-cells.  Two equations that
    share an unknown are glued, and one that holds an unknown alone exposes
    it.  Every face of a red 2-cell is red, so each red 2-cell is a
    component of its own, of parity 0; components are listed in the order
    of their first 2-cells.  `core.classes` groups the rows, which are the
    kept 2-cells in layout order, and numbers the classes by their first
    rows, so exposure and parity are read per class.
    """
    columns = system.columns
    member, count = classes(len(system.rows), ((col[0], r) for col in columns for r in col[1:]))
    exposed = [False] * count
    for col in columns:
        if len(col) == 1:
            exposed[member[col[0]]] = True
    parity = [0] * count
    for r, bit in enumerate(system.rhs):
        parity[member[r]] ^= bit
    vector = []
    row = first = 0  # the next kept 2-cell's row, and the next class to meet its first row
    for red in system.layout[1]:
        if red:
            vector.append(0)
            continue
        if member[row] == first:
            if not exposed[first]:
                vector.append(parity[first])
            first += 1
        row += 1
    return tuple(vector)


# ---------------------------------------------------------------------------
# two maps, one target


@dataclass(frozen=True)
class PairReport:
    """The pair cells (i, j), K edge by L edge, row-major: cell c is divmod(c, width)."""

    width: int  # |E(L)|
    red2: tuple[bool, ...]
    values: tuple[int, ...]
    vanishes: bool

    @computed_once
    def cells2(self) -> tuple[tuple[int, int], ...]:
        """Every pair cell (K edge, L edge), in the order of red2 and values, built on first use."""
        return tuple(divmod(c, self.width) for c in range(len(self.red2)))


def pair_report(phi: SimplicialMap, psi: SimplicialMap) -> PairReport:
    """Obstruction data for two maps drawn together.

    Cells are all K-edge x L-edge pairs (the domains are already disjoint),
    red when the images share nothing; the unknowns are the non-red vertex
    x edge cells (x, j), f(x) an end of j's image, by x then j, and then
    the non-red edge x vertex cells (i, y), g(y) an end of i's image, by i
    then y.  Each K vertex and K edge keeps a table of its own cells only.
    The drawing is of the disjoint union of K and L, L's ids after K's, so
    the cell (i, j) is the union's strand pair (i, |E(K)| + j).
    """
    if phi.target != psi.target:
        raise PreconditionError("maps must share one target")
    phi = normalize_nondegenerate(phi)
    psi = normalize_nondegenerate(psi)
    phi_images = _image_ends(phi)
    psi_images = _image_ends(psi)
    e_phi, e_psi = len(phi_images), len(psi_images)
    over = _over(psi)
    at: list[list[int]] = [[] for _ in range(phi.target.n)]  # L vertices by image, increasing
    for y, fy in enumerate(psi.vertex_image):
        at[fy].append(y)
    # the column of each non-red 1-cell, vertex x edge cells first, in numbering order
    columns: list[list[int]] = []
    by_vertex = []  # per K vertex x: j -> the column of (x, j)
    for fx in phi.vertex_image:
        own = {}
        for j in over[fx]:
            own[j] = column = []
            columns.append(column)
        by_vertex.append(own)
    by_edge = []  # per K edge i: y -> the column of (i, y)
    for c, e in phi_images:
        own = {}
        for y in sorted(at[c] + at[e]):
            own[y] = column = []
            columns.append(column)
        by_edge.append(own)
    strands = e_phi + e_psi
    red2 = []
    pairs = []  # strand pair of each non-red cell, as the union's drawing numbers it
    for i, (x, y) in enumerate(phi.domain.edges):
        at_x, at_y, at_i = by_vertex[x], by_vertex[y], by_edge[i]
        for j, (z, w) in enumerate(psi.domain.edges):
            red = _disjoint(phi_images[i], psi_images[j])
            red2.append(red)
            if red:
                continue
            r = len(pairs)
            pairs.append(i * strands + e_phi + j)
            for column in (at_x.get(j), at_y.get(j), at_i.get(z), at_i.get(w)):
                if column is not None:
                    column.append(r)
    shift = phi.domain.n
    edges = phi.domain.edges + tuple((u + shift, w + shift) for u, w in psi.domain.edges)
    domain = DomainGraph._built(shift + psi.domain.n, edges)
    images = phi.vertex_image + psi.vertex_image
    edge_image = phi.edge_image + psi.edge_image
    rhs = _parities(SimplicialMap._built(domain, phi.target, images, edge_image), pairs)
    drawn = iter(rhs)
    values = tuple(0 if red else next(drawn) for red in red2)
    _, cert = solve_or_certify(Columns(len(pairs), columns), rhs, solve=False)
    return PairReport(e_psi, tuple(red2), values, cert is None)
