"""Brute-force ground truth: search for an embedding-shaped lift.

Replace each target edge carrying m domain edges by m nested parallel
copies.  A lift assigns each domain edge its own copy; the lifted map is
injective along strips, so it can be perturbed to an embedding exactly when
no vertex disc forces a crossing between two vertex-disjoint length-2 walks
of the domain.  The search over all per-edge copy assignments is exhaustive
and therefore decides approximability outright, at factorial cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .core import SimplicialMap, WalkArc, normalize_nondegenerate
from .errors import OracleBudgetExceeded, PreconditionError


@dataclass(frozen=True)
class Expansion:
    """The target with every edge split into one lane per domain strand.

    ``refined[v]`` lists the (edge, lane) ports around the disc of target
    vertex v in rotation order, each edge slot expanded into its lane block;
    nested copies meet the smaller endpoint in lane order and the larger
    endpoint reversed.
    """

    phi: SimplicialMap
    strands: tuple[tuple[int, ...], ...]  # per target edge: domain edges onto it
    refined: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class Lift:
    """One copy assignment: ``by_edge[a][lane]`` is the domain edge riding it."""

    by_edge: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LiftCrossing:
    """Two vertex-disjoint length-2 walks forced to cross inside one disc."""

    disc: int
    arc_p: WalkArc
    arc_q: WalkArc
    positions: tuple[int, int, int, int]


@dataclass(frozen=True)
class OracleResult:
    approximable: bool
    lift: Lift | None
    lifts_examined: int
    total_lifts: int


def build_expansion(phi: SimplicialMap) -> Expansion:
    if not phi.is_nondegenerate():
        raise PreconditionError("map has degenerate edges; normalize first")
    g = phi.target
    strands: list[list[int]] = [[] for _ in g.edges]
    for eid, img in enumerate(phi.edge_image):
        strands[img].append(eid)
    refined = []
    for v in range(g.n):
        row: list[tuple[int, int]] = []
        for a in g.rotation[v]:
            lanes: range | reversed = range(len(strands[a]))
            if v != g.edges[a][0]:
                lanes = reversed(lanes)
            row.extend((a, c) for c in lanes)
        refined.append(tuple(row))
    return Expansion(phi, tuple(tuple(s) for s in strands), tuple(refined))


def _branch_end(phi: SimplicialMap, eid: int, v: int) -> int:
    """The domain endpoint of edge eid mapping to target vertex v."""
    u, w = phi.domain.edges[eid]
    return u if phi.vertex_image[u] == v else w


def _walk_vertices(d, x: int, e1: int, e2: int) -> set[int]:
    return {x, *d.edges[e1], *d.edges[e2]}


def _interleaved(i: int, j: int, k: int, l: int) -> bool:
    """Do boundary positions {i,j} and {k,l} alternate around the disc?"""
    lo, hi = min(i, j), max(i, j)
    return (lo < k < hi) != (lo < l < hi)


def _arc(phi: SimplicialMap, x: int, e1: int, e2: int) -> WalkArc:
    d = phi.domain
    a, b = d.edges[e1]
    c, e = d.edges[e2]
    return WalkArc(
        vertices=(b if a == x else a, x, e if c == x else c),
        edges=(e1, e2),
        closed=False,
    )


def _disc_witness(phi: SimplicialMap, v: int, entries) -> LiftCrossing | None:
    """Least crossing among the occupied ports of one disc, if any.

    entries: (position, star center, domain edge) triples.
    """
    stars: dict[int, list[tuple[int, int]]] = {}
    for pos, x, eid in entries:
        stars.setdefault(x, []).append((pos, eid))
    best = None
    for x, y in combinations(sorted(stars), 2):
        if len(stars[x]) < 2 or len(stars[y]) < 2:
            continue
        for (pa, ea), (pb, eb) in combinations(sorted(stars[x]), 2):
            px = _walk_vertices(phi.domain, x, ea, eb)
            for (qa, ec), (qb, ed) in combinations(sorted(stars[y]), 2):
                if not _interleaved(pa, pb, qa, qb):
                    continue
                if px & _walk_vertices(phi.domain, y, ec, ed):
                    continue
                key = tuple(sorted((pa, pb, qa, qb)))
                if best is None or key < best[0]:
                    best = (key, LiftCrossing(v, _arc(phi, x, ea, eb), _arc(phi, y, ec, ed), key))
    return None if best is None else best[1]


def lift_crossing_check(exp: Expansion, lift: Lift) -> LiftCrossing | None:
    """Full scan of every disc of the lifted drawing; least witness or None."""
    phi = exp.phi
    for v in range(phi.target.n):
        entries = []
        for pos, (a, lane) in enumerate(exp.refined[v]):
            eid = lift.by_edge[a][lane]
            entries.append((pos, _branch_end(phi, eid, v), eid))
        found = _disc_witness(phi, v, entries)
        if found is not None:
            return found
    return None


def _forces_crossing(phi, stars: dict[int, list[tuple[int, int]]], x: int, pos: int, eid: int) -> bool:
    """Would adding this branch cross an already-placed pair of another star?"""
    own = stars.get(x, ())
    if not own:
        return False
    for pb, eb in own:
        lo, hi = min(pos, pb), max(pos, pb)
        mine = _walk_vertices(phi.domain, x, eid, eb)
        for y, branches in stars.items():
            if y == x or len(branches) < 2:
                continue
            for (qa, ec), (qb, ed) in combinations(branches, 2):
                if (lo < qa < hi) == (lo < qb < hi):
                    continue
                if not (mine & _walk_vertices(phi.domain, y, ec, ed)):
                    return True
    return False


def oracle_result(
    phi: SimplicialMap,
    *,
    max_lifts: int | None = None,
    prune: bool = True,
    strand_order: tuple[int, ...] | None = None,
) -> OracleResult:
    """Exhaustive decision with the first accepted lift in search order.

    The default strand order (increasing domain edge id) makes the accepted
    lift the lexicographically least one; ``strand_order`` is a testing hook
    for search-order-independence checks and changes which accepted lift is
    reported, never the verdict.  ``prune`` cuts a branch as soon as the
    placed ports already force a crossing; prunes never remove an acceptable
    completion, so the verdict and first accepted lift match the unpruned
    search.
    """
    if phi.domain.shape in ("path", "cycle"):
        phi = normalize_nondegenerate(phi)
    elif not phi.is_nondegenerate():
        raise PreconditionError(
            "general-shape maps must be nondegenerate for the oracle"
        )
    exp = build_expansion(phi)
    g = phi.target
    d = phi.domain
    total = 1
    for s in exp.strands:
        total *= factorial(len(s))
    order = strand_order if strand_order is not None else tuple(range(len(d.edges)))
    if sorted(order) != list(range(len(d.edges))):
        raise PreconditionError("strand order must enumerate every domain edge once")

    position = [
        {key: i for i, key in enumerate(row)} for row in exp.refined
    ]
    free: list[list[bool]] = [[True] * len(s) for s in exp.strands]
    lanes_chosen: dict[int, int] = {}
    discs: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(g.n)]
    examined = 0
    accepted: Lift | None = None

    def placements(eid: int, lane: int):
        a = phi.edge_image[eid]
        for v in set(g.edges[a]):
            x = _branch_end(phi, eid, v)
            yield v, x, position[v][(a, lane)]

    def descend(idx: int) -> bool:
        nonlocal examined, accepted
        if idx == len(order):
            examined += 1
            if max_lifts is not None and examined > max_lifts:
                raise OracleBudgetExceeded(examined - 1)
            if not prune:
                lift = _assemble(exp, lanes_chosen)
                if lift_crossing_check(exp, lift) is not None:
                    return False
                accepted = lift
                return True
            accepted = _assemble(exp, lanes_chosen)
            return True
        eid = order[idx]
        a = phi.edge_image[eid]
        for lane in range(len(exp.strands[a])):
            if not free[a][lane]:
                continue
            placed = list(placements(eid, lane))
            if prune and any(
                _forces_crossing(phi, discs[v], x, pos, eid) for v, x, pos in placed
            ):
                continue
            free[a][lane] = False
            lanes_chosen[eid] = lane
            for v, x, pos in placed:
                discs[v].setdefault(x, []).append((pos, eid))
            if descend(idx + 1):
                return True
            for v, x, pos in placed:
                discs[v][x].remove((pos, eid))
            del lanes_chosen[eid]
            free[a][lane] = True
        return False

    descend(0)
    return OracleResult(accepted is not None, accepted, examined, total)


def _assemble(exp: Expansion, lanes_chosen: dict[int, int]) -> Lift:
    by_edge = []
    for a, strand in enumerate(exp.strands):
        row = [-1] * len(strand)
        for eid in strand:
            row[lanes_chosen[eid]] = eid
        by_edge.append(tuple(row))
    return Lift(tuple(by_edge))


def is_approximable_oracle(
    phi: SimplicialMap, *, max_lifts: int | None = None
) -> tuple[bool, Lift | None]:
    """Does some lift avoid all forced crossings?  (verdict, accepted lift)."""
    result = oracle_result(phi, max_lifts=max_lifts)
    return result.approximable, result.lift
