"""Decision procedures for approximability by embeddings.

Paths and cycles are decided on the stages of `derivative_stages`, which
derives each stage on demand and ends on the tower's exits (empty domain,
terminal, stabilized).  A path stage never stabilizes, and a cycle stage
does exactly when it winds round a cycle target, which counts on the stage
settle with no isomorphism search.  Each stage is checked for transversal
self-intersections (cycle stages also for windings of degree outside
{-1, 0, 1}) until one concludes, and every run ends within n derives.
A winding of degree d covers its image circle |d| times, and a circle has
as many vertices as edges, so a cycle-shaped stage is scanned for windings
only when its walk is at least twice as long as its image has edges and
its image has as many vertices as edges: no other cycle stage holds a
winding of degree |d| >= 2.  A general-shaped stage is scanned component
by component, and a path stage never winds.
A path stage whose image has no branch vertex (no vertex of degree 3 or
more) is the last stage built: nothing on the rest of its tower can
reject it, and the number of derives to its empty domain is counted from
the turns of its walk in O(n) (`_derives_to_empty`), so deciding the
identity path onto C900 builds no derived target at all.
When `derive` refuses a stage, the oracle decides and the verdict is
flagged for review.  What a stage map concludes from there on is kept in
its target's `PlaneGraph.decide_memo`, keyed by the map's domain edges
and vertex image, so a stage met again under one target, by the same map
or another, is decided once.  The memo grows with the distinct stages
decided into the target and lives as long as the target, like its
`crossing_memo`.  Degree-3 domains over a cycle combine
the mod-2 obstruction with a winding-parity check on the last stage of
`derivative_stages`, keeping no earlier stage.  A second, independent
route for paths uses the obstruction alone.  Both routes keep the
obstruction's verdict in the target's `PlaneGraph.obstruction_memo`, keyed
by the normalized map's domain edges and vertex image, so each distinct
normalized map into one target is drawn and solved once.  Every verdict
carries a trace of per-step events.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SimplicialMap, normalize_nondegenerate, simple_walk
from .derivative import derivative_stages, winding_report
from .errors import DerivePreconditionError, InvariantError, PreconditionError
from .oracle import is_approximable_oracle
from .transversal import branch_vertices, find_crossing_pair
from .vankampen import obstruction_vanishes

EVENT_KINDS = frozenset(
    {
        "transversal-self-intersection",
        "forbidden-winding",
        "obstruction-nonzero",
        "empty-domain",
        "terminal-approximable",
        "clean-pass",
    }
)


@dataclass(frozen=True)
class Event:
    kind: str
    detail: object = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise PreconditionError(f"unknown event kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "forbidden-winding":
            return f"forbidden-winding({self.detail})"
        if self.detail is None:
            return self.kind
        return f"{self.kind}(..)"


@dataclass(frozen=True)
class Verdict:
    approximable: bool
    criterion: str
    trace: tuple[tuple[int, Event], ...]
    flagged_for_review: bool = False

    def decisive(self) -> tuple[int, Event] | None:
        """The single non-clean event of a negative verdict."""
        hits = [
            (i, e)
            for i, e in self.trace
            if e.kind in ("transversal-self-intersection", "forbidden-winding", "obstruction-nonzero")
        ]
        return hits[0] if hits else None


_CLEAN_PASS = Event("clean-pass")
# the outcomes every run ending on one of these exits shares (see _decide_by_iteration)
_TERMINAL = (0, ((0, Event("terminal-approximable")),), True, False)
_STABILIZED = (0, (), True, False)
_EMPTY_DOMAIN = (0, ((0, Event("empty-domain")),), True, False)


def _rejection(cur: SimplicialMap) -> Event | None:
    """The event that rejects the stage map cur, or None when it passes clean."""
    witness = find_crossing_pair(cur, disjoint_only=True)
    if witness is not None:
        return Event("transversal-self-intersection", witness)
    shape = cur.domain.shape
    if shape == "cycle":
        # no winding of degree |d| >= 2 fits unless both hold (module docstring)
        eimg = cur.edge_image
        covered = len(set(eimg))
        if len(eimg) < 2 * covered or covered != len(set(cur.vertex_image)):
            return None
    if shape != "path":  # a path never winds
        for comp in winding_report(cur).components:
            if comp.is_winding and abs(comp.degree) >= 2:
                return Event("forbidden-winding", comp.degree)
    return None


def _derives_to_empty(cur: SimplicialMap) -> int:
    """How many derives take the path stage cur, whose image never branches, to no vertex.

    Nothing on the rest of the tower can reject cur or end its run early:
    - no crossing occurs: arcs cross only at a branch vertex of the image
      (`transversal`), so neither crossing scan finds a pair and no derive
      is refused;
    - the derivative stays defined and branch-free: a G' vertex a = xy has
      at most one realized neighbour through x, the one other image edge
      at x, and one through y, so G' has maximum degree 2;
    - a path stage never stabilizes and is never terminal: K' has one
      vertex per run of the walk, fewer than the stage has vertices, and
      only a cycle domain derives to the terminal configuration; so every
      later stage is a clean path stage too, and the run ends on the empty
      domain.
    The image is a path or a cycle, along which the walk x_0 .. x_k steps
    one way or the other.  A turn is a position j with x_(j-1) = x_(j+1);
    the turns cut the k edges into segments of alternating direction, of
    lengths l_1 .. l_m.  The segment rule is exactly the run collapse of
    `derive`: the edges at a turn are equal and fall into one run, while
    inside a segment consecutive edges differ, so a segment of length l
    keeps l - 1 steps of the derived walk, in its own direction.  One
    derive thus lowers every length by 1, drops those that reach 0 and
    merges neighbouring survivors that run the same way, which they do
    when an odd number of segments was dropped between them.  The count is
    the rounds until no segment is left, plus the derive of the one vertex
    then left (a one-vertex stage needs 1).  No segment drops before the
    shortest reaches 0, so rounds are taken that many at a time; each pass
    costs O(m) and removes at least m from the total length, so all of
    them cost O(k).
    """
    vimg = cur.vertex_image
    x = [vimg[v] for v in cur.domain.walk[0]]
    turns = (j for j, (a, b) in enumerate(zip(x, x[2:]), 1) if a == b)
    cuts = [0, *turns, len(x) - 1]
    lengths = [b - a for a, b in zip(cuts, cuts[1:])]  # one vertex: one segment of length 0
    derives = 1
    while lengths:
        low = min(lengths)
        derives += low
        merged = []
        odd = False  # an odd number of segments dropped since the last survivor
        for length in lengths:
            length -= low
            if not length:
                odd = not odd
                continue
            if merged and odd:
                merged[-1] += length
            else:
                merged.append(length)
            odd = False
        lengths = merged
    return derives


def _decide_by_iteration(phi: SimplicialMap, criterion: str) -> Verdict:
    """Check each stage of `derivative_stages(phi, n)` until one concludes.

    A path stage whose image has no branch vertex concludes once it passes
    its check: the run then ends on the empty domain after the derives
    that `_derives_to_empty` counts in O(n), and no later stage is built.
    Every run ends within n derives, n the vertex count of phi: a path
    stage loses a vertex per derive, and on a cycle stage Phi = L -
    |V(image)| (L the domain length) drops by at least one per derive until
    the stage is a winding, which the winding check rejects (|d| >= 2) or
    the next derive stabilizes (|d| = 1), so a cycle run takes at most
    Phi_0 + 2 <= n derives.  A run that would take more raises
    `InvariantError` instead of answering.  A stage whose own derive ends
    the run (terminal or stabilized) is not checked.  What a stage map
    concludes is kept in its target's `decide_memo` as (derives from this
    stage, final events, approximable, flagged for review), a final event
    at stage s of a run whose clean passes end before stage `end` kept as
    (s - end, event); so a stage met again under the same target, by this
    map or another, is not decided twice.  Stage 0, the normalized phi, is
    looked up before any derive; its key reads the quotient, which the
    other routes share as `phi.normalized`.
    """
    budget = phi.domain.n
    ran = []  # (memo, key) of each stage decided here, not found in a memo
    try:
        for i, (cur, _, status) in enumerate(derivative_stages(phi, budget)):
            if status == "terminal":
                outcome = _TERMINAL
                break
            if status == "stabilized":
                outcome = _STABILIZED
                break
            memo = cur.target.decide_memo
            key = (cur.domain.edges, cur.vertex_image)
            outcome = memo.get(key)
            if outcome is not None:
                break
            ran.append((memo, key))
            if status == "empty-domain":
                outcome = _EMPTY_DOMAIN
                break
            event = _rejection(cur)
            if event is not None:
                outcome = (0, ((0, event),), False, False)
                break
            if cur.domain.shape == "path" and not branch_vertices(cur):
                outcome = (_derives_to_empty(cur),) + _EMPTY_DOMAIN[1:]
                break
    except DerivePreconditionError as err:
        # refused on a non-disjoint crossing: the oracle decides, flagged
        ok, _ = is_approximable_oracle(cur)
        final = () if ok else ((-1, Event("transversal-self-intersection", err.witness)),)
        outcome = (1, final, ok, True)
    if outcome is None or i + outcome[0] > budget:
        raise InvariantError("derive-bound", f"{budget} derives left a stage undecided")
    derives, final, approximable, flagged = outcome
    end = i + derives  # stages 0 .. end - 1 are clean passes, each followed by a derive
    for j, (memo, key) in enumerate(ran):
        memo[key] = (end - j, final, approximable, flagged)
    trace = [(j, _CLEAN_PASS) for j in range(end)]
    trace.extend((end + t, event) for t, event in final)
    return Verdict(approximable, criterion, tuple(trace), flagged)


def decide_path(phi: SimplicialMap) -> Verdict:
    """A path map embeds approximably iff every derivative stage is crossing-free."""
    if phi.domain.shape != "path":
        raise PreconditionError("domain shape must be path")
    return _decide_by_iteration(phi, "path-derivatives")


def decide_cycle(phi: SimplicialMap) -> Verdict:
    """A cycle map additionally fails on any winding of degree outside {-1,0,1}."""
    if phi.domain.shape != "cycle":
        raise PreconditionError("domain shape must be cycle")
    return _decide_by_iteration(phi, "cycle-derivatives")


def _obstruction(phi: SimplicialMap) -> tuple:
    """`obstruction_vanishes(phi)`, decided once per distinct normalized map and target.

    The obstruction of a normalized map reads only its domain edges, its
    vertex image and the target, and its witness cells use domain ids, so
    a map that normalizes to a stored key takes the stored (vanishes,
    certificate cells or None).
    """
    phi = normalize_nondegenerate(phi)
    memo = phi.target.obstruction_memo
    key = (phi.domain.edges, phi.vertex_image)
    known = memo.get(key)
    if known is None:
        known = memo[key] = obstruction_vanishes(phi)
    return known


def decide_path_via_vk(phi: SimplicialMap) -> Verdict:
    """Independent path route: approximable iff the obstruction vanishes."""
    if phi.domain.shape != "path":
        raise PreconditionError("domain shape must be path")
    vanishes, witness = _obstruction(phi)
    if vanishes:
        return Verdict(True, "path-van-kampen", ((0, Event("clean-pass")),))
    return Verdict(
        False, "path-van-kampen", ((0, Event("obstruction-nonzero", witness)),)
    )


def decide_deg3_to_circle(phi: SimplicialMap) -> Verdict:
    """Degree-<=3 domain into a cycle: obstruction plus last-stage winding parity.

    Not approximable exactly when the obstruction fails to vanish or the
    final derivative contains a winding of odd degree other than +-1.
    """
    d = phi.domain
    for v in range(d.n):
        if d.degree(v) > 3:
            raise PreconditionError(
                f"vertex {v} has degree {d.degree(v)} > 3"
            )
    g = phi.target
    if len(g.edges) != g.n or simple_walk(g.n, g.edges) is None:
        raise PreconditionError("target is not a cycle")
    if not phi.is_nondegenerate():
        raise PreconditionError("map must be nondegenerate")
    vanishes, witness = _obstruction(phi)
    if not vanishes:
        return Verdict(
            False,
            "degree-3-to-circle",
            ((0, Event("obstruction-nonzero", witness)),),
        )
    # every target derived from a cycle has maximum degree <= 2, where no
    # image branches and no arcs cross, so no derive here is refused
    for final_step, (final, _, _) in enumerate(derivative_stages(phi, d.n)):
        pass
    for comp in winding_report(final).components:
        if comp.is_winding and comp.degree % 2 != 0 and abs(comp.degree) >= 3:
            return Verdict(
                False,
                "degree-3-to-circle",
                ((final_step, Event("forbidden-winding", comp.degree)),),
            )
    return Verdict(True, "degree-3-to-circle", ((final_step, Event("clean-pass")),))
