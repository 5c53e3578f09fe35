"""Decision procedures for approximability by embeddings.

Paths and cycles are decided on the stages of `derivative_stages`, which
derives each stage on demand.  Each stage is checked for transversal
self-intersections (cycle stages also for windings of degree outside
{-1, 0, 1}) until one concludes, and every run ends within n derives.
A winding of degree d covers its image circle |d| times, and a circle has
as many vertices as edges, so a cycle-shaped stage is scanned for windings
only when its walk is at least twice as long as its image has edges and
its image has as many vertices as edges: no other cycle stage holds a
winding of degree |d| >= 2.  A general-shaped stage is scanned component
by component, and a path stage never winds.
A path or cycle stage whose image has no branch vertex (no vertex of
degree 3 or more) is the last stage built, unless it is a closed walk
that winds |d| >= 2 times round its image: nothing on the rest of its
tower can reject it, and which exit ends the run (empty domain, terminal
or stabilized) and after how many derives is counted from the turns of
its walk in O(n) (`_branch_free_outcome`).  Every run that ends on an
exit of the tower passes such a stage first, so those exits are met in
closed form only, and deciding the identity path onto C900 or the
there-and-back fold onto C65,536 builds no derived target at all.
When `derive` refuses a stage, the oracle decides and the verdict is
flagged for review; its search is kept in the stage target's
`PlaneGraph.oracle_memo`, so the oracle route on a map refused at stage
0 finds it there.  What a run concludes is kept in its target's
`PlaneGraph.decide_memo`, keyed by the normalized map's domain edges and
vertex image, so each distinct normalized map into one target is run
once; derived targets keep no verdict.  `decide_map` picks the route by
the domain's shape: paths and cycles take the derivative stages, any
other domain the degree-3 rule.  Degree-3 domains over a cycle combine
the mod-2 obstruction with a winding-parity check on the last stage of
`derivative_stages`, keeping no earlier stage.  A second, independent
route for paths uses the obstruction alone.  Both routes keep the
obstruction's verdict in the target's `PlaneGraph.obstruction_memo` under
the same key, as the oracle keeps its searches, so each distinct
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
# the events of the exits `_branch_free_outcome` counts its run to
_TERMINAL = Event("terminal-approximable")
_EMPTY_DOMAIN = Event("empty-domain")


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


def _branch_free_outcome(cur: SimplicialMap) -> tuple | None:
    """The outcome of the run from the path or cycle stage cur, whose image never branches.

    cur has passed `_rejection`, and the run approves the map.  The outcome
    is (derives from cur, the event of the exit it ends on, None for the
    stabilized one, which has no event), or None for a closed walk that
    winds |d| >= 2 times round its image: its run goes on stage by stage,
    since the sign of its forbidden winding is read in the labels of a
    derived target.  Nothing on the rest of the tower can cross or refuse
    a derive: arcs cross only at a branch vertex of the image
    (`transversal`), and the derivative stays branch-free, since a G'
    vertex a = xy has at most one realized neighbour through x, the one
    other image edge at x, and one through y.
    The image is a path or a cycle, along which the walk x_0 .. x_L steps
    one way or the other (x_L = x_0 on a closed walk, indices mod L).  A
    turn is a position j with x_(j-1) = x_(j+1); the turns cut the L edges
    into segments of alternating direction, of lengths l_1 .. l_m, on a
    closed walk cyclically from turn to turn, so that its m turns are even
    in number.  The segment rule is exactly the run collapse of `derive`:
    the edges at a turn are equal and fall into one run, while inside a
    segment consecutive edges differ, so a segment of length l keeps l - 1
    steps of the derived walk, in its own direction.  One derive thus
    lowers every length by 1, drops those that reach 0 and merges
    neighbouring survivors that run the same way, which they do when an
    odd number of segments was dropped between them; on a closed walk the
    last survivor and the first are neighbours across the walk's start.
    The length drops by m.  The exits:
    - A path stage never stabilizes and is never terminal: K' has one
      vertex per run, fewer than the stage has vertices, and only a cycle
      domain derives to the terminal configuration.  Its run ends when no
      segment is left, on one vertex, plus the derive to the empty domain.
    - A closed walk derives to L - m runs, one per position that is not a
      turn (never one: edges that change round a closed walk change
      twice).  Two runs are the terminal configuration.  With none (L = m)
      one run goes all round, and K' is one vertex, as above.  With three
      or more K' is a cycle of L - m vertices, again a clean branch-free
      cycle stage, since a winding needs a walk without turns.
    - A closed walk without turns never steps back, so it winds round its
      image, a cycle of p vertices, L / p times.  Its net winding d, the
      alternating sum l_1 - l_2 + ... over p, is the same on every stage:
      a derive takes 1 from each of an even number of lengths, and a walk
      of d != 0 passes through every vertex of its image cycle, so the
      derived image is again a p-cycle.  So a walk of |d| <= 1 reaches a
      stage without turns only with |d| = 1, and one of d = 0 ends on an
      exit above.  The derive after that stage stabilizes
      (`derivative._stabilized`) when its target is the image cycle, as on
      every stage after the first, which maps onto its target; a first
      stage into a larger target (a cycle of theta) takes one more.
    No segment drops before the shortest reaches 0, so rounds are taken
    that many at a time, and a length of 2 within them is found by
    division; each batch costs O(m) and removes at least m from the
    length, so all of them cost O(L).
    """
    vimg = cur.vertex_image
    x = [vimg[v] for v in cur.domain.walk[0]]
    closed = cur.domain.shape == "cycle"
    y = x + x[:2] if closed else x
    turns = [j for j, (a, b) in enumerate(zip(y, y[2:]), 1) if a == b]
    cuts = turns + [t + len(x) for t in turns[:1]] if closed else [0, *turns, len(x) - 1]
    lengths = [b - a for a, b in zip(cuts, cuts[1:])]  # one vertex: one segment of length 0
    length = len(x) if closed else len(x) - 1
    if closed:
        net = abs(sum(lengths[::2]) - sum(lengths[1::2])) if lengths else length
        if net >= 2 * len(set(x)):
            return None
    derives = 0
    while length:
        if not lengths:  # a closed walk without turns, |d| = 1
            g = cur.target
            onto = derives or len(g.edges) == g.n == length
            return (derives + (1 if onto else 2), None)
        m, low = len(lengths), min(lengths)
        if closed and (length - 2) % m == 0 and (length - 2) // m <= low:
            return (derives + (length - 2) // m, _TERMINAL)
        derives += low
        length -= low * m
        if closed:  # read the cycle of lengths from a survivor, so only the last can wrap
            top = lengths.index(max(lengths))
            lengths = lengths[top:] + lengths[:top]
        merged = []
        odd = False  # an odd number of segments dropped since the last survivor
        for segment in lengths:
            segment -= low
            if not segment:
                odd = not odd
                continue
            if merged and odd:
                merged[-1] += segment
            else:
                merged.append(segment)
            odd = False
        if closed and odd and merged:
            # the last survivor runs on into the first; a lone one leaves no turn
            tail = merged.pop()
            if merged:
                merged[0] += tail
        lengths = merged
    return (derives + 1, _EMPTY_DOMAIN)


def _decide_by_iteration(phi: SimplicialMap, criterion: str) -> Verdict:
    """The `_run_stages` of the normalized phi, made once per distinct normalized map and target.

    A run reads only the normalized map's domain edges, its vertex image
    and the target, so a map whose key is in the target's `decide_memo`
    takes the stored outcome and enters no `derivative_stages`.
    """
    phi = normalize_nondegenerate(phi)
    memo = phi.target.decide_memo
    key = (phi.domain.edges, phi.vertex_image)
    known = memo.get(key)
    if known is None:
        known = memo[key] = _run_stages(phi)
    passes, final, approximable, flagged = known
    trace = tuple([(j, _CLEAN_PASS) for j in range(passes)]) + final
    return Verdict(approximable, criterion, trace, flagged)


def _run_stages(phi: SimplicialMap) -> tuple:
    """Check each stage of `derivative_stages(phi, n)` until one concludes.

    phi is normalized, and n is its vertex count.  The outcome is (clean
    passes, final events at their stages, approximable, flagged for review).
    A path or cycle stage whose image has no branch vertex concludes once
    it passes its check: `_branch_free_outcome` counts from the turns of
    its walk, in O(n), how its run ends, and no later stage is built.  Only
    a closed walk that winds |d| >= 2 times round its image goes on, until
    a stage without turns shows the winding to the winding check.  So the
    run never meets an exit of the tower: the stage before a terminal one
    has two runs, whose image is a path of two edges; the stage before a
    stabilized one winds round a cycle image without turns, and is
    rejected if |d| >= 2; the stage before an empty one is a single vertex
    (what a doubled edge, the one general stage met here, derives to).
    None of these images branches.
    Every run ends within n derives: a path stage loses a vertex per
    derive, and on a cycle stage Phi = L - |V(image)| (L the domain length)
    drops by at least one per derive until the stage is a winding, which
    the winding check rejects (|d| >= 2) or the next derive stabilizes
    (|d| = 1), so a cycle run takes at most Phi_0 + 2 <= n derives, since
    a normalized closed walk covers at least one edge.  A run that would
    take more raises `InvariantError` instead of answering.
    """
    budget = phi.domain.n
    try:
        for i, (cur, _, _) in enumerate(derivative_stages(phi, budget)):
            event = _rejection(cur)
            if event is not None:
                return (i, ((i, event),), False, False)
            if cur.domain.shape != "general" and not branch_vertices(cur):
                outcome = _branch_free_outcome(cur)
                if outcome is not None:
                    derives, last = outcome
                    end = i + derives  # stages 0 .. end - 1 pass clean
                    if end > budget:
                        break
                    return (end, ((end, last),) if last else (), True, False)
    except DerivePreconditionError as err:
        # refused on a non-disjoint crossing: the oracle decides, flagged
        ok, _ = is_approximable_oracle(cur)
        final = () if ok else ((i, Event("transversal-self-intersection", err.witness)),)
        return (i + 1, final, ok, True)
    raise InvariantError("derive-bound", f"{budget} derives left a stage undecided")


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


def decide_map(phi: SimplicialMap) -> Verdict:
    """The verdict of the route for phi's domain shape, the one `check` answers.

    Paths and cycles are decided on their derivative stages, any other
    domain by `decide_deg3_to_circle`, which raises `PreconditionError` for
    a target that is not a cycle, a vertex of degree > 3 or a degenerate map.
    """
    route = {"path": decide_path, "cycle": decide_cycle}.get(phi.domain.shape, decide_deg3_to_circle)
    return route(phi)
