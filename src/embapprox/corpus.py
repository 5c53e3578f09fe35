"""Instance generation and the decision/oracle agreement runner.

Exhaustive corpora enumerate every simplicial map of a path or cycle into a
catalog target as a vertex assignment where consecutive images are equal or
adjacent.  Random corpora draw degree-<=3 multigraph domains with
nondegenerate assignments into a cycle, reproducibly from a seed.  The
runner decides every instance as `check` does (`decide_map`), paths also
by the obstruction alone, compares with the brute-force oracle, and emits
one TSV row per instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from operator import itemgetter

from .catalog import TARGETS, cycle_domain, path_domain
from .core import DomainGraph, PlaneGraph, SimplicialMap, _pair
from .decide import decide_map, decide_path_via_vk
from .errors import OracleBudgetExceeded
from .oracle import is_approximable_oracle

TSV_HEADER = "instance\tshape\ttarget\tk\tdecide\toracle\tvk\tagree"


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate and how."""

    shape: str  # path | cycle | deg3
    targets: tuple[str, ...]
    k_min: int = 1
    k_max: int = 7
    seed: int = 0
    count: int = 500  # deg3: instances per target
    max_lifts: int | None = None  # per-instance oracle budget

    def __post_init__(self):
        if self.shape not in ("path", "cycle", "deg3"):
            raise ValueError(f"unknown corpus shape {self.shape!r}")
        for t in self.targets:
            if t not in TARGETS:
                raise ValueError(f"unknown target {t!r}")


def _assignments(g: PlaneGraph, k: int, closed: bool):
    """Every walk of k vertices where consecutive images are equal or adjacent.

    Yields (vertex images, edge images) in lexicographic order of the
    vertex images, from an explicit stack of option iterators: seq[i] is
    the value drawn from stack[i], and steps[i] the target edge of the step
    into it (None when it stays put, and for the first vertex).  The edge
    images are in the edge order of `path_domain(k)`, or of
    `cycle_domain(k)` when closed, whose edge 1 is the closing edge
    (k - 1, 0).
    """
    if k == 0:
        yield (), ()
        return
    options = [
        sorted(
            [(v, None), *((g.other_end(e, v), e) for e in g.rotation[v])],
            key=itemgetter(0),
        )
        for v in range(g.n)
    ]
    edge_index = g.edge_index
    seq: list[int] = []
    steps: list[int | None] = []
    stack = [iter([(v, None) for v in range(g.n)])]
    while stack:
        img, step = next(stack[-1], (None, None))
        if len(seq) == len(stack):
            seq.pop()
            steps.pop()
        if img is None:
            stack.pop()
            continue
        seq.append(img)
        steps.append(step)
        if len(seq) < k:
            stack.append(iter(options[img]))
        elif not closed:
            yield tuple(seq), tuple(steps[1:])
        else:
            closing = None if img == seq[0] else edge_index.get(_pair(img, seq[0]), -1)
            if closing != -1:
                yield tuple(seq), (*steps[1:2], closing, *steps[2:])


def generate(spec: CorpusSpec):
    """Yield (instance id, map) deterministically.

    A walk's vertex and edge images both come from the target, so its map
    is built as it is (`SimplicialMap._built`), not checked again.
    """
    for tname in spec.targets:
        g = TARGETS[tname]()
        if spec.shape == "deg3":
            rng = random.Random(spec.seed)
            made = 0
            while made < spec.count:
                phi = random_deg3_map(g, rng, max_vertices=spec.k_max)
                yield f"deg3-{tname}-s{spec.seed}-{made:05d}", phi
                made += 1
            continue
        closed = spec.shape == "cycle"
        k_lo = max(spec.k_min, 3) if closed else spec.k_min
        for k in range(k_lo, spec.k_max + 1):
            domain = cycle_domain(k) if closed else path_domain(k)
            idx = 0
            for images, edge_images in _assignments(g, k, closed):
                yield f"{spec.shape}-{tname}-k{k}-{idx:06d}", SimplicialMap._built(
                    domain, g, images, edge_images
                )
                idx += 1


def random_deg3_map(
    target: PlaneGraph, rng: random.Random, max_vertices: int = 8
) -> SimplicialMap:
    """A loop-free multigraph with all degrees <= 3 and a nondegenerate map.

    Images spread from a random root along a spanning forest; instances whose
    non-tree edges land on non-adjacent images are redrawn.
    """
    while True:
        n = rng.randint(1, max_vertices)
        deg = [0] * n
        edges: list[tuple[int, int]] = []
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or deg[u] >= 3 or deg[v] >= 3:
                continue
            edges.append(_pair(u, v))
            deg[u] += 1
            deg[v] += 1
        edges.sort()
        incident: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            incident[u].append(eid)
            incident[v].append(eid)
        images: list[int | None] = [None] * n
        ok = True
        for root in range(n):
            if images[root] is not None:
                continue
            images[root] = rng.randrange(target.n)
            stack = [root]
            while stack and ok:
                x = stack.pop()
                for eid in incident[x]:
                    u, v = edges[eid]
                    y = v if x == u else u
                    if images[y] is None:
                        a = images[x]
                        nbrs = [target.other_end(e, a) for e in target.rotation[a]]
                        images[y] = nbrs[rng.randrange(len(nbrs))]
                        stack.append(y)
                    else:
                        a, b = images[x], images[y]
                        if a == b or _pair(a, b) not in target.edge_index:
                            ok = False
                            break
        if not ok:
            continue
        domain = DomainGraph(n, tuple(edges))
        return SimplicialMap(domain, target, tuple(images))


@dataclass(frozen=True)
class AgreementRow:
    instance: str
    shape: str
    target: str
    k: int
    decide: str
    oracle: str
    vk: str
    agree: bool

    def tsv(self) -> str:
        return "\t".join(
            (
                self.instance,
                self.shape,
                self.target,
                str(self.k),
                self.decide,
                self.oracle,
                self.vk,
                "yes" if self.agree else "NO",
            )
        )


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def evaluate_instance(
    instance_id: str, phi: SimplicialMap, shape: str, target_name: str,
    max_lifts: int | None = None,
) -> AgreementRow:
    """phi's row: `decide_map`'s verdict, and a path corpus's vk column, against the oracle's."""
    d = vk_verdict = decide_map(phi).approximable
    vk = "-"
    if shape == "path":
        vk_verdict = decide_path_via_vk(phi).approximable
        vk = _yn(vk_verdict)
    try:
        o, _ = is_approximable_oracle(phi, max_lifts=max_lifts)
        oracle_str = _yn(o)
        agree = (d == o) and (vk_verdict == o)
    except OracleBudgetExceeded:
        oracle_str = "inconclusive"
        agree = False
    return AgreementRow(instance_id, shape, target_name, phi.domain.n, _yn(d), oracle_str, vk, agree)


def _evaluate_target(spec: CorpusSpec) -> list[AgreementRow]:
    """The rows of a one-target corpus, every map built into one copy of the target."""
    (target_name,) = spec.targets
    return [
        evaluate_instance(instance_id, phi, spec.shape, target_name, spec.max_lifts)
        for instance_id, phi in generate(spec)
    ]


def run_agreement(spec: CorpusSpec, jobs: int = 1):
    """Evaluate the whole corpus; returns (rows sorted by id, disagreements).

    The work is split by target.  With jobs > 1 and more than one target a
    worker process generates and decides all maps of one target, so they
    share one copy of the target and the memos kept on it, as they do in a
    single process; no more workers start than there are targets.
    """
    per_target = [replace(spec, targets=(name,)) for name in spec.targets]
    workers = min(jobs, len(per_target))
    if workers > 1:
        # imported here: it costs every CLI start about 14 ms, and one worker needs none
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_evaluate_target, per_target))
    else:
        batches = [_evaluate_target(s) for s in per_target]
    rows = [row for batch in batches for row in batch]
    rows.sort(key=lambda r: r.instance)
    bad = sum(1 for r in rows if not r.agree)
    return rows, bad

