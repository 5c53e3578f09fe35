"""Command-line front end.

Subcommands: check (decide one instance), derive (iterate the derivative,
optionally exporting DOT files), vk (obstruction report, single map or
pair), oracle (brute-force decision), winding (winding report), corpus
(agreement suites and fixture replay).  Exit codes: 0 approximable /
success, 1 not approximable / disagreement, 2 input or usage error, 3
out-of-scope shape, 4 inconclusive (budget, memory or recursion depth
exhausted), 5 internal error (any other exception: a fault of the
program, never a verdict).
"""

from __future__ import annotations

import argparse
import io
import sys
import traceback
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

from .core import parse_instance, zero_components
from .corpus import TSV_HEADER, CorpusSpec, run_agreement
from .decide import decide_map
from .derivative import derivative_stages, winding_report
from .errors import (
    DanglingIdError,
    DerivePreconditionError,
    EmbapproxError,
    InvariantError,
    OracleBudgetExceeded,
    ParseError,
    PreconditionError,
)
from .oracle import oracle_result
from .vankampen import cut_components, obstruction_report, pair_report


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_instance(text)


def _dot(phi, title: str, domain_names, target_names) -> str:
    g, d = phi.target, phi.domain
    edge_names = [f"{target_names[u]}-{target_names[v]}" for u, v in g.edges]
    lines = [f'graph "{title}" {{']
    lines.append("  // counterclockwise rotations of the target:")
    for v in range(g.n):
        rot = " ".join(edge_names[e] for e in g.rotation[v])
        lines.append(f"  // rot {target_names[v]} : {rot}")
    lines.append("  node [shape=circle];")
    for x in range(d.n):
        lines.append(
            f'  k{x} [label="{domain_names[x]}->{target_names[phi.vertex_image[x]]}"];'
        )
    for eid, (u, v) in enumerate(d.edges):
        img = phi.edge_image[eid]
        lbl = edge_names[img] if img is not None else "degenerate"
        lines.append(f'  k{u} -- k{v} [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stage0_names(count: int, member) -> list[str]:
    """Names of stage 0's vertices: the input ids of each class, joined by "+".

    Stage 0 is the input quotiented by its degenerate edges, into count
    classes; member gives each input vertex's class as `zero_components`
    numbers them, by smallest vertex.  Each class lists its vertex ids in
    increasing order.
    """
    groups: list[list[str]] = [[] for _ in range(count)]
    for x, c in enumerate(member):
        groups[c].append(str(x))
    return ["+".join(g) for g in groups]


def _derived_names(step) -> tuple[list[str], list[str]]:
    """Names of a derived stage's domain and target vertices, by provenance.

    A G' vertex is named after its target edge, `PlaneGraph.edge_name`:
    by the input's vertex names at stage 1 and, since derived targets carry
    no names, by vertex ids after that, so no name grows from stage to
    stage.  The j-th K' vertex over one target edge is `<edge>#j` (K'
    numbers its vertices by target edge first).
    """
    g = step.source.target
    target_names = [g.edge_name(a) for a in step.realized_edges]
    seen: dict[int, int] = {}
    domain_names = []
    for r in step.map.vertex_image:
        seen[r] = seen.get(r, -1) + 1
        domain_names.append(f"{target_names[r]}#{seen[r]}")
    return domain_names, target_names


def _cmd_check(args) -> int:
    verdict = decide_map(_load(args.file))
    if verdict.approximable:
        print("approximable")
    else:
        _, event = verdict.decisive()
        print(f"not approximable: {event}")
    if verdict.flagged_for_review:
        print("flagged-for-review: derivative precondition failed; oracle decided")
    if args.trace:
        for step, event in verdict.trace:
            print(f"step {step}: {event}")
    return 0 if verdict.approximable else 1


def _cmd_derive(args) -> int:
    """Print each stage, and write its DOT file, as `derivative_stages` yields it.

    phi is dropped before the first stage is asked for, so no stage is held
    after the next one is built (see `derivative_stages`).
    """
    phi = _load(args.file)
    steps = args.steps if args.steps is not None else phi.domain.n
    out = None
    if args.dot:
        out = Path(args.dot)
        out.mkdir(parents=True, exist_ok=True)
        # stage 0 is built here, with the classes that name its vertices
        phi, member = zero_components(phi)
        domain_names = _stage0_names(phi.domain.n, member)
        target_names = [phi.target.name_of(v) for v in range(phi.target.n)]
    stages = derivative_stages(phi, steps)
    del phi
    failure = None
    try:
        for i, (m, step, status) in enumerate(stages):
            d = m.domain
            print(
                f"step {i}: vertices={d.n} edges={len(d.edges)} shape={d.shape}"
                f" injective={'yes' if m.is_injective() else 'no'}"
            )
            if out is not None:
                if step is not None:
                    domain_names, target_names = _derived_names(step)
                text = _dot(m, f"step{i}", domain_names, target_names)
                (out / f"step{i}.dot").write_text(text, encoding="utf-8")
    except DerivePreconditionError as exc:
        status, failure = "precondition-failed", exc.witness
    print(f"status: {status}")
    if failure is not None:
        print(f"failure at step {i}: {failure}")
    if out is not None:
        print(f"wrote {i + 1} dot files to {out}")
    return 0


def _cmd_vk(args) -> int:
    phi = _load(args.file)
    if args.pair:
        psi = _load(args.pair)
        report = pair_report(phi, psi)
        print("v = 0" if report.vanishes else "v != 0")
        print("kedge\tledge\tred\tparity")
        for c, (red, val) in enumerate(zip(report.red2, report.values)):
            i, j = divmod(c, report.width)
            print(f"{i}\t{j}\t{'yes' if red else 'no'}\t{val}")
        return 0 if report.vanishes else 1
    report = obstruction_report(phi)
    print("v = 0" if report.vanishes else "v != 0")
    if report.vanishes:
        print(f"solving cochain: {len(report.solving_cells)} cells")
    else:
        print(f"certificate: {len(report.certificate_cells)} cells")
    if phi.domain.shape == "path":
        vec = cut_components(report.system)
        print("cut-components: " + (" ".join(str(b) for b in vec) if vec else "-"))
    print("cell2\tred\tparity")
    for cell, red, val in zip(*report.system.layout, report.system.values):
        print(f"{cell[0]},{cell[1]}\t{'yes' if red else 'no'}\t{val}")
    return 0 if report.vanishes else 1


def _cmd_oracle(args) -> int:
    phi = _load(args.file)
    try:
        result = oracle_result(phi, max_lifts=args.max_lifts)
    except OracleBudgetExceeded as err:
        print(f"inconclusive: examined {err.lifts_examined} lifts")
        return 4
    print("approximable" if result.approximable else "not approximable")
    print(f"lifts examined: {result.lifts_examined}")
    print(f"total lifts: {result.total_lifts}")
    if args.witness and result.lift is not None:
        # the lift numbers the normalized map's edges, which keep phi's
        # nondegenerate edges in order
        kept = [e for e, a in enumerate(phi.edge_image) if a is not None]
        g = phi.target
        for a, row in enumerate(result.lift.by_edge):
            if row:
                print(f"lane order {g.edge_name(a)}: " + " ".join(str(kept[e]) for e in row))
    return 0 if result.approximable else 1


def _cmd_winding(args) -> int:
    phi = _load(args.file)
    report = winding_report(phi)
    for i, comp in enumerate(report.components):
        print(
            f"component {i}: vertices={len(comp.vertices)}"
            f" circle={'yes' if comp.is_circle else 'no'}"
            f" winding={'yes' if comp.is_winding else 'no'}"
            f" degree={comp.degree if comp.is_winding else '-'}"
        )
    degrees = report.winding_degrees()
    print(f"standard-winding: {'yes' if report.is_standard_winding() else 'no'}")
    print("degrees: " + (" ".join(str(x) for x in degrees) if degrees else "-"))
    return 0


def _fixture_dir():
    return resources.files("embapprox") / "fixtures"


def _replay_fixtures() -> int:
    base = _fixture_dir()
    expected_files = sorted(
        p.name for p in base.iterdir() if p.name.endswith(".expected")
    )
    failures = 0
    for name in expected_files:
        text = (base / name).read_text(encoding="utf-8")
        blocks = _parse_expected(text, name)
        for argv, body, code in blocks:
            argv = [
                str(base / tok) if tok.endswith(".inst") else tok for tok in argv
            ]
            buf = io.StringIO()
            with redirect_stdout(buf):
                got_code = main(argv)
            ok = buf.getvalue() == body and got_code == code
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}: {' '.join(argv[:1])} (exit {got_code})")
            if not ok:
                failures += 1
                sys.stderr.write(
                    f"--- expected (exit {code}) ---\n{body}"
                    f"--- got (exit {got_code}) ---\n{buf.getvalue()}"
                )
    print(f"fixtures: {len(expected_files)} files, {failures} failures")
    return 1 if failures else 0


def _parse_expected(text: str, name: str):
    """Blocks of `$ cmd args`, captured stdout, `$ exit N`."""
    blocks = []
    lines = text.splitlines(keepends=True)
    i = 0
    while i < len(lines):
        head = lines[i].rstrip("\n")
        if not head.startswith("$ "):
            raise ParseError(f"{name}: expected a '$ command' line", i + 1)
        argv = head[2:].split()
        i += 1
        body: list[str] = []
        while i < len(lines) and not lines[i].startswith("$ exit"):
            body.append(lines[i])
            i += 1
        if i == len(lines):
            raise ParseError(f"{name}: missing '$ exit N' line", i)
        code = int(lines[i].split()[2])
        i += 1
        blocks.append((argv, "".join(body), code))
    return blocks


def _cmd_corpus(args) -> int:
    if args.fixtures:
        return _replay_fixtures()
    if not args.shape or not args.target:
        print("error: --shape and --target are required (or --fixtures)", file=sys.stderr)
        return 2
    if args.k_min > args.k_max:
        print(f"error: --k-min {args.k_min} exceeds --k-max {args.k_max}", file=sys.stderr)
        return 2
    try:
        spec = CorpusSpec(
            shape=args.shape,
            targets=tuple(args.target),
            k_min=args.k_min,
            k_max=args.k_max,
            seed=args.seed,
            count=args.count,
            max_lifts=args.max_lifts,
        )
    except ValueError as err:  # an unknown catalog target
        print(f"error: {err}", file=sys.stderr)
        return 2
    rows, bad = run_agreement(spec, jobs=args.jobs)
    out_lines = [TSV_HEADER] + [r.tsv() for r in rows]
    payload = "\n".join(out_lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    print(f"rows: {len(rows)} disagreements: {bad}", file=sys.stderr)
    return 1 if bad else 0


def _at_least(low: int):
    """An argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message names it
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embapprox",
        description="decide approximability by embeddings of simplicial maps into plane graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide one instance")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print per-step events")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derive", help="iterate the derivative")
    p.add_argument("file")
    p.add_argument(
        "--steps", type=_at_least(0), default=None, help="iteration budget (default: vertex count)"
    )
    p.add_argument("--dot", metavar="DIR", help="write one DOT file per step")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("vk", help="obstruction report")
    p.add_argument("file")
    p.add_argument("--pair", metavar="FILE2", help="second map; report the pair obstruction")
    p.set_defaults(func=_cmd_vk)

    p = sub.add_parser("oracle", help="brute-force lift search")
    p.add_argument("file")
    p.add_argument(
        "--max-lifts",
        type=_at_least(0),
        default=None,
        metavar="N",
        help="examine at most N complete lifts, else exit 4 (inconclusive); the search stops"
        " at its first complete lift, so only N = 0 exits 4, on an approximable map, and"
        " N does not bound its time",
    )
    p.add_argument("--witness", action="store_true", help="print the accepted lift's lane orders")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("winding", help="winding report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_winding)

    p = sub.add_parser("corpus", help="agreement suites and fixture replay")
    p.add_argument("--shape", choices=("path", "cycle", "deg3"))
    p.add_argument("--target", action="append", help="catalog target (repeatable)")
    p.add_argument("--k-min", type=_at_least(1), default=1)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=500)
    p.add_argument(
        "--max-lifts",
        type=_at_least(0),
        default=None,
        metavar="N",
        help="per-instance oracle budget of N complete lifts, as for oracle; only N = 0"
        " leaves an instance inconclusive (an approximable one), and that counts as a"
        " disagreement",
    )
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--fixtures", action="store_true", help="replay shipped fixtures")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as err:  # a user path that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ParseError, DanglingIdError, InvariantError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PreconditionError as err:
        print(f"out of scope: {err}", file=sys.stderr)
        return 3
    except OracleBudgetExceeded as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return 4
    except EmbapproxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as err:
        print(f"inconclusive: {err!r}", file=sys.stderr)
        return 4
    except Exception as err:  # a crash must not read as a verdict (exit 0 or 1)
        where = traceback.extract_tb(err.__traceback__)[-1]
        print(f"internal error: {err!r} at {Path(where.filename).name}:{where.lineno}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
