"""End-to-end tests of the command-line interface.

Every test drives ``cli.main(argv)`` in-process and checks the exit code
plus the printed report, using the shipped fixture instances (and a few
handwritten ones for the error paths).
"""

import io
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embapprox import cli, vankampen
from embapprox.catalog import cycle_domain, cycle_target, path_domain
from embapprox.core import SimplicialMap, format_instance, parse_instance
from embapprox.decide import Event, Verdict, decide_path
from embapprox.oracle import oracle_result

FIX = Path(__file__).resolve().parents[1] / "src" / "embapprox" / "fixtures"
EXPECTED_DOT = Path(__file__).resolve().parent / "expected_dot"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A 3-star (degree-3 center) mapped onto one edge of a 4-cycle.
Y3_INTO_C4 = """\
#target
edge a b
edge b c
edge c d
edge d a
#rotation
rot a : a-b a-d
rot b : a-b b-c
rot c : b-c c-d
rot d : c-d a-d
#domain
shape general
edge 0 1
edge 0 2
edge 0 3
#map
0 -> a
1 -> b
2 -> b
3 -> d
"""

# Same shape with a fourth leg: the center has degree 4.
STAR4_INTO_C4 = Y3_INTO_C4.replace(
    "edge 0 3\n", "edge 0 3\nedge 0 4\n"
).replace("3 -> d\n", "3 -> d\n4 -> b\n")

# Degree-3 domain but with a collapsed edge (0 and 1 share an image).
Y3_DEGENERATE = Y3_INTO_C4.replace("1 -> b\n", "1 -> a\n")

# Degree-3 domain into a single-edge target (not a cycle).
Y3_INTO_EDGE = """\
#target
edge a b
#rotation
rot a : a-b
rot b : a-b
#domain
shape general
edge 0 1
edge 0 2
edge 0 3
#map
0 -> a
1 -> b
2 -> b
3 -> b
"""


# ---------------------------------------------------------------- check


def test_check_approximable_exit_0(capsys):
    code, out, _ = run(capsys, "check", FIX / "winding0.inst")
    assert code == 0
    assert out == "approximable\n"


def test_check_not_approximable_exit_1(capsys):
    code, out, _ = run(capsys, "check", FIX / "x-cross.inst")
    assert code == 1
    assert out == "not approximable: transversal-self-intersection(..)\n"


def test_check_forbidden_winding_names_the_degree(capsys):
    code, out, _ = run(capsys, "check", FIX / "winding-2.inst")
    assert code == 1
    assert out == "not approximable: forbidden-winding(-2)\n"


def test_check_trace_prints_step_lines(capsys):
    code, out, _ = run(capsys, "check", "--trace", FIX / "x-cross.inst")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("not approximable:")
    assert any(line.startswith("step 0: ") for line in lines[1:])


def test_check_flags_oracle_fallback(capsys):
    code, out, _ = run(capsys, "check", FIX / "ex33-psi.inst")
    assert code == 1
    assert (
        "flagged-for-review: derivative precondition failed; oracle decided"
        in out
    )


def test_check_deg3_matches_library_verdict(capsys, tmp_path):
    inst = tmp_path / "y3.inst"
    inst.write_text(Y3_INTO_C4, encoding="utf-8")
    expected = oracle_result(parse_instance(Y3_INTO_C4)).approximable
    code, out, _ = run(capsys, "check", inst)
    assert code == (0 if expected else 1)
    assert out.startswith("approximable" if expected else "not approximable")


def test_check_dispatches_on_the_structure_not_the_shape_line(capsys, tmp_path):
    # a path into theta written "shape general" is decided as the path it is
    text = (FIX / "euler-path.inst").read_text(encoding="utf-8")
    general = tmp_path / "general.inst"
    general.write_text(text.replace("shape path\n", "shape general\n"), encoding="utf-8")
    verdict = decide_path(parse_instance(text))
    assert verdict.approximable
    want = run(capsys, "check", "--trace", FIX / "euler-path.inst")
    assert run(capsys, "check", "--trace", general) == want
    assert want[1].splitlines() == ["approximable"] + [f"step {i}: {e}" for i, e in verdict.trace]


def test_check_takes_its_verdict_from_decide_map(capsys, monkeypatch, tmp_path):
    # check chooses no route itself: whatever decide_map answers is printed,
    # for a path, a cycle and a general domain alike
    asked = []

    def stub(phi):
        asked.append(phi.domain.shape)
        return Verdict(False, "stub", ((0, Event("clean-pass")), (1, Event("forbidden-winding", 7))))

    monkeypatch.setattr(cli, "decide_map", stub)
    for name in ("euler-path.inst", "winding0.inst", "ex33-phi.inst"):
        assert run(capsys, "check", FIX / name)[:2] == (1, "not approximable: forbidden-winding(7)\n")
    inst = tmp_path / "y3.inst"
    inst.write_text(Y3_INTO_C4, encoding="utf-8")
    assert run(capsys, "check", "--trace", inst)[:2] == (
        1, "not approximable: forbidden-winding(7)\nstep 0: clean-pass\nstep 1: forbidden-winding(7)\n"
    )
    assert asked == ["path", "cycle", "path", "general"]


# ------------------------------------------------- input / scope errors


def test_unreadable_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "check", tmp_path / "missing.inst")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _unusable_paths(tmp_path: Path, case: str) -> list[str]:
    """The argv of a run whose file argument cannot be read or written."""
    if case == "directory":
        return ["check", str(tmp_path)]
    if case == "not-utf8":
        inst = tmp_path / "latin1.inst"
        inst.write_bytes((FIX / "x-cross.inst").read_bytes() + "% caf\xe9\n".encode("latin-1"))
        return ["check", str(inst)]
    if case == "corpus-out-directory":
        return ["corpus", "--shape", "path", "--target", "C3", "--k-max", "1", "--out", str(tmp_path)]
    existing = tmp_path / "taken"
    existing.write_text("", encoding="utf-8")
    return ["derive", "--dot", str(existing), str(FIX / "x-cross.inst")]


@pytest.mark.parametrize("case", ["directory", "not-utf8", "corpus-out-directory", "derive-dot-file"])
def test_unusable_user_paths_exit_2(capsys, tmp_path, case):
    # a path the user gave that cannot be read or written is an input
    # error, not a fault of the program (exit 5)
    code, out, err = run(capsys, *_unusable_paths(tmp_path, case))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_parse_error_exits_2(capsys, tmp_path):
    inst = tmp_path / "bad.inst"
    inst.write_text("this is not an instance\n", encoding="utf-8")
    code, _, err = run(capsys, "check", inst)
    assert code == 2
    assert err.startswith("error:")


def test_degree_4_domain_is_out_of_scope(capsys, tmp_path):
    inst = tmp_path / "star4.inst"
    inst.write_text(STAR4_INTO_C4, encoding="utf-8")
    code, _, err = run(capsys, "check", inst)
    assert code == 3
    assert err.startswith("out of scope:")
    assert "degree 4 > 3" in err


def test_degenerate_general_map_is_out_of_scope(capsys, tmp_path):
    inst = tmp_path / "collapsed.inst"
    inst.write_text(Y3_DEGENERATE, encoding="utf-8")
    code, _, err = run(capsys, "check", inst)
    assert code == 3
    assert "nondegenerate" in err


def test_non_cycle_target_for_general_domain_is_out_of_scope(capsys, tmp_path):
    inst = tmp_path / "edge-target.inst"
    inst.write_text(Y3_INTO_EDGE, encoding="utf-8")
    code, _, err = run(capsys, "check", inst)
    assert code == 3
    assert "not a cycle" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle", FIX / "x-cross.inst", "--max-lifts", "-1"], "--max-lifts"),
        (["derive", FIX / "euler-path.inst", "--steps", "-2"], "--steps"),
        (["corpus", "--shape", "path", "--target", "C3", "--max-lifts", "-1"], "--max-lifts"),
        (["corpus", "--shape", "path", "--target", "C3", "--jobs", "-3"], "--jobs"),
        (["corpus", "--shape", "path", "--target", "C3", "--jobs", "0"], "--jobs"),
        (["corpus", "--shape", "deg3", "--target", "C3", "--count", "-1"], "--count"),
        (["corpus", "--shape", "path", "--target", "C3", "--k-min", "0"], "--k-min"),
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err


def test_corpus_k_min_above_k_max_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "corpus", "--shape", "path", "--target", "C3", "--k-min", "4", "--k-max", "3"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --k-min 4 exceeds --k-max 3\n"


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# --------------------------------------------------------------- derive


def test_derive_prints_steps_and_status(capsys):
    code, out, _ = run(capsys, "derive", FIX / "euler-path.inst")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step 0: vertices=")
    assert any(line.startswith("status: ") for line in lines)


def test_derive_zero_budget_reports_budget_exhausted(capsys):
    code, out, _ = run(capsys, "derive", "--steps", "0", FIX / "euler-path.inst")
    assert code == 0
    assert "status: budget-exhausted" in out


def test_derive_records_precondition_failure(capsys):
    code, out, _ = run(capsys, "derive", FIX / "ex33-psi.inst")
    assert code == 0
    assert "status: precondition-failed" in out
    assert "failure at step 0:" in out


# two degenerate walks into C4, pinned beside the fixtures: stage 0 is the
# quotient by the degenerate edges, and each of its vertices is labelled
# with the input ids of its class in increasing order, joined by "+" (0+1
# and 2+3 on the path; 0+5+6, whose class wraps past the walk's end, and 3+4
# on the closed walk)
DEGENERATE_WALKS = {
    "degenerate-path": (False, (0, 0, 1, 1, 2, 3)),
    "degenerate-closed-walk": (True, (0, 1, 2, 3, 3, 0, 0)),
}


def _write_map(path: Path, phi: SimplicialMap) -> Path:
    path.write_text(format_instance(phi), encoding="utf-8")
    return path


def test_derive_writes_dot_files(capsys, tmp_path):
    # derived stages carry no names; the writer names their vertices after
    # the target edges they come from, byte for byte as pinned here
    instances = {name: FIX / f"{name}.inst" for name in ("euler-path", "whole-fold", "winding2")}
    for name, (closed, images) in DEGENERATE_WALKS.items():
        domain = cycle_domain(len(images)) if closed else path_domain(len(images))
        phi = SimplicialMap(domain, cycle_target(4), images)
        instances[name] = _write_map(tmp_path / f"{name}.inst", phi)
    for fixture, inst in instances.items():
        out_dir = tmp_path / fixture
        code, out, _ = run(capsys, "derive", "--dot", out_dir, inst)
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("step*.dot"))
        n_steps = sum(1 for line in out.splitlines() if line.startswith("step "))
        assert len(files) == n_steps > 1
        assert f"wrote {len(files)} dot files to {out_dir}" in out
        expected = EXPECTED_DOT / fixture
        assert files == sorted(p.name for p in expected.glob("step*.dot"))
        for name in files:
            assert (out_dir / name).read_bytes() == (expected / name).read_bytes(), (fixture, name)


def test_derive_dot_names_do_not_grow_from_stage_to_stage(capsys, tmp_path):
    # a G' vertex is named after a target edge by the target's own names or
    # ids, not after the names of the stage before; threaded from stage to
    # stage, the names of the identity path onto C16 wrote 2,497,683 bytes
    k = 16
    phi = SimplicialMap(path_domain(k), cycle_target(k), tuple(range(k)))
    inst = _write_map(tmp_path / "identity.inst", phi)
    assert run(capsys, "derive", "--dot", tmp_path / "dot", inst)[0] == 0
    sizes = [p.stat().st_size for p in (tmp_path / "dot").glob("step*.dot")]
    assert len(sizes) == k + 1 and sum(sizes) < 100_000


def test_derive_streams_the_tower(capsys, tmp_path):
    # derive prints each stage as it is built and holds neither the input
    # nor an early stage, whose target would keep every later derived target
    # alive; collected whole, the 200 stages of the identity path onto C200
    # peaked at 7.5 MB traced, streamed at 0.24 MB
    k = 200
    phi = SimplicialMap(path_domain(k), cycle_target(k), tuple(range(k)))
    inst = _write_map(tmp_path / "identity.inst", phi)
    del phi
    tracemalloc.start()
    try:
        code = cli.main(["derive", str(inst)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == k + 2 and out[-1] == "status: empty-domain"
    assert peak < 2 * 2**20


# ------------------------------------------------------------------- vk


def test_vk_vanishing_exit_0(capsys):
    code, out, _ = run(capsys, "vk", FIX / "euler-path.inst")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v = 0"
    assert lines[1].startswith("solving cochain:")
    assert any(line.startswith("cut-components:") for line in lines)


def test_vk_nonvanishing_exit_1_with_certificate(capsys):
    code, out, _ = run(capsys, "vk", FIX / "x-cross.inst")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "v != 0"
    assert lines[1] == "certificate: 4 cells"
    table = [line for line in lines if "\t" in line][1:]
    assert all(line.split("\t")[1] in ("yes", "no") for line in table)
    assert all(line.split("\t")[2] in ("0", "1") for line in table)


def test_vk_draws_once_and_prints_the_cut_components(capsys, monkeypatch):
    system = vankampen.obstruction_system
    paths = 0
    for inst in sorted(FIX.glob("*.inst")):
        phi = parse_instance(inst.read_text())
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return system(*args, **kwargs)

        monkeypatch.setattr(vankampen, "obstruction_system", counted)
        _, out, _ = run(capsys, "vk", inst)
        monkeypatch.setattr(vankampen, "obstruction_system", system)
        assert len(calls) == 1, inst.name
        cut = [line for line in out.splitlines() if line.startswith("cut-components:")]
        if phi.domain.shape == "path":
            vec = vankampen.path_cut_components(phi)
            assert cut == ["cut-components: " + (" ".join(map(str, vec)) if vec else "-")]
            paths += 1
        else:
            assert cut == []
    assert paths >= 4


def test_vk_pair_report(capsys):
    code, out, _ = run(
        capsys, "vk", "--pair", FIX / "ex33-psi.inst", FIX / "ex33-phi.inst"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v = 0"
    assert lines[1] == "kedge\tledge\tred\tparity"
    assert len(lines) > 2


# --------------------------------------------------------------- oracle


def test_oracle_approximable_with_witness(capsys):
    code, out, _ = run(capsys, "oracle", "--witness", FIX / "euler-cycle.inst")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "approximable"
    assert any(line.startswith("lifts examined: ") for line in lines)
    assert any(line.startswith("total lifts: ") for line in lines)
    assert any(line.startswith("lane order ") for line in lines)


# the path u u a a v into the triangle u-a-v: its edges 0 and 2 are degenerate
DEGENERATE_PATH = """\
#target
edge u a
edge a v
edge u v
#rotation
rot u : u-a u-v
rot a : u-a a-v
rot v : a-v u-v
#domain
shape path
edge 0 1
edge 1 2
edge 2 3
edge 3 4
#map
0 -> u
1 -> u
2 -> a
3 -> a
4 -> v
"""


def test_oracle_witness_names_the_input_edges_of_a_degenerate_map(capsys, tmp_path):
    # the lift is searched on the normalized map, whose edges 0 and 1 are
    # the input's edges 1 and 3
    inst = tmp_path / "degenerate.inst"
    inst.write_text(DEGENERATE_PATH, encoding="utf-8")
    code, out, _ = run(capsys, "oracle", "--witness", inst)
    assert code == 0
    lanes = [line for line in out.splitlines() if line.startswith("lane order ")]
    assert lanes == ["lane order u-a: 1", "lane order a-v: 3"]


def test_oracle_budget_exhaustion_exits_4(capsys):
    code, out, _ = run(
        capsys, "oracle", "--max-lifts", "0", FIX / "winding0.inst"
    )
    assert code == 4
    assert out == "inconclusive: examined 0 lifts\n"


def test_oracle_pruned_refutation_ignores_budget(capsys):
    # every branch dies before a full lift is assembled, so a zero budget
    # still suffices for the "no" verdict
    code, out, _ = run(
        capsys, "oracle", "--max-lifts", "0", FIX / "winding2.inst"
    )
    assert code == 1
    assert out.splitlines()[0] == "not approximable"
    assert "lifts examined: 0" in out


# ---------------------------------------------------------------- crashes


@pytest.mark.parametrize("error", [MemoryError(), RecursionError("maximum recursion depth")])
def test_exhausted_memory_or_recursion_is_inconclusive(capsys, monkeypatch, error):
    def crash(phi):
        raise error

    monkeypatch.setattr(cli, "decide_map", crash)
    code, out, err = run(capsys, "check", FIX / "x-cross.inst")
    assert code == 4
    assert out == ""
    assert err == f"inconclusive: {error!r}\n"


def test_any_other_crash_exits_5_and_prints_no_verdict(capsys, monkeypatch):
    def crash(phi):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "decide_map", crash)
    code, out, err = run(capsys, "check", FIX / "x-cross.inst")
    assert code == 5
    assert out == ""
    # one line, naming where the exception was raised
    assert err.startswith("internal error: RuntimeError('boom') at test_cli.py:")
    assert err.count("\n") == 1 and err.endswith("\n")


# ------------------------------------------------- mutated instances

FIXTURE_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(FIX.glob("*.inst"))]


@st.composite
def mutated_instances(draw) -> str:
    """A fixture's text with lines dropped, duplicated or swapped, or rewritten.

    A rewrite gives a map line another image (a target vertex or an unknown
    name), a domain edge other ends (ids up to one past the last, or the
    same id twice) under the shape line "shape general", which admits any
    structure, or the shape line another shape.
    """
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    names = sorted({name for line in lines if line.startswith("rot ") for name in line.split()[1:2]})
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "image", "edge", "shape")))
        section = next((line for line in reversed(lines[: i + 1]) if line.startswith("#")), "")
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "image" and "->" in lines[i]:
            image = draw(st.sampled_from([*names, "nowhere"]))
            lines[i] = f"{lines[i].split('->')[0]}-> {image}"
        elif kind == "edge" and section == "#domain" and lines[i].startswith("edge "):
            top = sum(1 for line in lines if "->" in line)
            u, v = draw(st.integers(0, top)), draw(st.integers(0, top))
            lines[i] = f"edge {u} {v}"
            lines = ["shape general" if line.startswith("shape ") else line for line in lines]
        elif kind == "shape" and lines[i].startswith("shape "):
            lines[i] = "shape " + draw(st.sampled_from(("path", "cycle", "general", "tree")))
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutated_instances(), st.integers(0, 20))
def test_mutated_instances_exit_0_to_4_and_check_prints_only_verdicts(text, lifts):
    # a malformed or out-of-scope input is an input error (2), out of scope
    # (3) or inconclusive (4), never an internal error (5); check prints a
    # verdict exactly when it exits 0 or 1
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "mutated.inst"
        inst.write_text(text, encoding="utf-8")
        for argv in (["check"], ["vk"], ["winding"], ["derive"], ["oracle", "--max-lifts", str(lifts)]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([*argv, str(inst)])
            assert 0 <= code <= 4, (argv, err.getvalue(), text)
            if argv == ["check"]:
                first = out.getvalue().split("\n")[0]
                assert (code == 0) == (first == "approximable"), (code, out.getvalue())
                assert (code == 1) == first.startswith("not approximable: "), (code, out.getvalue())
                assert code < 2 or out.getvalue() == "", (code, out.getvalue())


# -------------------------------------------------------------- winding


def test_winding_standard_report(capsys):
    code, out, _ = run(capsys, "winding", FIX / "winding2.inst")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("component 0: ")
    assert "circle=yes" in lines[0] and "winding=yes" in lines[0]
    assert "standard-winding: yes" in lines
    degrees = lines[-1].split(": ")[1].split()
    assert [abs(int(x)) for x in degrees] == [2]


def test_winding_fold_is_not_standard(capsys):
    code, out, _ = run(capsys, "winding", FIX / "whole-fold.inst")
    assert code == 0
    assert "standard-winding: no" in out
    assert out.splitlines()[-1] == "degrees: -"


# --------------------------------------------------------------- corpus


def test_corpus_requires_shape_and_target(capsys):
    code, _, err = run(capsys, "corpus")
    assert code == 2
    assert err.startswith("error:")


def test_corpus_unknown_target_is_a_usage_error(capsys):
    code, out, err = run(capsys, "corpus", "--shape", "path", "--target", "XX")
    assert code == 2
    assert out == ""
    assert err == "error: unknown target 'XX'\n"


def test_corpus_tsv_to_stdout(capsys):
    code, out, err = run(
        capsys, "corpus", "--shape", "path", "--target", "C3", "--k-max", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance\tshape\ttarget\tk\tdecide\toracle\tvk\tagree"
    assert len(lines) == 1 + 12  # all walks of 1..2 vertices in a triangle
    assert all(len(line.split("\t")) == 8 for line in lines[1:])
    assert "rows: 12 disagreements: 0" in err


def test_corpus_tsv_to_file(capsys, tmp_path):
    out_file = tmp_path / "rows.tsv"
    code, out, err = run(
        capsys,
        "corpus",
        "--shape",
        "cycle",
        "--target",
        "C3",
        "--k-max",
        "3",
        "--out",
        out_file,
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 27  # all closed walks of length 3 in a triangle
    assert "rows: 27 disagreements: 0" in err


def test_corpus_fixture_replay_is_green(capsys):
    code, out, err = run(capsys, "corpus", "--fixtures")
    assert code == 0, err
    lines = out.splitlines()
    assert "FAIL" not in out
    n_expected = len(list(FIX.glob("*.expected")))
    assert lines[-1] == f"fixtures: {n_expected} files, 0 failures"
    assert sum(1 for line in lines if line.startswith("PASS ")) >= n_expected
