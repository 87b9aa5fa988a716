import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import example, given, settings

from syzex import cli
from syzex.algebra import build_algebra
from syzex.cli import run
from syzex.errors import AlgebraMismatch
from syzex.rep import module_doc
from syzex.reports import _flat, new_report, render_text
from conftest import beilinson2_spec, conjugate, kron2_spec

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "syzex" / "data" / "report.schema.json").read_text()
)


def run_json(argv):
    code, report, rendered = run(["--format", "json"] + argv)
    jsonschema.validate(json.loads(rendered), SCHEMA)
    return code, report, rendered


def test_corpus_list():
    code, report, _ = run_json(["corpus", "list"])
    assert code == 0
    ids = {e["id"] for e in report["results"]["entries"]}
    assert {"kron2", "beilinson2", "fivevertex", "euclideanB", "nodeA", "nodeB", "bm23", "xiA", "xiB"} <= ids


def test_corpus_show_roundtrip():
    code, report, _ = run_json(["corpus", "show", "kron2"])
    assert code == 0
    from syzex.algebra import parse_algebra_spec

    text = report["results"]["spec_json"]
    assert parse_algebra_spec(text).to_json() == text


def test_algebra_info():
    code, report, _ = run_json(["algebra", "info", "beilinson2"])
    assert code == 0
    assert report["results"]["dimension"] == 15
    assert report["results"]["loewy_length"] == 3


def test_algebra_info_from_file(tmp_path):
    code, report, _ = run_json(["corpus", "show", "fivevertex"])
    spec_file = tmp_path / "five.json"
    spec_file.write_text(report["results"]["spec_json"])
    code, report, _ = run_json(["algebra", "info", str(spec_file)])
    assert code == 0
    assert report["results"]["dimension"] == 9


@pytest.mark.parametrize("fault", [
    AssertionError("projective cover is not surjective"),
    RuntimeError("boom"),
    AlgebraMismatch("ext over different algebras"),
])
def test_internal_fault_exits_3(monkeypatch, fault):
    from syzex import homology

    def broken(m):
        raise fault

    monkeypatch.setattr(homology, "projective_cover", broken)
    code, report, _ = run_json(["mod", "syzygy", "kron2", "S0"])
    assert code == 3
    assert report["results"] == {"error": "%s: %s" % (type(fault).__name__, fault), "kind": "internal"}
    code, _, text = run(["mod", "syzygy", "kron2", "S0"])
    assert code == 3 and str(fault) in text


def test_sub_rep_invariance_fault_exits_3(monkeypatch):
    # hand sub_rep a span that is not arrow-invariant: all of P0 at vertex 0
    # but one line at vertex 1, which misses x1 applied to the generator
    from syzex import homology, rep
    from syzex.linalg import Matrix

    def skewed(m, spans):
        p = m.algebra.p
        d = m.dim[0]
        return rep.sub_rep(m, [(Matrix.identity(p, d), list(range(d))), (Matrix.from_rows(p, [[1, 0]]), [0])])

    monkeypatch.setattr(homology, "sub_rep", skewed)
    code, report, _ = run_json(["mod", "syzygy", "kron2", "S0"])
    assert code == 3
    assert report["results"] == {"error": "AssertionError: spans are not arrow-invariant", "kind": "internal"}


@pytest.mark.parametrize("field", ["2", "3"])
def test_section_defect_fault_exits_3(monkeypatch, field):
    # add the unit vector at a column the relation system reads to every
    # corner cocycle of (S0, P0) on beilinson2: the section defects then
    # no longer satisfy the relations
    from syzex import linalg
    from syzex.linalg import Matrix

    kernel = linalg.kernel_basis
    calls = []

    def skewed(m):
        b, free = kernel(m)
        if calls or not (m.nrows and b.nrows):
            return b, free
        calls.append(m)
        j = next(j for j, col in enumerate(m.transpose().rows) if any(linalg.nonzeros(m.p, col)))
        return b.add(Matrix.from_entries(b.p, b.nrows, b.ncols, [(i, j, 1) for i in range(b.nrows)])), free

    argv = ["--field", field, "ext", "beilinson2", "S0", "P0"]
    assert run_json(argv)[0] == 0
    monkeypatch.setattr(linalg, "kernel_basis", skewed)
    code, report, _ = run_json(argv)
    assert calls
    assert code == 3
    assert report["results"] == {"error": "AssertionError: section defect not in the kernel", "kind": "internal"}


@pytest.mark.parametrize("field", ["2", "3"])
def test_coboundary_fault_exits_3(monkeypatch, field):
    # add 1 at the first corner entry of every coboundary (a column of
    # linalg.derivations, the inner derivation of a unit map): on beilinson2
    # that puts them outside the corner cocycles of (S0, P0); ext solves no
    # Hom, so only the coboundaries are skewed
    from syzex import linalg
    from syzex.linalg import Matrix

    derivations = linalg.derivations
    calls = []

    def skewed(*args):
        calls.append(1)
        d, offsets = derivations(*args)
        return d.add(Matrix.from_entries(d.p, d.nrows, d.ncols, [(0, j, 1) for j in range(d.ncols)])), offsets

    argv = ["--field", field, "ext", "beilinson2", "S0", "P0"]
    assert run_json(argv)[0] == 0
    monkeypatch.setattr(linalg, "derivations", skewed)
    code, report, _ = run_json(argv)
    assert calls
    assert code == 3
    assert report["results"] == {"error": "AssertionError: inner derivation outside the corner cocycles", "kind": "internal"}


def test_mod_syzygy_s0():
    code, report, _ = run_json(["mod", "syzygy", "--n", "1", "kron2", "S0"])
    assert code == 0
    assert report["results"]["dim"] == {"0": 0, "1": 2}
    assert report["results"]["module_file"]["dim"] == {"1": 2}


def test_mod_validate_good_and_bad(tmp_path):
    code, report, _ = run_json(["mod", "validate", "kron2", "P0"])
    assert code == 0 and report["results"]["ok"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": "fivevertex", "dim": {"2": 1, "1": 1}, "action": {"alpha": [[1]], "beta1": []}}))
    code, report, _ = run_json(["mod", "validate", "fivevertex", str(bad)])
    assert code == 0 and report["results"]["ok"]  # S2 over S1 with alpha acting: valid
    worse = tmp_path / "worse.json"
    worse.write_text(
        json.dumps({"algebra": "fivevertex", "dim": {"3": 1, "2": 1, "1": 1}, "action": {"alpha": [[1]], "beta1": [[1]]}})
    )
    code, report, _ = run_json(["mod", "validate", "fivevertex", str(worse)])
    assert code == 2
    assert report["results"]["violations"]


def test_mod_decompose():
    code, report, _ = run_json(["mod", "decompose", "kron2", "P0"])
    assert code == 0
    assert len(report["results"]["factors"]) == 1


def test_ext_enumerate_gf3():
    # kron2 has two arrows between its vertices, so Ext^1(S0, S1) = GF(3)^2;
    # every nonzero class has an indecomposable middle term, the zero class splits
    code, report, _ = run_json(["--field", "3", "ext", "kron2", "S0", "S1", "--enumerate"])
    assert code == 0
    assert report["results"]["dimension"] == 2
    assert report["results"]["class_count"] == 9
    classes = report["results"]["classes"]
    assert len(classes) == 9
    split = [c for c in classes if len(c["summands"]) > 1]
    assert len(split) == 1
    assert sorted(sorted(s["dim"].values()) for s in split[0]["summands"]) == [[0, 1], [0, 1]]
    for c in classes:
        if c is not split[0]:
            assert c["summands"] == [{"dim": c["middle_dim"], "multiplicity": 1}]


def test_ext_enumerate_decomposes_once_per_scalar_line(monkeypatch):
    # Ext^1(S0, S1) = GF(5)^3: the zero class and (125 - 1) / 4 = 31 lines
    import syzex.cli as cli

    calls = []
    real = cli.decompose

    def counted(m):
        calls.append(m.dim)
        return real(m)

    monkeypatch.setattr(cli, "decompose", counted)
    code, report, _ = run_json(["--field", "5", "ext", "beilinson2", "S0", "S1", "--enumerate"])
    assert code == 0
    assert report["results"]["class_count"] == 125
    assert len(calls) == 32


def test_ext_enumerate_solves_ext_once(monkeypatch):
    # the space cmd_ext solves for the dimension is the one it enumerates
    import syzex.cli as cli
    import syzex.homology as homology

    calls = []
    real = homology.ext1_space

    def counted(x, y):
        calls.append((x.dim, y.dim))
        return real(x, y)

    monkeypatch.setattr(cli, "ext1_space", counted)
    monkeypatch.setattr(homology, "ext1_space", counted)
    code, report, _ = run_json(["--field", "3", "ext", "kron2", "S0", "S1", "--enumerate"])
    assert code == 0
    assert report["results"]["class_count"] == 9
    assert len(calls) == 1


def test_ext_budget_exceeded():
    code, report, _ = run_json(["--budget", "2", "ext", "kron2", "S0", "S1", "--enumerate"])
    assert code == 1
    assert report["results"]["kind"] == "budget"


def test_decompose_split_budget_exits_1(tmp_path):
    # x0 = I, x1 = J_3: local, proved so over GF(2); over GF(257) its top has
    # 66,307 lines, past the split budget
    module = tmp_path / "jordan.json"
    module.write_text(json.dumps({
        "algebra": "kron2", "dim": {"0": 3, "1": 3},
        "action": {"x0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "x1": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]},
    }))
    code, report, _ = run_json(["mod", "decompose", "kron2", str(module)])
    assert code == 0 and len(report["results"]["factors"]) == 1
    code, report, _ = run_json(["--field", "257", "mod", "decompose", "kron2", str(module)])
    assert code == 1
    assert report["results"]["kind"] == "budget"


def test_ed_kron_cli():
    code, report, _ = run_json(["ed", "kron2", "--i", "0,1"])
    assert code == 0
    intervals = {iv["i"]: iv for iv in report["results"]["intervals"]}
    assert intervals[0]["exact"] and intervals[0]["lower"] == 1
    assert intervals[1]["exact"] and intervals[1]["upper"] == 0
    assert "R1" in intervals[0]["lower_provenance"]
    assert "R3" in intervals[0]["upper_provenance"] or "R2" in intervals[0]["upper_provenance"]


def test_ed_with_facts_file(tmp_path):
    facts = tmp_path / "facts.json"
    facts.write_text(
        json.dumps(
            [{"subject": {"algebra": "beilinson2", "i": 0}, "kind": "exact", "value": 2, "citation": "known"}]
        )
    )
    code, report, _ = run_json(
        ["ed", "beilinson2", "--i", "0,1,2", "--dim-bound", "2", "--facts", str(facts)]
    )
    assert code == 0
    intervals = {iv["i"]: iv for iv in report["results"]["intervals"]}
    for i in (0, 1, 2):
        assert intervals[i]["exact"] and intervals[i]["lower"] == 2 - i


def test_bullet_cli():
    code, report, _ = run_json(
        ["bullet", "kron2", "--left", "S0", "--right", "S1", "--dim-bound", "4", "--sweep"]
    )
    assert code == 0
    assert report["results"]["member_count"] == 2
    assert not any("saturation sweep" in w for w in report["warnings"])


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("SYZEX_BUDGET", "2")
    code, report, _ = run_json(["ext", "kron2", "S0", "S1", "--enumerate"])
    assert code == 1 and report["results"]["kind"] == "budget"


def test_layer_cli_contains():
    code, report, _ = run_json(
        ["layer", "kron2", "--gen", "S0,S1", "--n", "2", "--dim-bound", "4", "--mult-bound", "3", "--contains", "P0,I1"]
    )
    assert code == 0
    assert report["results"]["contains"]["holds"]
    # an empty item is skipped, in the echo as in the query
    code, report, _ = run_json(
        ["layer", "kron2", "--gen", "S0,S1", "--n", "2", "--dim-bound", "3", "--contains", "S0,,P0"]
    )
    assert code == 0
    assert report["results"]["contains"]["query"] == ["P0", "S0"]


def test_layer_cli_index_past_the_fixed_point():
    argv = ["layer", "kron2", "--gen", "S0,S1", "--dim-bound", "2", "--n"]
    code, report, _ = run_json(argv + ["2000"])
    assert code == 0
    assert report["results"]["members"] == run_json(argv + ["2"])[1]["results"]["members"]
    assert report["results"]["member_count"] == 5


def test_syzcat_cli():
    code, report, _ = run_json(["syzcat", "euclideanB", "--n", "1", "--dim-bound", "5"])
    assert code == 0
    assert report["results"]["member_count"] == 5  # the indecomposable projectives


def test_tilting_cli():
    code, report, _ = run_json(["tilting", "fivevertex", "T"])
    assert code == 0
    assert report["results"]["is_tilting"] and report["results"]["pd"] == 1
    code, report, _ = run_json(["tilting", "fivevertex", "T", "--bound", "0"])  # 0 is a bound, not bad input
    assert code == 0
    assert report["results"]["failures"] == ["pd exceeds bound 0"]


def test_reptype_cli():
    code, report, _ = run_json(["reptype", "kron2", "--dim-bound", "4"])
    assert code == 0
    assert report["results"]["verdict"] == "infinite"
    assert report["results"]["tits"] == "Euclidean"


def test_mult_bound_past_ext_dimension_adds_no_clip():
    """Ext^1 between fivevertex's indecomposables has dimension at most 2,
    so mult bound 3 expands nothing that 2 does not, and clips nothing."""
    bounds = ["--dim-bound", "6", "--mult-bound", "3"]
    code, report, _ = run_json(["reptype", "fivevertex"] + bounds)
    assert code == 0
    res = report["results"]
    assert (res["verdict"], res["method"], res["certified"], res["member_count"]) == ("finite", "enumeration", True, 14)
    code, report, _ = run_json(["ed", "fivevertex", "--i", "0"] + bounds)
    assert code == 0
    iv = report["results"]["intervals"][0]
    assert (iv["lower"], iv["upper"], iv["exact"]) == (0, 0, True)
    assert "R1" in iv["upper_provenance"]
    code, report, _ = run_json(["syzcat", "fivevertex", "--n", "0"] + bounds)
    assert code == 0
    assert report["warnings"] == []


def test_reptype_heuristic_count_cli():
    """Over GF(5) the d = 2 window of beilinson2 holds 31 classes of one
    dimension vector: an uncertified verdict, and only a note at ed i = 0."""
    witness = "31 pairwise non-isomorphic indecomposables share dim (0, 1, 1)"
    code, report, _ = run_json(["--field", "5", "reptype", "beilinson2", "--dim-bound", "2"])
    assert code == 0
    res = report["results"]
    assert (res["verdict"], res["method"], res["certified"], res["witness"]) == (
        "infinite", "heuristic_count", False, witness,
    )
    code, report, _ = run_json(["--field", "5", "ed", "beilinson2", "--i", "0", "--dim-bound", "2"])
    assert code == 0
    iv = report["results"]["intervals"][0]
    assert (iv["lower"], iv["upper"], iv["exact"]) == (0, 2, False)
    note = "heuristic only (not certified, not propagated): %s suggests ed >= 1 at i=0" % witness
    assert iv["notes"] == [note]


BAD_FILES = {
    "bad.json": "[1, 2",
    "unknown_vertex.json": json.dumps({"dim": {"7": 1}, "action": {}}),
    "ragged.json": json.dumps({"dim": {"0": 2, "1": 2}, "action": {"x0": [[1, 0], [1]]}}),
    "dim_not_int.json": json.dumps({"dim": {"0": "two"}, "action": {}}),
    "dim_float.json": json.dumps({"dim": {"0": 1.5}, "action": {}}),
    "entry_not_int.json": json.dumps({"dim": {"0": 1, "1": 1}, "action": {"x0": [["a"]]}}),
    "entry_float.json": json.dumps({"dim": {"0": 1, "1": 1}, "action": {"x0": [[0.5]]}}),
    "wrong_shape.json": json.dumps({"dim": {"0": 1, "1": 1}, "action": {"x0": [[1, 1]]}}),
    "facts_missing.json": json.dumps([{"subject": {"algebra": "kron2", "i": 0}, "kind": "exact"}]),
    "facts_kind.json": json.dumps([{"subject": {"i": 0}, "kind": "most", "value": 1}]),
    "facts_negative.json": json.dumps([{"subject": {"i": -1}, "kind": "exact", "value": 0}]),
    "spec_vertices.json": json.dumps({"field": 2, "vertices": 5, "arrows": [], "relations": []}),
    "spec_arrow.json": json.dumps({"field": 2, "vertices": ["a"], "arrows": [{"name": "x", "from": "a"}], "relations": []}),
}


@pytest.mark.parametrize("argv", [
    ["mod", "syzygy", "kron2", "@bad.json"],
    ["mod", "decompose", "kron2", "@unknown_vertex.json"],
    ["mod", "syzygy", "kron2", "@ragged.json"],
    ["mod", "syzygy", "kron2", "@dim_not_int.json"],
    ["mod", "validate", "kron2", "@dim_float.json"],
    ["mod", "syzygy", "kron2", "@entry_not_int.json"],
    ["mod", "syzygy", "kron2", "@entry_float.json"],
    ["ext", "kron2", "@wrong_shape.json", "S1"],
    ["tilting", "kron2", "@wrong_shape.json"],
    ["ed", "kron2", "--i", "0", "--facts", "@bad.json"],
    ["ed", "kron2", "--i", "0", "--facts", "@facts_missing.json"],
    ["ed", "kron2", "--i", "0", "--facts", "@facts_kind.json"],
    ["ed", "kron2", "--i", "0", "--facts", "@facts_negative.json"],
    ["algebra", "info", "@spec_vertices.json"],
    ["algebra", "info", "@spec_arrow.json"],
    ["ed", "kron2", "--i", "0,one"],
    ["ed", "kron2", "--i", "0", "--syzygy-probe", "1.5"],
    ["ed", "kron2", "--i", "0,-1"],
    ["ed", "kron2", "--i", "0", "--syzygy-probe", "-1"],
    ["ed", "kron2", "--i", "0", "--dim-bound", "0"],
    ["reptype", "kron2", "--dim-bound", "-2"],
    ["bullet", "kron2", "--left", "S0", "--right", "Q1"],
    ["bullet", "kron2", "--left", "S9", "--right", "S1"],
    ["layer", "kron2", "--gen", "S0", "--n", "-1"],
    ["syzcat", "kron2", "--n", "-1"],
    ["mod", "syzygy", "kron2", "S0", "--n", "-1"],
    ["algebra", "info", "nodeA:six"],
    ["algebra", "info", "nodeA:0"],
    ["algebra", "info", "nodeB:5"],
    ["algebra", "info", "xiA:0"],
    ["algebra", "info", "xiB:1"],
    ["algebra", "info", "nodeA:"],
    ["algebra", "info", "kron2:7"],
    ["algebra", "info", "beilinson2:2"],
    ["algebra", "info", "dualnumbers:0"],
    ["reptype", "nodeA", "--dim-bound", "8", "--mult-bound", "0"],
    ["ed", "nodeA", "--i", "0", "--mult-bound", "-1"],
    ["bullet", "kron2", "--left", "S0", "--right", "S1", "--mult-bound", "0"],
    ["--budget", "-3", "ext", "kron2", "S0", "S1", "--enumerate"],
    ["ext", "kron2", "S0", "S1", "--budget", "0"],
    ["syzcat", "kron2", "--n", "0", "--member-cap", "0"],
    ["--member-cap", "-1", "algebra", "info", "kron2"],
    ["tilting", "fivevertex", "T", "--bound", "-1"],
])
def test_bad_input_exits_2(tmp_path, argv):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    code, report, _ = run_json([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    assert code == 2
    assert report["results"]["kind"] == "validation"


@pytest.mark.parametrize("argv", [
    ["layer", "kron2", "--gen", "S0", "--n", "-1"],
    ["layer", "kron2", "--gen", "Q9", "--n", "1"],
    ["layer", "kron2", "--gen", "S0", "--n", "1", "--contains", "Q9"],
    ["bullet", "kron2", "--left", "Q9", "--right", "S0"],
    ["bullet", "kron2", "--left", "S0", "--right", "S1", "--mult-bound", "0"],
    ["ed", "nodeA", "--i", "0", "--syzygy-probe", "1", "--member-cap", "0"],
    ["--budget", "-3", "reptype", "nodeA"],
])
def test_window_input_refused_before_the_closure(monkeypatch, argv):
    from syzex import cli

    def closure(*args, **kwargs):
        raise AssertionError("the window was built before the input was checked")

    monkeypatch.setattr(cli, "generate_universe", closure)
    code, report, _ = run_json(argv)
    assert code == 2
    assert report["results"]["kind"] == "validation"


def test_bad_budget_env_exits_2(monkeypatch):
    monkeypatch.setenv("SYZEX_BUDGET", "lots")
    code, report, _ = run_json(["algebra", "info", "kron2"])
    assert code == 2
    assert report["results"] == {"error": "SYZEX_BUDGET must be an integer, got 'lots'", "kind": "validation"}
    code, report, _ = run_json(["--budget", "5", "algebra", "info", "kron2"])
    assert code == 0


def test_budget_env_below_one_exits_2(monkeypatch):
    monkeypatch.setenv("SYZEX_BUDGET", "-3")
    code, report, _ = run_json(["ext", "kron2", "S0", "S1", "--enumerate"])
    assert code == 2
    assert report["results"] == {"error": "budget and member cap must be at least 1, got -3 and 5000", "kind": "validation"}


def test_internal_value_error_exits_3(monkeypatch):
    # a shape mismatch deep inside is a fault of the program, not of its input
    from syzex import homology
    from syzex.linalg import Matrix

    def broken(m, bases):
        return Matrix.identity(2, 2).mul(Matrix.identity(2, 3))

    monkeypatch.setattr(homology, "sub_rep", broken)
    code, report, _ = run_json(["mod", "syzygy", "kron2", "S0"])
    assert code == 3
    assert report["results"] == {"error": "ValueError: shape mismatch 2x2 * 3x3", "kind": "internal"}


JUNK = st.none() | st.booleans() | st.integers(-1, 2) | st.floats(0, 2) | st.text("ab", max_size=2)
MODULE_ROWS = st.lists(st.lists(JUNK | st.integers(0, 1), max_size=3), max_size=3)
MODULE_DOCS = st.fixed_dictionaries({}, optional={
    "dim": st.dictionaries(st.sampled_from(["0", "1", "2"]), JUNK | st.integers(0, 2)) | JUNK,
    "action": st.dictionaries(st.sampled_from(["x0", "x1", "y"]), MODULE_ROWS | JUNK) | JUNK,
}) | JUNK | MODULE_ROWS
LABELS = st.sampled_from(["a", "b", 0]) | JUNK
ARROWS = st.fixed_dictionaries({}, optional={"name": st.sampled_from(["x", "y"]) | JUNK, "from": LABELS, "to": LABELS}) | JUNK
TERMS = st.fixed_dictionaries({}, optional={
    "coeff": st.integers(-1, 2) | JUNK, "path": st.lists(st.sampled_from(["x", "y", "z"]), max_size=3) | JUNK,
}) | JUNK
SPEC_DOCS = st.fixed_dictionaries({}, optional={
    "field": st.sampled_from([2, 3, 4]) | JUNK,
    "vertices": st.lists(LABELS, max_size=3) | JUNK,
    "arrows": st.lists(ARROWS, max_size=2) | JUNK,
    "relations": st.lists(st.lists(TERMS, max_size=2) | JUNK, max_size=2) | JUNK,
    "comments": st.lists(st.text("ab", max_size=2), max_size=1) | JUNK,
}) | JUNK
FACT_DOCS = st.lists(st.fixed_dictionaries({}, optional={
    "subject": st.fixed_dictionaries({}, optional={"algebra": st.sampled_from(["kron2", "xiB"]) | JUNK, "i": JUNK}) | JUNK,
    "i": JUNK,
    "kind": st.sampled_from(["lower", "upper", "exact"]) | JUNK,
    "value": JUNK,
    "citation": JUNK,
}) | JUNK, max_size=3) | JUNK


def run_file_argv(doc, argv):
    """(exit code, report) of argv with FILE replaced by a file holding doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json([str(path) if a == "FILE" else a for a in argv])
    return code, report


@settings(max_examples=150, deadline=None)
@given(MODULE_DOCS)
def test_module_file_fuzz_exits_0_or_2(doc):
    # whatever a module file holds, it is accepted or refused as input
    for argv in (["mod", "validate", "kron2", "FILE"], ["ext", "kron2", "FILE", "S1"]):
        code, report = run_file_argv(doc, argv)
        assert code in (0, 2), report["results"]


@settings(max_examples=150, deadline=None)
@given(SPEC_DOCS)
@example({"field": 2, "vertices": ["a", "b"], "arrows": [{"name": "x", "from": "a", "to": "b"}], "relations": [[]]})
def test_algebra_file_fuzz_exits_0_or_2(doc):
    code, report = run_file_argv(doc, ["algebra", "info", "FILE"])
    assert code in (0, 2), report["results"]


@settings(max_examples=100, deadline=None)
@given(FACT_DOCS)
def test_facts_file_fuzz_exits_0_or_2(doc):
    code, report = run_file_argv(doc, ["ed", "kron2", "--i", "0,1", "--facts", "FILE"])
    assert code in (0, 2), report["results"]


def test_bad_spec_exit_2():
    code, report, _ = run_json(["algebra", "info", "no-such-thing"])
    assert code == 2
    assert report["results"]["kind"] == "validation"


def test_unreadable_algebra_path_exits_2(tmp_path):
    """A directory or a spec file that is not UTF-8 is bad input, as an
    unreadable module or facts file is."""
    (tmp_path / "latin1.json").write_bytes(kron2_spec().to_json().replace("x0", "x\xe9").encode("latin-1"))
    for ref in (tmp_path, tmp_path / "latin1.json"):
        code, report, _ = run_json(["algebra", "info", str(ref)])
        assert code == 2
        assert report["results"]["kind"] == "validation"
        assert "algebra file" in report["results"]["error"]


@pytest.mark.parametrize("argv", [
    ["--field", "4", "algebra", "info", "kron2"],
    ["--field", "4", "ext", "kron2", "S0", "S1", "--enumerate"],
    ["--field", str(2 ** 89 - 1), "algebra", "info", "kron2"],
    ["--field", "0", "algebra", "info", "kron2"],
    ["--field", "0", "algebra", "info", "@kron2.json"],
    ["--field", "4", "corpus", "show", "kron2"],
])
def test_non_prime_field_exit_2(tmp_path, argv):
    # --field is checked where it enters: 0 is not GF(2), nor the spec file's field
    (tmp_path / "kron2.json").write_text(kron2_spec(3).to_json())
    code, report, _ = run_json([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    assert code == 2
    assert report["results"]["kind"] == "validation"
    assert "prime" in report["results"]["error"]


def test_mersenne_61_field():
    code, report, _ = run_json(["--field", str(2 ** 61 - 1), "algebra", "info", "kron2"])
    assert code == 0 and report["results"]["field"] == 2 ** 61 - 1


def test_deep_odd_prime_syzygy_total_dimension():
    # xiB is monomial, so Omega^n(S2p) has the same dimensions over every field
    code, report, _ = run(["--field", "3", "mod", "syzygy", "xiB", "S2p", "--n", "13"])
    assert code == 0
    assert sum(report["results"]["dim"].values()) == 538


def _scalar(v):
    if isinstance(v, (dict, list)) and not v:
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def flat_per_line(value, indent=0):
    """Text layout with one string per line, for comparison with render_text."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.extend(flat_per_line(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, _scalar(v)))
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                lines.append("%s-" % pad)
                lines.extend(flat_per_line(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, _scalar(v)))
    else:
        lines.append("%s%s" % (pad, _scalar(value)))
    return lines


def render_text_per_line(report):
    lines = ["command: %s" % " ".join(report["command"])]
    lines.append("inputs digest: %s" % report["inputs"]["digest"])
    lines.append("results:")
    lines.extend(flat_per_line(report["results"], 1))
    for section in ("warnings", "timings"):
        if report.get(section):
            lines.append("%s:" % section)
            lines.extend(flat_per_line(report[section], 1))
    return "\n".join(lines) + "\n"


def test_render_text_matches_per_line_layout():
    report = new_report(["syzex", "x"], {"spec": "x"})
    report["results"] = {
        "empty_list": [],
        "empty_dict": {},
        "scalars": [1, "a", None, 2.5],
        "matrix": [[1, 0], [], [0, 1, 1]],
        "mixed": [1, [], {}, [2, [3, []]], {"k": [4, {}]}, "end"],
        "nested": {"a": {"b": {"c": [[[]]]}}, "d": None},
    }
    report["warnings"] = ["w1", ["w2", "w3"]]
    report["timings"] = {"wall_seconds": 0.5, "stages": {"cover": [0.1, 0.2]}}
    assert render_text(report) == render_text_per_line(report)
    report["results"] = {}
    report["warnings"] = []
    assert render_text(report) == render_text_per_line(report)
    _, report, text = run(["mod", "syzygy", "xiB", "S2p", "--n", "6"])
    assert text == render_text(report) == render_text_per_line(report)


@pytest.mark.parametrize("p", [2, 3, 5, 11, 257])
def test_render_text_matches_per_line_layout_on_syzygies(p, tmp_path):
    # a beilinson2 injective in a random basis has syzygy entries up to p - 1,
    # so over GF(11) and GF(257) some rows have two- or three-digit entries
    algebra = build_algebra(beilinson2_spec(p))
    module = tmp_path / "i2.json"
    module.write_text(json.dumps(module_doc(conjugate(algebra.injective(2), random.Random(5)), "beilinson2")))
    entries = set()
    for argv in (["xiA", "S2", "--n", "8"], ["beilinson2", str(module), "--n", "1"]):
        code, report, text = run(["--field", str(p), "mod", "syzygy"] + argv)
        assert code == 0
        assert text == render_text_per_line(report)
        entries |= {x for rows in report["results"]["module_file"]["action"].values() for r in rows for x in r}
    assert (max(entries) >= 10) == (p > 7)


REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.text("ab- :", max_size=3) | st.just([]) | st.just({}),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("xyz", min_size=1, max_size=2), inner, max_size=3),
    max_leaves=12,
)

# rows of plain ints, half of them all digits (the one-pass rendering), half
# with entries at the edges of that path: -1, 10, 255, 256 and True
BOUNDARY = (-1, 10, 255, 256, True)
INT_ROWS = st.lists(st.integers(0, 9), min_size=1, max_size=12) | st.lists(
    st.integers(0, 9) | st.sampled_from(BOUNDARY), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(REPORT_VALUES | INT_ROWS | st.lists(INT_ROWS, max_size=3), st.integers(0, 2))
@example([0, 9, 1], 1)
@example([[0, 1], [9, 10], [255, 256], [-1, 2], [True, 0]], 0)
@example([True, False, True], 2)
@example([[3, 12, 0], [], [0, 1]], 1)
@example([], 0)
def test_flat_matches_per_scalar_renderer(value, indent):
    # lists mixing ints, bools, strings, None, empty and nested containers, and int rows
    assert "\n".join(_flat(value, indent)) == "\n".join(flat_per_line(value, indent))


def test_reports_deterministic():
    _, _, a = run(["--format", "json", "ed", "kron2", "--i", "0,1"])
    _, _, b = run(["--format", "json", "ed", "kron2", "--i", "0,1"])
    assert a == b
    _, _, t1 = run(["ed", "kron2", "--i", "0"])
    _, _, t2 = run(["ed", "kron2", "--i", "0"])
    assert t1 == t2


def test_text_and_json_same_numbers():
    code, report, text = run(["ed", "kron2", "--i", "0"])
    assert code == 0
    assert "lower: 1" in text and "upper: 1" in text


def test_timings_flag():
    code, report, _ = run(["--timings", "algebra", "info", "kron2"])
    assert code == 0
    assert report["timings"] is not None and "wall_seconds" in report["timings"]


# Every command and group action, with the inputs each reported at a commit
# whose parser was one argparse tree: (argv after the global flags, the
# inputs beyond the global flags, the inputs digest).
PARSED_INPUTS = (
    ("algebra info kron2", {"action": "info", "cmd": "algebra", "spec": "kron2"}, "1c7c0572384cdb39"),
    ("mod validate kron2 S0", {"action": "validate", "cmd": "mod", "module": "S0", "spec": "kron2"}, "ff94c62788cb2c53"),
    ("mod decompose kron2 P0", {"action": "decompose", "cmd": "mod", "module": "P0", "spec": "kron2"}, "c610ec599a0d0523"),
    ("mod syzygy kron2 S0 --n 2", {"action": "syzygy", "cmd": "mod", "module": "S0", "n": 2, "spec": "kron2"}, "b9442b6fde637a1c"),
    ("mod cosyzygy kron2 S1", {"action": "cosyzygy", "cmd": "mod", "module": "S1", "n": 1, "spec": "kron2"}, "4bcde2788bcc9965"),
    ("ext kron2 S0 S1 --enumerate", {"cmd": "ext", "enumerate": True, "spec": "kron2", "x": "S0", "y": "S1"}, "ad59ab653467b52b"),
    (
        "bullet kron2 --left S1 --right S0 --dim-bound 2",
        {"cmd": "bullet", "dim_bound": 2, "left": "S1", "mult_bound": 2, "right": "S0", "spec": "kron2", "sweep": False},
        "165610e18aeed212",
    ),
    (
        "layer kron2 --gen S0,S1 --n 1 --dim-bound 2",
        {"cmd": "layer", "dim_bound": 2, "gen": "S0,S1", "mult_bound": 2, "n": 1, "spec": "kron2"},
        "a1404b270779bcce",
    ),
    ("syzcat kron2 --n 0 --dim-bound 2", {"cmd": "syzcat", "dim_bound": 2, "mult_bound": 2, "n": 0, "spec": "kron2"}, "19a7316892f39c82"),
    ("ed kron2 --i 0 --dim-bound 2", {"cmd": "ed", "dim_bound": 2, "i": "0", "mult_bound": 2, "spec": "kron2"}, "8fefa4dfe9a9558a"),
    ("tilting kron2 P0", {"cmd": "tilting", "module": "P0", "spec": "kron2"}, "9b88c08ea57462c9"),
    ("reptype kron2 --dim-bound 2", {"cmd": "reptype", "dim_bound": 2, "mult_bound": 2, "spec": "kron2"}, "327527a2a168c05f"),
    ("corpus list", {"action": "list", "cmd": "corpus"}, "3eeee11939f44e70"),
    ("corpus show kron2", {"action": "show", "cmd": "corpus", "id": "kron2"}, "f501a90782ce4f00"),
)


def test_command_table_and_parsed_inputs_cover_each_other():
    # each command and group action of cli._COMMANDS has one PARSED_INPUTS row,
    # so a new one cannot skip the digest test below, and each row names one
    table = {(cmd, action) for cmd, (_, _, _, actions) in cli._COMMANDS.items() for action in actions or (None,)}
    rows = [(values["cmd"], values.get("action")) for _, values, _ in PARSED_INPUTS]
    assert len(set(rows)) == len(rows) and set(rows) == table
    for (words, _, _), (cmd, action) in zip(PARSED_INPUTS, rows):
        first, second = words.split()[:2]
        assert first == cmd and action in (None, second), words


@pytest.mark.parametrize("words,values,digest", PARSED_INPUTS)
def test_global_flags_parse_the_same_anywhere(monkeypatch, words, values, digest):
    # before the command, after it, as --flag=value and abbreviated
    monkeypatch.delenv("SYZEX_BUDGET", raising=False)
    leaf = words.split()
    expected = {
        "digest": digest, "budget": 2 ** 20, "field": 3, "format": "text",
        "member_cap": 77, "seed": 0, "timings": False, **values,
    }
    for argv in (
        ["--field", "3", "--member-cap", "77"] + leaf,
        leaf + ["--field", "3", "--member-cap", "77"],
        ["--field=3"] + leaf + ["--member-cap=77"],
        ["--fi", "3"] + leaf + ["--mem", "77"],
    ):
        code, report, _ = run(argv)
        assert code == 0, argv
        assert report["inputs"] == expected, argv


@pytest.mark.parametrize("argv", [["--help"], ["mod", "--help"], ["ed", "--help"], ["mod", "syzygy", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if argv == ["--help"]:
        for cmd in ("algebra", "mod", "ext", "bullet", "layer", "syzcat", "ed", "tilting", "reptype", "corpus"):
            assert "\n  %s " % cmd in out
    elif argv[0] == "ed":
        assert "--dim-bound" in out and "--syzygy-probe" in out


@pytest.mark.parametrize("argv", [[], ["frob"], ["mod"], ["mod", "frob", "kron2", "S0"], ["ext", "kron2", "S0"]])
def test_missing_or_unknown_command_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,most", [(["ext", "kron2", "S0", "S1"], 2), (["mod", "syzygy", "xiB", "S2p"], 3)])
def test_run_builds_only_the_parsers_argv_names(monkeypatch, argv, most):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, _ = run(argv)
    assert code == 0
    assert len(built) <= most, built


def test_ed_with_syzygy_probe_cli():
    code, report, _ = run_json(
        ["ed", "nodeA", "--i", "1,2", "--dim-bound", "6", "--syzygy-probe", "1"]
    )
    assert code == 0
    intervals = {iv["i"]: iv for iv in report["results"]["intervals"]}
    assert intervals[1]["exact"] and intervals[1]["upper"] == 0
    assert "R8" in intervals[1]["upper_provenance"]


def test_parameterized_corpus_id_cli():
    code, report, _ = run_json(["algebra", "info", "nodeA:8"])
    assert code == 0
    assert len(report["results"]["vertices"]) == 8


def test_bm23_info_cli():
    code, report, _ = run_json(["algebra", "info", "bm23"])
    assert code == 0
    assert report["results"]["dimension"] == 60
    assert report["results"]["loewy_length"] == 3


@pytest.mark.parametrize("entry", ["xiB", "xiA"])
def test_ed_xi_probe_returns(entry):
    # syzygies are walked one summand at a time, so gldim and the probe return
    # although the whole Omega^n(S2p) of xiB grows fast
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "syzex.cli", "ed", entry, "--i", "0,1,2", "--dim-bound", "4", "--syzygy-probe", "2"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert "syzygy-finiteness probe at i=2 not certified" in proc.stdout


A3_DOC = {
    "field": 3,
    "vertices": ["1", "2", "3"],
    "arrows": [{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "3"}],
}


@pytest.mark.parametrize("coeff,code", [(True, 2), (False, 2), (1, 0)])
def test_bool_coefficient_refused(coeff, code):
    doc = dict(A3_DOC, relations=[[{"coeff": coeff, "path": ["a", "b"]}]])
    got, report = run_file_argv(doc, ["algebra", "info", "FILE"])
    assert got == code, report["results"]
    if code == 2:
        assert report["results"]["kind"] == "validation"
        assert "bad relation term" in report["results"]["error"]


@pytest.fixture
def fresh_help_width():
    """The once-per-process help width cleared before and after the test,
    so no width read under a test's COLUMNS outlives it."""
    cli._help_width.cache_clear()
    yield
    cli._help_width.cache_clear()


HELP_PARSERS = (
    lambda: cli.build_parser(),
    lambda: cli._command_parser("syzex ed", "ed", None),
    lambda: cli._command_parser("syzex mod syzygy", "mod", "syzygy"),
    lambda: cli._command_parser("syzex corpus show", "corpus", "show"),
)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("make", HELP_PARSERS)
def test_help_text_as_argparse_formats_it(monkeypatch, fresh_help_width, columns, make):
    # the same text as argparse's own formatters give at this width
    monkeypatch.setenv("COLUMNS", columns)
    parser = make()
    text = parser.format_help()
    parser.formatter_class = (
        argparse.RawDescriptionHelpFormatter
        if issubclass(parser.formatter_class, argparse.RawDescriptionHelpFormatter)
        else argparse.HelpFormatter
    )
    assert text == parser.format_help()


def test_help_width_read_once(monkeypatch, fresh_help_width):
    monkeypatch.setenv("COLUMNS", "50")
    narrow = cli.build_parser().format_help()
    monkeypatch.setenv("COLUMNS", "150")
    assert cli.build_parser().format_help() == narrow
    cli._help_width.cache_clear()
    assert cli.build_parser().format_help() != narrow
