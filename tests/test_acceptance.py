"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import property_suites as ps
from conftest import member_named
from syzex.cli import run
from syzex.corpus import corpus_algebra, load_corpus
from syzex.extdim import (
    UniverseParams,
    bullet,
    ed_report,
    generate_universe,
    rep_type_certificate,
    syzygy_finiteness_probe,
    tits_classification,
)
from syzex.homology import gldim_bounded, tilting_check
from syzex.rep import direct_sum

FIVEVERTEX_AR_COUNT = 14  # vertices of the AR quiver of this algebra, counted by hand before coding


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.perf_counter()
    status = {"ok": False}
    try:
        yield status
        status["ok"] = True
    finally:
        elapsed = time.perf_counter() - t0
        print(
            "ACCEPTANCE %d: %s — %s (%.1fs, limit %ds)"
            % (num, "PASS" if status["ok"] and elapsed < limit_s else "FAIL", desc, elapsed, limit_s)
        )
    assert elapsed < limit_s, "criterion %d exceeded %ds (%.1fs)" % (num, limit_s, elapsed)


def test_criterion_1_kron_ed_exact():
    with criterion(1, "kron2 ed exact 1 at i=0 and 0 at i>=1", 5):
        code, report, _ = run(["--format", "json", "ed", "kron2", "--i", "0,1"])
        assert code == 0
        by_i = {iv["i"]: iv for iv in report["results"]["intervals"]}
        assert by_i[0]["exact"] and by_i[0]["lower"] == 1 and by_i[0]["upper"] == 1
        assert by_i[1]["exact"] and by_i[1]["lower"] == 0 and by_i[1]["upper"] == 0


def test_criterion_2_kron_bullet_orders():
    with criterion(2, "kron2 bullet orders at d=6", 30):
        algebra = corpus_algebra("kron2")
        uni = generate_universe(algebra, UniverseParams(6))
        s0 = member_named(uni, "S0")
        s1 = member_named(uni, "S1")
        full = bullet(uni.with_bullet_bounds(3), frozenset([s1]), frozenset([s0]))
        for cls in uni.members:
            assert cls in full, "window member %s missing from the full order" % (cls.dim,)
        split = bullet(uni.with_bullet_bounds(3), frozenset([s0]), frozenset([s1]))
        assert split == frozenset([s0, s1])


def test_criterion_3_fivevertex_finite_and_ed_zero():
    with criterion(3, "fivevertex representation-finite with %d members, ed = 0" % FIVEVERTEX_AR_COUNT, 60):
        algebra = corpus_algebra("fivevertex")
        cert = rep_type_certificate(algebra, UniverseParams(8))
        assert cert.verdict == "finite" and cert.certified
        assert len(cert.members) == FIVEVERTEX_AR_COUNT
        intervals = ed_report(algebra, [0, 1, 2, 4], UniverseParams(8))
        for iv in intervals:
            assert iv.exact and iv.upper == 0


def test_criterion_4_fivevertex_tilting():
    with criterion(4, "fivevertex tilting module has pd 1", 10):
        entry = load_corpus("fivevertex")
        algebra = corpus_algebra("fivevertex")
        t = entry.module_builders["T"](algebra)
        verdict = tilting_check(t)
        assert verdict.is_tilting
        assert verdict.pd == 1


def test_criterion_5_euclidean_b():
    with criterion(5, "euclideanB Euclidean graph, ed exact 1 then 0", 10):
        algebra = corpus_algebra("euclideanB")
        assert tits_classification(algebra) == "Euclidean"
        intervals = ed_report(algebra, [0, 1, 2], UniverseParams(5), algebra_id="euclideanB")
        by_i = {iv.i: iv for iv in intervals}
        assert by_i[0].exact and by_i[0].lower == 1
        assert by_i[1].exact and by_i[1].upper == 0
        assert by_i[2].exact and by_i[2].upper == 0


def test_criterion_6_beilinson():
    with criterion(6, "beilinson2 gldim 2; ed 2-i with the external fact, [0,2] without", 300):
        algebra = corpus_algebra("beilinson2")
        assert gldim_bounded(algebra) == 2
        fact = [{"i": 0, "kind": "exact", "value": 2, "citation": "known extension dimension"}]
        with_fact = ed_report(
            algebra, [0, 1, 2], UniverseParams(2), external_facts=fact
        )
        for iv in with_fact:
            assert iv.exact and iv.lower == 2 - iv.i
        without = ed_report(algebra, [0], UniverseParams(2))[0]
        assert (without.lower, without.upper) == (0, 2)
        assert not without.exact
        assert "R2" in without.upper_fact.rule or "R3" in without.upper_fact.rule
        assert without.lower_fact.rule == "axiom"  # certified lower bound is 0, stated as such


def test_criterion_7_property_suites():
    with criterion(7, "thirteen property suites, each at 100+ instances", 600):
        bench = ps.Bench()
        for name, suite in ps.ALL_SUITES:
            ran = suite(bench)
            assert ran >= 100, "%s ran only %d instances" % (name, ran)
            print("  suite %-28s %4d instances" % (name, ran))


def test_criterion_8_node_syzygy_finiteness():
    with criterion(8, "nodeA first syzygy category saturates; upper bound 0 at i>=1 via R8", 300):
        algebra = corpus_algebra("nodeA")
        probe = syzygy_finiteness_probe(generate_universe(algebra, UniverseParams(8)), 1)
        assert probe.certified, probe.details
        assert 0 < len(probe.members) <= 12
        intervals = ed_report(
            algebra, [1, 2, 3], UniverseParams(8), syzygy_probes=(1,), algebra_id="nodeA"
        )
        for iv in intervals:
            assert iv.exact and iv.upper == 0
            chain = iv.upper_fact.describe()
            assert "R8" in chain, chain
