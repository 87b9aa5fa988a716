"""Workloads of the syzex benchmark: job lists and independent known answers.

A job is one `syzex` command line, run in-process through `syzex.cli.run`.
Paths in job argv are relative to the repository root, so the report's input
digest (which echoes them) is the same in every checkout.

Each job may carry a known-answer check: a predicate on the report dict that
comes from the mathematics, not from a recorded run.  Recorded report digests
live in `reference.json` (see `record.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

FACTS = "perfbench/data/beilinson2_facts.json"
ENTRY256 = "perfbench/data/kron2_entry256.json"

# Total dimensions of Omega^n(S2p) over xiB for n = 1..14.  xiB is monomial,
# so the sequence does not depend on the field.
XIB_OMEGA_DIMS = (3, 2, 8, 12, 18, 22, 38, 62, 98, 142, 218, 342, 538, 822)


@dataclass(frozen=True)
class Job:
    argv: tuple
    answer: Optional[Callable] = None  # report dict -> bool

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def job(line: str, answer=None) -> Job:
    return Job(tuple(line.split()), answer)


# -- known answers ----------------------------------------------------------


def _intervals(report):
    return {iv["i"]: iv for iv in report["results"]["intervals"]}


def ed_exact(*values):
    """ed is exact and equal to values[i] at i = 0, 1, ..."""
    def check(report):
        by_i = _intervals(report)
        return all(
            by_i[i]["exact"] and by_i[i]["lower"] == v == by_i[i]["upper"]
            for i, v in enumerate(values)
        )
    return check


def ed_interval(i, lower, upper):
    def check(report):
        iv = _intervals(report)[i]
        return (iv["lower"], iv["upper"]) == (lower, upper)
    return check


def ed_r8_upper_zero(report):
    """Upper bound 0 at every i >= 1, certified through the R8 probe chain."""
    later = [iv for i, iv in _intervals(report).items() if i >= 1]
    return bool(later) and all(
        iv["upper"] == 0 and "R8" in iv["upper_provenance"] for iv in later
    )


def window(verdict, count):
    def check(report):
        res = report["results"]
        return res["verdict"] == verdict and res["member_count"] == count
    return check


def tilting_pd1(report):
    res = report["results"]
    return res["is_tilting"] is True and res["pd"] == 1


def euclidean(report):
    return report["results"]["tits"] == "Euclidean"


def total_dim(n):
    def check(report):
        return sum(report["results"]["dim"].values()) == n
    return check


def dimension(n):
    """`algebra info` and `ext` both report a `dimension`."""
    def check(report):
        return report["results"]["dimension"] == n
    return check


def one_summand(report):
    factors = report["results"]["factors"]
    return len(factors) == 1 and factors[0]["multiplicity"] == 1


# -- workloads --------------------------------------------------------------

DESK = (
    job("ed kron2 --i 0,1,2", ed_exact(1, 0, 0)),
    job("bullet kron2 --left S1 --right S0 --dim-bound 6 --mult-bound 3"),
    job("bullet kron2 --left S0 --right S1 --dim-bound 6"),
    job("reptype fivevertex --dim-bound 8", window("finite", 14)),
    job("ed fivevertex --i 0,1,2 --dim-bound 8", ed_exact(0, 0, 0)),
    job("tilting fivevertex T", tilting_pd1),
    job("reptype euclideanB --dim-bound 5", euclidean),
    job("ed euclideanB --i 0,1,2 --dim-bound 5", ed_exact(1, 0, 0)),
    job("syzcat euclideanB --n 1 --dim-bound 5"),
    job("ed beilinson2 --i 0,1,2 --dim-bound 2 --facts " + FACTS, ed_exact(2, 1, 0)),
    job("ed beilinson2 --i 0 --dim-bound 2", ed_interval(0, 0, 2)),
    job("ed nodeA --i 0,1,2 --dim-bound 8 --syzygy-probe 1", ed_r8_upper_zero),
)

ODDPRIME = (
    job("--field 3 ed kron2 --i 0,1,2 --dim-bound 4", ed_exact(1, 0, 0)),
    job("--field 3 bullet kron2 --left S1 --right S0 --dim-bound 4"),
    job("--field 3 ed euclideanB --i 0,1,2 --dim-bound 5", ed_exact(1, 0, 0)),
    job("--field 3 ed beilinson2 --i 0 --dim-bound 2", ed_interval(0, 0, 2)),
    job("--field 3 ed nodeA --i 0,1,2 --dim-bound 6 --syzygy-probe 1", ed_r8_upper_zero),
    job("--field 5 syzcat kron2 --n 1 --dim-bound 3"),
)

RESOLVE = (
    job("mod syzygy xiB S2p --n 14", total_dim(XIB_OMEGA_DIMS[13])),
    job("mod syzygy xiA S2 --n 15"),
    job("--field 3 mod syzygy xiB S2p --n 13", total_dim(XIB_OMEGA_DIMS[12])),
)

CORPUS_IDS = (
    "beilinson2", "bm23", "dualnumbers", "euclideanB", "fivevertex",
    "kron2", "nodeA", "nodeB", "xiA", "xiB",
)


def _query_grid():
    cells = []
    for p in (2, 3, 5, 257):
        f = "--field %d " % p
        # p^k extension classes are enumerated only for small p
        enum = " --enumerate" if p < 257 else ""
        for cid in CORPUS_IDS:
            cells.append(job(f + "algebra info " + cid, dimension(4) if cid == "kron2" else None))
        # dim Ext^1(S0, S1) is the number of arrows 0 -> 1; P0 is projective
        cells.append(job(f + "ext kron2 S0 S1" + enum, dimension(2)))
        cells.append(job(f + "ext kron2 P0 S1" + enum, dimension(0)))
        cells.append(job(f + "ext kron2 S1 S0" + enum))
        cells.append(job(f + "ext beilinson2 S0 S1" + enum))
        cells.append(job(f + "ext beilinson2 S1 S2" + enum))
        for n in (1, 2, 3, 4):
            cells.append(job(f + "mod syzygy xiB S2p --n %d" % n, total_dim(XIB_OMEGA_DIMS[n - 1])))
        cells.append(job(f + "mod syzygy kron2 S0 --n 1"))
        cells.append(job(f + "mod cosyzygy beilinson2 S0 --n 1"))
        cells.append(job(f + "mod decompose kron2 P0", one_summand))
        # dimension (1,1) with x0 = 1 is indecomposable over every field;
        # over GF(257) the entry 256 is not reduced, and the command fails today
        cells.append(job(f + "mod decompose kron2 " + ENTRY256, one_summand))
        cells.append(job(f + "tilting fivevertex T", tilting_pd1))
    return tuple(cells)


QUERIES = _query_grid()

WORKLOADS = {
    "desk": DESK,
    "oddprime": ODDPRIME,
    "resolve": RESOLVE,
    "queries": QUERIES,
}


def algebras_used(jobs) -> list:
    """(field or None, corpus id) pairs the jobs build, for set-up timing."""
    out = []
    for j in jobs:
        argv = list(j.argv)
        p = None
        if argv[0] == "--field":
            p = int(argv[1])
            argv = argv[2:]
        # the spec is the first positional after the (sub)command words
        words = argv[2:] if argv[0] in ("algebra", "mod") else argv[1:]
        pair = (p, words[0])
        if pair not in out:
            out.append(pair)
    return out
