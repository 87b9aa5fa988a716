#!/usr/bin/env python3
"""Check that the tracer sees every call: its counts against cProfile's.

    python3 perfbench/check_trace.py

Runs desk's nodeA job once with the tracer installed and cProfile on.
cProfile counts calls of the original functions by code object, whichever
namespace the caller found them in, so the two counts agree only if the
tracer intercepted the names bound in every syzex module.  Exit 1 on any
mismatch.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB = "ed nodeA --i 0,1,2 --dim-bound 8 --syzygy-probe 1"
CHECKED = (
    "linalg.rref", "linalg.mul", "linalg.kernel_basis", "linalg.solve_matrix",
    "rep.hom_space", "rep.is_iso", "rep.decompose",
    "homology.projective_cover", "homology.ext1_space", "homology.syzygy",
    "extdim.ClassRegistry.intern", "extdim.generate_universe",
)


def main() -> int:
    os.environ.pop("SYZEX_BUDGET", None)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import syzex.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    prof = cProfile.Profile()
    prof.enable()
    try:
        code = syzex.cli.run(JOB.split())[0]
    finally:
        prof.disable()
        tracer.uninstall()
    by_code = {}
    for (filename, _, func), (_, ncalls, _, _, _) in pstats.Stats(prof).stats.items():
        if Path(filename).parent.name == "syzex":
            by_code[(Path(filename).stem, func)] = by_code.get((Path(filename).stem, func), 0) + ncalls
    bad = 0
    print("%-30s %10s %10s" % ("function", "tracer", "cProfile"))
    for name in CHECKED:
        layer, func = name.split(".", 1)
        want = by_code.get((layer, func.rsplit(".", 1)[-1]), 0)
        got = tracer.calls[name]
        bad += got != want
        print("%-30s %10d %10d%s" % (name, got, want, "" if got == want else "  MISMATCH"))
    print("exit code %d, %d spans" % (code, len(tracer.span_start)))
    return 1 if bad or code else 0


if __name__ == "__main__":
    sys.exit(main())
