#!/usr/bin/env python3
"""Record the reference report digests of every benchmark job.

    python3 perfbench/record.py            # writes perfbench/reference.json

Every job runs once in each of two fresh interpreters, under PYTHONHASHSEED
0 and 1.  syzex promises byte-identical reports for identical flags, so the
two sets of digests must agree; if they do not, nothing is written.  A job
that does not exit 0 gets no digest (null): its failure is counted by the
benchmark, and the digest is not checked once it succeeds.  Known answers
are checked too, and reported.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def child() -> int:
    os.environ.pop("SYZEX_BUDGET", None)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from syzex.cli import run

    from jobs import WORKLOADS

    out = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            code, report, text = run(list(job.argv))
            answered = code == 0 and (job.answer is None or job.answer(report))
            out[job.key] = [code, hashlib.sha256(text.encode()).hexdigest(), answered]
    print(json.dumps(out))
    return 0


def main() -> int:
    runs = []
    for hash_seed in ("0", "1"):
        env = {k: v for k, v in os.environ.items() if k != "SYZEX_BUDGET"}
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout))
    if runs[0] != runs[1]:
        for key in runs[0]:
            if runs[0][key] != runs[1][key]:
                print("not deterministic across PYTHONHASHSEED: " + key, file=sys.stderr)
        return 1
    reference = {}
    for key, (code, digest, answered) in runs[0].items():
        reference[key] = digest if code == 0 else None
        if code != 0 or not answered:
            print("%s: exit %d, known answer %s" % (key, code, "ok" if answered else "WRONG"))
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("recorded %d jobs" % len(reference))
    return 0


if __name__ == "__main__":
    sys.exit(child() if "--child" in sys.argv else main())
