#!/usr/bin/env python3
"""Reproduce the worked desk-scale examples end to end and print the reports.

Usage: python3 scripts/reproduce_examples.py [--format json]
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from syzex.cli import run  # noqa: E402


def main() -> int:
    fmt = "json" if "--format" in sys.argv and "json" in sys.argv else "text"
    facts_file = Path(tempfile.gettempdir()) / "syzex_beilinson_facts.json"
    facts_file.write_text(
        json.dumps(
            [
                {
                    "subject": {"algebra": "beilinson2", "i": 0},
                    "kind": "exact",
                    "value": 2,
                    "citation": "known extension dimension of the Beilinson-type algebra",
                }
            ]
        )
    )
    jobs = [
        ["ed", "kron2", "--i", "0,1,2"],
        ["bullet", "kron2", "--left", "S1", "--right", "S0", "--dim-bound", "6", "--mult-bound", "3"],
        ["bullet", "kron2", "--left", "S0", "--right", "S1", "--dim-bound", "6"],
        ["reptype", "fivevertex", "--dim-bound", "8"],
        ["ed", "fivevertex", "--i", "0,1,2", "--dim-bound", "8"],
        ["tilting", "fivevertex", "T"],
        ["reptype", "euclideanB", "--dim-bound", "5"],
        ["ed", "euclideanB", "--i", "0,1,2", "--dim-bound", "5"],
        ["syzcat", "euclideanB", "--n", "1", "--dim-bound", "5"],
        ["ed", "beilinson2", "--i", "0,1,2", "--dim-bound", "2", "--facts", str(facts_file)],
        ["ed", "beilinson2", "--i", "0", "--dim-bound", "2"],
        ["ed", "nodeA", "--i", "0,1,2", "--dim-bound", "8", "--syzygy-probe", "1"],
    ]
    worst = 0
    for argv in jobs:
        print("=" * 72)
        print("$ syzex", " ".join(argv))
        code, _, rendered = run(["--format", fmt] + argv)
        print(rendered, end="")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
