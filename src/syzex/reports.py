"""Report assembly and rendering.

A report is a plain dict with a fixed shape (see data/report.schema.json):
command echo, input digest, structured results, warnings, and optional
timings.  Text and JSON renderings carry the same numeric content; default
reports contain nothing run-dependent, so identical invocations produce
byte-identical output.

The text rendering writes each value with str(), which already spells an
empty dict or list as {} or [].  A list holding no dict or list, such as a
matrix row, is written as one join, which keeps MB-sized module files cheap.
A list of plain ints (no bools) whose entries are all 0..9, which is every
row of a module over GF(p) for p <= 7, makes no string per entry: its digits,
bytes(row) translated to ASCII, go into a template of its lines by one
extended-slice assignment.  Any other list, a row over GF(11) or GF(257) with
a two-digit entry among them, falls back to one str() per entry; both give
the same text.
"""

from __future__ import annotations

import hashlib
import json


def new_report(command: list, inputs: dict) -> dict:
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    return {
        "command": list(command),
        "inputs": {"digest": digest, **inputs},
        "results": {},
        "warnings": [],
        "timings": None,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"


# byte k < 10 to the ASCII digit k, every other byte to a non-digit
_DIGIT_OF = bytes(range(48, 58)).ljust(256, b"x")


def _digit_lines(row, item):
    """The lines item + str(x) for x in a row of plain ints 0..9, joined by
    newlines; None for any other row."""
    try:
        digits = bytes(row).translate(_DIGIT_OF)
    except (TypeError, ValueError):  # an entry that is not an int, or one outside 0..255
        return None
    if not digits.isdigit() or list(map(type, row)).count(int) != len(row):
        return None
    text = bytearray((item + "0\n").encode()) * len(row)
    text[len(item)::len(item) + 2] = digits
    del text[-1]
    return text.decode()


def _flat(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                lines.append("%s%s:" % (pad, k))
                lines.extend(_flat(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(value, list):
        # a list of scalars (a matrix row) is one chunk, not one string per entry
        item = pad + "- "
        text = _digit_lines(value, item)
        if text is not None:
            lines.append(text)
            return lines
        if not any(issubclass(t, (dict, list)) for t in set(map(type, value))):
            if value:
                lines.append(item + ("\n" + item).join(map(str, value)))
            return lines
        for v in value:
            if isinstance(v, (dict, list)) and v:
                lines.append("%s-" % pad)
                lines.extend(_flat(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, value))
    return lines


def render_text(report: dict) -> str:
    lines = ["command: %s" % " ".join(report["command"])]
    lines.append("inputs digest: %s" % report["inputs"]["digest"])
    lines.append("results:")
    lines.extend(_flat(report["results"], 1))
    if report["warnings"]:
        lines.append("warnings:")
        lines.extend(_flat(report["warnings"], 1))
    if report.get("timings"):
        lines.append("timings:")
        lines.extend(_flat(report["timings"], 1))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)
