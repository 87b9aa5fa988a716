"""Command-line surface.

Exit codes: 0 success, 1 budget exhaustion, 2 bad input (a SpecError,
raised where the input enters: files, flags and SYZEX_BUDGET), 3 internal
faults (a failed consistency check or any other unexpected exception,
AlgebraMismatch, ValueError and KeyError included; the report still renders,
with the error under results).
Reports are deterministic for fixed flags; timings appear only on request.
Every command that names an algebra gets it, and its corpus entry, from
run(), which resolves and builds it once (_resolve_algebra) before calling
the command.  _COMMANDS is the command surface: each command's help line,
handler and arguments, and each group command's actions.  run() builds from
it only the parsers argv names: the top parser reads the global flags and
the command word, then the command's own parser (for algebra, mod and
corpus, the group's and then the action's) reads the words after it; a
per-call CLI pays for its parsers on every call, so no other is built.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import shutil
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .algebra import build_algebra, parse_algebra_spec
from .errors import BudgetExceeded, SpecError
from .extdim import (
    UniverseParams,
    bounded_containment,
    bullet,
    ed_report,
    generate_universe,
    layer,
    rep_type_certificate,
    syzygy_category,
    tits_classification,
)
from .homology import cosyzygy, ext1_space, extension_middle, syzygy, tilting_check
from .linalg import is_prime
from .rep import decompose, module_doc, parse_module_doc, sort_key
from .reports import new_report, render_json, render_text


def _default_budget():
    """SYZEX_BUDGET, or 2^20 when it is unset; None when it is not an integer,
    which run() reports as bad input unless --budget overrides it."""
    env = os.environ.get("SYZEX_BUDGET")
    if not env:
        return 2 ** 20
    try:
        return int(env)
    except ValueError:
        return None


def _read_text(path: Path, what: str) -> str:
    """The text of a user-supplied file; SpecError when it cannot be read as UTF-8."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("%s %s is not a readable text file: %s" % (what, path, exc)) from None


def _read_json(path: Path, what: str):
    """The JSON document in a user-supplied file; SpecError when it cannot be read or parsed."""
    try:
        return json.loads(_read_text(path, what))
    except ValueError as exc:
        raise SpecError("%s %s is not a readable JSON file: %s" % (what, path, exc)) from None


def _names(text: str) -> list:
    """The nonempty items of a comma list, stripped."""
    return [x.strip() for x in text.split(",") if x.strip()]


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in _names(text)]
    except ValueError:
        raise SpecError("%s takes a comma list of integers, got %r" % (flag, text)) from None


def _natural(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _facts(path: str, algebra_id: str) -> list:
    """The facts file's entries about this algebra; SpecError on a malformed entry."""
    doc = _read_json(Path(path), "facts file")
    if not isinstance(doc, list):
        raise SpecError("facts file %s must hold a JSON list" % path)
    facts = []
    for item in doc:
        subject = item.get("subject", {}) if isinstance(item, dict) else None
        if not isinstance(subject, dict):
            raise SpecError("facts entry %r is not an object with an object subject" % (item,))
        if subject.get("algebra") not in (None, algebra_id):
            continue
        if "kind" not in item or "value" not in item:
            raise SpecError("facts entry %r lacks a kind or a value" % (item,))
        fact = {
            "i": subject.get("i", item.get("i", 0)),
            "kind": item["kind"],
            "value": item["value"],
            "citation": item.get("citation", "unsourced"),
        }
        if fact["kind"] not in ("lower", "upper", "exact") or not (_natural(fact["i"]) and _natural(fact["value"])):
            raise SpecError(
                "facts entry %r: kind must be lower, upper or exact, i and value nonnegative integers" % (item,)
            )
        facts.append(fact)
    return facts


def _resolve_algebra(args) -> tuple:
    """(corpus entry or None, algebra) of the command's spec, a corpus id or
    an AlgebraSpec file path; (None, None) for a command without one."""
    if not hasattr(args, "spec"):
        return None, None
    ref = args.spec
    if ref.partition(":")[0] in corpus_mod.corpus_ids():
        entry = corpus_mod.load_corpus(ref, args.field)
        return entry, build_algebra(entry.spec)
    path = Path(ref)
    if not path.exists():
        raise SpecError("not a corpus id or readable file: %r" % ref)
    spec = parse_algebra_spec(_read_text(path, "algebra file"))
    if args.field is not None:
        spec.field_p = args.field
    return None, build_algebra(spec)


def _resolve_module(ref: str, entry, algebra):
    if entry is not None:
        try:
            return corpus_mod.named_module(entry, algebra, ref)
        except SpecError:
            pass
    path = Path(ref)
    if not path.exists():
        raise SpecError("not a known module name or readable file: %r" % ref)
    return parse_module_doc(_read_json(path, "module file"), algebra)


def _valid_module(ref: str, entry, algebra):
    """_resolve_module for commands that compute with the module: a shape or
    relation violation is bad input, not an internal fault further on."""
    m = _resolve_module(ref, entry, algebra)
    violations = m.validate()
    if violations:
        raise SpecError("module %s is not a representation: %s" % (ref, "; ".join(violations)))
    return m


def _universe_params(args) -> UniverseParams:
    return UniverseParams(
        dim_bound=args.dim_bound,
        mult_bound=args.mult_bound,
        ext_budget=args.budget,
        member_cap=args.member_cap,
    )


def _vertex_modules(algebra, names: str) -> list:
    """The S<v>/P<v>/I<v> modules of a comma list, built before the window."""
    return [corpus_mod.vertex_module(algebra, x) for x in _names(names)]


def _member_set(uni, modules) -> frozenset:
    return frozenset(uni.registry.intern(m)[0] for m in modules)


def _dims(classes):
    return [c.dim_map() for c in sorted(classes, key=sort_key)]


def cmd_algebra(args, report, entry, algebra):
    spec = algebra.spec
    report["results"] = {
        "vertices": list(spec.vertices),
        "arrows": [{"name": a["name"], "from": a["from"], "to": a["to"]} for a in spec.arrows],
        "field": algebra.p,
        "dimension": algebra.dim,
        "dimension_by_path_length": algebra.dimension_by_length(),
        "loewy_length": algebra.loewy_length(),
        "semisimple": algebra.is_semisimple(),
        "hereditary": algebra.is_hereditary(),
        "projectives": {
            algebra.vertex_label(v): algebra.projective(v).dim_map()
            for v in range(algebra.n_vertices)
        },
        "injectives": {
            algebra.vertex_label(v): algebra.injective(v).dim_map()
            for v in range(algebra.n_vertices)
        },
    }
    return 0


def cmd_mod(args, report, entry, algebra):
    m = _resolve_module(args.module, entry, algebra)
    violations = m.validate()
    if args.action == "validate":
        report["results"] = {"module": args.module, "ok": not violations, "violations": violations}
        return 2 if violations else 0
    if violations:
        report["results"] = {"module": args.module, "violations": violations}
        return 2
    if args.action == "decompose":
        report["results"] = {
            "module": args.module,
            "factors": [
                {"multiplicity": mult, "dim": f.dim_map(), "module": module_doc(f, args.spec)}
                for f, mult in decompose(m).factors
            ],
        }
        return 0
    out = syzygy(m, args.n) if args.action == "syzygy" else cosyzygy(m, args.n)
    report["results"] = {
        "module": args.module,
        "n": args.n,
        "dim": out.dim_map(),
        "module_file": module_doc(out, args.spec),
    }
    return 0


def cmd_ext(args, report, entry, algebra):
    x = _valid_module(args.x, entry, algebra)
    y = _valid_module(args.y, entry, algebra)
    space = ext1_space(x, y)
    results = {"x": args.x, "y": args.y, "dimension": space.dimension}
    if args.enumerate:
        p = algebra.p
        if p ** space.dimension > args.budget:
            raise BudgetExceeded(
                "%d^%d extension classes exceed budget %d" % (p, space.dimension, args.budget)
            )
        # one decomposition per line: diag(lambda I_Y, I_X) maps middle(c) onto middle(lambda c)
        by_line = {}
        listing = []
        for coords in itertools.product(range(p), repeat=space.dimension):
            lead = pow(next((c for c in coords if c), 1), -1, p)
            line = tuple(c * lead % p for c in coords)
            if line not in by_line:
                middle = extension_middle((y,), (x,), ((space.corners(coords),),))
                by_line[line] = {
                    "middle_dim": middle.dim_map(),
                    "summands": [{"dim": f.dim_map(), "multiplicity": mult} for f, mult in decompose(middle).factors],
                }
            listing.append(by_line[line])
        results["class_count"] = len(listing)
        results["classes"] = listing
    report["results"] = results
    return 0


def cmd_bullet(args, report, entry, algebra):
    left_mods, right_mods = _vertex_modules(algebra, args.left), _vertex_modules(algebra, args.right)
    uni = generate_universe(algebra, _universe_params(args))
    left = _member_set(uni, left_mods)
    right = _member_set(uni, right_mods)
    got = bullet(uni, left, right)
    if args.sweep:
        wider = bullet(uni.with_bullet_bounds(args.mult_bound + 1), left, right)
        if wider != got:
            report["warnings"].append(
                "saturation sweep: %d new members at mult bound %d"
                % (len(wider - got), args.mult_bound + 1)
            )
    if uni.is_clipped:
        report["warnings"].append("universe clipped at dim bound %d" % args.dim_bound)
    report["results"] = {
        "left": sorted(_names(args.left)),
        "right": sorted(_names(args.right)),
        "dim_bound": args.dim_bound,
        "mult_bound": args.mult_bound,
        "member_count": len(got),
        "members": _dims(got),
    }
    return 0


def cmd_layer(args, report, entry, algebra):
    if args.n < 0:  # refused before the window is built
        raise SpecError("layer index must be nonnegative")
    gen_mods = _vertex_modules(algebra, args.gen)
    target_mods = _vertex_modules(algebra, args.contains or "")
    uni = generate_universe(algebra, _universe_params(args))
    gens = _member_set(uni, gen_mods)
    got = layer(uni, gens, args.n)
    if uni.is_clipped:
        report["warnings"].append("universe clipped at dim bound %d" % args.dim_bound)
    results = {
        "generators": sorted(_names(args.gen)),
        "n": args.n,
        "dim_bound": args.dim_bound,
        "mult_bound": args.mult_bound,
        "member_count": len(got),
        "members": _dims(got),
    }
    if args.contains:
        target = _member_set(uni, target_mods)
        missing = bounded_containment(got, target)
        results["contains"] = {
            "query": sorted(_names(args.contains)),
            "holds": missing is None,
            "first_missing": missing.dim_map() if missing is not None else None,
        }
    report["results"] = results
    return 0


def cmd_syzcat(args, report, entry, algebra):
    if args.n < 0:  # refused before the window is built
        raise SpecError("syzygy index must be nonnegative")
    cat = syzygy_category(generate_universe(algebra, _universe_params(args)), args.n)
    if cat.universe.is_clipped:
        report["warnings"].append("universe clipped at dim bound %d" % args.dim_bound)
    report["results"] = {
        "n": args.n,
        "dim_bound": args.dim_bound,
        "member_count": len(cat.members),
        "members": _dims(cat.members),
        "oversized": _dims(cat.oversized),
    }
    return 0


def cmd_ed(args, report, entry, algebra):
    indices = _int_list(args.i, "--i")
    facts = _facts(args.facts, args.spec) if args.facts else []
    probes = _int_list(args.syzygy_probe, "--syzygy-probe") if args.syzygy_probe else ()
    intervals = ed_report(algebra, indices, _universe_params(args), facts, probes, algebra_id=args.spec)
    report["results"] = {
        "indices": indices,
        "dim_bound": args.dim_bound,
        "external_facts": facts,
        "intervals": [iv.as_dict() for iv in intervals],
    }
    for iv in intervals:
        for note in iv.notes:
            if note not in report["warnings"]:
                report["warnings"].append(note)
    return 0


def cmd_tilting(args, report, entry, algebra):
    if args.bound is not None and args.bound < 0:
        raise SpecError("tilting bound must be nonnegative, got %d" % args.bound)
    t = _valid_module(args.module, entry, algebra)
    verdict = tilting_check(t, args.bound)
    report["results"] = {
        "module": args.module,
        "is_tilting": verdict.is_tilting,
        "pd": verdict.pd,
        "failures": verdict.failures,
        "coresolution_dims": [list(d) for d in verdict.coresolution],
    }
    return 0


def cmd_reptype(args, report, entry, algebra):
    cert = rep_type_certificate(algebra, _universe_params(args))
    report["results"] = {
        "dim_bound": args.dim_bound,
        "verdict": cert.verdict,
        "method": cert.method,
        "certified": cert.certified,
        "witness": cert.witness,
        "tits": tits_classification(algebra),
        "member_count": len(cert.members) if cert.verdict == "finite" else None,
        "members": _dims(cert.members) if cert.verdict == "finite" else [],
    }
    return 0


def cmd_corpus(args, report, entry, algebra):
    if args.action == "list":
        report["results"] = {
            "entries": [
                {"id": cid, "notes": corpus_mod.load_corpus(cid).notes}
                for cid in corpus_mod.corpus_ids()
            ]
        }
        return 0
    entry = corpus_mod.load_corpus(args.id, args.field)
    report["results"] = {
        "id": args.id,
        "notes": entry.notes,
        "named_modules": sorted(entry.module_builders),
        "spec_json": entry.spec.to_json(),
    }
    return 0


def _arg(*flags, **options) -> tuple:
    """One argument of a command, as the (flags, options) add_argument takes."""
    return flags, options


_SPEC, _MOD_N = _arg("spec"), (_arg("--n", type=int, default=1),)
_WINDOW = (_arg("--dim-bound", type=int, default=6), _arg("--mult-bound", type=int, default=2), _SPEC)

# The command surface: each command word's one-line help, handler and arguments, as
# (flags, options) pairs in the order they are added (_WINDOW's first where a Universe
# is built), and for a group command the arguments each action adds, by action word.
_COMMANDS = {
    "algebra": ("inspect an algebra", cmd_algebra, (_SPEC,), {"info": ()}),
    "mod": ("module operations", cmd_mod, (_SPEC, _arg("module")),
            {"validate": (), "decompose": (), "syzygy": _MOD_N, "cosyzygy": _MOD_N}),
    "ext": ("Ext^1 dimension and classes", cmd_ext,
            (_SPEC, _arg("x"), _arg("y"), _arg("--enumerate", action="store_true")), None),
    "bullet": ("bullet of two add-categories", cmd_bullet, (
        *_WINDOW,
        _arg("--left", required=True, help="comma list of member names (sub side)"),
        _arg("--right", required=True, help="comma list of member names (quotient side)"),
        _arg("--sweep", action="store_true", help="recheck at mult bound + 1 and warn on growth"),
    ), None),
    "layer": ("[T]_n layers", cmd_layer, (
        *_WINDOW, _arg("--gen", required=True), _arg("--n", type=int, required=True),
        _arg("--contains", help="member names to test for layer membership"),
    ), None),
    "syzcat": ("syzygy category through the window", cmd_syzcat,
               (*_WINDOW, _arg("--n", type=int, required=True)), None),
    "ed": ("extension-dimension intervals", cmd_ed, (
        *_WINDOW,
        _arg("--i", required=True, help="comma list of syzygy indices"),
        _arg("--facts", help="external facts JSON file"),
        _arg("--syzygy-probe", help="indices for finiteness probes"),
    ), None),
    "tilting": ("tilting-module check", cmd_tilting, (_SPEC, _arg("module"), _arg("--bound", type=int)), None),
    "reptype": ("representation-type certificate", cmd_reptype, _WINDOW, None),
    "corpus": ("packaged example algebras", cmd_corpus, (), {"list": (), "show": (_arg("id"),)}),
}


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # placed on the top parser with real defaults, and on every leaf with
    # suppressed defaults so the flags work before or after the command word
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--field", type=int, default=d(None), help="override the prime field")
    parser.add_argument("--format", choices=("text", "json"), default=d("text"))
    parser.add_argument("--seed", type=int, default=d(0), help="accepted and ignored (every computation is deterministic)")
    parser.add_argument("--budget", type=int, default=d(_default_budget()), help="enumeration budget")
    parser.add_argument("--member-cap", type=int, default=d(5000))
    parser.add_argument("--timings", action="store_true", default=d(False), help="include wall-clock timings")


@functools.cache
def _help_width() -> int:
    """The help width argparse's formatter would take, read once per process."""
    return shutil.get_terminal_size().columns - 2


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter with the width read once per process:
    argparse builds a formatter on every add_argument, and each one would
    ask the terminal for its size."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        super().__init__(prog, indent_increment, max_help_position, _help_width() if width is None else width)


class _RawDescriptionFormatter(_Formatter, argparse.RawDescriptionHelpFormatter):
    """_Formatter that keeps the description and epilog as written."""


def _word_parser(parser: argparse.ArgumentParser, dest: str, choices) -> argparse.ArgumentParser:
    """`parser` reading one word of `choices` into `dest` and keeping the
    words after it, unparsed, under `rest` for the parser that word names."""
    parser.add_argument(dest, choices=choices)
    parser.add_argument("rest", nargs=argparse.REMAINDER, metavar="...", help="its arguments; add --help to list them")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top parser: the global flags and the command word."""
    top = argparse.ArgumentParser(
        prog="syzex",
        description="exact path-algebra workbench",
        epilog="commands:\n" + "".join("  %-9s %s\n" % (cmd, entry[0]) for cmd, entry in _COMMANDS.items()),
        formatter_class=_RawDescriptionFormatter,
    )
    _add_global_flags(top, suppress=False)
    return _word_parser(top, "cmd", _COMMANDS)


def _command_parser(prog: str, cmd: str, action) -> argparse.ArgumentParser:
    """The parser of one command, or of one action of a group command, as _COMMANDS gives it."""
    _, func, arguments, actions = _COMMANDS[cmd]
    p = argparse.ArgumentParser(prog=prog, formatter_class=_Formatter)
    _add_global_flags(p, suppress=True)
    for flags, options in arguments + (actions[action] if actions else ()):
        p.add_argument(*flags, **options)
    p.set_defaults(func=func)
    return p


def _parse(argv) -> argparse.Namespace:
    """argv parsed by the top parser, then by the parser of the command it
    names (for a group command, the group's and then the action's), each
    reading the words the one before left under `rest`."""
    args = build_parser().parse_args(argv)
    prog, actions = "syzex " + args.cmd, _COMMANDS[args.cmd][3]
    if actions:
        group = _word_parser(argparse.ArgumentParser(prog=prog, formatter_class=_Formatter), "action", actions)
        group.parse_args(vars(args).pop("rest"), namespace=args)
        prog += " " + args.action
    return _command_parser(prog, args.cmd, vars(args).get("action")).parse_args(vars(args).pop("rest"), namespace=args)


def run(argv) -> tuple:
    """(exit code, report dict, rendered text)."""
    args = _parse(argv)
    inputs = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    report = new_report(["syzex"] + list(argv), inputs)
    start = time.perf_counter()
    try:
        if args.budget is None:
            raise SpecError("SYZEX_BUDGET must be an integer, got %r" % os.environ.get("SYZEX_BUDGET"))
        if args.budget < 1 or args.member_cap < 1:
            raise SpecError("budget and member cap must be at least 1, got %d and %d" % (args.budget, args.member_cap))
        if args.field is not None and not is_prime(args.field):
            raise SpecError("field must be a prime integer, got %r" % args.field)
        # no local keeps the algebra and its caches alive while the report renders
        code = args.func(args, report, *_resolve_algebra(args))
    except BudgetExceeded as exc:
        report["results"] = {"error": str(exc), "kind": "budget"}
        code = 1
    except SpecError as exc:
        report["results"] = {"error": str(exc), "kind": "validation"}
        code = 2
    except Exception as exc:
        report["results"] = {"error": "%s: %s" % (type(exc).__name__, exc), "kind": "internal"}
        code = 3
    if args.timings:
        report["timings"] = {"wall_seconds": round(time.perf_counter() - start, 3)}
    rendered = render_json(report) if args.format == "json" else render_text(report)
    return code, report, rendered


def main(argv=None) -> int:
    code, _, rendered = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
