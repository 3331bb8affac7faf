"""Command-line front end.

Subcommands: build (matrices only), check (matrices plus classification),
construct1 / construct2 (the two LCD recipes), search (twist enumeration),
and paper-examples (rebuild the embedded reference codes and verify them).

Exit codes: 0 success, 1 verification or comparison failure (including a
VerificationError from an internal cross-check), 2 input or resource error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classify import classify, report_to_json
from .codes import generator_matrix, parity_check_matrix, tgrs_spec_from_json, tgrs_spec_to_json
from .errors import TgrsError, ValidationError, VerificationError
from .gf import element_to_json
from .golden import GOLDEN_CODES
from .lcdgen import build_class1, build_class2, params_from_json, search_eta, template_from_json


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _emit_code(output: str, spec, G, H, **extra) -> None:
    """The spec, G and H (and ``extra``) as one JSON object, or G and H as text."""
    if output == "json":
        _emit_json({"spec": tgrs_spec_to_json(spec), "generator": G.to_lists(),
                    "parity_check": H.to_lists(), **extra})
        return
    print("generator matrix:")
    print(G.pretty())
    print("parity-check matrix:")
    print(H.pretty())


def cmd_build(args) -> int:
    spec = tgrs_spec_from_json(_load_json(args.input))
    G = generator_matrix(spec)
    H = parity_check_matrix(spec)
    if args.output == "text":
        print(f"code length {spec.n}, dimension {spec.k}, hook {spec.h}, "
              f"twists 0..{spec.l} over GF({spec.field.q})")
    _emit_code(args.output, spec, G, H)
    return 0


def cmd_check(args) -> int:
    spec = tgrs_spec_from_json(_load_json(args.input))
    report = classify(spec, want_distance=spec.n <= args.distance_cap)
    report_json = report_to_json(report)
    _emit_code(args.output, spec, report.generator, report.parity_check, report=report_json)
    if args.output == "text":
        print(f"params {report.params_string()}")
        print(f"mds {report.is_mds}  amds {report.is_amds}  "
              f"lcd {report.is_lcd}  hull_dim {report.hull_dim}")
        if report.min_distance is not None:
            print(f"min_distance {report.min_distance}")
        for note in report.notes:
            print(f"note: {note}")
        if report.certificates:
            print(f"certificates: {json.dumps(report_json['certificates'], sort_keys=True)}")
    return 0


def cmd_construct(args) -> int:
    params = params_from_json(_load_json(args.input), args.klass)
    result = (build_class1 if args.klass == 1 else build_class2)(params)
    if args.output == "json":
        _emit_json(result.to_json())
    else:
        for chk in result.record:
            ev = chk.to_json()["evidence"]
            print(f"{'ok ' if chk.holds else 'FAIL'} {chk.condition}"
                  + (f"  [{ev}]" if ev is not None else ""))
        status = "applicable" if result.applicable else "inapplicable"
        print(f"recipe {args.klass} {status}; spec:")
        print(json.dumps(tgrs_spec_to_json(result.spec), sort_keys=True))
    return 0 if result.applicable else 1


def cmd_search(args) -> int:
    template = template_from_json(_load_json(args.input))
    hits = search_eta(template, budget=args.budget, seed=args.seed)
    if args.output == "json":
        _emit_json({"hits": [h.to_json() for h in hits], "count": len(hits)})
    else:
        print(f"{len(hits)} twist vector(s) pass all gates")
        for h in hits:
            eta = [element_to_json(e) for e in h.eta]
            print(f"eta {eta}  r {element_to_json(h.r_value)}  {h.report.params_string()}"
                  f"  mds {h.report.is_mds}  lcd {h.report.is_lcd}")
    return 0


def cmd_paper_examples(args) -> int:
    results, failures = [], []
    for pos, gc in enumerate(GOLDEN_CODES, start=1):
        build = (build_class1 if gc.klass == 1 else build_class2)(gc.params())
        report = classify(build.spec, want_distance=gc.expected_distance is not None)
        want = gc.normalized_generator()
        G = report.generator.to_lists()
        mismatch = next(({"row": i + 1, "col": j + 1, "got": G[i][j], "want": want[i][j]}
                         for i in range(gc.k) for j in range(gc.n) if G[i][j] != want[i][j]), None)
        r = next(c for c in build.record if c.condition == "r coefficient is nonzero").evidence.rep
        r_ok = r == gc.expected_r and build.applicable
        verdict_ok = (report.is_lcd and report.is_mds == gc.expect_mds
                      and report.min_distance == gc.expected_distance)
        if mismatch:
            failure = ("example {pos} generator mismatch at row {row} col {col}: "
                       "got {got}, want {want}").format(pos=pos, **mismatch)
        elif not r_ok:
            failure = f"example {pos} r coefficient: got {r}, want {gc.expected_r}"
        elif not verdict_ok:
            failure = f"example {pos} classification verdict mismatch"
        else:
            failure = None
        results.append({"example": pos, "name": gc.name, "generator_ok": mismatch is None,
                        "mismatch": mismatch, "r": r, "r_ok": r_ok, "verdict_ok": verdict_ok,
                        "report": report_to_json(report), "pass": failure is None})
        if failure:
            failures.append(failure)
    if args.output == "json":
        _emit_json({"results": results, "all_pass": not failures})
    else:
        for r in results:
            tag = "PASS" if r["pass"] else "FAIL"
            shape = r["report"]["params"]
            verdict = ("LCD MDS" if r["report"]["is_mds"] and r["report"]["is_lcd"]
                       else "LCD" if r["report"]["is_lcd"] else "not LCD")
            print(f"{tag}  {r['example']}. {r['name']:<36} {shape:>10}  r={r['r']:<3} {verdict}")
        if failures:
            print(f"first failure: {failures[0]}", file=sys.stderr)
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tgrs`` parser, built once per process and shared by every ``main`` call.

    Each subcommand's ``set_defaults(func=cmd_*)`` binds its function at
    that first build, so a ``cmd_*`` replaced on the module later is not
    the one ``main`` runs.
    """
    parser = argparse.ArgumentParser(
        prog="tgrs",
        description="Construct and classify twisted generalized Reed-Solomon codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", choices=("json", "text"), default="text")

    p = sub.add_parser("build", help="emit generator and parity-check matrices")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="build matrices and classify the code")
    common(p)
    p.add_argument("--distance-cap", type=int, default=12,
                   help="compute minimum distance when n is at most this")
    p.set_defaults(func=cmd_check)

    for klass, which in ((1, "first"), (2, "second")):
        p = sub.add_parser(f"construct{klass}", help=f"run the {which} LCD recipe from params JSON")
        common(p)
        p.set_defaults(func=cmd_construct, klass=klass)

    p = sub.add_parser("search", help="enumerate twist vectors for a recipe template")
    common(p)
    p.add_argument("--budget", type=int, required=True,
                   help="candidate cap: exhaustive when the space fits, else random draws")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized draws")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("paper-examples",
                       help="rebuild the embedded reference codes and verify them")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_paper_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TgrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationError) else 2


if __name__ == "__main__":
    sys.exit(main())
