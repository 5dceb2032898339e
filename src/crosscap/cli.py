"""Command-line front end.

Subcommands: ``act`` (image of a homology class), ``phi``/``psi`` (reduced
and mod-2 action matrices), ``member`` (level membership), ``enum`` (family
and generating-set streams), ``fold`` (subgroup graphs), ``coset`` (coset
enumeration) and ``verify`` (the check registry).

Exit codes: 0 success / all checks pass, 1 check failure (also a failed
realization identity in any command), 2 usage error, 3 inconclusive (a
guard or cap was hit).

Verification reports are written as ``report-<suite>-<params>.json`` into
``--out`` or ``$CROSSCAP_REPORT_DIR`` when either is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import families, ledger, pi1free, words
from .finitegrp import COSET_CAP, ScaleGuardError, todd_coxeter
from .homology import (
    act,
    format_h1,
    level_member,
    mod2_action,
    parse_h1,
    reduced_action,
)
from .intmat import format_matrix, matrix_json


def _parse_params(text: str | None) -> dict:
    out: dict = {}
    if not text:
        return out
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        key, _, value = chunk.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"bad --params entry {chunk!r} (want k=v)")
        if key in out:
            raise ValueError(f"bad --params: key {key!r} is given more than once")
        try:
            out[key] = int(value)
        except ValueError:
            raise ValueError(f"bad --params value {value!r} for {key!r} (want an integer)") from None
    return out


def _emit_matrix(m, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(matrix_json(m)))
    elif fmt == "md":
        print("| " + " | ".join(" ".join(str(e) for e in row) for row in m.rows) + " |")
    else:
        print(format_matrix(m))


def _cmd_act(args) -> int:
    w = words.parse(args.word, args.genus)
    x = parse_h1(args.on, args.genus)
    image = act(w, x)
    if args.format == "json":
        print(json.dumps({"coefficients": list(image.coeffs)}))
    else:
        print(format_h1(image))
    return 0


def _cmd_phi(args) -> int:
    _emit_matrix(reduced_action(words.parse(args.word, args.genus)), args.format)
    return 0


def _cmd_psi(args) -> int:
    _emit_matrix(mod2_action(words.parse(args.word, args.genus)), args.format)
    return 0


def _cmd_member(args) -> int:
    w = words.parse(args.word, args.genus)
    print("true" if level_member(w, args.level) else "false")
    return 0


def _stream_for_set(args):
    g = args.genus
    name = args.set
    if name in ("Y", "A", "B", "C", "D"):
        # each element is built, and checked, only when the stream reaches it
        indices = families.family_indices(name, g)
        return (families.named_element(name, idx, g).word for idx in indices)
    if name == "2Y":
        return families.transversal_2y(g)
    if name == "2Z":
        return families.transversal_2z(g, args.tower)
    if name == "thm-main2":
        return (
            rec.word
            for rec in families.main2_normal_generators(g, args.boundaries, args.level)
        )
    if name == "thm-main3":
        return families.main3_generators(g)
    if name == "thm-gen-n":
        sets = families.GenNSets(g, args.boundaries, args.level)
        return sets.h_stream()
    raise ValueError(f"unknown set {name!r}")


def _cmd_enum(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    stream = _stream_for_set(args)
    emitted = 0
    for w in stream:
        if args.limit is not None and emitted >= args.limit:
            print(f"... truncated at {args.limit}")
            break
        text = words.format_word(w)
        if args.format == "json":
            print(json.dumps({"word": text}))
        else:
            print(text)
        emitted += 1
    return 0


def _cmd_fold(args) -> int:
    # the free group pi_1 of N_{g,n} needs a crosscap and a boundary
    g, n = args.genus, args.boundaries
    if g < 1:
        raise ValueError(f"--genus must be >= 1, got {g}")
    if n < 1:
        raise ValueError(f"--boundaries must be >= 1, got {n}")
    gens = [pi1free.parse_free(chunk) for chunk in args.words.split(";") if chunk.strip()]
    for w in gens:
        pi1free.validate_ambient(w, g, n)
    if args.alphabet == "plus":
        graph = pi1free.fold_in_plus_basis(gens, g, n)
    else:
        alphabet = [("x", i) for i in range(1, g + 1)] + [("y", k) for k in range(1, n)]
        graph = pi1free.StallingsGraph.fold(gens, alphabet)
    data = graph.to_json()
    data["index"] = graph.index() or "infinite"
    if args.format == "json":
        print(json.dumps(data))
    else:
        print(f"vertices: {data['vertices']}  index: {data['index']}")
    return 0


def _cmd_coset(args) -> int:
    rels = []
    for chunk in args.relators.split(";"):
        if not chunk.strip():
            continue
        w = pi1free.parse_free(chunk)
        letters = []
        for (kind, idx), step in w.single_letters():
            if kind != "x":
                raise ValueError(f"relators use letters x1..x{args.rank}, found {kind}{idx}")
            letters.append(idx * step)
        rels.append(letters)
    table = todd_coxeter(args.rank, rels, cap=args.cap)
    if args.format == "json":
        print(json.dumps(table.to_json()))
    else:
        print(table.coset_count)
    return 0


def _cmd_verify(args) -> int:
    params = _parse_params(args.params)
    if args.suite == "all":
        ids = None
    else:
        ids = [chunk.strip() for chunk in args.suite.split(",") if chunk.strip()]
    # --seed always has a value, so it goes only to suites with a seeded check
    if "seed" in ledger.suite_params(ids):
        params.setdefault("seed", args.seed)
    records = ledger.run_suite(ids, params)

    if args.format == "json":
        print(json.dumps([r.to_json() for r in records], indent=2))
    elif args.format == "md":
        print(ledger.records_to_markdown(records))
    else:
        for r in records:
            print(f"{r.id:20s} {r.status:12s} {r.runtime_ms:6d} ms")

    out_dir = args.out or os.environ.get("CROSSCAP_REPORT_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        suite_tag = "all" if ids is None else "-".join(ids)
        param_tag = ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "default"
        path = os.path.join(out_dir, f"report-{suite_tag}-{param_tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([r.to_json() for r in records], handle, indent=2)

    statuses = {r.status for r in records}
    if "fail" in statuses:
        return 1
    if "inconclusive" in statuses:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description="exact computations in level-d mapping class groups of non-orientable surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, genus=True, formats=("text", "json")):
        # each subcommand offers only the formats it prints differently
        if genus:
            p.add_argument("--genus", type=int, required=True)
        if formats:
            p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("act", help="image of a homology class under a word")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--on", required=True, help="homology class, e.g. '2a1 - a3'")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("phi", help="reduced (g-1)x(g-1) action matrix")
    common(p, formats=("text", "json", "md"))
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("psi", help="mod-2 action matrix")
    common(p, formats=("text", "json", "md"))
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("member", help="level-d membership of a word")
    common(p, formats=())
    p.add_argument("--word", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("enum", help="stream a family or generating set")
    common(p)
    p.add_argument(
        "--set",
        required=True,
        choices=("Y", "A", "B", "C", "D", "2Y", "2Z", "thm-main2", "thm-main3", "thm-gen-n"),
    )
    p.add_argument("--level", type=int, default=2, help="d for the level-d sets")
    p.add_argument("--boundaries", type=int, default=0)
    p.add_argument("--tower", type=int, default=3, help="l for the 2^l tower set")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("fold", help="fold free-group generators into a subgroup graph")
    common(p)
    p.add_argument("--boundaries", type=int, default=1)
    p.add_argument("--words", required=True, help="';'-separated free words")
    p.add_argument("--alphabet", choices=("ambient", "plus"), default="ambient")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("coset", help="coset enumeration of a finite presentation")
    common(p, genus=False)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--relators", required=True, help="';'-separated words in x1..xr")
    p.add_argument("--cap", type=int, default=COSET_CAP)
    p.set_defaults(func=_cmd_coset)

    p = sub.add_parser("verify", help="run verification checks")
    common(p, genus=False, formats=("text", "json", "md"))
    p.add_argument("--suite", default="all", help="'all' or comma-separated check ids")
    p.add_argument("--params", help="comma-separated k=v overrides, e.g. g=4,d=2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for the JSON report")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScaleGuardError as exc:
        print(f"inconclusive: {exc}")
        return 3
    except families.RealizationError as exc:
        # an identity of the paper failed: a failed claim, as in ``verify``
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
