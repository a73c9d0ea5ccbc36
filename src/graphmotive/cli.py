"""Command-line surface: graph ingestion, family generators, counting
pipelines, and the reproducible verification report.

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 usage error.
Reports are byte-identical across runs and worker counts; anything
nondeterministic (timing, host, thread count) stays out of the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .counting import (
    BudgetExceededError,
    DEFAULT_OPTIONS,
    METHODS,
    CountOptions,
    count_graph,
    shared_counts,
)
from .families import FamilySpec, generate_family, standard_catalog
from .graphs import Multigraph, graph_id
from .motive import (
    ClassPoly,
    NotPolynomiallyConsistent,
    check_modL_congruence,
    check_projective_congruence,
    dc_identity_check,
    dc_identity_matrix,
    hodge_form,
    interpolate_class,
    predicted_sb_constant,
)
from .primes import require_primes
from .symanzik import psi_by_trees

DEFAULT_PRIMES = (3, 5, 7, 11, 13)

_LIMITATIONS = (
    "counts are taken over prime fields F_p only; verdicts witness the "
    "finite-field shadow of the class identities, and prime powers p^k "
    "are not implemented"
)


# -- verification report -------------------------------------------------


def _verify_graph(name: str, g: Multigraph, primes: tuple[int, ...]) -> dict:
    """One graph's report entry. Call it inside a shared_counts(opts) block,
    as run_verify does: its verdicts and class fit count by that block's
    options and share their counts with each other and with every other
    graph of the run. The edge census is read off the DC verdicts' tags,
    one per edge, so no edge is classified twice; a budget-skipped entry
    has no census."""
    entry: dict = {
        "name": name,
        "id": graph_id(g),
        "edge_count": g.edge_count,
        "predicted_constant": predicted_sb_constant(g),
    }
    try:
        modl = check_modL_congruence(g, primes, graph_name=name)
        lrat = check_projective_congruence(g, primes, graph_name=name)
        dc = dc_identity_matrix(g, primes, graph_name=name)
    except BudgetExceededError as exc:
        return {"name": name, "id": graph_id(g), "skipped": str(exc)}
    entry["edge_census"] = census = {"bridge": 0, "loop": 0, "regular": 0}
    for v in dc:
        census[v.tag.removeprefix("dc-")] += 1
    entry["verdicts"] = {
        "modL": modl.to_json_obj(),
        "Lrat": lrat.to_json_obj(),
        "dc": [v.to_json_obj() for v in dc],
    }
    ok = modl.passed and lrat.passed and all(v.passed for v in dc)
    try:
        result = interpolate_class(g, None, graph_name=name)
    except BudgetExceededError as exc:
        entry["class"] = {"skipped_budget": str(exc)}
    else:
        if isinstance(result, NotPolynomiallyConsistent):
            entry["class"] = result.to_json_obj()
        else:
            match = _class_match(result, entry["predicted_constant"])
            entry["class"] = {"candidate": result.to_json_obj(), **match}
            ok = ok and match["matches_predicted"]
    entry["pass"] = ok
    return entry


def run_verify(
    named_graphs: list[tuple[str, Multigraph]],
    primes: Sequence[int],
    opts: CountOptions,
) -> tuple[dict, bool]:
    """Full report over the given graphs; deterministic, input order kept.

    Graphs are verified one after another, in input order, inside one
    shared_counts(opts) block, so each sweep and psi build runs once per
    isomorphism class in the run. opts has no default: the method and
    budget the report records are those of every count in it. opts.workers
    is each sweep's thread count; it changes no byte of output.
    Budget-exceeded graphs are marked skipped, which is not a failure.
    """
    primes = require_primes(primes)
    with shared_counts(opts):
        entries = [_verify_graph(name, g, primes) for name, g in named_graphs]
    all_ok = all(entry.get("pass", True) for entry in entries)  # skipped: no "pass"
    report = {
        "schema": 1,
        "primes": list(primes),
        "method": opts.method,
        "budget": opts.budget,
        "limitations": _LIMITATIONS,
        "graph_count": len(entries),
        "graphs": entries,
        "pass": all_ok,
    }
    return report, all_ok


def _class_match(c: ClassPoly, predicted: int) -> dict:
    """c's split constant + L*tail, and whether the constant is the predicted
    one; for graph classes it must lie in {0, 1, -1}."""
    constant, tail = hodge_form(c)
    return {
        "hodge_constant": constant,
        "hodge_tail": tail.to_json_obj(),
        "matches_predicted": constant == predicted and constant in (0, 1, -1),
    }


# -- plumbing -----------------------------------------------------------------


def _parse_primes(
    text: str | None, default: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    """--primes as a validated tuple in the given order, or default if absent."""
    if text is None:
        return default
    try:
        primes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--primes {text!r} is not a comma-separated integer list")
    return require_primes(primes)


def _count_options(args: argparse.Namespace) -> CountOptions:
    return CountOptions(method=args.method, budget=args.budget, workers=args.workers)


def _load_graph(args: argparse.Namespace) -> tuple[str, Multigraph]:
    """Resolve the graph input: positional file ('-' for stdin) or --family."""
    family = getattr(args, "family", None)
    path = getattr(args, "graph", None)
    if family and path:
        raise ValueError("give either a graph file or --family, not both")
    if family:
        return family, generate_family(FamilySpec.parse(family))
    if not path:
        raise ValueError("no graph given: pass a file path or --family name:m")
    return _read_graph(path)


def _read_graph(path: str) -> tuple[str, Multigraph]:
    """A graph file ('-' for stdin), named by its base name. Parsing refuses
    more than graphs.MAX_EDGES edges, before any edge is built."""
    if path == "-":
        name, text = "stdin", sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(path))[0]
    return name, Multigraph.parse(text)


def _emit(args: argparse.Namespace, text: str, table: str) -> None:
    """Write text, or table under --format table, to --out or stdout. The
    one reader of --format: each subcommand builds both forms of every
    outcome."""
    if args.format == "table":
        text = table
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _skip(args: argparse.Namespace, name: str, key: str, exc: BudgetExceededError) -> int:
    """Report a graph skipped on budget: {"schema": 1, "graph": name, key:
    reason}, or the table line "graph NAME: skipped (REASON)". Not a failure."""
    reason = str(exc)
    _emit(args, _dumps({"schema": 1, "graph": name, key: reason}), f"graph {name}: skipped ({reason})")
    return 0


def _dumps(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, byte for
    byte. With an indent json runs its pure-Python encoder, a generator
    per container; this is one recursive pass (_write), which takes about
    40% of that encoder's time on the catalog report. Strings go through
    json's own encode_basestring_ascii. It takes what reports hold: dicts
    with str keys, lists, tuples, str, int, bool and None; anything else,
    floats among them, raises TypeError. The pieces go to one list that no
    closure holds, so no reference cycle keeps them alive past the call."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(obj, out: list[str], newline: str) -> None:
    """Append obj's JSON to out, each nested line after newline plus two
    spaces, as json's pure-Python encoder does at indent=2 and sort_keys."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or kind is bool:
        out.append(_CONSTANTS[obj])
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(obj[key], out, inner)
            sep = comma
        out += (newline, "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = comma
        out += (newline, "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# -- subcommands ----------------------------------------------------------------


def cmd_psi(args: argparse.Namespace) -> int:
    name, g = _load_graph(args)
    p = psi_by_trees(g)
    text = p.to_text()
    obj = {"schema": 1, "graph": name, "id": graph_id(g), "psi": p.to_json_obj()}
    obj["psi"]["text"] = text
    _emit(args, _dumps(obj), text)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    opts = _count_options(args)
    primes = _parse_primes(args.primes, DEFAULT_PRIMES)
    name, g = _load_graph(args)
    lines = []
    rows = []
    with shared_counts(opts):  # one psi build and one canonical search for every prime
        for q in primes:
            try:
                rec = count_graph(g, q)
            except BudgetExceededError as exc:
                lines.append(json.dumps({"graph": name, "q": q, "skipped": str(exc)}, sort_keys=True))
                rows.append((q, "skipped", "", ""))
                continue
            lines.append(json.dumps({"graph": name, **rec.to_json_obj()}, sort_keys=True))
            rows.append((q, rec.affine_zero_count, rec.complement_count, rec.projective_count))
    header = f"{'q':>6}  {'affine_zeros':>14}  {'complement':>14}  {'projective':>12}"
    body = [f"{q:>6}  {z:>14}  {c:>14}  {'' if p is None else p:>12}" for q, z, c, p in rows]
    _emit(args, "\n".join(lines), "\n".join([f"graph {name} (n={g.edge_count})", header, *body]))
    return 0


def cmd_class(args: argparse.Namespace) -> int:
    opts = _count_options(args)
    primes = _parse_primes(args.primes, None)
    name, g = _load_graph(args)
    try:
        with shared_counts(opts):
            result = interpolate_class(g, primes, graph_name=name)
    except BudgetExceededError as exc:
        return _skip(args, name, "skipped_budget", exc)
    if isinstance(result, NotPolynomiallyConsistent):
        _emit(args, _dumps({"schema": 1, **result.to_json_obj()}), f"graph {name}: {result.reason}")
        return 0
    predicted = predicted_sb_constant(g)
    match = _class_match(result, predicted)
    obj = {"schema": 1, "graph": name, "class": result.to_json_obj(), "predicted_constant": predicted, **match}
    table = (
        f"graph {name}: class {result.to_text()}  "
        f"constant {match['hodge_constant']} predicted {predicted} "
        f"{'ok' if match['matches_predicted'] else 'MISMATCH'}"
    )
    _emit(args, _dumps(obj), table)
    return 0 if match["matches_predicted"] else 1


def cmd_dc_check(args: argparse.Namespace) -> int:
    opts = _count_options(args)
    primes = _parse_primes(args.primes, DEFAULT_PRIMES)
    name, g = _load_graph(args)
    try:
        with shared_counts(opts):
            if args.edge is not None:
                verdicts = [dc_identity_check(g, args.edge, primes, graph_name=name)]
            else:
                verdicts = dc_identity_matrix(g, primes, graph_name=name)
    except BudgetExceededError as exc:
        return _skip(args, name, "skipped", exc)
    ok = all(v.passed for v in verdicts)
    obj = {"schema": 1, "graph": name, "verdicts": [v.to_json_obj() for v in verdicts], "pass": ok}
    lines = [
        f"edge {v.edge} {v.tag:>10}  "
        + "  ".join(f"q={q}:{lhs}{'=' if lhs == rhs else '!='}{rhs}" for q, lhs, rhs in v.observed)
        + ("  ok" if v.passed else "  FAIL")
        for v in verdicts
    ]
    _emit(args, _dumps(obj), "\n".join([f"graph {name}", *lines]))
    return 0 if ok else 1


def cmd_family(args: argparse.Namespace) -> int:
    spec = FamilySpec.parse(args.spec)
    g = generate_family(spec)
    obj = {"schema": 1, "family": args.spec, **g.to_json_obj()}
    _emit(args, _dumps(obj), g.to_text().rstrip("\n"))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _count_options(args)
    primes = _parse_primes(args.primes, DEFAULT_PRIMES)
    named = [_read_graph(path) for path in args.graphs or []]
    for family in args.family or []:
        named.append((family, generate_family(FamilySpec.parse(family))))
    if not named:
        named = standard_catalog()
    report, ok = run_verify(named, primes, opts)
    lines = []
    for entry in report["graphs"]:
        if "skipped" in entry:
            lines.append(f"{entry['name']:<24} skipped ({entry['skipped']})")
            continue
        census = entry["edge_census"]
        lines.append(
            f"{entry['name']:<24} "
            f"b/l/r={census['bridge']}/{census['loop']}/{census['regular']}  "
            f"{'pass' if entry['pass'] else 'FAIL'}"
        )
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    _emit(args, _dumps(report), "\n".join(lines))
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="graphmotive",
        description=(
            "Exact graph-polynomial computation, point counting over prime "
            "fields, and executable verification of the induced class identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", default=None, help="write output to this path instead of stdout")
    io.add_argument("--format", choices=("json", "table"), default="json")

    counting = argparse.ArgumentParser(add_help=False, parents=[io])
    counting.add_argument("--primes", default=None, help="comma-separated primes, e.g. 3,5,7,11,13")
    counting.add_argument("--budget", type=int, default=DEFAULT_OPTIONS.budget, help="max point evaluations per count")
    counting.add_argument("--method", choices=tuple(METHODS), default=DEFAULT_OPTIONS.method)
    counting.add_argument(
        "--workers", type=int, default=DEFAULT_OPTIONS.workers, help="thread count (results are identical for any value)"
    )

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("graph", nargs="?", help="graph file (edge-list or JSON), '-' for stdin")
    graph_in.add_argument("--family", default=None, help="generate input graph, e.g. cycle:4")

    p = sub.add_parser("psi", parents=[io, graph_in], help="print the graph polynomial")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("count", parents=[counting, graph_in], help="point counts per prime (JSON lines)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("class", parents=[counting, graph_in], help="interpolated class candidate in Z[L]")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("dc-check", parents=[counting, graph_in], help="deletion-contraction identities per edge")
    p.add_argument("--edge", type=int, default=None, help="check only this edge label (one verdict, a row per prime)")
    p.set_defaults(func=cmd_dc_check)

    p = sub.add_parser("family", parents=[io], help="emit a standard family graph")
    p.add_argument("spec", help="family spec name:m, e.g. banana:3")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", parents=[counting], help="full verification report over graphs or the catalog")
    p.add_argument("graphs", nargs="*", help="graph files; empty means the built-in catalog")
    p.add_argument("--family", action="append", default=None, help="add a family graph (repeatable)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
