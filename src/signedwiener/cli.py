"""Command-line front end.

A thin dispatcher: each subcommand loads its input, calls one library
entry point, prints a human summary or a key-value tree, and maps the
verdict to the exit code.  0 means the claim holds or a witness was
found, 1 means it fails or nothing was found (with a printed
certificate), 2 means usage, input, or guard errors.  Diagnostics go
to stderr; stdout carries only data.  `reproduce` runs one suite of the
headline-claim registry in `reproduce.py`.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass

from .canceling import (
    is_k_canceling_signing,
    is_rk_canceling_coloring,
    necessary_conditions,
    soltes_check_classical,
    soltes_check_signed,
)
from .distances import (
    INFINITE,
    EdgeColoring,
    GuardOverride,
    SizeGuardError,
    signed_distance,
    wiener_classical,
    wiener_signed,
)
from .graphs import (
    Graph,
    GraphFormatError,
    integer_param,
    make_family,
    parse_any,
)
from .reports import as_tree, render_kv
from .reproduce import SUITES
from .search import (
    candidate_bits,
    dyck_distribution,
    find_k_canceling_signing,
    min_signed_wiener,
    threshold_scan,
    verify_double_star,
    verify_tree_sandwich,
)
from .witnesses import (
    SPECIAL_TAGS,
    Claim,
    SignedWitness,
    bipartite_clique_signing,
    blowup_cycle_signing,
    complete_cyclic_signing,
    complete_rk_coloring,
    emit_witness,
    parse_witness,
    special_witness,
    square_cycle_signing,
    square_path_signing,
    square_tree_signing,
    subdivision_extend,
    union_signing,
)


# ---------------------------------------------------------------------------
# input plumbing


@dataclass(frozen=True)
class LoadedInput:
    label: str
    graph: Graph
    signs: tuple[int, ...] | None
    colors: tuple[int, ...] | None


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source) as fh:
        return fh.read()


def load_input(source: str) -> LoadedInput:
    """Resolve an input argument: a file path, '-' for stdin,
    family:NAME:P1,P2,..., or fixture:TAG."""
    if source.startswith("family:"):
        parts = source.split(":")
        if len(parts) != 3 or not parts[2]:
            raise ValueError("family inputs look like family:cycle:11")
        g = make_family(parts[1], parts[2].split(","))
        return LoadedInput(f"{parts[1]}({parts[2]})", g, None, None)
    if source.startswith("fixture:"):
        w = load_witness(source)
        return LoadedInput(w.name, w.graph, w.signing.signs, None)
    parsed = parse_any(_read_source(source))
    return LoadedInput("stdin" if source == "-" else source, parsed.graph,
                       parsed.signs, parsed.colors)


def load_witness(source: str) -> SignedWitness:
    """Like load_input but keeps the full witness; bare fixture tags
    are accepted as shorthand."""
    if source.startswith("fixture:") or source in SPECIAL_TAGS:
        return special_witness(source.removeprefix("fixture:"))
    return parse_witness(_read_source(source))


def _need(inp: LoadedInput, kind: str) -> tuple[int, ...]:
    """inp's edge "signs" or "colors"; refused if it carries none."""
    tags = getattr(inp, kind)
    if tags is None:
        raise ValueError(f"input {inp.label} carries no edge {kind}")
    return tags


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    return "inf" if value == INFINITE else str(value)


def _emit(args, tree: dict, lines) -> None:
    if args.format == "kv":
        sys.stdout.write(render_kv(tree))
    else:
        for line in lines:
            print(line)


def _max_bits(args):
    """The candidate-bit budget that --max-edges E gives the scan that
    runs: search.candidate_bits of E edges, r from `threshold --r`."""
    if args.max_edges is None:
        return None
    return candidate_bits(args.max_edges, getattr(args, "r", 2))


def _save_witness(args, w: SignedWitness) -> None:
    """Write w to the --emit-witness FILE, if one was given."""
    if args.emit_witness:
        with open(args.emit_witness, "w") as fh:
            fh.write(emit_witness(w))


# the command-line flag and argparse dest behind each guard keyword
_GUARD_FLAGS = {"max_n": ("--max-n", "max_n"),
                "max_bits": ("--max-edges", "max_edges")}


def _guard_refusal(args, exc: SizeGuardError) -> str:
    flag, dest = _GUARD_FLAGS[exc.option]
    if hasattr(args, dest):
        return f"{exc.reason}; pass a larger {flag} to override"
    return f"{exc.reason}; {args.command} has no {flag} to override it"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dist(args) -> int:
    inp = load_input(args.input)
    d = signed_distance(inp.graph, _need(inp, "signs"), args.u, args.v,
                        max_n=args.max_n)
    _emit(args, {"u": args.u, "v": args.v, "distance": d},
          [f"d({args.u},{args.v}) = {_fmt(d)}"])
    return 0


def _cmd_wiener(args) -> int:
    inp = load_input(args.input)
    if inp.signs is not None and not args.classical:
        value = wiener_signed(inp.graph, inp.signs, max_n=args.max_n)
        kind = "signed"
    else:
        value = wiener_classical(inp.graph)
        kind = "classical"
    _emit(args, {"kind": kind, "value": value},
          [f"{kind} wiener = {_fmt(value)}"])
    return 0


def _verdict_exit(args, label: str, tree: dict, verdict) -> int:
    """Print a canceling verdict under label, the query's parameters in
    tree first, and exit 0 when it holds, else 1."""
    lines = [f"{label}: {'yes' if verdict.holds else 'no'}"]
    if verdict.certificate is not None:
        deleted, u, v = verdict.certificate
        lines.append(f"certificate: delete {list(deleted)}, pair ({u},{v})")
    _emit(args, tree | as_tree(verdict), lines)
    return 0 if verdict.holds else 1


def _cmd_check(args) -> int:
    inp = load_input(args.input)
    verdict = is_k_canceling_signing(inp.graph, _need(inp, "signs"), args.k,
                                     max_n=args.max_n)
    return _verdict_exit(args, f"{args.k}-canceling", {"k": args.k}, verdict)


def _cmd_check_colored(args) -> int:
    inp = load_input(args.input)
    coloring = EdgeColoring(args.r, _need(inp, "colors"))
    verdict = is_rk_canceling_coloring(inp.graph, coloring, args.k,
                                       max_n=args.max_n)
    return _verdict_exit(args, f"({args.r},{args.k})-canceling",
                         {"r": args.r, "k": args.k}, verdict)


def _cmd_filter(args) -> int:
    inp = load_input(args.input)
    report = necessary_conditions(inp.graph, args.k)
    if report.passes:
        lines = ["passes all necessary conditions"]
    else:
        lines = ["fails: " + "; ".join(report.failures())]
    _emit(args, as_tree(report), lines)
    return 0 if report.passes else 1


def _subdivide(source: str, edge: str, i: int) -> SignedWitness:
    w = load_witness(source)
    index = (w.designated_edge if edge == "designated"
             else integer_param("subdivide", "EDGE", edge))
    if index is None:
        raise ValueError(f"{w.name} has no designated edge")
    return subdivision_extend(w, index, i)


# construct NAME -> (the usage of its parameters, a builder called with
# them); a usage ending in "..." repeats its last word once or more.
# A word of _TEXT_WORDS reaches the builder as given, every other word
# as an integer.
_TEXT_WORDS = ("SOURCE", "TAG", "EDGE")
CONSTRUCTIONS = {
    "square-path": ("N", square_path_signing),
    "complete-cyclic": ("N", complete_cyclic_signing),
    "square-tree": ("SOURCE", lambda source: (
        square_tree_signing(load_input(source).graph))),
    "square-cycle": ("N", square_cycle_signing),
    "special": ("TAG", special_witness),
    "subdivide": ("SOURCE EDGE I", _subdivide),
    "union": ("SOURCE SOURCE V1 V2", lambda a, b, v1, v2: union_signing(
        load_witness(a), load_witness(b), v1, v2)),
    "bipartite-cliques": ("SOURCE K", lambda source, k: (
        bipartite_clique_signing(load_input(source).graph, k))),
    "blowup": ("T K SIZE...", lambda t, k, *sizes: blowup_cycle_signing(
        t, list(sizes), k)),
    "complete-rk": ("N R K", complete_rk_coloring),
}


def _cmd_construct(args) -> int:
    usage, build = CONSTRUCTIONS[args.name]
    words = usage.removesuffix("...").split()
    count = len(args.params)
    if count < len(words) or count > len(words) and not usage.endswith("..."):
        raise ValueError(f"{args.name} takes {usage}")
    words += words[-1:] * (count - len(words))
    w = build(*(text if word in _TEXT_WORDS
                else integer_param(args.name, word, text)
                for word, text in zip(words, args.params)))
    sys.stdout.write(emit_witness(w))
    _save_witness(args, w)
    return 0


def _cmd_search(args) -> int:
    inp = load_input(args.input)
    result = find_k_canceling_signing(inp.graph, args.k,
                                      use_filter=not args.no_filter,
                                      max_bits=_max_bits(args),
                                      max_n=args.max_n)
    tree = {"k": args.k, "found": result.found,
            "examined": result.examined,
            "symmetry_factor": result.symmetry_factor,
            "filtered": result.filtered}
    if result.found:
        tree["witness"] = as_tree(result.witness)
        signs = " ".join(str(s) for s in result.witness.signs)
        lines = [f"found a {args.k}-canceling signing after "
                 f"{result.examined} candidate(s)",
                 f"signs: {signs}"]
        _save_witness(args, SignedWitness(
            "search-result", inp.graph, Claim("k-canceling", k=args.k),
            signing=result.witness))
    elif result.filtered:
        lines = ["no signing: necessary conditions already fail"]
    else:
        lines = [f"no signing among {result.examined} candidates "
                 f"(x{result.symmetry_factor} by negation)"]
    _emit(args, tree, lines)
    return 0 if result.found else 1


def _cmd_min_wiener(args) -> int:
    inp = load_input(args.input)
    result = min_signed_wiener(inp.graph, max_bits=_max_bits(args),
                               max_n=args.max_n)
    lines = [f"minimum signed wiener = {_fmt(result.value)} "
             f"(examined {result.examined})"]
    if result.argmin is not None:
        lines.append("signs: " + " ".join(str(s)
                                          for s in result.argmin.signs))
    _emit(args, as_tree(result), lines)
    return 0


def _cmd_threshold(args) -> int:
    if args.n_from > args.n_to:
        raise ValueError(f"empty range: --n-from {args.n_from} "
                         f"exceeds --n-to {args.n_to}")
    rows = threshold_scan(args.r, args.k,
                          range(args.n_from, args.n_to + 1),
                          max_bits=_max_bits(args), max_n=args.max_n,
                          workers=args.threads)
    tree = {"r": args.r, "k": args.k,
            "rows": [as_tree(row) for row in rows]}
    lines = [f"n={row.n}: "
             f"{'canceling' if row.holds else 'not canceling'} "
             f"(examined {row.examined})" for row in rows]
    _emit(args, tree, lines)
    return 0


def _cmd_trees(args) -> int:
    sandwich = args.conjecture == "sandwich"
    verify = verify_tree_sandwich if sandwich else verify_double_star
    report = verify(args.n, workers=args.threads)
    lines = [f"n={args.n}: lower bound "
             f"{'holds' if report.lower_holds else 'fails'}, upper bound "
             f"{'holds' if report.upper_holds else 'fails'}"]
    if sandwich:
        lines += [f"anchors: alternating path {report.alternating_anchor}, "
                  f"classical path {report.classical_anchor}",
                  f"checked {report.trees_checked} trees, "
                  f"{report.signings_checked} signings"]
    else:
        a, b = report.best_double_star
        lines += [f"path value {report.path_value}, best double star "
                  f"D({a},{b}) value {report.best_double_star_value}, "
                  f"star value {report.star_value}",
                  f"star-only upper bound "
                  f"{'holds' if report.star_only_upper_holds else 'fails'}"]
    _emit(args, as_tree(report), lines)
    return 0 if report.lower_holds and report.upper_holds else 1


def _cmd_dyck(args) -> int:
    distribution = dyck_distribution(args.n)
    rows = [{"wiener": w, "count": c} for w, c in distribution.items()]
    total = sum(distribution.values())
    tree = {"n": args.n, "total": total, "rows": rows}
    lines = ["wiener  count"]
    lines += [f"{w:6d}  {c}" for w, c in distribution.items()]
    _emit(args, tree, lines)
    return 0


def _cmd_soltes(args) -> int:
    inp = load_input(args.input)
    if args.signed:
        report = soltes_check_signed(inp.graph, _need(inp, "signs"),
                                     max_n=args.max_n)
    else:
        report = soltes_check_classical(inp.graph)
    lines = [f"W = {_fmt(report.base)}"]
    lines += [f"W(G-{v}) = {_fmt(value)}"
              for v, value in enumerate(report.deleted)]
    lines.append("deletion-invariant: "
                 f"{'yes' if report.holds else 'no'}")
    _emit(args, as_tree(report), lines)
    return 0 if report.holds else 1


def _cmd_reproduce(args) -> int:
    rows = []
    all_ok = True
    for label, check in SUITES[args.suite]:
        ok, note = check()
        all_ok = all_ok and ok
        rows.append({"check": label, "ok": ok})
        if args.format != "kv":
            print(f"{'PASS' if ok else 'FAIL'} {label}: {note}")
    if args.format == "kv":
        sys.stdout.write(render_kv({"suite": args.suite, "rows": rows,
                                    "ok": all_ok}))
    else:
        print(f"{args.suite}: {'all checks passed' if all_ok else 'FAILED'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _flag("--format", choices=("text", "kv"), default="text",
                   help="human text or line-oriented key-value output")
    threads = _flag("--threads", type=_worker_count, default=1,
                    help="worker process cap for scans")
    max_n = _flag("--max-n", type=int, default=None,
                  help="override the vertex-count size guard")
    max_edges = _flag("--max-edges", type=int, default=None,
                      help="override the exhaustive-search width guard")
    graph = _flag("input", help="graph: file, '-', family:NAME:P1,P2,..., "
                                "or fixture:TAG")
    k = _flag("--k", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="signedwiener",
        description="Signed distances, canceling signings and colorings, "
                    "and the exhaustive searches behind them.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    def add(name, func, help_text, *flags):
        p = sub.add_parser(name, parents=[common, *flags], help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("dist", _cmd_dist, "signed distance between two vertices",
            max_n, graph)
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)

    p = add("wiener", _cmd_wiener, "signed or classical wiener index",
            max_n, graph)
    p.add_argument("--classical", action="store_true",
                   help="ignore signs and use hop distances")

    add("check", _cmd_check, "verify a k-canceling signing", max_n, graph, k)

    # --r goes in as a parent, ahead of --k, to keep the usage line's order
    add("check-colored", _cmd_check_colored,
        "verify an (r,k)-canceling coloring", max_n, graph,
        _flag("--r", type=int, required=True), k)

    p = add("filter", _cmd_filter,
            "structural conditions necessary for k-canceling", graph)
    p.add_argument("--k", type=int, default=1)

    p = add("construct", _cmd_construct,
            "emit a named witness in the fixture format")
    p.add_argument("name", choices=CONSTRUCTIONS, metavar="NAME")
    p.add_argument("params", nargs="*", metavar="PARAM")
    p.add_argument("--emit-witness", metavar="FILE",
                   help="also write the witness to FILE")

    p = add("search", _cmd_search, "find a k-canceling signing",
            max_n, max_edges, graph, k)
    p.add_argument("--no-filter", action="store_true",
                   help="skip the necessary-condition fast reject")
    p.add_argument("--emit-witness", metavar="FILE",
                   help="write any found witness to FILE")

    add("min-wiener", _cmd_min_wiener,
        "minimize the signed wiener index over signings",
        max_n, max_edges, graph)

    p = add("threshold", _cmd_threshold,
            "per-n canceling verdicts for complete graphs",
            threads, max_n, max_edges, _flag("--r", type=int, default=2), k)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)

    p = add("trees", _cmd_trees, "scan all trees of one size", threads)
    p.add_argument("--conjecture", choices=("sandwich", "double-star"),
                   required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("dyck", _cmd_dyck,
            "index distribution of balanced alternating paths")
    p.add_argument("--n", type=int, required=True,
                   help="semilength (path has 2n edges)")

    p = add("soltes", _cmd_soltes,
            "is the wiener index invariant under every vertex deletion",
            max_n, graph)
    p.add_argument("--signed", action="store_true",
                   help="use the input's signs instead of hop distances")

    p = add("reproduce", _cmd_reproduce, "run a named verification suite")
    p.add_argument("suite", choices=SUITES, metavar="SUITE")

    return parser


def _show_first_override(other):
    """A showwarning that prints the first guard override the library
    reports as one stderr line, drops later ones, and hands any other
    warning to other.  The library warns only after its checks accept
    the input, so a refused input gets its one error line alone.  Each
    worker process of a threaded scan reports its own first override."""
    shown = False

    def show(message, category, *rest, **kw):
        nonlocal shown
        if not issubclass(category, GuardOverride):
            other(message, category, *rest, **kw)
        elif not shown:
            shown = True
            print(message, file=sys.stderr, flush=True)
    return show


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default", GuardOverride)
        warnings.showwarning = _show_first_override(warnings.showwarning)
        try:
            return args.func(args)
        except SizeGuardError as exc:
            print(f"error: {_guard_refusal(args, exc)}", file=sys.stderr)
            return 2
        except (GraphFormatError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
