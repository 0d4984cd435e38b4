"""Command-line entry point.

Execution (``run``) is strictly separated from analysis: every other
subcommand consumes the relation ``run`` writes, never a raw corpus, and
:func:`main` loads it once.  A relation file named ``*.csv`` is the transposed
CSV, any other the canonical JSON.  All outputs are canonical (sorted keys,
fixed order, newline-terminated) so reruns with identical inputs are
byte-identical.

Run as a program (``python -m tdt.cli``, or the ``tdt`` command through
``tdt.__main__``), each subcommand imports the modules it runs when it runs, so
``tdt --help`` and ``tdt run`` load no numpy and ``tdt score`` no harness.
Imported as a module, for in-process calls of :func:`main`, it loads them all
up front.

Exit codes: 0 success, 1 runtime/partial failure, 2 usage, validation or a path
that is missing, a directory, or under a file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from itertools import compress

from .errors import TdtError, ValidationError
from .util import canonical_dumps, is_csv, relation_csv_text, relation_json_text, write_text

if __name__ != "__main__":
    # imported, not run: load every subcommand's modules and bind the loader
    # as before, for tracers that patch them where bound (perfbench/spans.py)
    for _module in ("classify", "diagram", "distill", "dowker", "features", "harness", "sheaf"):
        importlib.import_module(f".{_module}", __package__)
    from .relation import load_relation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdt",
        description="Extract the consensus input format of a set of programs from "
        "their accept/reject behavior on a corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run configured parsers over a corpus")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", required=True, help="relation JSON to write")
    p.add_argument("--results", help="JSONL result store to write")
    p.add_argument("--keywords-out", help="keyword-match table CSV to write")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="diagram weights, Dowker graph, inconsistent inputs")
    p.add_argument("relation")
    p.add_argument("--weights", help="weights/deficiency report JSON to write")
    p.add_argument("--dot", help="Dowker graph DOT file to write")
    p.add_argument("--inconsistent", help="inconsistent-input list JSON to write")
    p.add_argument("--betti", type=int, metavar="MAXDIM", help="also report Betti numbers")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("distill", help="remove programs until the diagram is consistent")
    p.add_argument("relation")
    p.add_argument("--trace", help="distillation trace JSON to write")
    p.add_argument("--out", help="restricted relation to write")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("score", help="per-input inconsistency scores")
    p.add_argument("relation")
    p.add_argument("--min-size", type=int, default=2, help="smallest swept subset size")
    p.add_argument("--mode", choices=["subset", "pairs"], default="subset")
    p.add_argument("--scores", help="scores CSV to write")
    p.add_argument("--hist", help="score histogram CSV to write")
    p.add_argument("--restrict-below", type=int, metavar="N",
                   help="also restrict the corpus to inputs with score < N")
    p.add_argument("--restricted-out", help="restricted relation to write")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="keep inputs whose region weight clears a threshold")
    p.add_argument("relation")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--out", help="selected relation to write")
    p.add_argument("--report", help="per-threshold report CSV to write")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("sheaf", help="acceptance-pattern stalk over a program subset")
    p.add_argument("relation")
    p.add_argument("--sigma", required=True, help="comma-separated program names")
    p.add_argument("--out", help="stalk JSON to write")
    p.add_argument("--display", action="store_true",
                   help="print the ordered region-count display vector")
    p.set_defaults(func=cmd_sheaf)

    p = sub.add_parser("features", help="attribute inconsistency to input features")
    p.add_argument("relation")
    p.add_argument("--features", required=True, help="feature relation CSV")
    p.add_argument("--out", help="attribution report JSON to write")
    p.add_argument("--strict", action="store_true",
                   help="require features to be absent from consistent inputs")
    p.add_argument("--max-removed", type=int,
                   help="largest number of dropped programs to sweep")
    p.add_argument("--prune", type=int, default=0, metavar="ROUNDS",
                   help="greedy feature-pruning rounds")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", help="flag non-compliant inputs and score against truth")
    p.add_argument("relation")
    p.add_argument("--vote", type=int, metavar="K",
                   help="flag inputs rejected by at least K programs")
    p.add_argument("--below", type=int, help="flag inputs with inconsistency score < BELOW")
    p.add_argument("--equal", type=int, help="also flag inputs with score == EQUAL")
    p.add_argument("--min-size", type=int,
                   help="score sweep floor (score rule only; default 2)")
    p.add_argument("--truth", help="ground-truth CSV (input,compliant)")
    p.add_argument("--out", help="report JSON to write")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("export-pgm", help="write the accept matrix as an ASCII PGM image")
    p.add_argument("relation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_pgm)

    return parser


def _write_or_print(path, text: str) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    from .harness import (accept_rows, keyword_table, load_run_config, results_jsonl, run_corpus,
                          run_summary)

    cfg = load_run_config(args.config)
    keywords = {p.name: p.keywords for p in cfg.parsers}
    if args.keywords_out and not any(keywords.values()):  # before any parser runs
        raise ValidationError("at least one parser needs a nonempty keyword list")
    inputs, results = run_corpus(cfg)
    rows = accept_rows(inputs, results)
    relation_text = relation_csv_text if is_csv(args.out) else relation_json_text
    write_text(args.out, relation_text(list(rows), inputs, list(rows.values())))
    if args.results:
        write_text(args.results, results_jsonl(results))
    if args.keywords_out:
        write_text(args.keywords_out, keyword_table(inputs, results, keywords))
    print(run_summary(inputs, results, rows))
    failures = sum(1 for r in results if r.error)
    return 1 if failures else 0


def cmd_analyze(rel, args) -> int:
    from .diagram import diagram_report
    from .dowker import betti_numbers, build_complex, build_graph, complex_counts, graph_dot
    from .relation import column_masks

    cpx = build_complex(rel)
    betti = None if args.betti is None else betti_numbers(cpx, args.betti)  # before any write
    dot = graph_dot(build_graph(cpx)) if args.dot else None  # face budget: before any write
    faces, red, core, consistent = complex_counts(cpx)
    del cpx  # the weights report builds its own weight vector
    # inputs whose nonempty accept-set lies outside the core (dowker.inconsistent_inputs)
    masks = column_masks(rel)
    inconsistent = ((masks != 0) & ~core[masks]).nonzero()[0].tolist()
    if args.weights:
        write_text(args.weights, diagram_report(rel))
    if args.dot:
        write_text(args.dot, dot)
    if args.inconsistent:
        write_text(args.inconsistent, canonical_dumps([rel.inputs[k] for k in inconsistent]))
    print(
        f"{rel.m} programs, {rel.n} inputs: "
        f"{faces} faces, {red} inconsistent edges, "
        f"{core.sum()} faces in the consistent core, "
        f"{len(inconsistent)} inconsistent inputs"
    )
    print(f"diagram consistent: {consistent}")
    if betti is not None:
        print("betti: " + " ".join(str(b) for b in betti))
    return 0


def cmd_distill(rel, args) -> int:
    from .distill import distill, trace_json
    from .relation import save_relation

    trace = distill(rel)
    if args.trace:
        write_text(args.trace, trace_json(trace))
    if args.out:
        save_relation(trace.final_relation, args.out)
    screened = ", ".join(r.program for r in trace.initial_removals) or "none"
    stepped = ", ".join(s.removed for s in trace.steps) or "none"
    print(f"screened out: {screened}")
    print(f"removed stepwise: {stepped}")
    print(f"surviving programs: {', '.join(trace.final_programs)}")
    return 0


def cmd_score(rel, args) -> int:
    from .distill import histogram_csv, inconsistency_scores, scores_csv
    from .relation import restrict_inputs, save_relation

    if args.restricted_out and args.restrict_below is None:
        raise ValidationError("--restricted-out needs --restrict-below N")
    scores, swept = inconsistency_scores(rel, min_subset_size=args.min_size, mode=args.mode)
    if args.scores:
        write_text(args.scores, scores_csv(rel.inputs, scores))
    if args.hist:
        write_text(args.hist, histogram_csv(scores))
    if args.restrict_below is not None:
        kept = (scores < args.restrict_below).nonzero()[0].tolist()
        restricted = restrict_inputs(rel, kept)
        if args.restricted_out:
            save_relation(restricted, args.restricted_out)
        print(f"restricted to score < {args.restrict_below}: kept {len(kept)} / {rel.n}")
    print(f"scored {rel.n} inputs over {len(swept)} subsets; max score {scores.max(initial=0)}")
    return 0


def cmd_select(rel, args) -> int:
    from .distill import select_inputs, selection_report_csv
    from .relation import restrict_inputs, save_relation

    kept, report = select_inputs(rel, args.threshold)
    if args.out:
        save_relation(restrict_inputs(rel, kept), args.out)
    if args.report:
        write_text(args.report, selection_report_csv(report))
    print(f"kept {len(kept)} / {rel.n}")
    return 0


def cmd_sheaf(rel, args) -> int:
    from .relation import mask_from_names
    from .sheaf import display_vector, stalk_json

    names = [s for s in args.sigma.split(",") if s]
    sigma = mask_from_names(rel, names)
    _write_or_print(args.out, stalk_json(rel, sigma))
    if args.display:
        print(json.dumps(list(display_vector(rel, sigma))))
    return 0


def cmd_features(rel, args) -> int:
    from .features import attribution_json
    from .relation import load_feature_relation

    features, has_feature = load_feature_relation(args.features, rel)
    text = attribution_json(
        rel,
        features,
        has_feature,
        max_removed=args.max_removed,
        strict=args.strict,
        prune_rounds=args.prune,
    )
    _write_or_print(args.out, text)
    return 0


def cmd_classify(rel, args) -> int:
    from .classify import (evaluate, load_ground_truth, report_json, score_rule_classifier,
                           vote_classifier)

    if (args.vote is None) == (args.below is None and args.equal is None):
        raise ValidationError("choose either --vote K or a score rule (--below/--equal)")
    if args.vote is not None and args.min_size is not None:
        raise ValidationError("--min-size applies to a score rule (--below/--equal), not --vote")
    truth = load_ground_truth(args.truth, rel) if args.truth else None
    if args.vote is not None:
        predicted = vote_classifier(rel, args.vote)
    else:
        below = args.below if args.below is not None else 0
        equal = args.equal if args.equal is not None else -1
        from .distill import inconsistency_scores

        min_size = args.min_size if args.min_size is not None else 2
        scores, _ = inconsistency_scores(rel, min_subset_size=min_size)
        predicted = score_rule_classifier(scores, below=below, equal=equal)
    print(f"flagged {predicted.sum()} / {rel.n} inputs as non-compliant")
    if truth is not None:
        report = evaluate(predicted, truth)
        if args.out:
            write_text(args.out, report_json(report, rel.inputs, predicted))
        for label in ("precision", "recall", "f1"):
            value = getattr(report, label)
            print(f"{label}: " + ("undefined" if value is None else f"{float(value):.4f}"))
    elif args.out:
        write_text(args.out, canonical_dumps(list(compress(rel.inputs, predicted.tolist()))))
    return 0


def cmd_export_pgm(rel, args) -> int:
    from .relation import relation_pgm

    write_text(args.out, relation_pgm(rel))
    print(f"wrote {rel.m}x{rel.n} matrix image to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "relation" not in args:  # run
            return args.func(args)
        from .relation import load_relation

        return args.func(load_relation(args.relation), args)
    except (TdtError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
