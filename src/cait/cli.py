"""Command-line interface: one executable exposing all pipelines.

Exit codes: 0 success, 1 data or validation errors (diagnostics go to
stderr), 2 usage errors. Analytic output goes to stdout or to ``--out``
paths; logs never mix into data streams. "-" means stdin/stdout.
Identical invocations on identical inputs are byte-identical, including
across ``--jobs`` settings.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import casestudy, cxntag, evaluation, lint
from .conllu import (
    ConlluError,
    Sentence,
    Strictness,
    Treebank,
    default_label_map,
    load_label_map,
    read_conllu,
    validate,
    write_conllu,
)
from .cxntag import Backend, FormulaicLexicon
from .evaluation import AlignmentError, ConfusionScope

LEXICON_ENV_VAR = "CAIT_LEXICON"

log = logging.getLogger("cait")


class _UsageError(Exception):
    pass


def _source(path: str):
    return sys.stdin.buffer if path == "-" else Path(path)


def _read_input(path: str, strictness: Strictness) -> Treebank:
    return read_conllu(_source(path), strictness)


def _open_out(path: str | None, default=None):
    if path is None:
        return default if default is not None else sys.stdout, False
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _load_lexicon(flag_value: str | None) -> FormulaicLexicon:
    # Precedence: flag > environment > packaged default.
    path = flag_value or os.environ.get(LEXICON_ENV_VAR)
    if path:
        return FormulaicLexicon.from_file(path)
    return FormulaicLexicon.default()


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    gold = _read_input(args.gold, Strictness.STRICT)
    pred = _read_input(args.pred, Strictness.STRICT)
    report = evaluation.evaluate_treebanks(gold, pred)
    per_label = evaluation.per_label_error_rates(
        gold, pred, min_gold=args.min_gold
    )

    ttest_payload = None
    if args.baseline:
        base = _read_input(args.baseline, Strictness.STRICT)
        base_report = evaluation.evaluate_treebanks(gold, base)

        def pct(scores, attr):
            return [
                100.0 * getattr(s, attr) / s.n_scored if s.n_scored else 100.0
                for s in scores
            ]

        ttest_payload = {}
        for name, attr in (("las", "n_las_correct"), ("uas", "n_head_correct")):
            result = evaluation.paired_ttest(
                pct(report.per_sentence, attr), pct(base_report.per_sentence, attr)
            )
            ttest_payload[name] = {
                "n": result.n,
                "mean_diff": result.mean_diff,
                "t_stat": result.t_stat,
                "p_value": result.p_value,
                "df": result.df,
                "degenerate": result.degenerate,
            }

    if args.json:
        payload = {
            "las": report.las,
            "uas": report.uas,
            "em": report.em,
            "uem": report.uem,
            "upos_acc": report.upos_acc,
            "xpos_acc": report.xpos_acc,
            "slices": {
                name: {"las": s.las, "uas": s.uas, "n_sentences": s.n_sentences}
                for name, s in report.slices.items()
            },
            "per_label_error": per_label,
            "ttest": ttest_payload,
        }
        sink, close = _open_out(args.json)
        try:
            json.dump(payload, sink, indent=2)
            sink.write("\n")
        finally:
            if close:
                sink.close()
    else:
        out = sys.stdout
        out.write(f"LAS  {_fmt(report.las)}\n")
        out.write(f"UAS  {_fmt(report.uas)}\n")
        out.write(f"EM   {_fmt(report.em)}\n")
        out.write(f"UEM  {_fmt(report.uem)}\n")
        if report.upos_acc is not None:
            out.write(f"UPOS {_fmt(report.upos_acc)}\n")
        if report.xpos_acc is not None:
            out.write(f"XPOS {_fmt(report.xpos_acc)}\n")
        for name, s in report.slices.items():
            out.write(
                f"slice {name}\tLAS {_fmt(s.las)}\tUAS {_fmt(s.uas)}"
                f"\tn {s.n_sentences}\n"
            )

    if args.tsv:
        scope = (
            ConfusionScope.LAS_ERRORS
            if args.confusion == "las"
            else ConfusionScope.LABEL_ONLY
        )
        matrix = evaluation.confusion(gold, pred, scope).row_normalized()
        sink, close = _open_out(args.tsv)
        try:
            evaluation.write_matrix_tsv(matrix.labels, matrix.counts, sink)
        finally:
            if close:
                sink.close()
    return 0


# ---------------------------------------------------------------------------
# tag-cxn / case-study
# ---------------------------------------------------------------------------

def _tag_input(args: argparse.Namespace) -> list[cxntag.TagResult]:
    lexicon = _load_lexicon(args.lexicon)
    backend = Backend.UD_RULES if args.backend == "ud" else Backend.POS_RULES
    return cxntag.tag_conllu(_source(args.input), backend, lexicon, args.jobs)


def _write_errors(results: list[cxntag.TagResult]) -> int:
    errors = [r for r in results if r.error is not None]
    for r in errors:
        sys.stderr.write(f"error\t{r.sent_id}\t{r.error}\n")
    return 1 if errors else 0


def cmd_tag_cxn(args: argparse.Namespace) -> int:
    results = _tag_input(args)
    tagged = [r.tagged for r in results if r.tagged is not None]

    sink, close = _open_out(args.out)
    try:
        for item in tagged:
            sink.write(
                f"{item.sent_id}\t{item.label.value}\t{item.fired_rule}"
                f"\t{item.backend.value}\n"
            )
    finally:
        if close:
            sink.close()

    if args.gold:
        gold = cxntag.load_gold_labels(args.gold)
        speakers = {r.sent_id: r.speaker_role for r in results}
        report = cxntag.cxn_accuracy(tagged, gold, speakers)
        # With --out the data stream is a file, so the summary can take
        # stdout; otherwise keep stdout clean for the TSV.
        summary = sys.stdout if args.out and args.out != "-" else sys.stderr
        summary.write(f"accuracy\t{report.accuracy:.2f}\t({report.n} utterances)\n")
        for label, acc in report.per_category.items():
            summary.write(f"recall\t{label.value}\t{acc:.2f}\n")
        for role, acc in report.by_speaker.items():
            summary.write(f"speaker\t{role}\t{acc:.2f}\n")
    return _write_errors(results)


def cmd_case_study(args: argparse.Namespace) -> int:
    results = _tag_input(args)
    labeled = [
        (Sentence(r.sent_id, r.speaker_role, r.child_age_months), r.tagged.label)
        for r in results
        if r.tagged is not None
    ]
    binning = casestudy.bin_by_age(labeled, args.width)
    log.info(
        "binned %d utterances into %d cells; %d unbinned",
        sum(b.n_utterances for b in binning.bins),
        len(binning.bins),
        binning.unbinned,
    )
    sink, close = _open_out(args.out)
    try:
        casestudy.emit_curves(
            binning.bins, sink, include_nonclausal=args.include_nonclausal
        )
    finally:
        if close:
            sink.close()
    return _write_errors(results)


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------

def cmd_lint(args: argparse.Namespace) -> int:
    tb = _read_input(args.input, Strictness.STRICT)
    reports = lint.lint_all(tb)
    if args.tsv:
        sink, close = _open_out(args.tsv)
        try:
            sink.write(
                "sent_id\ttoken_id\trule\tgold_deprel\tsuggested_deprel\tcontext\n"
            )
            for report in reports:
                for f in report.findings:
                    sink.write(
                        f"{f.sent_id}\t{f.token_id}\t{f.rule.value}"
                        f"\t{f.gold_deprel}\t{f.suggested_deprel}\t{f.context}\n"
                    )
        finally:
            if close:
                sink.close()
    else:
        for report in reports:
            sys.stdout.write(
                f"{report.rule.value}\tflagged {report.n_flagged}"
                f"\tcandidates {report.n_candidates}\trate {report.rate:.4f}\n"
            )
    if args.fix:
        findings = [f for report in reports for f in report.findings]
        fixed = lint.apply_fixes(tb, findings)
        write_conllu(fixed, args.fix if args.fix != "-" else sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# validate / normalize
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    tb = _read_input(args.input, Strictness.LENIENT)
    bad = 0
    for sentence in tb.sentences:
        diags = validate(sentence)
        for d in diags:
            sys.stderr.write(f"{sentence.sent_id}\t{d.code}\t{d.message}\n")
        bad += bool(diags)
    sys.stdout.write(f"{len(tb.sentences)} sentences, {bad} with violations\n")
    return 1 if bad else 0


def cmd_normalize(args: argparse.Namespace) -> int:
    tb = _read_input(args.input, Strictness.LENIENT)
    label_map = (
        load_label_map(args.label_map) if args.label_map else default_label_map()
    )
    from .conllu import normalize as normalize_sentence

    repaired = Treebank(
        [normalize_sentence(s, label_map) for s in tb.sentences],
        tb.split,
        tb.provenance,
    )
    for sentence in repaired.sentences:
        for d in sentence.diagnostics:
            sys.stderr.write(f"{sentence.sent_id}\t{d.code}\t{d.message}\n")
    sink, close = _open_out(args.out)
    try:
        write_conllu(repaired, sink)
    finally:
        if close:
            sink.close()
    return 0


# ---------------------------------------------------------------------------
# train / parse / tag
# ---------------------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    from . import baseline  # loads numpy

    tb = _read_input(args.input, Strictness.STRICT)
    if args.kind == "parser":
        model = baseline.train_parser(tb, epochs=args.epochs, seed=args.seed)
        log.info(
            "trained parser on %d sentences (%d non-projective skipped)",
            len(tb.sentences) - model.n_nonprojective_skipped,
            model.n_nonprojective_skipped,
        )
    else:
        model = baseline.train_tagger(tb, epochs=args.epochs, seed=args.seed)
        log.info("trained tagger on %d sentences", len(tb.sentences))
    baseline.save_model(model, args.model)
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    from . import baseline  # loads numpy

    model = baseline.load_model(args.model)
    if not isinstance(model, baseline.ParserModel):
        raise _UsageError(f"{args.model} is not a parser model")
    tb = _read_input(args.input, Strictness.LENIENT)
    parsed = Treebank(
        [baseline.parse(model, s) for s in tb.sentences], tb.split, tb.provenance
    )
    # parse's diagnostics are normalize's repairs, then cleanup's attachments.
    normalized = attached = 0
    for sentence in parsed.sentences:
        cleanup = [d for d in sentence.diagnostics if d.code == "cleanup-attach"]
        normalized += len(sentence.diagnostics) > len(cleanup)
        attached += sum(len(d.token_ids) for d in cleanup)
    log.info(
        "parsed %d sentences: %d normalized before decoding, "
        "%d tokens attached to the root by cleanup",
        len(parsed.sentences), normalized, attached,
    )
    sink, close = _open_out(args.out)
    try:
        write_conllu(parsed, sink)
    finally:
        if close:
            sink.close()
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    from . import baseline  # loads numpy

    model = baseline.load_model(args.model)
    if not isinstance(model, baseline.TaggerModel):
        raise _UsageError(f"{args.model} is not a tagger model")
    tb = _read_input(args.input, Strictness.LENIENT)
    tagged = Treebank(
        [baseline.tag(model, s) for s in tb.sentences], tb.split, tb.provenance
    )
    sink, close = _open_out(args.out)
    try:
        write_conllu(tagged, sink)
    finally:
        if close:
            sink.close()
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cait",
        description="Syntactic analysis of child-adult interaction treebanks",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--baseline", help="second prediction file for the paired t-test")
    p.add_argument("--min-gold", type=int, default=100)
    p.add_argument("--confusion", choices=["label", "las"], default="label")
    p.add_argument("--json")
    p.add_argument("--tsv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tag-cxn", help="utterance-level construction tagging")
    p.add_argument("--input", required=True)
    p.add_argument("--backend", choices=["ud", "pos"], default="ud")
    p.add_argument("--lexicon")
    p.add_argument("--gold")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_tag_cxn)

    p = sub.add_parser("lint", help="detect annotation inconsistencies")
    p.add_argument("--input", required=True)
    p.add_argument("--fix")
    p.add_argument("--tsv")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("case-study", help="construction distributions by age bin")
    p.add_argument("--input", required=True)
    p.add_argument("--backend", choices=["ud", "pos"], default="ud")
    p.add_argument("--lexicon")
    p.add_argument("--width", type=int, default=3)
    p.add_argument("--include-nonclausal", action="store_true")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("train", help="train the baseline parser or tagger")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=["parser", "tagger"], default="parser")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse with a trained model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("tag", help="POS-tag with a trained model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("validate", help="report tree violations")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="relabel and repair into valid trees")
    p.add_argument("--input", required=True)
    p.add_argument("--label-map")
    p.add_argument("--out")
    p.set_defaults(func=cmd_normalize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The "cait" logger, not the root one: a host that configured logging
    # first would make logging.basicConfig a no-op and --log-level void.
    # Records stop here, so a host handler on the root does not print them
    # a second time.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved_level, saved_propagate = log.level, log.propagate
    log.setLevel(getattr(logging, args.log_level.upper()))
    log.propagate = False
    log.addHandler(handler)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)
        log.propagate = saved_propagate


def _run(args: argparse.Namespace) -> int:
    existence_checked = [
        getattr(args, name, None)
        for name in ("gold", "pred", "input", "baseline", "lexicon", "label_map")
    ]
    if args.subcommand in ("parse", "tag"):
        existence_checked.append(args.model)
    for path in existence_checked:
        if path and path != "-" and not Path(path).exists():
            sys.stderr.write(f"error: no such file: {path}\n")
            return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ConlluError, AlignmentError, cxntag.MissingAnnotationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
