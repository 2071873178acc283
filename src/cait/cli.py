"""Command-line interface: one executable exposing all pipelines.

Exit codes: 0 success, 1 data or validation errors (diagnostics go to
stderr), 2 usage errors. Analytic output goes to stdout or to ``--out``
paths; logs never mix into data streams. "-" means stdout for an output
(``train --model`` too) and stdin for an input flag, of which at most one
can be "-". Identical invocations on identical inputs are byte-identical.

Every input, gold labels, lexicon, label map and model included, goes
through one reader. Every command but ``train`` reads each input once, one
sentence at a time, and keeps only what it prints (``lint`` its findings,
``tag-cxn --gold`` each tag and speaker, ``case-study`` per-bin counts,
``eval`` integer counters per speaker and length plus each sentence's LAS
and UAS for the t-test); ``eval`` reads gold in lockstep with the
prediction and the baseline. Each output is spooled while the inputs are
read and copied to its target after the last read, so a failed read
(``tag-cxn --gold`` too) writes nothing.
Every command runs in one process: ``--jobs`` has no effect.

Each command loads and computes only what it prints. cait uses no numpy:
the baseline trains and decodes in plain Python, and every count table is
plain rows of ``int``. Progress lines are plain ``INFO cait:`` writes to
stderr at ``--log-level`` info or debug; no command loads ``logging``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the cait modules it runs, so a process loads only
# those: `cait --help` and `cait validate` never compile the tagger.
if TYPE_CHECKING:
    from collections.abc import Iterator
    from typing import IO

    from .conllu import Diagnostic, Sentence, SpeakerRole, Strictness
    from .cxntag import FormulaicLexicon, TaggedUtterance

LEXICON_ENV_VAR = "CAIT_LEXICON"


class _UsageError(Exception):
    pass


def _source(path: str):
    return sys.stdin.buffer if path == "-" else path


def _sentences(path: str, strictness: Strictness) -> Iterator[Sentence]:
    from .conllu import iter_sentences

    return iter_sentences(_source(path), strictness)


def _info(args: argparse.Namespace, message: str) -> None:
    """A progress line on stderr, shown at ``--log-level`` info or debug."""
    if args.log_level in ("debug", "info"):
        sys.stderr.write(f"INFO cait: {message}\n")


def _diagnostic_rows(sentence: Sentence, diags: list[Diagnostic]) -> list[str]:
    return [f"{sentence.sent_id}\t{d.code}\t{d.message}\n" for d in diags]


@contextmanager
def _output(path: str | None, stream: IO[str] | None = None) -> Iterator[IO[str]]:
    """A spool for one output, written while the input is read. When the
    block ends without an error, the spool is copied to the file at
    ``path``, or for no path or "-" to ``stream`` (stdout by default), which
    is left open; after an error nothing is written or created."""
    import shutil
    import tempfile

    # newline="": a CR inside a field comes back as it went in.
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        yield spool
        spool.seek(0)
        if path is None or path == "-":
            shutil.copyfileobj(spool, stream or sys.stdout)
        else:
            with open(path, "w", encoding="utf-8") as sink:
                shutil.copyfileobj(spool, sink)


def _load_lexicon(flag_value: str | None) -> FormulaicLexicon:
    from .cxntag import FormulaicLexicon

    # Precedence: flag > environment > packaged default.
    if flag_value:
        return FormulaicLexicon.from_file(_source(flag_value))
    path = os.environ.get(LEXICON_ENV_VAR)
    return FormulaicLexicon.from_file(path) if path else FormulaicLexicon.default()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    import json
    from dataclasses import asdict

    from . import evaluation
    from .conllu import Strictness

    # Gold is read once, in lockstep with the prediction and the baseline.
    paths = [args.gold, args.pred] + ([args.baseline] if args.baseline else [])
    tallies = evaluation._tally(*(_sentences(p, Strictness.STRICT) for p in paths))
    pred = next(tallies)
    report = pred.report()

    ttest_payload = None
    if args.baseline:  # the t-test reads each sentence's LAS and UAS only
        base = next(tallies)
        ttest_payload = {
            "las": asdict(evaluation.paired_ttest(pred.las, base.las)),
            "uas": asdict(evaluation.paired_ttest(pred.uas, base.uas)),
        }

    if args.json:
        payload = {
            "las": report.las,
            "uas": report.uas,
            "em": report.em,
            "uem": report.uem,
            "upos_acc": report.upos_acc,
            "xpos_acc": report.xpos_acc,
            "slices": {name: s._asdict() for name, s in report.slices.items()},
            "per_label_error": report.per_label_error_rates(args.min_gold),
            "ttest": ttest_payload,
        }
        with _output(args.json) as sink:
            json.dump(payload, sink, indent=2)
            sink.write("\n")
    else:
        out = sys.stdout
        for name, value in (("LAS ", report.las), ("UAS ", report.uas),
                            ("EM  ", report.em), ("UEM ", report.uem),
                            ("UPOS", report.upos_acc), ("XPOS", report.xpos_acc)):
            if value is not None:  # a tag accuracy is None for untagged predictions
                out.write(f"{name} {value:.2f}\n")
        for name, s in report.slices.items():
            out.write(
                f"slice {name}\tLAS {s.las:.2f}\tUAS {s.uas:.2f}\tn {s.n_sentences}\n"
            )

    if args.tsv:
        scope = evaluation.ConfusionScope(args.confusion)
        matrix = report.confusion(scope).row_normalized()
        with _output(args.tsv) as sink:
            evaluation.write_matrix_tsv(matrix.labels, matrix.counts, sink)
    return 0


# ---------------------------------------------------------------------------
# tag-cxn / case-study
# ---------------------------------------------------------------------------

def _tag_sentences(
    args: argparse.Namespace, errors: list[str]
) -> Iterator[tuple[Sentence, TaggedUtterance]]:
    """Each input sentence that tags, with its tag, as the reader yields it;
    a sentence that fails to tag adds an ``error`` row to ``errors``."""
    from .conllu import Strictness
    from .cxntag import Backend, _tag_each

    lexicon = _load_lexicon(args.lexicon)
    backend = Backend.UD_RULES if args.backend == "ud" else Backend.POS_RULES
    sentences = _sentences(args.input, Strictness.STRICT)
    for sentence, tagged, error in _tag_each(sentences, backend, lexicon):
        if error is None:
            yield sentence, tagged
        else:
            errors.append(f"error\t{sentence.sent_id}\t{error}\n")


def cmd_tag_cxn(args: argparse.Namespace) -> int:
    errors: list[str] = []
    # Only --gold scores the tags, by speaker.
    tags: list[TaggedUtterance] = []
    speakers: dict[str, SpeakerRole] = {}
    with _output(args.out) as sink:
        for sentence, item in _tag_sentences(args, errors):
            sink.write(
                f"{item.sent_id}\t{item.label.value}\t{item.fired_rule}"
                f"\t{item.backend.value}\n"
            )
            if args.gold:
                tags.append(item)
                speakers[sentence.sent_id] = sentence.speaker_role
        if args.gold:  # scored inside the block, so a bad gold file writes nothing
            from .cxntag import cxn_accuracy, load_gold_labels

            report = cxn_accuracy(tags, load_gold_labels(_source(args.gold)), speakers)

    if args.gold:
        # With --out the data stream is a file, so the summary can take
        # stdout; otherwise keep stdout clean for the TSV.
        summary = sys.stdout if args.out and args.out != "-" else sys.stderr
        summary.write(f"accuracy\t{report.accuracy:.2f}\t({report.n} utterances)\n")
        for label, acc in report.per_category.items():
            summary.write(f"recall\t{label.value}\t{acc:.2f}\n")
        for role, acc in report.by_speaker.items():
            summary.write(f"speaker\t{role}\t{acc:.2f}\n")
    sys.stderr.writelines(errors)
    return 1 if errors else 0


def cmd_case_study(args: argparse.Namespace) -> int:
    from . import casestudy

    errors: list[str] = []
    binning = casestudy.bin_by_age(
        ((sentence, tagged.label) for sentence, tagged in _tag_sentences(args, errors)),
        args.width,
    )
    n_utterances = sum(b.n_utterances for b in binning.bins)
    _info(args, f"binned {n_utterances} utterances into {len(binning.bins)} cells; "
                f"{binning.unbinned} unbinned")
    with _output(args.out) as sink:
        casestudy.emit_curves(
            binning.bins, sink, include_nonclausal=args.include_nonclausal
        )
    sys.stderr.writelines(errors)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------

def cmd_lint(args: argparse.Namespace) -> int:
    from . import lint
    from .conllu import Strictness, sentence_text

    # The fixed sentences are spooled as they are linted, and written last.
    with _output(args.fix) if args.fix else nullcontext() as fixed:
        reports = lint.lint_all(
            _sentences(args.input, Strictness.STRICT),
            (lambda s: fixed.write(sentence_text(s))) if args.fix else None,
        )
        if args.tsv:
            with _output(args.tsv) as sink:
                sink.write(
                    "sent_id\ttoken_id\trule\tgold_deprel\tsuggested_deprel\tcontext\n"
                )
                for report in reports:
                    for f in report.findings:
                        sink.write(
                            f"{f.sent_id}\t{f.token_id}\t{f.rule.value}"
                            f"\t{f.gold_deprel}\t{f.suggested_deprel}\t{f.context}\n"
                        )
        else:
            for report in reports:
                sys.stdout.write(
                    f"{report.rule.value}\tflagged {report.n_flagged}"
                    f"\tcandidates {report.n_candidates}\trate {report.rate:.4f}\n"
                )
    return 0


# ---------------------------------------------------------------------------
# validate / normalize
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    from .conllu import Strictness, _violations

    n = bad = 0
    with _output(None, sys.stderr) as rows:
        for n, sentence in enumerate(_sentences(args.input, Strictness.LENIENT), 1):
            violations = _violations(sentence)  # what a strict read rejects
            rows.writelines(_diagnostic_rows(sentence, violations))
            bad += bool(violations)
    sys.stdout.write(f"{n} sentences, {bad} with violations\n")
    return 1 if bad else 0


def cmd_normalize(args: argparse.Namespace) -> int:
    from .conllu import (
        Strictness,
        default_label_map,
        load_label_map,
        normalize,
        sentence_text,
    )

    sentences = _sentences(args.input, Strictness.LENIENT)
    try:
        label_map = (load_label_map(_source(args.label_map)) if args.label_map
                     else default_label_map())
    except (OSError, ValueError):
        # A read error comes first, as when the input was read before the map.
        for _ in sentences:
            pass
        raise
    # The diagnostic rows are written before the repaired sentences.
    with _output(args.out) as repaired, _output(None, sys.stderr) as rows:
        for sentence in sentences:
            sentence = normalize(sentence, label_map)
            rows.writelines(_diagnostic_rows(sentence, sentence.diagnostics))
            repaired.write(sentence_text(sentence))
    return 0


# ---------------------------------------------------------------------------
# train / parse / tag
# ---------------------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    from . import baseline
    from .conllu import Strictness, Treebank

    # Training needs every sentence once per epoch, so the treebank is held.
    tb = Treebank(list(_sentences(args.input, Strictness.STRICT)))
    if args.kind == "parser":
        model = baseline.train_parser(tb, epochs=args.epochs, seed=args.seed)
        skipped = model.n_nonprojective_skipped
        _info(args, f"trained parser on {len(tb.sentences) - skipped} sentences "
                    f"({skipped} non-projective skipped)")
    else:
        model = baseline.train_tagger(tb, epochs=args.epochs, seed=args.seed)
        _info(args, f"trained tagger on {len(tb.sentences)} sentences")
    with _output(args.model) as sink:
        baseline.save_model(model, sink)
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    from . import baseline
    from .conllu import Strictness, sentence_text

    model = baseline.load_model(_source(args.model))
    if not isinstance(model, baseline.ParserModel):
        raise _UsageError(f"{args.model} is not a parser model")
    # parse's diagnostics are normalize's repairs, then cleanup's attachments.
    n = normalized = attached = 0
    with _output(args.out) as parsed:
        for n, sentence in enumerate(_sentences(args.input, Strictness.LENIENT), 1):
            sentence = baseline.parse(model, sentence)
            cleanup = [d for d in sentence.diagnostics if d.code == "cleanup-attach"]
            normalized += len(sentence.diagnostics) > len(cleanup)
            attached += sum(len(d.token_ids) for d in cleanup)
            parsed.write(sentence_text(sentence))
        _info(args, f"parsed {n} sentences: {normalized} normalized before decoding, "
                    f"{attached} tokens attached to the root by cleanup")
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    from . import baseline
    from .conllu import Strictness, sentence_text

    model = baseline.load_model(_source(args.model))
    if not isinstance(model, baseline.TaggerModel):
        raise _UsageError(f"{args.model} is not a tagger model")
    with _output(args.out) as tagged:
        for sentence in _sentences(args.input, Strictness.LENIENT):
            tagged.write(sentence_text(baseline.tag(model, sentence)))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """An argparse type: a count below 1 is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


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
    p.add_argument("--min-gold", type=_positive_int, default=100)
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
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility; has no effect")
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
    p.add_argument("--width", type=_positive_int, default=3)
    p.add_argument("--include-nonclausal", action="store_true")
    p.add_argument("--out")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("train", help="train the baseline parser or tagger")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--kind", choices=["parser", "tagger"], default="parser")
    p.add_argument("--epochs", type=_positive_int, default=5)
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

    p = sub.add_parser(
        "validate", help="report what a strict read rejects: bad FEATS, "
        "duplicate token ids, tree violations, repeated sent_ids"
    )
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
    return _run(args)


# Input flags in existence-check order; train's --model is its output.
_INPUTS = ("gold", "pred", "input", "baseline", "lexicon", "label_map")


def _run(args: argparse.Namespace) -> int:
    inputs = [name for name in _INPUTS if hasattr(args, name)]
    if args.subcommand in ("parse", "tag"):
        inputs.append("model")
    paths = [getattr(args, name) for name in inputs]
    for path in paths:
        if path and path != "-" and not Path(path).exists():
            sys.stderr.write(f"error: no such file: {path}\n")
            return 1
    try:
        if paths.count("-") > 1:  # stdin can be read only once
            *flags, last = (f"--{name.replace('_', '-')}" for name in inputs)
            raise _UsageError(f"only one of {', '.join(flags)} and {last} can be '-'")
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        # Every cait data error is a ValueError, so no module is imported here.
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
