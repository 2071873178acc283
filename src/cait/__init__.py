"""Toolkit for syntactic analysis of child-adult interaction treebanks:
CoNLL-U handling, parser evaluation, utterance-level construction tagging,
annotation linting, developmental case studies, and a trainable baseline
dependency parser and POS tagger.

The names below resolve on first use (PEP 562), so ``import cait`` loads
no submodule and each ``cait`` command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "Diagnostic", "MWTRange", "Sentence", "SpeakerRole", "Strictness",
            "Token", "Treebank", "normalize", "read_conllu", "validate",
            "write_conllu",
        ),
        "conllu",
    ),
    **dict.fromkeys(
        (
            "Backend", "CxnLabel", "FormulaicLexicon", "TaggedUtterance",
            "strip_tag_question", "tag_pos", "tag_treebank", "tag_ud",
        ),
        "cxntag",
    ),
    **dict.fromkeys(
        (
            "EvalReport", "aggregate", "align", "confusion", "evaluate_treebanks",
            "paired_ttest", "per_label_error_rates", "score_sentence",
            "tag_accuracy",
        ),
        "evaluation",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # The defining submodules stay reachable as attributes, as when this
    # package imported them eagerly.
    home = _EXPORTS.get(name, name if name in _EXPORTS.values() else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
