"""Frozen reference CoNLL-U reader for the property tests.

A verbatim copy of the line-by-line ``read_conllu`` that the block parser
in ``cait.conllu`` replaced, with the helpers it calls. Do not edit or
optimise it: the property tests hold the live reader to its results,
diagnostics, exception types, messages and line numbers. The data model
and the exception classes are imported from ``cait.conllu`` so that the
two readers' results compare directly.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import IO, Mapping

from cait.conllu import (
    DEFAULT_ROLE_MAP,
    ConlluFormatError,
    Diagnostic,
    EmptyNode,
    MWTRange,
    Sentence,
    SpeakerRole,
    Strictness,
    Token,
    TreeValidationError,
    Treebank,
)


def parse_feats(text: str) -> dict[str, str]:
    """Parse a pipe-separated FEATS string into a dict.

    Raises ValueError on items without ``=`` or duplicate keys; callers
    decide whether that is fatal (strict) or a diagnostic (lenient).
    """
    if text == "_" or text == "":
        return {}
    out: dict[str, str] = {}
    for item in text.split("|"):
        if "=" not in item:
            raise ValueError(f"malformed feature item {item!r}")
        key, value = item.split("=", 1)
        if key in out:
            raise ValueError(f"duplicate feature key {key!r}")
        out[key] = value
    return out



_COMMENT_KV = re.compile(r"^#\s*([^=]+?)\s*=\s*(.*)$")
_CHAT_AGE = re.compile(r"^(\d+);(\d+)(?:\.(\d+))?$")

# Mean Gregorian month, used to fold the day part of CHAT ages into months.
_DAYS_PER_MONTH = 30.4375


def parse_chat_age(value: str) -> float | None:
    """Parse an age given either as CHAT ``Y;MM.DD`` or as plain months."""
    value = value.strip()
    m = _CHAT_AGE.match(value)
    if m:
        years, months = int(m.group(1)), int(m.group(2))
        days = int(m.group(3)) if m.group(3) else 0
        return years * 12 + months + days / _DAYS_PER_MONTH
    try:
        age = float(value)
    except ValueError:
        return None
    return age if 0 <= age < float("inf") else None


def _extract_metadata(
    comments: list[str], role_map: Mapping[str, SpeakerRole]
) -> tuple[str | None, str | None, SpeakerRole, float | None, list[Diagnostic]]:
    sent_id = None
    text = None
    role = SpeakerRole.OTHER
    age: float | None = None
    diags: list[Diagnostic] = []
    for line in comments:
        m = _COMMENT_KV.match(line)
        if not m:
            continue
        key = m.group(1).lower()
        value = m.group(2)
        if key == "sent_id":
            sent_id = value
        elif key == "text":
            text = value
        elif key == "speaker":
            role = role_map.get(value.strip().lower(), SpeakerRole.OTHER)
        elif key in ("child_age", "age_months"):
            age = parse_chat_age(value)
            if age is None:
                diags.append(Diagnostic("bad-age", f"unparseable age {value!r}"))
    return sent_id, text, role, age, diags



_INT_ID = re.compile(r"^\d+$")
_MWT_ID = re.compile(r"^(\d+)-(\d+)$")
_EMPTY_ID = re.compile(r"^(\d+)\.(\d+)$")


def _read_text(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            return data.decode("utf-8")
        return data
    if isinstance(source, bytes):
        return source.decode("utf-8")
    return Path(source).read_text(encoding="utf-8")


def read_conllu(
    source: str | Path | bytes | IO,
    strictness: Strictness = Strictness.STRICT,
    role_map: Mapping[str, SpeakerRole] | None = None,
) -> Treebank:
    """Read CoNLL-U from a path, byte string or file object.

    Format errors (field count, non-integer ids/heads, sentences without
    tokens) abort in both modes. Tree-level violations abort only under
    STRICT; under LENIENT they are attached to the sentence as diagnostics
    for a later ``normalize`` pass.
    """
    strict = strictness is Strictness.STRICT
    roles = DEFAULT_ROLE_MAP if role_map is None else role_map
    try:
        text = _read_text(source)
    except UnicodeDecodeError as exc:
        raise ConlluFormatError(f"input is not valid UTF-8: {exc}", 0) from None
    if text.startswith("﻿"):
        text = text[1:]

    tb = Treebank()
    seen_ids: set[str] = set()

    comments: list[str] = []
    tokens: list[Token] = []
    token_lines: list[int] = []
    mwt: list[MWTRange] = []
    empty: list[EmptyNode] = []
    parse_diags: list[Diagnostic] = []
    block_line = 0

    def flush(at_line: int) -> None:
        nonlocal comments, tokens, token_lines, mwt, empty, parse_diags
        if not comments and not tokens:
            return
        if not tokens:
            raise ConlluFormatError("sentence block has no token lines", at_line)
        seen: dict[int, int] = {}
        for tid, line_no in zip((t.id for t in tokens), token_lines):
            if tid in seen:
                if strict:
                    raise ConlluFormatError(f"duplicate token id {tid}", line_no)
                parse_diags.append(
                    Diagnostic("duplicate-id", f"duplicate token id {tid}", (tid,))
                )
            seen.setdefault(tid, line_no)
        sent_id, stext, role, age, meta_diags = _extract_metadata(comments, roles)
        if sent_id is None:
            sent_id = f"s{len(tb.sentences) + 1}"
        sentence = Sentence(
            sent_id=sent_id,
            speaker_role=role,
            child_age_months=age,
            text=stext,
            tokens=tokens,
            mwt=mwt,
            empty_nodes=empty,
            comments=comments,
        )
        tree_diags = validate(sentence)
        if sent_id in seen_ids:
            tree_diags = tree_diags + [
                Diagnostic("duplicate-sent-id", f"duplicate sent_id {sent_id!r}")
            ]
        seen_ids.add(sent_id)
        if strict and tree_diags:
            raise TreeValidationError(sent_id, tree_diags)
        sentence.diagnostics = parse_diags + meta_diags + tree_diags
        tb.sentences.append(sentence)
        comments, tokens, token_lines = [], [], []
        mwt, empty, parse_diags = [], [], []

    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if line == "":
            flush(line_no)
            continue
        if line.startswith("#"):
            if not tokens and not comments:
                block_line = line_no
            comments.append(line)
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise ConlluFormatError(
                f"expected 10 tab-separated fields, got {len(fields)}", line_no
            )
        if not tokens and not comments:
            block_line = line_no
        idf = fields[0]
        if _INT_ID.match(idf):
            if not _INT_ID.match(fields[6]) and fields[6] != "_":
                raise ConlluFormatError(f"non-integer head {fields[6]!r}", line_no)
            try:
                feats = parse_feats(fields[5])
            except ValueError as exc:
                if strict:
                    raise ConlluFormatError(str(exc), line_no) from None
                parse_diags.append(Diagnostic("bad-feats", f"{exc} (kept first value)"))
                feats = _salvage_feats(fields[5])
            head = 0 if fields[6] == "_" else int(fields[6])
            tokens.append(
                Token(
                    id=int(idf),
                    form=fields[1],
                    lemma=fields[2],
                    upos=fields[3],
                    xpos=fields[4],
                    feats=feats,
                    head=head,
                    deprel=fields[7],
                    deps=fields[8],
                    misc=fields[9],
                )
            )
            token_lines.append(line_no)
        elif m := _MWT_ID.match(idf):
            mwt.append(
                MWTRange(int(m.group(1)), int(m.group(2)), fields[1], fields[9])
            )
        elif m := _EMPTY_ID.match(idf):
            empty.append(EmptyNode(int(m.group(1)), int(m.group(2)), tuple(fields)))
        else:
            raise ConlluFormatError(f"non-integer id {idf!r}", line_no)

    flush(block_line or 1)
    return tb


def _salvage_feats(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if text in ("_", ""):
        return out
    for item in text.split("|"):
        if "=" in item:
            key, value = item.split("=", 1)
            out.setdefault(key, value)
    return out



def validate(sentence: Sentence) -> list[Diagnostic]:
    """Check every sentence invariant; empty result means a valid tree.

    Total function: never raises, reports all violations it can name.
    Cycles are found by walking from every token toward head 0.
    """
    diags: list[Diagnostic] = []
    toks = sentence.tokens
    n = len(toks)
    ids = [t.id for t in toks]
    ids_ok = ids == list(range(1, n + 1))
    if not ids_ok:
        diags.append(
            Diagnostic("token-ids", f"token ids are not exactly 1..{n} in order")
        )

    id_set = set(ids)
    for tok in toks:
        if tok.head == tok.id:
            diags.append(
                Diagnostic("self-loop", f"self-loop at token {tok.id}", (tok.id,))
            )
        elif tok.head != 0 and tok.head not in id_set:
            diags.append(
                Diagnostic(
                    "head-range",
                    f"token {tok.id} head {tok.head} is out of range",
                    (tok.id,),
                )
            )
        if (tok.head == 0) != (tok.deprel == "root"):
            diags.append(
                Diagnostic(
                    "root-deprel",
                    f"token {tok.id}: head {tok.head} with deprel {tok.deprel!r}",
                    (tok.id,),
                )
            )

    roots = [t.id for t in toks if t.head == 0]
    if n and not roots:
        diags.append(Diagnostic("no-root", "no root token"))
    elif len(roots) > 1:
        diags.append(
            Diagnostic(
                "multiple-roots",
                "multiple roots: tokens " + ", ".join(map(str, roots)),
                tuple(roots),
            )
        )

    if ids_ok:
        for members in _find_cycles(toks):
            if len(members) == 1:
                continue  # 1-cycles already reported as self-loops
            diags.append(
                Diagnostic(
                    "cycle",
                    "cycle {" + ",".join(map(str, sorted(members))) + "}",
                    tuple(sorted(members)),
                )
            )

    seen_ranges: list[MWTRange] = []
    for r in sentence.mwt:
        if r.start >= r.end:
            diags.append(
                Diagnostic("mwt-range", f"invalid multiword range {r.start}-{r.end}")
            )
        elif r.start not in id_set or r.end not in id_set:
            diags.append(
                Diagnostic(
                    "mwt-range",
                    f"multiword range {r.start}-{r.end} covers missing token ids",
                )
            )
        for prev in seen_ranges:
            if r.start <= prev.end and prev.start <= r.end:
                diags.append(
                    Diagnostic(
                        "mwt-overlap",
                        f"multiword ranges {prev.start}-{prev.end} and "
                        f"{r.start}-{r.end} overlap",
                    )
                )
        seen_ranges.append(r)
    return diags


def _find_cycles(toks: list[Token]) -> list[frozenset[int]]:
    head_of = {t.id: t.head for t in toks}
    reaches_end: set[int] = {0}
    on_cycle: set[int] = set()
    cycles: list[frozenset[int]] = []
    for tok in toks:
        path: list[int] = []
        index: dict[int, int] = {}
        cur = tok.id
        while True:
            if cur in reaches_end or cur in on_cycle:
                reaches_end.update(path)
                break
            if cur in index:
                members = path[index[cur]:]
                cycles.append(frozenset(members))
                on_cycle.update(members)
                reaches_end.update(path[: index[cur]])
                break
            index[cur] = len(path)
            path.append(cur)
            nxt = head_of.get(cur)
            if nxt is None or (nxt != 0 and nxt not in head_of):
                # dangling head: chain ends, no cycle
                reaches_end.update(path)
                break
            cur = nxt
    return cycles

