"""CoNLL-U data model, reading, writing, validation and structural repair.

Handles the 10-column CoNLL-U format (UD v2) with CHILDES-style sentence
metadata (speaker role, child age), multiword-token ranges and empty nodes.
Reading can be strict (ill-formed trees are rejected) or lenient (they are
kept and reported as per-sentence diagnostics); ``normalize`` repairs any
leniently-read sentence into a valid tree.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Mapping

__all__ = [
    "Strictness",
    "SpeakerRole",
    "Diagnostic",
    "ConlluError",
    "ConlluFormatError",
    "TreeValidationError",
    "Token",
    "MWTRange",
    "EmptyNode",
    "Sentence",
    "Treebank",
    "read_conllu",
    "iter_sentences",
    "write_conllu",
    "conllu_string",
    "sentence_text",
    "validate",
    "normalize",
    "parse_feats",
    "format_feats",
    "detokenize",
    "load_label_map",
    "default_label_map",
    "load_role_map",
    "DEFAULT_ROLE_MAP",
]


class Strictness(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


class SpeakerRole(Enum):
    CS = "CS"
    CDS = "CDS"
    OTHER = "OTHER"


class ConlluError(ValueError):
    """Input that cait cannot read; like every cait data error, a ``ValueError``."""


class ConlluFormatError(ConlluError):
    """Malformed CoNLL-U input (bad field count, ids, encoding, ...)."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.reason = message
        self.line = line


class TreeValidationError(ConlluError):
    """A sentence violates tree invariants under strict reading."""

    def __init__(self, sent_id: str, diagnostics: list["Diagnostic"]):
        detail = "; ".join(d.message for d in diagnostics)
        super().__init__(f"sentence {sent_id}: {detail}")
        self.sent_id = sent_id
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant or applied repair, tied to token ids."""

    code: str
    message: str
    token_ids: tuple[int, ...] = ()


@dataclass(slots=True)
class Token:
    """One syntactic word (a regular 10-column token line)."""

    id: int
    form: str
    lemma: str = "_"
    upos: str = "_"
    xpos: str = "_"
    feats: dict[str, str] = field(default_factory=dict)
    head: int = 0
    deprel: str = "root"
    deps: str = "_"
    misc: str = "_"

    @property
    def deprel_base(self) -> str:
        return self.deprel.split(":", 1)[0]

    def effective_lemma(self) -> str:
        return self.lemma.lower() if self.lemma != "_" else self.form.lower()

    def copy(self, **changes) -> Token:
        """A new token with ``changes`` applied and its own ``feats`` dict."""
        new = Token(self.id, self.form, self.lemma, self.upos, self.xpos,
                    dict(self.feats), self.head, self.deprel, self.deps, self.misc)
        for name, value in changes.items():
            setattr(new, name, value)
        return new


@dataclass
class MWTRange:
    """A multiword-token line (``start-end`` id); excluded from scoring."""

    start: int
    end: int
    form: str
    misc: str = "_"


@dataclass
class EmptyNode:
    """An empty-node line (decimal id); preserved verbatim, never scored."""

    anchor: int
    sub: int
    columns: tuple[str, ...]


@dataclass
class Sentence:
    sent_id: str = ""
    speaker_role: SpeakerRole = SpeakerRole.OTHER
    child_age_months: float | None = None
    text: str | None = None
    tokens: list[Token] = field(default_factory=list)
    mwt: list[MWTRange] = field(default_factory=list)
    empty_nodes: list[EmptyNode] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    # Lenient-read violations and normalize repairs land here; excluded from
    # equality so round-trips and idempotence compare tree content only.
    diagnostics: list[Diagnostic] = field(default_factory=list, compare=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def root(self) -> Token | None:
        for tok in self.tokens:
            if tok.head == 0:
                return tok
        return None


@dataclass
class Treebank:
    sentences: list[Sentence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)


# ---------------------------------------------------------------------------
# Feats handling
# ---------------------------------------------------------------------------

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


def format_feats(feats: Mapping[str, str]) -> str:
    """Serialize feats canonically: alphabetical (case-insensitive), piped."""
    if not feats:
        return "_"
    return "|".join(f"{k}={feats[k]}" for k in sorted(feats, key=str.lower))


# ---------------------------------------------------------------------------
# Metadata extraction
# ---------------------------------------------------------------------------

DEFAULT_ROLE_MAP: dict[str, SpeakerRole] = {
    "chi": SpeakerRole.CS,
    "mot": SpeakerRole.CDS,
    "fat": SpeakerRole.CDS,
    "adu": SpeakerRole.CDS,
    "inv": SpeakerRole.CDS,
    "caregiver": SpeakerRole.CDS,
    "adult": SpeakerRole.CDS,
}

_CHAT_AGE = re.compile(r"^(\d+);(\d+)(?:\.(\d*))?$")

# Mean Gregorian month, used to fold the day part of CHAT ages into months.
_DAYS_PER_MONTH = 30.4375


def parse_chat_age(value: str) -> float | None:
    """Parse an age given either as CHAT ``Y;MM.DD`` or as plain months.
    CHAT may leave out the days, or write only their dot: ``2;06.``."""
    value = value.strip()
    # A CHAT age always has a ";"; plain months never do.
    if ";" in value and (m := _CHAT_AGE.match(value)):
        years, months = int(m.group(1)), int(m.group(2))
        days = int(m.group(3)) if m.group(3) else 0
        return years * 12 + months + days / _DAYS_PER_MONTH
    try:
        age = float(value)
    except ValueError:
        return None
    return age if math.isfinite(age) and age >= 0 else None


def _metadata_item(comment: str) -> tuple[str, str]:
    """The lower-cased key and the value of a ``# key = value`` comment; the
    key is "" without a ``=``."""
    # The match of ^#\s*([^=]+?)\s*=\s*(.*)$ for every key the reader names.
    key, sep, value = comment[1:].partition("=")
    return (key.strip().lower() if sep else ""), value.lstrip()


def table_lines(source: str | Path | bytes | IO) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line) for every line of a
    table file that is neither blank nor a ``#`` comment. The file is read
    through ``_lines``; invalid UTF-8 is a ``ValueError`` that names it."""
    try:
        for line_no, raw in enumerate(_lines(source), 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line_no, line
    except ConlluFormatError as exc:  # the one that _lines raises
        raise ValueError(f"{_name(source)}: {exc.reason}") from None


def table_map(source: str | Path | bytes | IO, key: Callable[[str], Any],
              value: Callable[[str], Any], what: str) -> dict:
    """A two-column table file as ``{key(first column): value(rest)}``, both
    stripped; a row without a tab, a key that repeats an earlier row's, or a
    value that is not ``what`` (``value`` raises ``ValueError``), is a
    ``ValueError`` naming the file and line."""
    table, line_of = {}, {}
    for line_no, line in table_lines(source):
        first, tab, rest = line.partition("\t")
        if not tab:
            raise ValueError(f"{_name(source)}: line {line_no}: no tab in row {line!r}")
        first = first.strip()
        if (k := key(first)) in line_of:
            raise ValueError(
                f"{_name(source)}: line {line_no}: {first!r} repeats line {line_of[k]}"
            )
        line_of[k] = line_no
        try:
            table[k] = value(rest.strip())
        except ValueError:
            raise ValueError(
                f"{_name(source)}: line {line_no}: {rest.strip()!r} is not {what}"
            ) from None
    return table


def _name(source: str | Path | bytes | IO) -> str:
    """A path as given, a stream by its ``name`` (``<stdin>``): for errors."""
    named = isinstance(source, (str, Path))
    return str(source if named else getattr(source, "name", "<input>"))


def load_role_map(source: str | Path | bytes | IO) -> dict[str, SpeakerRole]:
    """Load a two-column TSV mapping speaker codes to CS/CDS/OTHER."""
    return table_map(
        source, str.lower, lambda role: SpeakerRole(role.upper()), "a speaker role"
    )


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

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
    return Treebank(list(iter_sentences(source, strictness, role_map)))


def iter_sentences(
    source: str | Path | bytes | IO,
    strictness: Strictness = Strictness.STRICT,
    role_map: Mapping[str, SpeakerRole] | None = None,
) -> Iterator[Sentence]:
    """Yield the sentences of a CoNLL-U source one by one, in file order.

    Same sentences, diagnostics and errors as ``read_conllu``; an error is
    raised when the reader reaches it, after the sentences before it have
    been yielded. The source is read once, a piece at a time, so neither
    its bytes nor its text are held whole, and each line is parsed once:
    a comment's metadata is read as it arrives, and a token line is
    checked as it is built. The k-th block, if it has no ``sent_id``, is
    named ``s{k}``. A block whose tokens plainly form a tree (ids 1..n,
    no range, no head past n, one head 0 and it alone ``root``, no cycle)
    has no tree diagnostic; any other is checked by ``validate``, which
    owns every tree diagnostic. A repeated sent_id is a ``duplicate-sent-id``
    diagnostic; under STRICT it, like any diagnostic but ``bad-age``,
    raises ``TreeValidationError``, and a malformed FEATS column or a
    repeated token id raises ``ConlluFormatError``.
    """
    strict = strictness is Strictness.STRICT
    roles = DEFAULT_ROLE_MAP if role_map is None else role_map
    seen_ids: set[str] = set()
    index = 0
    comments, tokens, mwt, empty = [], [], [], []
    # heads[i] is token i's head, as _cycles takes them.
    heads, token_lines, parse_diags, meta_diags = [0], [], [], []
    other = SpeakerRole.OTHER
    sent_id = text = age = None
    role = other
    plain = True  # no token line so far breaks a rule of a valid tree
    # A None after the last line closes a block that the input ends inside.
    lines = chain(_lines(source), (None,))
    for line_no, line in enumerate(lines, 1):
        if line:
            if line[0] == "#":
                comments.append(line)
                key, value = _metadata_item(line)
                if key == "sent_id":
                    sent_id = value
                elif key == "text":
                    text = value
                elif key == "speaker":
                    role = roles.get(value.strip().lower(), other)
                elif key == "child_age" or key == "age_months":
                    age = parse_chat_age(value)
                    if age is None:
                        meta_diags.append(
                            Diagnostic("bad-age", f"unparseable age {value!r}")
                        )
                continue
            fields = line.split("\t")
            if len(fields) != 10:
                raise ConlluFormatError(
                    f"expected 10 tab-separated fields, got {len(fields)}", line_no
                )
            idf, form, lemma, upos, xpos, feats, head, deprel, deps, misc = fields
            # str.isdecimal is the regex \d+ exactly: Unicode category Nd.
            if idf.isdecimal():
                tid = int(idf)
                if head.isdecimal():
                    head = int(head)
                elif head == "_":
                    head = 0
                else:
                    raise ConlluFormatError(f"non-integer head {head!r}", line_no)
                try:
                    feats = {} if feats == "_" else parse_feats(feats)
                except ValueError as exc:
                    if strict:
                        raise ConlluFormatError(str(exc), line_no) from None
                    parse_diags.append(
                        Diagnostic("bad-feats", f"{exc} (kept first value)")
                    )
                    feats = _salvage_feats(feats)
                tokens.append(Token(tid, form, lemma, upos, xpos, feats,
                                    head, deprel, deps, misc))
                heads.append(head)
                token_lines.append(line_no)
                # Ids 1..n in order, and "root" exactly on head 0.
                if tid != len(tokens) or (not head) != (deprel == "root"):
                    plain = False
                continue
            start, sep, end = idf.partition("-")
            if sep and start.isdecimal() and end.isdecimal():
                mwt.append(MWTRange(int(start), int(end), form, misc))
                continue
            anchor, sep, sub = idf.partition(".")
            if sep and anchor.isdecimal() and sub.isdecimal():
                empty.append(EmptyNode(int(anchor), int(sub), tuple(fields)))
                continue
            raise ConlluFormatError(f"non-integer id {idf!r}", line_no)

        if not tokens:
            if comments or mwt or empty:
                if line is None:  # the input ends inside it: name its first line
                    line_no -= len(comments) + len(mwt) + len(empty)
                raise ConlluFormatError("sentence block has no token lines", line_no)
            continue
        index += 1
        sentence = Sentence(
            f"s{index}" if sent_id is None else sent_id,
            role, age, text, tokens, mwt, empty, comments, parse_diags + meta_diags,
        )
        # The tree is plainly valid when, on top of the per-token checks,
        # it has no range, one head 0 (heads[0] is the other 0), no head
        # past n and no cycle (a self-loop is one): validate finds nothing.
        if not (plain and not mwt and heads.count(0) == 2
                and max(heads) <= len(tokens) and not _cycles(heads)):
            tree_diags = validate(sentence)
            # A valid tree has ids 1..n, hence none twice.
            if tree_diags and any(tok.id != i for i, tok in enumerate(tokens, 1)):
                seen: set[int] = set()
                for tok, tok_line in zip(tokens, token_lines):
                    if tok.id in seen:
                        if strict:
                            raise ConlluFormatError(
                                f"duplicate token id {tok.id}", tok_line
                            )
                        parse_diags.append(Diagnostic(
                            "duplicate-id", f"duplicate token id {tok.id}", (tok.id,)
                        ))
                    seen.add(tok.id)
            sentence.diagnostics = parse_diags + meta_diags + tree_diags
        sent_id = sentence.sent_id
        if sent_id in seen_ids:
            sentence.diagnostics.append(
                Diagnostic("duplicate-sent-id", f"duplicate sent_id {sent_id!r}")
            )
        seen_ids.add(sent_id)
        if strict and sentence.diagnostics and (violations := _violations(sentence)):
            raise TreeValidationError(sent_id, violations)
        yield sentence
        comments, tokens, mwt, empty = [], [], [], []
        heads, token_lines, parse_diags, meta_diags = [0], [], [], []
        sent_id = text = age = None
        role = other
        plain = True


def _violations(sentence: Sentence) -> list[Diagnostic]:
    """What a strict read rejects of a sentence as read: every diagnostic of
    the read but ``bad-age``, in order."""
    return [d for d in sentence.diagnostics if d.code != "bad-age"]


# Read, decode and split a buffer's worth at a time: a bigger piece is no
# faster, and its lines would all be alive at once.
_CHUNK = io.DEFAULT_BUFFER_SIZE


def _lines(source: str | Path | bytes | IO) -> Iterator[str]:
    """The lines of ``source``, read once: a path (opened in binary mode),
    bytes, or a binary or text stream, taken as given. Bytes are UTF-8 (a
    bad byte is a ``ConlluFormatError`` at line 0 that gives its position
    in the whole input), a leading BOM is skipped, only ``\n`` ends a line
    and trailing CRs are dropped; the text after the last ``\n``, empty or
    not, is the last line."""
    return chain.from_iterable(_pieces(source))


def _pieces(source: str | Path | bytes | IO) -> Iterator[list[str]]:
    """``_lines`` a piece's list at a time, so that no generator resumes
    per line."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if not hasattr(source, "read"):
        with open(source, "rb") as stream:
            yield from _pieces(stream)
        return
    offset = 0
    rest = source.read(0)
    newline = b"\n" if isinstance(rest, bytes) else "\n"
    while True:
        # Reading at least what is pending keeps a long line's copies linear.
        chunk = source.read(max(_CHUNK, len(rest)))
        data = rest + chunk
        # Each piece ends at a newline, so no character is cut in two.
        cut = data.rfind(newline) + 1 if chunk else len(data)
        text, rest = data[:cut], data[cut:]
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _decode_error(exc, offset) from None
        if offset == 0:
            text = text.removeprefix("\ufeff")
        offset += cut
        split = text.split("\n")
        if chunk:
            split.pop()  # the empty string after the piece's last newline
        yield [line.rstrip("\r") for line in split] if "\r" in text else split
        if not chunk:
            return


def _decode_error(exc: UnicodeDecodeError, offset: int) -> ConlluFormatError:
    """The error of a piece ``offset`` bytes into the input, in the words of
    decoding the whole input."""
    start, end = offset + exc.start, offset + exc.end
    where = f"bytes in position {start}-{end - 1}"
    if end - start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    reason = f"'utf-8' codec can't decode {where}: {exc.reason}"
    return ConlluFormatError(f"input is not valid UTF-8: {reason}", 0)


def _salvage_feats(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if text in ("_", ""):
        return out
    for item in text.split("|"):
        if "=" in item:
            key, value = item.split("=", 1)
            out.setdefault(key, value)
    return out


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def sentence_text(sentence: Sentence) -> str:
    """One sentence as CoNLL-U text, ending with the blank line after it.

    Comments, then each token line after the ranges that start at its id
    and before the empty nodes anchored at it; empty nodes anchored at 0
    come first. A line is written once, at the first token of a duplicate
    id. Ranges and empty nodes whose start or anchor is no token id follow
    the last token, ranges first, each kind in read order: a lenient read of
    the output keeps every line that the read of the input kept."""
    ids = {tok.id for tok in sentence.tokens}
    ranges: dict[int, list[str]] = {}
    empty: dict[int, list[str]] = {}
    orphans: list[str] = []
    for r in sentence.mwt:
        line = "\t".join([f"{r.start}-{r.end}", r.form, *["_"] * 7, r.misc])
        if r.start in ids:
            ranges.setdefault(r.start, []).append(line)
        else:
            orphans.append(line)
    for node in sentence.empty_nodes:
        if node.anchor in ids or node.anchor == 0:
            empty.setdefault(node.anchor, []).append("\t".join(node.columns))
        else:
            orphans.append("\t".join(node.columns))
    lines = list(sentence.comments) + empty.pop(0, [])
    for tok in sentence.tokens:
        lines += ranges.pop(tok.id, [])
        lines.append("\t".join([
            str(tok.id), tok.form, tok.lemma, tok.upos, tok.xpos, format_feats(tok.feats),
            str(tok.head), tok.deprel, tok.deps, tok.misc,
        ]))
        lines += empty.pop(tok.id, [])
    return "\n".join(lines + orphans) + "\n\n"


def conllu_string(tb: Treebank) -> str:
    """Serialize a treebank; ends with one blank line after the last sentence."""
    return "".join(map(sentence_text, tb.sentences))


def write_conllu(tb: Treebank, sink: str | Path | IO) -> None:
    _write(conllu_string(tb), sink)


def _write(text: str, sink: str | Path | IO) -> None:
    """Write ``text`` to a path or a text stream, or as UTF-8 to a binary
    stream: every file that cait writes from the Python API."""
    if hasattr(sink, "write"):
        try:
            sink.write(text)
        except TypeError:
            sink.write(text.encode("utf-8"))
        return
    Path(sink).write_text(text, encoding="utf-8")


def detokenize(sentence: Sentence) -> str:
    """Rebuild surface text from forms, honouring MISC SpaceAfter=No."""
    parts: list[str] = []
    covered_by = {r.start: r for r in sentence.mwt}
    skip_until = 0
    for tok in sentence.tokens:
        if tok.id <= skip_until:
            continue
        r = covered_by.get(tok.id)
        if r is not None:
            form, misc = r.form, r.misc
            skip_until = r.end
        else:
            form, misc = tok.form, tok.misc
        parts.append(form)
        if "SpaceAfter=No" not in misc:
            parts.append(" ")
    return "".join(parts).rstrip()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(sentence: Sentence) -> list[Diagnostic]:
    """Check every sentence invariant; empty result means a valid tree.

    Total function: never raises, reports all violations it can name.
    Cycles are found by walking from every token toward head 0.
    """
    diags: list[Diagnostic] = []
    toks = sentence.tokens
    n = len(toks)
    ids_ok = [t.id for t in toks] == list(range(1, n + 1))
    if ids_ok:
        id_set = range(1, n + 1)
    else:
        diags.append(
            Diagnostic("token-ids", f"token ids are not exactly 1..{n} in order")
        )
        id_set = {t.id for t in toks}

    roots: list[int] = []
    for tok in toks:
        head = tok.head
        if head == tok.id:
            diags.append(
                Diagnostic("self-loop", f"self-loop at token {tok.id}", (tok.id,))
            )
        elif head and head not in id_set:
            diags.append(
                Diagnostic(
                    "head-range",
                    f"token {tok.id} head {head} is out of range",
                    (tok.id,),
                )
            )
        if head == 0:
            roots.append(tok.id)
        if (head == 0) != (tok.deprel == "root"):
            diags.append(
                Diagnostic(
                    "root-deprel",
                    f"token {tok.id}: head {head} with deprel {tok.deprel!r}",
                    (tok.id,),
                )
            )

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
    """Cycles among tokens with ids 1..n: ``_cycles`` of their heads, a head
    outside 0..n taken as 0."""
    n = len(toks)
    return _cycles([0] + [t.head if 0 <= t.head <= n else 0 for t in toks])


def _cycles(heads: list[int]) -> list[frozenset[int]]:
    """Cycles of ``heads`` (``heads[i]`` is token i's head, in 0..n, and
    ``heads[0]`` is 0), in walk order, each once: every token is walked
    toward head 0 until the walk meets a token that an earlier walk
    reached, or its own path."""
    n = len(heads) - 1
    walk = [0] * (n + 1)  # the walk that first reached each token
    walk[0] = -1
    cycles: list[frozenset[int]] = []
    for start in range(1, n + 1):
        cur = start
        while not walk[cur]:
            walk[cur] = start
            cur = heads[cur]
        if walk[cur] == start:
            members = [cur]
            nxt = heads[cur]
            while nxt != cur:
                members.append(nxt)
                nxt = heads[nxt]
            cycles.append(frozenset(members))
    return cycles


# ---------------------------------------------------------------------------
# Normalization and repair
# ---------------------------------------------------------------------------

def normalize(
    sentence: Sentence, label_map: Mapping[str, str] | None = None
) -> Sentence:
    """Relabel through ``label_map`` and repair structure into a valid tree.

    Repairs, in order: renumber token ids to 1..n (heads follow, with
    reset-style duplicate ids resolved to the nearest preceding occurrence),
    establish a single root (zero roots: shallowest cycle-free token;
    multiple roots: later ones re-attach to the first as parataxis),
    re-attach dangling heads to the root, break cycles by re-heading the
    smallest-id member to the root, and reconcile the deprel-root pairing.
    Every repair is logged as a diagnostic on the returned sentence.
    Token count is preserved and the result always passes ``validate``.
    """
    label_map = label_map or {}
    diags: list[Diagnostic] = []
    toks = [t.copy() for t in sentence.tokens]
    mwt = [replace(r) for r in sentence.mwt]
    empty = [replace(e) for e in sentence.empty_nodes]

    for tok in toks:
        mapped = label_map.get(tok.deprel)
        if mapped is not None and mapped != tok.deprel:
            diags.append(
                Diagnostic(
                    "relabel", f"token {tok.id}: {tok.deprel} -> {mapped}", (tok.id,)
                )
            )
            tok.deprel = mapped

    # From here on, token i is toks[i - 1].
    empty = _renumber(toks, mwt, empty, diags)

    n = len(toks)
    if n == 0:
        return replace(
            sentence, tokens=toks, mwt=mwt, empty_nodes=empty, diagnostics=diags
        )

    # Single root.
    roots = [t for t in toks if t.head == 0]
    if not roots:
        root_tok = _shallowest_cycle_free(toks)
        diags.append(Diagnostic("add-root", f"re-headed token {root_tok.id} to root",
                                (root_tok.id,)))
        root_tok.head = 0
        root_tok.deprel = "root"
    else:
        root_tok = roots[0]
        for extra in roots[1:]:
            extra.head = root_tok.id
            extra.deprel = "parataxis"
            diags.append(
                Diagnostic(
                    "extra-root",
                    f"re-attached extra root {extra.id} under {root_tok.id} "
                    "as parataxis",
                    (extra.id,),
                )
            )

    # Dangling heads and self-loops attach to the root.
    for tok in toks:
        if tok is root_tok:
            continue
        if tok.head == tok.id or not 0 < tok.head <= n:
            diags.append(
                Diagnostic(
                    "reattach",
                    f"re-headed token {tok.id} (head {tok.head}) to the root",
                    (tok.id,),
                )
            )
            tok.head = root_tok.id
            if tok.deprel == "root":
                tok.deprel = "dep"

    # Break remaining cycles: smallest-id member re-heads to the root. The
    # cycles are disjoint, and a re-head to the root makes no new one.
    for members in sorted(map(sorted, _find_cycles(toks))):
        fix = toks[members[0] - 1]
        diags.append(
            Diagnostic(
                "break-cycle",
                "broke cycle {" + ",".join(map(str, members)) + "} at token "
                f"{fix.id}",
                tuple(members),
            )
        )
        fix.head = root_tok.id
        if fix.deprel == "root":
            fix.deprel = "dep"

    # deprel "root" if and only if head 0.
    for tok in toks:
        if tok.head == 0 and tok.deprel != "root":
            diags.append(
                Diagnostic("root-label", f"token {tok.id} relabeled root", (tok.id,))
            )
            tok.deprel = "root"
        elif tok.head != 0 and tok.deprel == "root":
            diags.append(
                Diagnostic("root-label", f"token {tok.id} relabeled dep", (tok.id,))
            )
            tok.deprel = "dep"

    # Drop multiword ranges the repaired sentence cannot support.
    valid_mwt: list[MWTRange] = []
    for r, kept in _kept_ranges(mwt, n):
        if kept:
            valid_mwt.append(r)
        else:
            diags.append(
                Diagnostic("drop-mwt", f"dropped multiword range {r.start}-{r.end}")
            )
    return replace(
        sentence, tokens=toks, mwt=valid_mwt, empty_nodes=empty, diagnostics=diags
    )


def _kept_ranges(mwt: list[MWTRange], n: int) -> Iterator[tuple[MWTRange, bool]]:
    """Each multiword range by (start, end), with whether ``normalize`` keeps
    it: it spans two or more of tokens 1..n, after the last kept range."""
    prev_end = 0
    for r in sorted(mwt, key=lambda r: (r.start, r.end)):
        kept = prev_end < r.start < r.end <= n
        if kept:
            prev_end = r.end
        yield r, kept


def _renumber(toks: list[Token], mwt: list[MWTRange], empty: list[EmptyNode],
              diags: list[Diagnostic]) -> list[EmptyNode]:
    """Renumber ``toks`` and ``mwt`` to 1..n in place; return ``empty`` moved."""
    n = len(toks)
    old_ids = [t.id for t in toks]
    if old_ids == list(range(1, n + 1)):
        return empty
    diags.append(Diagnostic("renumber", f"renumbered token ids to 1..{n}"))
    positions: dict[int, list[int]] = {}
    for pos, tid in enumerate(old_ids):
        positions.setdefault(tid, []).append(pos)

    def resolve(old_head: int, dep_pos: int) -> int | None:
        # Nearest occurrence strictly before the dependent, else the first
        # after; mirrors mid-sentence index resets where references stay
        # local. A head that is the dependent's own unique id resolves to None.
        occ = positions.get(old_head, ())
        before = [p for p in occ if p < dep_pos]
        if before:
            return before[-1] + 1
        after = [p for p in occ if p > dep_pos]
        if after:
            return after[0] + 1
        return None

    old_first = {tid: occ[0] + 1 for tid, occ in positions.items()}

    def anchor_of(old_anchor: int) -> int:
        return old_first.get(old_anchor, 0)

    for pos, tok in enumerate(toks):
        tok.id = pos + 1
        if tok.head != 0:
            new_head = resolve(tok.head, pos)
            tok.head = n + 1 if new_head is None else new_head  # dangling, fixed later
        tok.deps = _map_deps(tok.deps, lambda head: resolve(head, pos), anchor_of)
    for r in mwt:
        r.start = anchor_of(r.start)
        r.end = anchor_of(r.end)
    # An empty node follows its anchor's first occurrence, and so do the
    # integer heads of its DEPS.
    return [_moved(node, anchor_of(node.anchor), old_first.get, anchor_of)
            for node in empty]


def _moved(node: EmptyNode, anchor: int, head: Callable[[int], int | None],
           anchors: Callable[[int], int | None]) -> EmptyNode:
    """``node`` at ``anchor``, its DEPS heads renumbered by ``_map_deps``."""
    columns = [f"{anchor}.{node.sub}", *node.columns[1:]]
    columns[8] = _map_deps(columns[8], head, anchors)
    return EmptyNode(anchor, node.sub, tuple(columns))


def _map_deps(deps: str, head: Callable[[int], int | None],
              anchor: Callable[[int], int | None]) -> str:
    """``deps`` with each ``head:deprel`` item's head renumbered: an integer
    head ``h`` to ``head(h)``, a decimal head ``a.b`` to ``anchor(a).b``;
    head 0 and anchor 0 stay 0. An item whose new head or anchor is None is
    dropped, and an emptied DEPS is ``_``. An item of any other form is
    kept as it is."""
    if deps == "_":
        return deps
    items = []
    for item in deps.split("|"):
        old, sep, deprel = item.partition(":")
        whole, dot, sub = old.partition(".")
        if not (sep and whole.isdecimal() and (not dot or sub.isdecimal())):
            items.append(item)
            continue
        new = int(whole)
        if new:  # head 0 and anchor 0 stay
            new = (anchor if dot else head)(new)
            if new is None:
                continue
        items.append(f"{new}{dot}{sub}:{deprel}")
    return "|".join(items) or "_"


def _shallowest_cycle_free(toks: list[Token]) -> Token:
    """Of tokens 1..n, none with head 0: the lowest (depth, id) among tokens
    off every cycle, else the first token. A walk up from a token off every
    cycle stops before it enters one, so it never revisits a token."""
    n = len(toks)
    on_cycle = set().union(*_find_cycles(toks))

    def depth(tok: Token) -> int:
        steps, head = 0, tok.head
        while 0 < head <= n and head not in on_cycle:
            steps, head = steps + 1, toks[head - 1].head
        return steps

    return min((t for t in toks if t.id not in on_cycle), key=depth, default=toks[0])


# ---------------------------------------------------------------------------
# Label maps
# ---------------------------------------------------------------------------

def load_label_map(source: str | Path | bytes | IO) -> dict[str, str]:
    """Load a two-column TSV (source_label TAB ud_label) deprel map."""
    return table_map(source, str, str, "a label")


def default_label_map() -> dict[str, str]:
    """The packaged ClearNLP-style to UD v2 deprel correspondence."""
    data = resources.files("cait").joinpath("data/deprel_map_clearnlp.tsv")
    with data.open("rb") as stream:
        return load_label_map(stream)
