"""Corpus data model and file formats.

Four file formats are handled here:

* M2 gold files: stanzas of one ``S`` source line followed by ``A`` edit
  lines, blank-line separated. Each ``A`` line carries a token span, an
  error type (parsed, then discarded), a replacement, two flag fields
  (ignored) and an annotator id.
* Parallel text: one tokenized sentence per line, aligned by line number
  across files.
* Score files: TSV with a ``system<TAB>sentence_index<TAB>score`` header,
  one row per (system, sentence) pair.
* Edit TSVs (``extract`` output, ``apply`` input): one row per edit under a
  ``sentence_index<TAB>start<TAB>end<TAB>replacement`` header.

Loaders name the file in every error. Checks across inputs live here too.

A checked record (:class:`GoldSentence`, :class:`SystemOutput` and
``experiment.ExperimentConfig``) has one way to be built: its ``__new__``,
through which :class:`CheckedRecord` routes ``_make`` and ``_replace``.
An edit set has one normal form, the sorted tuple :func:`check_edits`
returns. A replacement has one spelling in M2 files and edit TSVs:
:func:`_replacement_field` writes it and :func:`_replacement` reads it.

The TSV dialect is decided here alone: a header line, then one line per
row, fields separated by a tab, an LF after every line. :func:`tsv` writes
it and :func:`_tsv_rows` reads it. The other modules' tables (oracle
audits, clusters, similarity matrices, score reports, experiment rows,
sweeps and ablations) keep their column lists next to the records they
come from, and are written through :func:`tsv` too. A field never holds a
tab, CR or LF: names are checked as they come in (:func:`check_name`), and
:func:`tsv` refuses a row with a column too many or too few.

Tokenization is whitespace-only throughout and comparisons are
case-sensitive. All writes go through :func:`atomic_write_text` so readers
never observe a half-written file.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class ValidationError(ValueError):
    """Bad input: a missing or unreadable file, or data that breaks an invariant."""


class M2ParseError(ValidationError):
    """A structurally malformed M2 file (bad prefix, field count, span)."""


# M2 spelling of an empty replacement.
_M2_EMPTY = "-NONE-"


def _replacement_field(replacement: Sequence[str], sentence: int) -> str:
    """``replacement`` as an M2 or edit TSV field: its tokens joined by
    spaces, ``-NONE-`` for none. The one token ``-NONE-`` would read back as
    none, so it raises :class:`ValidationError` naming ``sentence``."""
    field = " ".join(replacement)
    if field == _M2_EMPTY:
        raise ValidationError(
            f"sentence {sentence}: replacement {_M2_EMPTY!r} would read back as a deletion"
        )
    return field or _M2_EMPTY


def _replacement(field: str) -> tuple[str, ...]:
    """The replacement an M2 or edit TSV field spells; the inverse of
    :func:`_replacement_field`."""
    return () if field.strip() == _M2_EMPTY else _tokens(field)


class TokenSentence(tuple):
    """A tokenized sentence: an immutable sequence of tokens.

    Tokens are non-empty and contain no whitespace, so joining with single
    spaces and re-splitting is an exact roundtrip.

    >>> s = TokenSentence.parse("I likes turtles .")
    >>> s[1]
    'likes'
    >>> TokenSentence.parse(s.text) == s
    True
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable[str] = ()) -> "TokenSentence":
        toks = tuple(tokens)
        for t in toks:
            if not isinstance(t, str) or not t:
                raise ValidationError(f"empty or non-string token: {t!r}")
            # str.split() separators are exactly the str.isspace() characters
            if t.split() != [t]:
                raise ValidationError(f"token contains whitespace: {t!r}")
        return super().__new__(cls, toks)

    @classmethod
    def parse(cls, text: str) -> "TokenSentence":
        """Split ``text`` on whitespace. The empty string gives zero tokens.

        Tokens are interned, as are the replacement tokens the M2 and edit
        TSV parsers read, so equal tokens read anywhere in one process are
        one string object. Equality and hashing still go by value. Interned
        strings are freed once unreferenced on CPython 3.10, 3.11 and 3.13
        but kept for the life of the process on 3.12; either way the cost
        is bounded by the vocabulary.
        """
        # str.split() yields only non-empty tokens free of every character
        # str.isspace() accepts, so the token checks of __new__ cannot fail.
        return tuple.__new__(cls, _tokens(text))

    @property
    def text(self) -> str:
        """Tokens joined by single spaces."""
        return " ".join(self)


def _tokens(text: str) -> tuple[str, ...]:
    """The whitespace tokens of ``text``, interned (see :meth:`TokenSentence.parse`)."""
    return tuple(map(sys.intern, text.split()))


def _sentence(text: str, lines: dict[str, TokenSentence] | None) -> TokenSentence:
    """``TokenSentence.parse(text)``, or the sentence ``lines`` already holds
    for this text, which then holds it for the next caller."""
    if lines is None:
        return TokenSentence.parse(text)
    sentence = lines.get(text)
    if sentence is None:
        sentence = lines[text] = TokenSentence.parse(text)
    return sentence


class Edit(NamedTuple):
    """A span replacement on a tokenized source sentence.

    Replaces ``source[start:end]`` with ``replacement``. ``start == end``
    is an insertion before position ``start``. An edit bound to a source
    must satisfy ``0 <= start <= end <= len(source)`` and must not be a
    no-op (``replacement != source[start:end]``).

    Edits compare and hash by value, so identical corrections proposed by
    different systems collapse to one key.
    """

    start: int
    end: int
    replacement: tuple[str, ...]


class OverlapError(ValidationError):
    """An edit set that cannot be applied to one source unambiguously."""


def conflicts(a: Edit, b: Edit) -> bool:
    """True iff two edits on the same source cannot both be applied.

    Two edits conflict when they start at the same index or one starts
    strictly inside the other's span. For spans that is intersection as
    half-open intervals. An insertion (start == end) conflicts with another
    edit starting at its index, since their order would be ambiguous, and
    with a span around it, which would swallow its position, but not with a
    span ending there:

    >>> conflicts(Edit(2, 2, ("x",)), Edit(2, 3, ("y",)))
    True
    >>> conflicts(Edit(2, 2, ("x",)), Edit(1, 2, ("y",)))
    False
    >>> conflicts(Edit(2, 2, ("x",)), Edit(1, 3, ("y",)))
    True
    """
    return a.start == b.start or a.start < b.start < a.end or b.start < a.start < b.end


def check_edits(source: Sequence[str], edits: Iterable[Edit]) -> tuple[Edit, ...]:
    """``edits`` sorted by (start, end), the normal form of an edit set;
    raise unless it is a valid edit set on ``source``.

    Every edit must lie within the source and change it
    (:class:`ValidationError`), and no two may :func:`conflicts`
    (:class:`OverlapError`). In sorted order, an edit that conflicts with
    a later one also conflicts with the next, so neighbours are compared.
    """
    ordered = tuple(sorted(edits, key=lambda e: (e.start, e.end)))
    for e in ordered:
        _check_span(source, e)
    for a, b in zip(ordered, ordered[1:]):
        _check_pair(a, b)
    return ordered


def _check_span(source: Sequence[str], e: Edit) -> None:
    if not (0 <= e.start <= e.end <= len(source)):
        raise ValidationError(
            f"edit span ({e.start},{e.end}) out of bounds for {len(source)}-token sentence"
        )
    if tuple(e.replacement) == tuple(source[e.start : e.end]):
        raise ValidationError(
            f"no-op edit at ({e.start},{e.end}): replacement equals source span"
        )


def _check_pair(a: Edit, b: Edit) -> None:
    if conflicts(a, b):
        raise OverlapError(f"conflicting edits: {a} / {b}")


class CheckedRecord:
    """First base of a ``NamedTuple`` subclass whose ``__new__`` checks its
    fields: ``_make`` and ``_replace`` build through that ``__new__`` too.
    An unknown field raises :class:`TypeError`, as in a call."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        return type(self)(**{**self._asdict(), **changes})


class _GoldFields(NamedTuple):
    source: TokenSentence
    annotations: tuple[tuple[Edit, ...], ...]


class GoldSentence(CheckedRecord, _GoldFields):
    """A source sentence with one edit set per annotator.

    ``annotations[k]`` is annotator ``k``'s complete correction of the
    source, in the normal form of :func:`check_edits`. An empty set is a
    valid annotation meaning "needs no correction". Annotator ids are the
    positions in the tuple, contiguous from 0.
    """

    __slots__ = ()

    def __new__(
        cls, source: Sequence[str], annotations: Iterable[Iterable[Edit]]
    ) -> GoldSentence:
        if not isinstance(source, TokenSentence):
            source = TokenSentence(source)
        anns = tuple(check_edits(source, ann) for ann in annotations)
        if not anns:
            raise ValidationError("a gold sentence needs at least one annotation set")
        return super().__new__(cls, source, anns)


class _SystemFields(NamedTuple):
    name: str
    sentences: tuple[TokenSentence, ...]


class SystemOutput(CheckedRecord, _SystemFields):
    """One system's corrected sentences, aligned 1:1 with the corpus."""

    __slots__ = ()

    def __new__(cls, name: str, sentences: Iterable[Sequence[str]]) -> SystemOutput:
        if not name:
            raise ValidationError("system name must be non-empty")
        sents = tuple(s if isinstance(s, TokenSentence) else TokenSentence(s) for s in sentences)
        return super().__new__(cls, name, sents)


def check_aligned(outputs: Sequence[SystemOutput], n: int) -> None:
    """Raise :class:`ValidationError` unless every output has ``n`` sentences."""
    for out in outputs:
        if len(out.sentences) != n:
            raise ValidationError(
                f"system {out.name!r} has {len(out.sentences)} sentences, expected {n}"
            )


def check_name(kind: str, name: str) -> None:
    """Raise :class:`ValidationError` unless ``name`` can be a TSV field:
    non-empty, with no tab, CR or LF."""
    if not name:
        raise ValidationError(f"{kind} name must be non-empty")
    if "\t" in name or "\r" in name or "\n" in name:
        raise ValidationError(f"{kind} name {name!r} contains a tab or a line break")


def check_unique_names(names: Iterable[str]) -> None:
    """Raise :class:`ValidationError` naming the first system name given
    twice, or the first that :func:`check_name` rejects."""
    seen: set[str] = set()
    for name in names:
        check_name("system", name)
        if name in seen:
            raise ValidationError(f"duplicate system name {name!r}")
        seen.add(name)


def parse_system_spec(spec: str) -> tuple[str, Path]:
    """Split a ``name=path`` member spec; a bare path is named by its file stem."""
    name, sep, path = spec.partition("=")
    return (name, Path(path)) if sep else (Path(spec).stem, Path(spec))


# ---------------------------------------------------------------------------
# M2 gold files


def parse_m2(text: str, lines: dict[str, TokenSentence] | None = None) -> list[GoldSentence]:
    """Parse M2 text into gold sentences.

    Edit type strings are discarded: edit identity is (start, end,
    replacement). A ``-1 -1`` span marks an annotator's explicit "no
    correction needed" and yields an empty edit set for that annotator.
    A stanza with no ``A`` lines gets a single empty annotation set.
    Annotator ids are compacted to contiguous integers from 0, in
    ascending order of the ids found in the file.

    Raises :class:`M2ParseError` (with the 1-based line number) on
    malformed lines, and what :func:`check_edits` raises on an annotator's
    edit set it rejects, naming the stanza's line.

    ``lines`` maps line text to its sentence, shared across loads (see
    :func:`load_parallel`); the text of an ``S`` line is what follows
    ``"S "``.
    """
    sentences: list[GoldSentence] = []
    source: TokenSentence | None = None
    by_annotator: dict[int, list[Edit]] = {}
    stanza_line = 0

    def flush() -> None:
        nonlocal source, by_annotator
        if source is None:
            return
        # GoldSentence puts each annotator's edits in normal form
        anns = [by_annotator[k] for k in sorted(by_annotator)] or [()]
        try:
            sentences.append(GoldSentence(source, anns))
        except ValidationError as err:
            raise type(err)(f"stanza at line {stanza_line}: {err}") from None
        source, by_annotator = None, {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("S ") or line == "S":
            if source is not None:
                raise M2ParseError(f"line {lineno}: stanza has a second S line")
            source = _sentence(line[2:], lines)
            stanza_line = lineno
            if not source:
                raise M2ParseError(f"line {lineno}: empty source sentence")
        elif line.startswith("A "):
            if source is None:
                raise M2ParseError(f"line {lineno}: A line before any S line")
            fields = line[2:].split("|||")
            if len(fields) != 6:
                raise M2ParseError(
                    f"line {lineno}: expected 6 |||-separated fields, got {len(fields)}"
                )
            span = fields[0].split()
            if len(span) != 2:
                raise M2ParseError(f"line {lineno}: span must be two integers")
            try:
                start, end = int(span[0]), int(span[1])
            except ValueError:
                raise M2ParseError(f"line {lineno}: non-integer span {fields[0]!r}") from None
            try:
                annotator = int(fields[5])
            except ValueError:
                raise M2ParseError(
                    f"line {lineno}: non-integer annotator id {fields[5]!r}"
                ) from None
            edits = by_annotator.setdefault(annotator, [])
            if start == -1 and end == -1:
                continue  # noop marker: annotator registered, no edit
            edits.append(Edit(start, end, _replacement(fields[2])))
        else:
            raise M2ParseError(f"line {lineno}: expected S or A prefix: {line!r}")
    flush()
    return sentences


def serialize_m2(sentences: Sequence[GoldSentence]) -> str:
    """Render gold sentences as M2 text; inverse of :func:`parse_m2`.

    Types are emitted as ``UNK`` (they are not modeled), empty replacements
    in the M2 spelling, and explicit empty annotation sets as ``noop``
    lines, so ``parse_m2(serialize_m2(xs)) == xs``; a replacement that
    :func:`_replacement_field` refuses raises :class:`ValidationError`.
    """
    chunks: list[str] = []
    for i, gs in enumerate(sentences):
        lines = [f"S {gs.source.text}"]
        for ann_id, ann in enumerate(gs.annotations):
            if not ann:
                lines.append(f"A -1 -1|||noop|||{_M2_EMPTY}|||REQUIRED|||{_M2_EMPTY}|||{ann_id}")
                continue
            for e in ann:
                repl = _replacement_field(e.replacement, i)
                lines.append(
                    f"A {e.start} {e.end}|||UNK|||{repl}|||REQUIRED|||{_M2_EMPTY}|||{ann_id}"
                )
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def load_m2(
    path: str | Path, lines: dict[str, TokenSentence] | None = None
) -> list[GoldSentence]:
    return _load(parse_m2, path, lines)


def check_source_file(
    path: str | Path,
    gold: Sequence[GoldSentence],
    lines: dict[str, TokenSentence] | None = None,
) -> None:
    """Raise :class:`ValidationError` unless the parallel file at ``path``
    holds exactly the source sentences of ``gold``."""
    sources = load_parallel(path, expected_len=len(gold), lines=lines)
    for i, (a, gs) in enumerate(zip(sources, gold)):
        if a != gs.source:
            raise ValidationError(f"{path}: sentence {i} disagrees with the gold M2 source")


def save_m2(path: str | Path, sentences: Sequence[GoldSentence]) -> None:
    atomic_write_text(path, serialize_m2(sentences))


# ---------------------------------------------------------------------------
# Parallel text files


def load_parallel(
    path: str | Path,
    expected_len: int | None = None,
    lines: dict[str, TokenSentence] | None = None,
) -> list[TokenSentence]:
    """Read one sentence per line.

    Raises :class:`ValidationError` on empty lines (a sentence must have at
    least one token) or when the file does not have ``expected_len`` lines.

    ``lines`` maps the text of a line (without its CR or LF) to its
    sentence. Loads given one dict return one sentence object per distinct
    line text: members mostly repeat the source and each other, so a
    corpus then holds one tuple per distinct line. Equality still goes by
    value. The dict lives as long as its owner keeps it: there is no
    global cache.
    """
    text = read_text(path)
    if text.endswith("\n"):
        text = text[:-1]
    rows = text.split("\n") if text else []
    sentences = []
    for lineno, line in enumerate(rows, start=1):
        s = _sentence(line.rstrip("\r"), lines)
        if not s:
            raise ValidationError(f"{path}: line {lineno} is empty")
        sentences.append(s)
    if expected_len is not None and len(sentences) != expected_len:
        raise ValidationError(
            f"{path}: expected {expected_len} sentences, found {len(sentences)}"
        )
    return sentences


def save_parallel(path: str | Path, sentences: Iterable[TokenSentence]) -> None:
    atomic_write_text(path, serialize_parallel(sentences))


def serialize_parallel(sentences: Iterable[TokenSentence]) -> str:
    return "".join(s.text + "\n" for s in sentences)


def load_system_output(
    path: str | Path,
    name: str | None = None,
    expected_len: int | None = None,
    lines: dict[str, TokenSentence] | None = None,
) -> SystemOutput:
    """Read a parallel text file as a named system; name defaults to the
    file stem. ``lines`` is :func:`load_parallel`'s."""
    p = Path(path)
    return SystemOutput(name or p.stem, tuple(load_parallel(p, expected_len, lines)))


# ---------------------------------------------------------------------------
# Score files

SCORE_FILE_HEADER = ("system", "sentence_index", "score")


def tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """TSV text of string ``rows`` under the column names ``header``; the
    inverse of :func:`_tsv_rows`.

    >>> tsv(("a", "b"), [("1", "x y")])
    'a\\tb\\n1\\tx y\\n'
    """
    text = "\n".join(["\t".join(header), *map("\t".join, rows)]) + "\n"
    # a field holding a tab or a line break, or a row of the wrong length,
    # puts a line off the header's count of tabs
    if "\r" in text or text.count("\t") != (len(header) - 1) * text.count("\n"):
        raise ValidationError(f"TSV rows need {len(header)} fields free of tabs and line breaks")
    return text


def _tsv_rows(text: str, header: Sequence[str], kind: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row below the exact ``header``."""
    lines = text.rstrip("\n").split("\n")
    expected = "\t".join(header)
    if lines[0].rstrip("\r") != expected:
        raise ValidationError(f"{kind} file must start with header {expected!r}")
    n_columns = len(header)
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != n_columns:
            raise ValidationError(f"{kind} file line {lineno}: expected {n_columns} columns")
        yield lineno, parts


def parse_score_file(text: str) -> dict[tuple[str, int], float]:
    """Parse score TSV into per-sentence quality scores keyed by (system
    name, sentence index). Requires the exact header; rejects duplicate
    keys and non-finite scores, which no comparison could rank."""
    scores: dict[tuple[str, int], float] = {}
    for lineno, parts in _tsv_rows(text, SCORE_FILE_HEADER, "score"):
        try:
            key = (parts[0], int(parts[1]))
            value = float(parts[2])
        except ValueError:
            raise ValidationError(f"score file line {lineno}: bad index or score") from None
        if not math.isfinite(value):
            raise ValidationError(f"score file line {lineno}: non-finite score {parts[2]!r}")
        if key in scores:
            raise ValidationError(f"score file line {lineno}: duplicate entry for {key}")
        scores[key] = value
    return scores


def load_score_file(path: str | Path) -> dict[tuple[str, int], float]:
    return _load(parse_score_file, path)


# ---------------------------------------------------------------------------
# Edit TSVs

EDIT_TSV_HEADER = ("sentence_index", "start", "end", "replacement")


def serialize_edit_tsv(edits: Sequence[Sequence[Edit]]) -> str:
    """Render one edit list per sentence as TSV; inverse of :func:`parse_edit_tsv`.
    A replacement that :func:`_replacement_field` refuses raises
    :class:`ValidationError`."""
    return tsv(EDIT_TSV_HEADER, (
        (f"{i}", f"{e.start}", f"{e.end}", _replacement_field(e.replacement, i))
        for i, sentence_edits in enumerate(edits) for e in sentence_edits
    ))


def parse_edit_tsv(text: str, sources: Sequence[Sequence[str]]) -> list[list[Edit]]:
    """Parse edit TSV into one edit list per sentence of ``sources``.

    Edits keep their file order. Each row is checked as it is read: with
    the rows before it, its sentence's edits must pass :func:`check_edits`.
    Since those rows have passed already, only the new row is checked: its
    span, then against each earlier row of its sentence, in file order.
    """
    n = len(sources)
    edits: list[list[Edit]] = [[] for _ in range(n)]
    for lineno, parts in _tsv_rows(text, EDIT_TSV_HEADER, "edit"):
        try:
            index, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"edit file line {lineno}: non-integer field") from None
        if not 0 <= index < n:
            raise ValidationError(f"edit file line {lineno}: sentence {index} not in 0..{n - 1}")
        edit = Edit(start, end, _replacement(parts[3]))
        prior = edits[index]
        try:
            _check_span(sources[index], edit)
            for a in prior:
                _check_pair(a, edit)
        except ValidationError as err:
            raise type(err)(f"edit file line {lineno}: {err}") from None
        prior.append(edit)
    return edits


def load_edit_tsv(path: str | Path, sources: Sequence[Sequence[str]]) -> list[list[Edit]]:
    return _load(parse_edit_tsv, path, sources)


# ---------------------------------------------------------------------------


# Why the file system refuses a path, by errno, for inputs and outputs alike
_PATH_REASONS = {
    errno.ENOENT: "no such file",
    errno.EISDIR: "is a directory, not a file",
    errno.ENOTDIR: "a parent is a file, not a directory",
    errno.EACCES: "permission denied",
    errno.EPERM: "permission denied",
    errno.ENAMETOOLONG: "a name in the path is too long",
    errno.ELOOP: "symbolic links in the path form a loop",
    errno.EROFS: "read-only file system",
}


def _refused(path: str | Path, err: BaseException) -> BaseException:
    """``err`` as a :class:`ValidationError` naming ``path`` if it refuses the path."""
    if isinstance(err, OSError) and err.errno in _PATH_REASONS:
        return ValidationError(f"{path}: {_PATH_REASONS[err.errno]}")
    return err


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file at ``path``, with universal newlines and
    without a leading byte-order mark.

    Every input file is read here, so an input that the file system refuses
    (see ``_PATH_REASONS``) or that is not UTF-8 raises
    :class:`ValidationError` naming the file. Other I/O failures propagate.
    """
    try:  # the mark is dropped after decoding, so error offsets are file offsets
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as err:
        raise _refused(path, err) from None
    except UnicodeDecodeError as err:  # decoded in one piece: err.start is a file offset
        byte = err.object[err.start]
        raise ValidationError(
            f"{path}: not UTF-8: byte 0x{byte:02x} at offset {err.start}"
        ) from None


def _load(parse: Callable, path: str | Path, *args):
    """``parse`` the text of the file at ``path``; errors name the file."""
    text = read_text(path)
    try:
        return parse(text, *args)
    except ValidationError as err:
        raise type(err)(f"{path}: {err}") from None


def check_output(path: str | Path) -> None:
    """Raise :class:`ValidationError` naming ``path`` unless a file can be written
    there: it is no directory, the nearest of its parents that exists is one
    and may be written in, and no name in it is refused (``_PATH_REASONS``).
    Creates nothing."""
    target = Path(path)
    for place in (target, *target.parents):
        try:  # os.stat follows links, so a link loop is an error, not a missing file
            is_dir = stat.S_ISDIR(os.stat(place).st_mode)
        except FileNotFoundError:
            continue
        except OSError as err:
            raise _refused(path, err) from None
        if is_dir == (place is target):  # a directory target, or a parent that is not one
            raise _refused(path, OSError(errno.EISDIR if is_dir else errno.ENOTDIR, ""))
        folder = target.parent if place is target else place
        if not os.access(folder, os.W_OK | os.X_OK):
            read_only = os.statvfs(folder).f_flag & os.ST_RDONLY
            raise _refused(path, OSError(errno.EROFS if read_only else errno.EACCES, ""))
        return


def _file_id(path: str | Path) -> object:
    """What names the file at ``path``: its device and inode if it exists, as
    ``os.path.samefile`` compares them, so links to one file are one file;
    else its ``os.path.realpath``, which a symlink loop does not make raise,
    as it does ``Path.resolve`` before Python 3.13."""
    try:
        st = os.stat(path)
    except OSError:  # missing or refused: its reader or check_output says why
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def check_plan(reads: Iterable[tuple[str, str | Path]],
               writes: Iterable[tuple[str, str | Path]]) -> None:
    """Raise :class:`ValidationError` unless a command may write each of
    ``writes``, (role, path) pairs in the order written, after reading
    ``reads``: :func:`check_output` passes each, and no two writes, nor a
    write and a read, are one file. Reads no file."""
    read_as: dict[object, str] = {}
    for role, path in reads:
        read_as.setdefault(_file_id(path), role)
    named: dict[object, str] = {}
    for role, path in writes:
        check_output(path)
        file = _file_id(path)
        if file in named:
            raise ValidationError(f"{path}: named by both {named[file]} and {role}")
        if file in read_as:
            raise ValidationError(f"{path}: named by {role} and read as {read_as[file]}")
        named[file] = role


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so partial output is never visible.
    A ``path`` that :func:`check_output` refuses raises its error first. The
    file gets the mode ``open(path, "w")`` would give it: an existing file
    keeps its mode, and a new one gets ``0o666`` less the umask."""
    check_output(path)
    dest = Path(path)
    try:
        dest.parent.mkdir(parents=True, exist_ok=True)
        # The temp name keeps at most 32 characters of the target's: at most
        # 142 bytes in all, so it fits wherever a 255-byte name does
        fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=f".{dest.name[:32]}.", suffix=".tmp")
    except OSError as err:
        check_output(path)  # the path may have changed since it was checked
        raise _refused(path, err) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, _mode(dest))  # mkstemp made it 0o600
        os.replace(tmp, dest)
    except BaseException as err:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise _refused(path, err) from None


def _mode(path: Path) -> int:
    """The permission bits ``open(path, "w")`` leaves the file at ``path`` with."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # The umask is read by setting it, for the whole process: a file that
        # another thread creates between these two calls gets 0o022
        umask = os.umask(0o022)
        os.umask(umask)
        return 0o666 & ~umask
