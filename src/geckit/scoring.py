"""Corpus-level Precision / Recall / F0.5 scoring.

The scorer walks the corpus in order keeping running totals of correct,
proposed and gold edit counts. Gold files carry several annotators per
sentence; for each sentence the scorer evaluates every annotator's edit
set against the hypothesis edits and keeps the one that maximizes the
cumulative corpus (F0.5, n_correct, -n_proposed), lexicographically,
breaking remaining ties toward the lowest annotator id. This sequential
most-favorable-annotator rule is greedy, not a global optimum; it matches
the reference scorer's behavior.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple, Sequence

from .align import EditTable
from .corpus import Edit, GoldSentence, SystemOutput, check_aligned, tsv


class SentenceCounts(NamedTuple):
    """Edit-match counts for one sentence against one annotation."""

    n_correct: int
    n_proposed: int
    n_gold: int

    def plus(self, other: "SentenceCounts") -> "SentenceCounts":
        return SentenceCounts(
            self.n_correct + other.n_correct,
            self.n_proposed + other.n_proposed,
            self.n_gold + other.n_gold,
        )


class ScoreReport(NamedTuple):
    """Corpus totals plus the per-sentence annotator choices behind them.

    ``precision``, ``recall`` and ``f05`` are fractions in [0, 1]; use
    :func:`report_table` / :func:`report_tsv` for the conventional
    x100, one-decimal presentation.
    """

    precision: float
    recall: float
    f05: float
    totals: SentenceCounts
    per_sentence: tuple[tuple[int, SentenceCounts], ...]


def f_beta(p: float, r: float, beta: float = 0.5) -> float:
    """Weighted F-measure; 0.0 whenever either input is 0.

    >>> f_beta(0.5, 0.5)
    0.5
    """
    if p * r == 0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r)


def prf(totals: SentenceCounts) -> tuple[float, float, float]:
    """Precision, recall and F0.5 of edit counts.

    Zero-denominator conventions: no proposals means perfect precision, no
    gold edits means perfect recall.

    >>> prf(SentenceCounts(0, 0, 0))
    (1.0, 1.0, 1.0)
    """
    return _prf(*totals)


def _prf(n_correct: int, n_proposed: int, n_gold: int) -> tuple[float, float, float]:
    """:func:`prf` of the three counts, without a :class:`SentenceCounts`."""
    p = n_correct / n_proposed if n_proposed else 1.0
    r = n_correct / n_gold if n_gold else 1.0
    return p, r, f_beta(p, r)


def best_annotator(
    hyp_edits: Sequence[Edit], gold: GoldSentence, base: SentenceCounts = SentenceCounts(0, 0, 0)
) -> tuple[int, SentenceCounts, tuple[float, int, int]]:
    """The annotator of ``gold`` that scores ``hyp_edits`` best on top of ``base``.

    Returns the annotator id, the sentence's counts against that annotator
    and the key ``(F0.5, n_correct, -n_proposed)`` of ``base`` plus those
    counts, which the annotator maximizes. The lowest id wins full ties.
    """
    hyp = set(hyp_edits)
    n_proposed = base.n_proposed + len(hyp)
    best_key: tuple[float, int, int] | None = None
    for ann_id, ann in enumerate(gold.annotations):
        # prf(base.plus(counts)) without building either tuple; an
        # annotation holds no two equal edits (they would conflict)
        n_correct = base.n_correct + len(hyp.intersection(ann))
        key = (_prf(n_correct, n_proposed, base.n_gold + len(ann))[2], n_correct, -n_proposed)
        if best_key is None or key > best_key:
            best_id, best_key = ann_id, key
    assert best_key is not None  # GoldSentence guarantees >= 1 annotation
    counts = SentenceCounts(
        best_key[1] - base.n_correct, len(hyp), len(gold.annotations[best_id])
    )
    return best_id, counts, best_key


def score_corpus(
    hypothesis: SystemOutput,
    gold: Sequence[GoldSentence],
    table: EditTable,
) -> ScoreReport:
    """Score a system against a multi-annotator gold corpus.

    Hypothesis edits against each gold source are read from ``table``, so a
    table shared with the method that built the hypothesis extracts each
    pair once. Raises :class:`ValidationError` when the hypothesis and gold
    corpus lengths differ.
    """
    check_aligned([hypothesis], len(gold))
    totals = SentenceCounts(0, 0, 0)
    chosen: list[tuple[int, SentenceCounts]] = []
    for gs, hyp_sentence in zip(gold, hypothesis.sentences):
        ann_id, counts, _ = best_annotator(table.edits(gs.source, hyp_sentence), gs, totals)
        totals = totals.plus(counts)
        chosen.append((ann_id, counts))
    p, r, f = prf(totals)
    return ScoreReport(p, r, f, totals, tuple(chosen))


# ---------------------------------------------------------------------------
# Presentation

_REPORT_COLUMNS = ("P", "R", "F0.5", "n_correct", "n_proposed", "n_gold")


def round_score(fraction: float) -> float:
    """Scale a [0,1] fraction to x100 and round half-up to 1 decimal."""
    return float((Decimal(repr(fraction)) * 100).quantize(Decimal("0.1"), ROUND_HALF_UP))


def score_cell(fraction: float) -> str:
    """A [0,1] fraction as a report cell: :func:`round_score` to one decimal."""
    return f"{round_score(fraction):.1f}"


def _report_row(report: ScoreReport) -> tuple[str, ...]:
    cells = map(score_cell, (report.precision, report.recall, report.f05))
    return (*cells, *map(str, report.totals))  # SentenceCounts is in column order


def report_tsv(report: ScoreReport) -> str:
    return tsv(_REPORT_COLUMNS, [_report_row(report)])


def report_table(report: ScoreReport) -> str:
    row = _report_row(report)
    widths = [max(len(h), len(v)) for h, v in zip(_REPORT_COLUMNS, row)]
    head = "  ".join(h.rjust(w) for h, w in zip(_REPORT_COLUMNS, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(row, widths))
    return head + "\n" + body + "\n"
