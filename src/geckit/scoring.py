"""Corpus-level Precision / Recall / F0.5 scoring.

The scorer walks the corpus in order keeping running totals of correct,
proposed and gold edit counts. Gold files carry several annotators per
sentence; for each sentence the scorer evaluates every annotator's edit
set against the hypothesis edits and keeps the one that maximizes the
cumulative corpus (F0.5, n_correct, -n_proposed), lexicographically,
breaking remaining ties toward the lowest annotator id. This sequential
most-favorable-annotator rule is greedy, not a global optimum; it matches
the reference scorer's behavior. A :class:`ScoreReport` is those three
totals; :func:`prf` alone turns counts into P, R and F0.5.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple, Sequence

from .align import EditTable
from .corpus import Edit, GoldSentence, SystemOutput, check_aligned, tsv


class ScoreReport(NamedTuple):
    """Corpus edit counts, in report column order. ``prf(*report)`` gives
    P, R and F0.5, fractions in [0, 1], and ``f05`` is its F0.5; use
    :func:`report_table` / :func:`report_tsv` for the conventional x100,
    one-decimal presentation.
    """

    n_correct: int
    n_proposed: int
    n_gold: int

    @property
    def f05(self) -> float:
        return prf(*self)[2]


def f_beta(p: float, r: float) -> float:
    """F0.5, weighting precision over recall; 0.0 whenever either input is 0.

    >>> f_beta(0.5, 0.5)
    0.5
    """
    if p * r == 0:
        return 0.0
    b2 = 0.25  # beta squared
    return (1 + b2) * p * r / (b2 * p + r)


def prf(n_correct: int, n_proposed: int, n_gold: int) -> tuple[float, float, float]:
    """Precision, recall and F0.5 of edit counts; ``prf(*report)`` for a
    :class:`ScoreReport`.

    Zero-denominator conventions: no proposals means perfect precision, no
    gold edits means perfect recall.

    >>> prf(0, 0, 0)
    (1.0, 1.0, 1.0)
    """
    p = n_correct / n_proposed if n_proposed else 1.0
    r = n_correct / n_gold if n_gold else 1.0
    return p, r, f_beta(p, r)


def choice_key(n_correct: int, n_proposed: int, n_gold: int) -> tuple[float, int, int]:
    """The order that picks an annotator, and oracle-rank's member: the
    greater ``(F0.5, n_correct, -n_proposed)`` of the counts wins."""
    return prf(n_correct, n_proposed, n_gold)[2], n_correct, -n_proposed


def best_annotator(
    hyp_edits: Sequence[Edit], gold: GoldSentence, base: ScoreReport = ScoreReport(0, 0, 0)
) -> tuple[int, ScoreReport]:
    """The annotator of ``gold`` that scores ``hyp_edits`` best on top of ``base``.

    Returns the annotator id and ``base`` plus the sentence's counts against
    that annotator, whose :func:`choice_key` the annotator maximizes. The
    lowest id wins full ties.
    """
    base_correct, n_proposed, base_gold = base
    hyp = set(hyp_edits)
    n_proposed += len(hyp)
    best_key: tuple[float, int, int] | None = None
    for ann_id, ann in enumerate(gold.annotations):
        # an annotation holds no two equal edits (they would conflict)
        n_correct = base_correct + len(hyp.intersection(ann))
        key = choice_key(n_correct, n_proposed, base_gold + len(ann))
        if best_key is None or key > best_key:
            best_id, best_key = ann_id, key
    assert best_key is not None  # GoldSentence guarantees >= 1 annotation
    n_gold = base_gold + len(gold.annotations[best_id])
    return best_id, ScoreReport(best_key[1], n_proposed, n_gold)


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
    totals = ScoreReport(0, 0, 0)
    for gs, hyp_sentence in zip(gold, hypothesis.sentences):
        _, totals = best_annotator(table.edits(gs.source, hyp_sentence), gs, totals)
    return totals


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
    return (*map(score_cell, prf(*report)), *map(str, report))  # the counts are in column order


def report_tsv(report: ScoreReport) -> str:
    return tsv(_REPORT_COLUMNS, [_report_row(report)])


def report_table(report: ScoreReport) -> str:
    row = _report_row(report)
    widths = [max(len(h), len(v)) for h, v in zip(_REPORT_COLUMNS, row)]
    head = "  ".join(h.rjust(w) for h, w in zip(_REPORT_COLUMNS, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(row, widths))
    return head + "\n" + body + "\n"
