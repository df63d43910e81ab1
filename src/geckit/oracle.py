"""Gold-informed upper-bound baselines.

Two oracles bound what ensembling and ranking could ever achieve:

* Oracle-ensembling pools every member's edits and keeps those present in
  the gold annotation with the largest pool intersection, thinned so the
  applied set survives scoring re-extraction verbatim. Every edit the
  scorer sees is then a gold edit, keeping precision at 100.
* Oracle-ranking picks, per sentence, the member output with the best
  (F0.5, n_correct, -n_proposed) against its most favorable annotator.

Both emit audit records of what they chose for offline inspection. Edits
are read from an :class:`geckit.align.EditTable`, so scoring that shares
the table extracts nothing again.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .align import EditTable, apply_edits
from .corpus import (
    Edit, GoldSentence, SystemOutput, TokenSentence, ValidationError, check_aligned, tsv,
)
from .scoring import best_annotator


class OracleChoice(NamedTuple):
    """One oracle decision: which annotator and what was selected."""

    sentence_index: int
    method: str  # "oracle-ensemble" | "oracle-rank"
    annotator: int
    system: str | None  # ranking only
    n_selected: int


def _stable_subset(
    source: TokenSentence, edits: tuple[Edit, ...], table: EditTable
) -> tuple[Edit, ...]:
    """Greedily keep (in position order) edits whose application re-extracts
    verbatim.

    Canonical extraction merges touching spans back into one edit, so an
    intersection holding two adjacent gold edits would be scored as a single
    unknown edit and cost precision. Dropping the later edit of such a pair
    trades a little recall for the precision guarantee.
    """
    kept: list[Edit] = []
    for edit in edits:
        trial = kept + [edit]
        if table.edits(source, apply_edits(source, trial)) == trial:
            kept.append(edit)
    return tuple(kept)


def _ensemble_choice(
    gold: GoldSentence, sentences: Sequence[TokenSentence], table: EditTable
) -> tuple[TokenSentence, int, tuple[Edit, ...]]:
    """One sentence's oracle-ensemble output, annotator id and applied edits."""
    source = gold.source
    pool: set[Edit] = set()
    for sentence in sentences:
        pool.update(table.edits(source, sentence))
    best_id = 0
    best: set[Edit] = set()
    for ann_id, ann in enumerate(gold.annotations):
        selected = pool & set(ann)
        # Strictly larger wins; the lowest annotator id keeps ties.
        if ann_id == 0 or len(selected) > len(best):
            best_id, best = ann_id, selected
    chosen = tuple(sorted(best))
    applied = apply_edits(source, chosen)
    if table.edits(source, applied) != list(chosen):
        chosen = _stable_subset(source, chosen, table)
        applied = apply_edits(source, chosen)
    return applied, best_id, chosen


def oracle_ensemble_corpus(
    gold: Sequence[GoldSentence],
    outputs: Sequence[SystemOutput],
    table: EditTable,
) -> tuple[SystemOutput, list[OracleChoice]]:
    """Corpus-level oracle ensembling with an audit trail; edits are read
    from ``table``."""
    check_aligned(outputs, len(gold))
    sentences = []
    choices = []
    for i, gs in enumerate(gold):
        members = [out.sentences[i] for out in outputs]
        sentence, ann_id, selected = _ensemble_choice(gs, members, table)
        sentences.append(sentence)
        choices.append(OracleChoice(i, "oracle-ensemble", ann_id, None, len(selected)))
    return SystemOutput("oracle-ensemble", tuple(sentences)), choices


def oracle_rank_corpus(
    gold: Sequence[GoldSentence],
    outputs: Sequence[SystemOutput],
    table: EditTable,
) -> tuple[SystemOutput, list[OracleChoice]]:
    """Corpus-level oracle ranking with an audit trail.

    Each sentence takes the member output with the best (F0.5, n_correct,
    -n_proposed) against its most favorable annotator; full ties keep the
    earliest member in ``outputs``. Edits are read from ``table``.
    """
    if not outputs:
        raise ValidationError("oracle-rank needs at least one candidate")
    check_aligned(outputs, len(gold))
    sentences = []
    choices = []
    for i, gs in enumerate(gold):
        best = None
        for out in outputs:
            ann_id, counts, key = best_annotator(table.edits(gs.source, out.sentences[i]), gs)
            if best is None or key > best[0]:  # strictly better: the earliest keeps ties
                best = (key, out, ann_id, counts.n_correct)
        _, out, ann_id, n_correct = best
        sentences.append(out.sentences[i])
        choices.append(OracleChoice(i, "oracle-rank", ann_id, out.name, n_correct))
    return SystemOutput("oracle-rank", tuple(sentences)), choices


def choices_tsv(choices: Sequence[OracleChoice]) -> str:
    """Audit log: sentence index, method, annotator, system, n_selected."""
    return tsv(("sentence_index", "method", "annotator", "system", "n_selected"), (
        (f"{c.sentence_index}", c.method, f"{c.annotator}", c.system or "-", f"{c.n_selected}")
        for c in choices
    ))
