"""Gold-informed upper-bound baselines.

Two oracles bound what ensembling and ranking could ever achieve:

* Oracle-ensembling pools every member's edits and keeps those present in
  the gold annotation with the largest pool intersection, thinned so the
  applied set survives scoring re-extraction verbatim. Every edit the
  scorer sees is then a gold edit, keeping precision at 100.
* Oracle-ranking picks, per sentence, the member output with the best
  (F0.5, n_correct, -n_proposed) against its most favorable annotator.

Both emit audit records of what they chose for offline inspection. Edits
come from the caller's ``extract`` function (see :data:`geckit.align.Extract`),
so scoring that shares a cached one extracts nothing again.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .align import Extract, apply_edits
from .corpus import (
    Edit, GoldSentence, SystemOutput, TokenSentence, ValidationError, check_aligned, tsv,
)
from .scoring import best_annotator, choice_key


class OracleChoice(NamedTuple):
    """One oracle decision: which annotator and what was selected."""

    sentence_index: int
    method: str  # "oracle-ensemble" | "oracle-rank"
    annotator: int
    system: str | None  # ranking only
    n_selected: int


def _stable_subset(
    source: TokenSentence, edits: tuple[Edit, ...], extract: Extract
) -> tuple[Edit, ...]:
    """Greedily keep (in position order) edits whose application re-extracts
    verbatim.

    Canonical extraction merges touching spans back into one edit, so an
    intersection holding two adjacent gold edits would be scored as a single
    unknown edit and cost precision. Dropping the later edit of such a pair
    trades a little recall for the precision guarantee.
    """
    kept: tuple[Edit, ...] = ()
    for edit in edits:
        trial = (*kept, edit)
        if extract(source, apply_edits(source, trial)) == trial:
            kept = trial
    return kept


def _ensemble_choice(
    gold: GoldSentence, sentences: Sequence[TokenSentence], extract: Extract
) -> tuple[TokenSentence, int, tuple[Edit, ...]]:
    """One sentence's oracle-ensemble output, annotator id and applied edits."""
    source = gold.source
    pool: set[Edit] = set()
    for sentence in sentences:
        pool.update(extract(source, sentence))
    best_id = 0
    best: set[Edit] = set()
    for ann_id, ann in enumerate(gold.annotations):
        selected = pool & set(ann)
        # Strictly larger wins; the lowest annotator id keeps ties.
        if ann_id == 0 or len(selected) > len(best):
            best_id, best = ann_id, selected
    chosen = tuple(sorted(best))
    applied = apply_edits(source, chosen)
    if extract(source, applied) != chosen:
        chosen = _stable_subset(source, chosen, extract)
        applied = apply_edits(source, chosen)
    return applied, best_id, chosen


def oracle_ensemble_corpus(
    gold: Sequence[GoldSentence],
    outputs: Sequence[SystemOutput],
    extract: Extract,
) -> tuple[SystemOutput, list[OracleChoice]]:
    """Corpus-level oracle ensembling with an audit trail; edits come from
    ``extract``."""
    check_aligned(outputs, len(gold))
    sentences = []
    choices = []
    for i, gs in enumerate(gold):
        members = [out.sentences[i] for out in outputs]
        sentence, ann_id, selected = _ensemble_choice(gs, members, extract)
        sentences.append(sentence)
        choices.append(OracleChoice(i, "oracle-ensemble", ann_id, None, len(selected)))
    return SystemOutput("oracle-ensemble", tuple(sentences)), choices


def oracle_rank_corpus(
    gold: Sequence[GoldSentence],
    outputs: Sequence[SystemOutput],
    extract: Extract,
) -> tuple[SystemOutput, list[OracleChoice]]:
    """Corpus-level oracle ranking with an audit trail.

    Each sentence takes the member output with the best
    :func:`geckit.scoring.choice_key` against its most favorable annotator;
    full ties keep the earliest member in ``outputs``. Edits come from ``extract``.
    """
    if not outputs:
        raise ValidationError("oracle-rank needs at least one candidate")
    check_aligned(outputs, len(gold))
    sentences = []
    choices = []
    for i, gs in enumerate(gold):
        best = None
        for out in outputs:
            ann_id, counts = best_annotator(extract(gs.source, out.sentences[i]), gs)
            key = choice_key(*counts)
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
