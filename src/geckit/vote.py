"""Majority-vote ensembling over edit spans.

Every member system's output is reduced to an edit set against the shared
source; identical edits (same span, same replacement) pool their votes.
Edits surviving the vote threshold are applied greedily in decreasing-vote
order, skipping anything that conflicts with an edit already applied.
Second-order ensembling is the same operation with ensemble outputs as the
members; there is no separate code path.

All tie-breaking depends only on edit content, so results are invariant
under reordering of the member systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .align import EditTable, apply_edits
from .corpus import Edit, SystemOutput, TokenSentence, ValidationError, check_aligned, conflicts


@dataclass(frozen=True)
class VotedEdit:
    """An edit plus the members that proposed it."""

    edit: Edit
    systems: frozenset[str]

    @property
    def votes(self) -> int:
        return len(self.systems)


def pool_edits(
    source: TokenSentence,
    outputs: Sequence[tuple[str, TokenSentence]],
    table: EditTable | None = None,
) -> list[VotedEdit]:
    """Pool all member edits for one sentence, read from ``table``.

    Returns one :class:`VotedEdit` per distinct (start, end, replacement)
    key, sorted by position.
    """
    if table is None:
        table = EditTable()
    by_edit: dict[Edit, set[str]] = {}
    for name, sentence in outputs:
        for edit in table.edits(source, sentence):
            by_edit.setdefault(edit, set()).add(name)
    return [VotedEdit(edit, frozenset(names)) for edit, names in sorted(by_edit.items())]


def majority_vote(
    source: TokenSentence,
    outputs: Sequence[tuple[str, TokenSentence]],
    n_min: int,
    table: EditTable | None = None,
) -> TokenSentence:
    """Apply the edits proposed by strictly more than ``n_min`` members.

    Surviving edits are applied in decreasing-vote order (vote ties by
    (start, end, replacement)); an edit conflicting with one already
    applied is skipped.
    """
    kept = voted_edits(source, outputs, n_min, table)
    return apply_edits(source, kept)


def voted_edits(
    source: TokenSentence,
    outputs: Sequence[tuple[str, TokenSentence]],
    n_min: int,
    table: EditTable | None = None,
) -> list[Edit]:
    """The edit set majority_vote applies, in application order."""
    survivors = [ve for ve in pool_edits(source, outputs, table) if ve.votes > n_min]
    survivors.sort(key=lambda ve: (-ve.votes, ve.edit))
    kept: list[Edit] = []
    for ve in survivors:
        if not any(conflicts(ve.edit, k) for k in kept):
            kept.append(ve.edit)
    return kept


def majority_vote_corpus(
    sources: Sequence[TokenSentence],
    outputs: Sequence[SystemOutput],
    n_min: int,
    name: str | None = None,
    table: EditTable | None = None,
) -> SystemOutput:
    """Per-sentence majority vote over aligned member systems.

    The ensemble's name records the members and the threshold unless an
    explicit ``name`` is given. Member edits are read from ``table``, a
    new one when none is given.
    """
    check_aligned(outputs, len(sources))
    if not (0 <= n_min <= len(outputs)):
        raise ValidationError(f"n_min must be within 0..{len(outputs)}, got {n_min}")
    if table is None:
        table = EditTable()
    members = [out.name for out in outputs]
    sentences = []
    for i, source in enumerate(sources):
        per_system = [(out.name, out.sentences[i]) for out in outputs]
        try:
            sentences.append(majority_vote(source, per_system, n_min, table))
        except ValidationError as err:
            raise ValidationError(f"sentence {i}: {err}") from None
    label = name or f"majority-vote(n_min={n_min})[{'+'.join(members)}]"
    return SystemOutput(label, tuple(sentences))
