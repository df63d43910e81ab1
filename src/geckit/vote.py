"""Majority-vote ensembling over edit spans.

Every member system's output is reduced to an edit set against the shared
source; identical edits (same span, same replacement) pool their votes.
Edits surviving the vote threshold are applied greedily in decreasing-vote
order, skipping anything that conflicts with an edit already applied.
Second-order ensembling is the same operation with ensemble outputs as the
members; there is no separate code path. Pooling and thresholding are two
steps, so the runs of a threshold sweep or a remove-one ablation pool each
sentence once over the full member list and each count only their own
members' votes.

All tie-breaking depends only on edit content, so results are invariant
under reordering of the member systems.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .align import EditTable, apply_edits
from .corpus import Edit, SystemOutput, TokenSentence, ValidationError, check_aligned, conflicts


class VotedEdit(NamedTuple):
    """An edit plus the members that proposed it.

    The pools of one :func:`pool_corpus` share one ``systems`` frozenset
    per distinct member subset; equality still goes by value.
    """

    edit: Edit
    systems: frozenset[str]

    @property
    def votes(self) -> int:
        return len(self.systems)


def pool_edits(
    source: TokenSentence,
    outputs: Sequence[tuple[str, TokenSentence]],
    table: EditTable,
    voters: dict[frozenset[str], frozenset[str]],
) -> list[VotedEdit]:
    """Pool all member edits for one sentence, read from ``table``.

    Returns one :class:`VotedEdit` per distinct (start, end, replacement)
    key, sorted by position. Each voter set already in ``voters`` is reused,
    and each new one added.
    """
    by_edit: dict[Edit, set[str]] = {}
    for name, sentence in outputs:
        for edit in table.edits(source, sentence):
            by_edit.setdefault(edit, set()).add(name)
    pool = []
    for edit, names in sorted(by_edit.items()):
        systems = frozenset(names)
        pool.append(VotedEdit(edit, voters.setdefault(systems, systems)))
    return pool


def _kept_edits(pool: Sequence[VotedEdit], members: frozenset[str], n_min: int) -> list[Edit]:
    """The edits of ``pool`` that strictly more than ``n_min`` of ``members``
    proposed, in application order: decreasing votes, ties by (start, end,
    replacement), each skipped if it conflicts with an edit kept before it.

    Only the votes of ``members`` count, so a pool built over more systems
    serves every subset of them.
    """
    survivors = []
    for ve in pool:
        votes = len(ve.systems & members)
        if votes > n_min:
            survivors.append((-votes, ve.edit))
    survivors.sort()
    kept: list[Edit] = []
    for _, edit in survivors:
        if not any(conflicts(edit, k) for k in kept):
            kept.append(edit)
    return kept


def pool_corpus(
    sources: Sequence[TokenSentence],
    outputs: Sequence[SystemOutput],
    table: EditTable,
) -> list[list[VotedEdit]]:
    """Each sentence's :func:`pool_edits` over all of ``outputs``: the pools
    :func:`majority_vote_corpus` counts votes in.

    A sweep or ablation pools once over its full member list and passes the
    result to every run over those members.
    Pooled edits with the same voters share one ``systems`` frozenset.
    """
    check_aligned(outputs, len(sources))
    voters: dict[frozenset[str], frozenset[str]] = {}
    return [
        pool_edits(source, [(out.name, out.sentences[i]) for out in outputs], table, voters)
        for i, source in enumerate(sources)
    ]


def majority_vote_corpus(
    sources: Sequence[TokenSentence],
    pools: Sequence[Sequence[VotedEdit]],
    members: Sequence[str],
    n_min: int,
    applied: dict[tuple, TokenSentence] | None = None,
) -> SystemOutput:
    """Per-sentence majority vote of ``members`` over ``pools``.

    ``pools`` is :func:`pool_corpus` of ``sources`` over the systems named
    ``members``, or over more systems that include them, of which only the
    votes of ``members`` count. Each sentence gets the edits that strictly
    more than ``n_min`` members proposed, applied in the order and with the
    skips of :func:`_kept_edits`. The ensemble's name records the members
    and the threshold.

    ``applied`` is for sweeps and ablations: the output sentence of each
    (sentence index, kept edit set) that runs over these pools applied
    before, so equal kept sets are applied once. Its keys are flat
    ``(index, *edits)`` tuples, the edits sorted: a kept set is
    conflict-free and :func:`apply_edits` ignores its order. Without it,
    every edited sentence is applied.
    """
    if len(pools) != len(sources):
        raise ValidationError(f"{len(pools)} vote pools for {len(sources)} sentences")
    if not (0 <= n_min <= len(members)):
        raise ValidationError(f"n_min must be within 0..{len(members)}, got {n_min}")
    voters = frozenset(members)
    sentences = []
    for i, (source, pool) in enumerate(zip(sources, pools)):
        kept = _kept_edits(pool, voters, n_min)
        if not kept:  # apply_edits(source, []) equals source
            sentences.append(source)
            continue
        if applied is None:
            sentence = _apply(i, source, kept)
        else:
            key = (i, *sorted(kept))
            sentence = applied.get(key)
            if sentence is None:
                sentence = applied[key] = _apply(i, source, kept)
        sentences.append(sentence)
    return SystemOutput(f"majority-vote(n_min={n_min})[{'+'.join(members)}]", tuple(sentences))


def _apply(i: int, source: TokenSentence, kept: list[Edit]) -> TokenSentence:
    """``apply_edits(source, kept)``, its error naming sentence ``i``."""
    try:
        return apply_edits(source, kept)
    except ValidationError as err:
        raise type(err)(f"sentence {i}: {err}") from None
