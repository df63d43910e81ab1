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

from typing import Callable, NamedTuple, Sequence

from .align import Extract
from .corpus import Edit, SystemOutput, TokenSentence, ValidationError, check_aligned, conflicts


class VotedEdit(NamedTuple):
    """An edit plus the members that proposed it.

    The pools of one :func:`pool_corpus` share one ``systems`` frozenset
    per distinct member subset; equality still goes by value.
    """

    edit: Edit
    systems: frozenset[str]


def pool_edits(
    source: TokenSentence,
    outputs: Sequence[tuple[str, TokenSentence]],
    extract: Extract,
    voters: dict[frozenset[str], frozenset[str]],
) -> list[VotedEdit]:
    """Pool all member edits for one sentence, ``extract(source, sentence)``
    of each member sentence.

    Returns one :class:`VotedEdit` per distinct (start, end, replacement)
    key, sorted by position. Each voter set already in ``voters`` is reused,
    and each new one added.
    """
    by_edit: dict[Edit, set[str]] = {}
    for name, sentence in outputs:
        for edit in extract(source, sentence):
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
    extract: Extract,
) -> list[list[VotedEdit]]:
    """Each sentence's :func:`pool_edits` over all of ``outputs``: the pools
    :func:`majority_vote_corpus` counts votes in.

    An experiment pools once over its full member list, and a sweep or
    ablation passes the result to every run over those members.
    Pooled edits with the same voters share one ``systems`` frozenset.
    """
    check_aligned(outputs, len(sources))
    voters: dict[frozenset[str], frozenset[str]] = {}
    return [
        pool_edits(source, [(out.name, out.sentences[i]) for out in outputs], extract, voters)
        for i, source in enumerate(sources)
    ]


def majority_vote_corpus(
    sources: Sequence[TokenSentence],
    pools: Sequence[Sequence[VotedEdit]],
    members: Sequence[str],
    n_min: int,
    apply: Callable[[TokenSentence, tuple[Edit, ...]], TokenSentence],
) -> SystemOutput:
    """Per-sentence majority vote of ``members`` over ``pools``.

    ``pools`` is :func:`pool_corpus` of ``sources`` over the systems named
    ``members``, or over more systems that include them, of which only the
    votes of ``members`` count. Each sentence gets the edits that strictly
    more than ``n_min`` members proposed, applied in the order and with the
    skips of :func:`_kept_edits`. The ensemble's name records the members
    and the threshold.

    Each edited sentence is ``apply(source, kept)``, the kept edits sorted:
    ``apply`` is :func:`geckit.align.apply_edits`, which ignores their
    order, or a ``functools.cache`` of it, which the runs of a sweep or an
    ablation share so that they apply an equal kept set of a source once.
    An error names the sentence.
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
        try:
            sentences.append(apply(source, tuple(sorted(kept))))
        except ValidationError as err:
            raise type(err)(f"sentence {i}: {err}") from None
    return SystemOutput(f"majority-vote(n_min={n_min})[{'+'.join(members)}]", tuple(sentences))
