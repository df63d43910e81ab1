"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from geckit.align import EditTable
from geckit.corpus import Edit, GoldSentence, SystemOutput, TokenSentence, conflicts
from geckit.oracle import oracle_ensemble_corpus, oracle_rank_corpus
from geckit.vote import _kept_edits, majority_vote_corpus, pool_corpus


def vocab(n: int, prefix: str = "w") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


@st.composite
def sentence_pairs(draw):
    """(source, hypothesis) token pairs: alphabet 2..50, lengths 0..40."""
    alphabet = vocab(draw(st.integers(2, 50)))
    tokens = st.sampled_from(alphabet)
    source = draw(st.lists(tokens, min_size=0, max_size=40))
    hyp = draw(st.lists(tokens, min_size=0, max_size=40))
    return tuple(source), tuple(hyp)


@st.composite
def annotations(draw, source, max_edits=4, repl_vocab=None):
    """One annotator's coherent edit set: mutually compatible, no no-ops."""
    n = len(source)
    repl = repl_vocab or vocab(6, "r")
    kept: list[Edit] = []
    for _ in range(draw(st.integers(0, max_edits))):
        start = draw(st.integers(0, n))
        end = draw(st.integers(start, min(n, start + 3)))
        replacement = tuple(
            draw(st.lists(st.sampled_from(repl), min_size=0, max_size=2))
        )
        if replacement == tuple(source[start:end]):
            continue  # no-op
        if not replacement and start == end:
            continue  # also a no-op
        e = Edit(start, end, replacement)
        if any(conflicts(e, k) for k in kept):
            continue
        kept.append(e)
    return tuple(sorted(kept, key=lambda e: (e.start, e.end)))


@st.composite
def gold_corpora(draw, max_sentences=5, max_annotators=3, max_edits=4):
    """Small random gold corpora for scorer equivalence checks."""
    alphabet = vocab(draw(st.integers(2, 8)))
    n_sent = draw(st.integers(1, max_sentences))
    gold = []
    for _ in range(n_sent):
        source = TokenSentence(
            draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=10))
        )
        n_ann = draw(st.integers(1, max_annotators))
        anns = tuple(
            draw(annotations(source, max_edits=max_edits)) for _ in range(n_ann)
        )
        gold.append(GoldSentence(source, anns))
    return gold


@st.composite
def corpora_with_hypotheses(draw, **kwargs):
    gold = draw(gold_corpora(**kwargs))
    hyps = []
    for gs in gold:
        # perturb the source a little so counts are varied but valid
        mutated = list(gs.source)
        for i in range(len(mutated)):
            roll = draw(st.integers(0, 9))
            if roll == 0:
                mutated[i] = draw(st.sampled_from(vocab(6, "r")))
            elif roll == 1:
                mutated[i] = ""
        hyps.append(TokenSentence(t for t in mutated if t))
    return gold, hyps


# --------------------------------------------------------------------------
# Exact-extraction corpora: source tokens all distinct, replacement vocab
# disjoint from the source vocab, each replacement token globally unique,
# and every master edit separated from the next by at least THREE unchanged
# tokens. Three, not one: a deletion and a later insertion with a short
# matched gap between them can cost exactly the same as one substitution
# run swallowing the gap, and the traceback then merges them into a single
# edit that matches neither original. For edit widths <= 2 a 3-token gap
# makes the intended alignment strictly cheaper than any merge, so applying
# any subset of the master edits and re-extracting returns exactly that
# subset, triple for triple.


@st.composite
def exact_master_edits(draw, source_len, max_edits=6):
    positions = sorted(draw(st.sets(st.integers(0, source_len - 1),
                                    min_size=1, max_size=max_edits)))
    edits = []
    prev_end = None
    serial = draw(st.integers(0, 10_000))
    for pos in positions:
        if prev_end is not None and pos < prev_end + 3:
            continue
        kind = draw(st.sampled_from(["replace", "delete", "insert"]))
        if kind == "insert":
            edits.append(Edit(pos, pos, (f"r{serial}",)))
            serial += 1
            prev_end = pos
        elif kind == "delete":
            end = min(source_len, pos + draw(st.integers(1, 2)))
            edits.append(Edit(pos, end, ()))
            prev_end = end
        else:
            end = min(source_len, pos + draw(st.integers(1, 2)))
            width = draw(st.integers(1, 2))
            edits.append(Edit(pos, end, tuple(f"r{serial + k}" for k in range(width))))
            serial += width
            prev_end = end
    return edits


@st.composite
def oracle_corpora(draw, max_sentences=4, max_annotators=3, max_systems=4):
    """Corpora where oracle edit selection provably yields perfect precision."""
    n_sent = draw(st.integers(1, max_sentences))
    gold = []
    members: list[list[TokenSentence]] = [
        [] for _ in range(draw(st.integers(1, max_systems)))
    ]
    for s in range(n_sent):
        n_tok = draw(st.integers(3, 18))
        source = TokenSentence(f"s{s}t{i}" for i in range(n_tok))
        master = draw(exact_master_edits(n_tok))
        # partition: disjoint annotator gold sets, the rest are distractors
        n_ann = draw(st.integers(1, max_annotators))
        owner = [draw(st.integers(-1, n_ann - 1)) for _ in master]
        anns = tuple(
            tuple(e for e, o in zip(master, owner) if o == a) for a in range(n_ann)
        )
        gold.append(GoldSentence(source, anns))
        from geckit.align import apply_edits

        for out in members:
            chosen = [e for e in master if draw(st.booleans())]
            out.append(apply_edits(source, chosen))
    outputs = [
        SystemOutput(f"sys{i}", tuple(sents)) for i, sents in enumerate(members)
    ]
    return gold, outputs


# --------------------------------------------------------------------------
# One-sentence views of the corpus methods: members are (name, sentence)
# pairs for one source sentence, run as a corpus of that one sentence.


def _one_sentence(members):
    return [SystemOutput(name, (sentence,)) for name, sentence in members]


def vote_one(source, members, n_min):
    """The majority-vote output of one sentence."""
    pools = pool_corpus([source], _one_sentence(members), EditTable())
    return majority_vote_corpus([source], pools, [name for name, _ in members], n_min).sentences[0]


def kept_one(source, members, n_min):
    """The edits the majority vote of one sentence applies, in application order."""
    pool = pool_corpus([source], _one_sentence(members), EditTable())[0]
    return _kept_edits(pool, frozenset(name for name, _ in members), n_min)


def oracle_ensemble_one(gold, members):
    """The oracle-ensemble output of one gold sentence."""
    return oracle_ensemble_corpus([gold], _one_sentence(members), EditTable())[0].sentences[0]


def oracle_rank_one(gold, members):
    """The (member name, sentence) oracle-rank picks for one gold sentence."""
    combined, choices = oracle_rank_corpus([gold], _one_sentence(members), EditTable())
    return choices[0].system, combined.sentences[0]


@pytest.fixture
def rng():
    return random.Random(20240816)
