"""Naive references for the differential tests: one per concept, each
written from the definition in the README and slow on purpose.

No reference calls geckit. This module imports geckit's record types and
error classes only (``tests/test_imports.py`` checks that), so a reference
cannot share a defect with the code it checks. numpy is imported inside the
one reference that uses it, so the module imports without it.
"""

from __future__ import annotations

import math
from collections import Counter

from geckit.corpus import Edit, OverlapError, TokenSentence, ValidationError

# --------------------------------------------------------------------------
# Edits


def conflicts(a: Edit, b: Edit) -> bool:
    """Whether two edits on one source cannot both be applied: the spans
    they rewrite overlap, or one is an insertion at the other's start or
    strictly inside the other's span."""
    if max(a.start, b.start) < min(a.end, b.end):
        return True
    return any(x.start == x.end and (y.start == x.start or y.start < x.start < y.end)
               for x, y in ((a, b), (b, a)))


def check_edits(source, edits) -> tuple[Edit, ...]:
    """``edits`` sorted by (start, end), if each lies in ``source``, changes
    it and replaces it with non-empty tokens free of whitespace, and no two
    conflict. Each edit is checked, then each pair, in the order given; the
    first failure raises."""
    for e in edits:
        if not 0 <= e.start <= e.end <= len(source):
            raise ValidationError(
                f"edit span ({e.start},{e.end}) out of bounds for {len(source)}-token sentence")
        if tuple(e.replacement) == tuple(source[e.start : e.end]):
            raise ValidationError(
                f"no-op edit at ({e.start},{e.end}): replacement equals source span")
        for t in e.replacement:
            if not isinstance(t, str) or not t:
                raise ValidationError(f"empty or non-string token: {t!r}")
            if any(c.isspace() for c in t):
                raise ValidationError(f"token contains whitespace: {t!r}")
    for i, a in enumerate(edits):
        for b in edits[i + 1 :]:
            if conflicts(a, b):
                raise OverlapError(f"conflicting edits: {a} / {b}")
    return tuple(sorted(edits, key=lambda e: (e.start, e.end)))


EDIT_HEADER = "sentence_index\tstart\tend\treplacement"


def parse_edit_tsv(text: str, sources) -> list[list[Edit]]:
    """One edit list per sentence of ``sources``, in file order; after each
    row, its sentence's whole list is checked again with :func:`check_edits`."""
    lines = text.rstrip("\n").split("\n")
    if lines[0].rstrip("\r") != EDIT_HEADER:
        raise ValidationError(f"edit file must start with header {EDIT_HEADER!r}")
    edits = [[] for _ in sources]
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.rstrip("\r").split("\t")
        if parts == [""]:
            continue
        if len(parts) != 4:
            raise ValidationError(f"edit file line {lineno}: expected 4 columns")
        try:
            index, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"edit file line {lineno}: non-integer field") from None
        if not 0 <= index < len(sources):
            raise ValidationError(
                f"edit file line {lineno}: sentence {index} not in 0..{len(sources) - 1}")
        replacement = () if parts[3] == "-NONE-" else tuple(parts[3].split())
        edits[index].append(Edit(start, end, replacement))
        try:
            check_edits(sources[index], edits[index])
        except ValidationError as err:
            raise type(err)(f"edit file line {lineno}: {err}") from None
    return edits


def extract_edits(source, hypothesis) -> tuple[Edit, ...]:
    """The edits of the unit-cost Levenshtein alignment: the full matrix, then
    the walk back from its bottom-right corner that takes at each cell the
    first move consistent with it of match, substitute, delete and insert.
    Each maximal run of moves other than match is one edit."""
    src, hyp = tuple(source), tuple(hypothesis)
    d = [[i + j for j in range(len(hyp) + 1)] for i in range(len(src) + 1)]
    for i in range(1, len(src) + 1):
        above, row = d[i - 1], d[i]
        for j in range(1, len(hyp) + 1):
            row[j] = min(above[j - 1] + (src[i - 1] != hyp[j - 1]), above[j] + 1, row[j - 1] + 1)
    edits = []
    i, j, run = len(src), len(hyp), None  # run: the cell where the current run began
    while i or j:
        if i and j and src[i - 1] == hyp[j - 1] and d[i - 1][j - 1] == d[i][j]:
            if run:
                edits.append(Edit(i, run[0], hyp[j : run[1]]))
                run = None
            i, j = i - 1, j - 1
            continue
        run = run or (i, j)
        if i and j and d[i - 1][j - 1] + 1 == d[i][j]:
            i, j = i - 1, j - 1
        elif i and d[i - 1][j] + 1 == d[i][j]:
            i -= 1
        else:
            j -= 1
    if run:
        edits.append(Edit(0, run[0], hyp[: run[1]]))
    return tuple(reversed(edits))


def apply_edits(source, edits) -> TokenSentence:
    """``source`` with a conflict-free edit set applied, right to left."""
    tokens = list(source)
    for e in sorted(edits, reverse=True):
        tokens[e.start : e.end] = e.replacement
    return TokenSentence(tokens)


# --------------------------------------------------------------------------
# Scoring


def prf(n_correct: int, n_proposed: int, n_gold: int) -> tuple[float, float, float]:
    """P, R and F0.5: P is 1 when nothing is proposed, R is 1 when nothing is
    gold, and F is 0 when P or R is."""
    p = 1.0 if n_proposed == 0 else n_correct / n_proposed
    r = 1.0 if n_gold == 0 else n_correct / n_gold
    return p, r, 0.0 if p == 0 or r == 0 else 1.25 * p * r / (0.25 * p + r)


def _choice_key(counts) -> tuple[float, int, int]:
    return prf(*counts)[2], counts[0], -counts[1]


def _sentence_counts(hyp_edits, ann) -> tuple[int, int, int]:
    proposed = set(hyp_edits)
    return sum(1 for e in proposed if e in ann), len(proposed), len(ann)


def best_annotator(hyp_edits, gold, base=(0, 0, 0)) -> tuple[int, tuple[int, int, int]]:
    """The annotator of ``gold`` whose counts against the set of ``hyp_edits``,
    added to ``base``, have the greatest (F0.5, n_correct, -n_proposed), the
    lowest id on a tie; and those summed counts."""
    best = None
    for ann_id, ann in enumerate(gold.annotations):
        counts = tuple(b + c for b, c in zip(base, _sentence_counts(hyp_edits, ann)))
        if best is None or _choice_key(counts) > _choice_key(best[1]):
            best = ann_id, counts
    return best


def score_corpus(hypotheses, gold) -> tuple[tuple[int, int, int], list[int]]:
    """The corpus counts and the annotator chosen for each sentence: each
    takes :func:`best_annotator` on the counts of the sentences before it,
    summed again from scratch."""
    edits = [extract_edits(gs.source, hyp) for gs, hyp in zip(gold, hypotheses)]
    chosen = []

    def summed(k):  # the counts of the first k sentences against their chosen annotators
        return tuple(map(sum, zip((0, 0, 0), *(
            _sentence_counts(edits[j], gold[j].annotations[chosen[j]]) for j in range(k)))))

    for k, gs in enumerate(gold):
        chosen.append(best_annotator(edits[k], gs, summed(k))[0])
    return summed(len(gold)), chosen


# --------------------------------------------------------------------------
# The methods, one sentence at a time; ``members`` are (name, sentence) pairs


def vote(source, members, n_min: int) -> TokenSentence:
    """The members' edits that strictly more than ``n_min`` of them propose,
    applied in decreasing-vote order, ties by edit, each skipped if it
    conflicts with one applied before."""
    votes = Counter(e for _, sentence in members for e in set(extract_edits(source, sentence)))
    kept = []
    for edit in sorted((e for e in votes if votes[e] > n_min), key=lambda e: (-votes[e], e)):
        if not any(conflicts(edit, k) for k in kept):
            kept.append(edit)
    return apply_edits(source, kept)


def oracle_ensemble(gold, members) -> tuple[TokenSentence, int, int]:
    """The output, annotator and number of edits applied: the annotator whose
    edits share most with the members' pooled edits, the lowest id on a tie;
    the edits shared, thinned greedily in position order, keeping an edit
    when the kept set with it re-extracts verbatim."""
    pool = {e for _, sentence in members for e in extract_edits(gold.source, sentence)}
    shared = [sorted(pool.intersection(ann)) for ann in gold.annotations]
    ann_id = max(range(len(shared)), key=lambda k: (len(shared[k]), -k))
    kept = ()
    for edit in shared[ann_id]:
        trial = (*kept, edit)
        if extract_edits(gold.source, apply_edits(gold.source, trial)) == trial:
            kept = trial
    return apply_edits(gold.source, kept), ann_id, len(kept)


def oracle_rank(gold, members) -> tuple[str, TokenSentence, int, int]:
    """The name, sentence, annotator and n_correct of the member whose
    :func:`best_annotator` counts from zero have the greatest (F0.5,
    n_correct, -n_proposed), the earliest on a tie."""
    best = None
    for name, sentence in members:
        ann_id, counts = best_annotator(extract_edits(gold.source, sentence), gold)
        if best is None or _choice_key(counts) > _choice_key(best[1]):
            best = (name, sentence, ann_id, counts[0]), counts
    return best[0]


def rank(candidates, scores, weighted: bool = False) -> int:
    """The position of the highest score, each multiplied by w_j = n_j /
    max_k n_k when ``weighted`` (n_j counts the candidates equal to candidate
    j); a tie goes to the lexicographically smallest sentence, then to input
    order."""
    if weighted:
        n = [candidates.count(c) for c in candidates]
        scores = [score * (n_j / max(n)) for score, n_j in zip(scores, n)]
    return min(range(len(candidates)), key=lambda j: (-scores[j], candidates[j], j))


def aggr_rank(source, primary, alternative) -> TokenSentence:
    """``primary`` if it makes at least one edit and fewer than ``alternative``."""
    n_primary = len(extract_edits(source, primary))
    return primary if 0 < n_primary < len(extract_edits(source, alternative)) else alternative


def llm_rank_lexmin(members) -> TokenSentence:
    """What the mock-lexmin backend chooses, whatever the labels: the
    lexicographically smallest sentence."""
    return min(sentence for _, sentence in members)


# --------------------------------------------------------------------------
# Similarity of systems


def similarity_matrix(outputs) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """The (names, values) of the similarity matrix, bit for bit: one
    smoothed-IDF vector per system and sentence, with ``math.fsum`` norms and
    dot products, and one product per system pair."""
    n_sys, n_sentences = len(outputs), len(outputs[0].sentences)
    acc = [[0.0] * n_sys for _ in range(n_sys)]
    for i in range(n_sentences):
        docs = [Counter(out.sentences[i]) for out in outputs]
        df = Counter(tok for doc in docs for tok in doc)
        idf = [(tok, math.log((1 + n_sys) / (1 + d)) + 1) for tok, d in df.items()]
        vectors = []
        for out, doc in zip(outputs, docs):
            vec = [doc.get(tok, 0) * w for tok, w in idf]
            norm = math.sqrt(math.fsum(x * x for x in vec))
            if not norm:
                raise ValidationError(f"sentence {i}: empty output from {out.name!r}")
            vectors.append([x / norm for x in vec])
        for a in range(n_sys):
            for b in range(a + 1, n_sys):
                acc[a][b] += math.fsum(x * y for x, y in zip(vectors[a], vectors[b]))
    mean = [[1.0] * n_sys for _ in range(n_sys)]
    for a in range(n_sys):
        for b in range(a + 1, n_sys):
            mean[a][b] = mean[b][a] = min(acc[a][b] / n_sentences, 1.0)
    return tuple(out.name for out in outputs), tuple(map(tuple, mean))


def numpy_similarity_matrix(outputs) -> list[list[float]]:
    """The similarity matrix with numpy's arithmetic: a dense TF-IDF matrix per
    sentence over its sorted vocabulary, row norms and one matrix product."""
    import numpy as np

    n_sys, n_sentences = len(outputs), len(outputs[0].sentences)
    acc = np.zeros((n_sys, n_sys))
    for i in range(n_sentences):
        docs = [Counter(out.sentences[i]) for out in outputs]
        vocab = sorted(set().union(*docs))
        df = Counter(tok for doc in docs for tok in doc)
        vectors = np.array([[doc[tok] for tok in vocab] for doc in docs], dtype=float)
        vectors *= np.array([math.log((1 + n_sys) / (1 + df[tok])) + 1 for tok in vocab])
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        acc += vectors @ vectors.T
    mean = acc / n_sentences
    mean = np.clip((mean + mean.T) / 2, 0.0, 1.0)
    np.fill_diagonal(mean, 1.0)
    return mean.tolist()
