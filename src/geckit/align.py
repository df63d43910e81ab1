"""Token-level edit extraction and application.

Edits are recovered from (source, hypothesis) pairs by unit-cost
Levenshtein alignment over tokens: each maximal run of contiguous
non-match operations is one span edit.

The alignment is exact and bit-parallel: Myers' bit-vector recurrence
(Myers 1999, JACM 46(3)) in Hyyrö's global edit-distance form, with Python
ints as bit vectors over the source tokens. Let ``d[i][j]`` be the cost of
aligning ``src[:i]`` to ``hyp[:j]``. Column ``j`` of the matrix is kept as
two ints, ``VP_j`` and ``VN_j``: bit ``i - 1`` is set in ``VP_j`` when
``d[i][j] - d[i-1][j] == +1`` and in ``VN_j`` when it is ``-1``. Since
``d[0][j] == j``, any cell is
``d[i][j] = j + (VP_j & mask_i).bit_count() - (VN_j & mask_i).bit_count()``
with ``mask_i = (1 << i) - 1``, so a column costs one pass of word
operations and the traceback reads only the cells it visits.

The traceback walks back from the bottom-right corner ``d[m][n]`` and at
each cell takes the first move whose cost is consistent with the matrix,
in the preference order match > substitute > delete > insert. That keeps
edit keys stable across runs and platforms: voting depends on that. The
walk builds the edits in the same pass: a run of changes becomes one edit
at the next match, or on the top row or left column, whose tokens join it.

The matrix is only built for the block between the common suffix and the
common prefix, and both strips are exact. The walk consumes the suffix as
matches whatever precedes it. Inside the block it makes the full walk's
moves, since ``d(uA, uB) == d(A, B)`` for unit costs. It leaves the block
on the top edge (left edge) with the remaining tokens to insert (delete),
which is also what the full walk does there, unless the last prefix token
is among them: the full walk then takes a match with it. In that case
only, the pair is walked again over the matrix with its prefix.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .corpus import Edit, TokenSentence, check_edits

# What a function that reads edits takes: extract_edits itself, or a
# functools.cache of it that a run's functions share.
Extract = Callable[[Sequence[str], Sequence[str]], tuple[Edit, ...]]


def extract_edits(source: Sequence[str], hypothesis: Sequence[str]) -> tuple[Edit, ...]:
    """Extract the canonical minimal edit set turning source into hypothesis.

    The result is the normal form that :func:`geckit.corpus.check_edits`
    returns: pairwise non-conflicting, free of no-ops, and sorted by
    (start, end), since the edits start at strictly increasing positions.
    ``apply_edits(source, result) == hypothesis`` exactly.

    >>> extract_edits("I likes turtles very much .".split(),
    ...               "I like turtles very much .".split())
    (Edit(start=1, end=2, replacement=('like',)),)

    Of two equal tokens, the walk back from the end keeps the later one:

    >>> extract_edits("a a b".split(), "a b".split())
    (Edit(start=0, end=1, replacement=()),)

    That holds across the common prefix too, so stripping it is not enough:

    >>> extract_edits(["a"], "a a b".split()) == (Edit(0, 0, ('a',)), Edit(1, 1, ('b',)))
    True
    """
    src = tuple(source)
    hyp = tuple(hypothesis)
    if src == hyp:
        return ()

    # Strip the common suffix. This is exact, not a heuristic: when the
    # trailing tokens are equal, d[i][j] == d[i-1][j-1] always holds, and
    # match is the top traceback preference, so the full traceback consumes
    # the suffix as matches no matter what precedes it.
    k = 0
    limit = min(len(src), len(hyp))
    while k < limit and src[len(src) - 1 - k] == hyp[len(hyp) - 1 - k]:
        k += 1
    m = len(src) - k
    n = len(hyp) - k

    # Then strip the common prefix, of length p, walk the block between and
    # shift its edits by p. When the walk leaves the block on an edge whose
    # remaining tokens hold the last prefix token, the full walk would match
    # that token instead, so walk again with the prefix (see the module
    # docstring).
    p = 0
    limit = min(m, n)
    while p < limit and src[p] == hyp[p]:
        p += 1
    block_src, block_hyp = src[p:m], hyp[p:n]
    edits, i, j = _walk(block_src, block_hyp)
    if not p:
        return edits
    if src[p - 1] in block_hyp[:j] or src[p - 1] in block_src[:i]:
        return _walk(src[:m], hyp[:n])[0]
    return tuple(Edit(e.start + p, e.end + p, e.replacement) for e in edits)


def _walk(src: tuple[str, ...], hyp: tuple[str, ...]) -> tuple[tuple[Edit, ...], int, int]:
    """The edits of the alignment of ``src`` to ``hyp``, in source order, and
    the cell ``(i, j)`` where the walk back reached the top row or left column."""
    m = len(src)
    # Match masks: bit i of peq[t] is set when src[i] == t.
    peq: dict[str, int] = {}
    for i, tok in enumerate(src):
        peq[tok] = peq.get(tok, 0) | (1 << i)

    # Columns 0..n as vertical-delta pairs. Column 0 is d[i][0] == i, all +1.
    # Per column: d0 marks the cells equal to their diagonal neighbour,
    # hp/hn the horizontal deltas +1/-1. The carry into row 1 is 1 because
    # d[0][j] - d[0][j-1] == +1 (global distance; approximate search would
    # shift in 0). The complement sets every bit from m up, so VP is masked
    # to m bits. VN needs no mask: the add can carry into bit m of d0 only
    # through VP's bit m-1, and then hp's bit m is clear.
    full = (1 << m) - 1
    vp, vn = full, 0
    vps, vns = [vp], [vn]
    for tok in hyp:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        hp = (hp << 1) | 1
        vn = hp & d0
        vp = ((hn << 1) | ~(hp | d0)) & full
        vps.append(vp)
        vns.append(vn)

    # Traceback from the bottom-right corner. At each cell take the first
    # move in preference order whose cost is consistent with the matrix.
    # cost is d[i][j]: every move but a match lowers it by one. run_end is
    # the cell where the current run of changes began, walking back.
    edits: list[Edit] = []
    run_end: tuple[int, int] | None = None
    i, j = m, len(hyp)
    cost = j + vp.bit_count() - vn.bit_count()
    while i > 0 and j > 0:
        if src[i - 1] == hyp[j - 1]:
            # Equal tokens always give d[i-1][j-1] == d[i][j].
            if run_end:
                edits.append(Edit(i, run_end[0], hyp[j : run_end[1]]))
                run_end = None
            i -= 1
            j -= 1
            continue
        run_end = run_end or (i, j)
        mask = (1 << (i - 1)) - 1
        if j + (vps[j - 1] & mask).bit_count() - (vns[j - 1] & mask).bit_count() == cost:
            i -= 1  # substitute
            j -= 1
        elif j + 1 + (vps[j] & mask).bit_count() - (vns[j] & mask).bit_count() == cost:
            i -= 1  # delete
        else:
            j -= 1  # insert
        cost -= 1
    # On the top row only insertions remain, in the left column only
    # deletions: they join the run they precede, or are an edit of their own.
    run_end = run_end or (i, j)
    if run_end != (0, 0):
        edits.append(Edit(0, run_end[0], hyp[: run_end[1]]))
    return tuple(reversed(edits)), i, j


def apply_edits(source: Sequence[str], edits: Sequence[Edit]) -> TokenSentence:
    """Apply an edit set that passes :func:`geckit.corpus.check_edits` to source.

    Order-independent: any permutation of the same set gives the same
    result. Raises what :func:`~geckit.corpus.check_edits` raises for an
    invalid set, and what :class:`~geckit.corpus.TokenSentence` raises for
    a source that is not one.
    """
    src = source if isinstance(source, TokenSentence) else TokenSentence(source)
    out: list[str] = []
    pos = 0
    for e in check_edits(src, edits):
        out.extend(src[pos : e.start])
        out.extend(e.replacement)
        pos = e.end
    out.extend(src[pos:])
    # Source tokens and replacement tokens are both checked already
    return tuple.__new__(TokenSentence, out)
