"""Token-level edit extraction and application.

Edits are recovered from (source, hypothesis) pairs by unit-cost
Levenshtein alignment over tokens, then maximal runs of contiguous
non-match operations are merged into single span edits.

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
edit keys stable across runs and platforms: voting depends on that.

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

from typing import Sequence

from .corpus import Edit, TokenSentence, check_edits


def extract_edits(source: Sequence[str], hypothesis: Sequence[str]) -> list[Edit]:
    """Extract the canonical minimal edit set turning source into hypothesis.

    The result is sorted by position, pairwise non-conflicting, free of
    no-ops, and ``apply_edits(source, result) == hypothesis`` exactly.

    >>> extract_edits("I likes turtles very much .".split(),
    ...               "I like turtles very much .".split())
    [Edit(start=1, end=2, replacement=('like',))]

    Of two equal tokens, the walk back from the end keeps the later one:

    >>> extract_edits("a a b".split(), "a b".split())
    [Edit(start=0, end=1, replacement=())]

    That holds across the common prefix too, so stripping it is not enough:

    >>> extract_edits(["a"], "a a b".split()) == [Edit(0, 0, ('a',)), Edit(1, 1, ('b',))]
    True
    """
    src = tuple(source)
    hyp = tuple(hypothesis)
    if src == hyp:
        return []

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

    # Then strip the common prefix, of length p, and walk the block between.
    # When the walk leaves the block on an edge whose remaining tokens hold
    # the last prefix token, the full walk would match that token instead,
    # so walk again with the prefix (see the module docstring).
    p = 0
    limit = min(m, n)
    while p < limit and src[p] == hyp[p]:
        p += 1
    block_src, block_hyp = src[p:m], hyp[p:n]
    ops, i, j = _walk(block_src, block_hyp)
    if p and (src[p - 1] in block_hyp[:j] or src[p - 1] in block_src[:i]):
        ops, _, _ = _walk(src[:m], hyp[:n])
        p = 0

    # Merge contiguous non-match runs into single edits.
    edits: list[Edit] = []
    si = hi = p
    run_start: tuple[int, int] | None = None

    def close_run(si_end: int, hi_end: int) -> None:
        nonlocal run_start
        if run_start is not None:
            s0, h0 = run_start
            edits.append(Edit(s0, si_end, tuple(hyp[h0:hi_end])))
            run_start = None

    for op in ops:
        if op == "m":
            close_run(si, hi)
            si += 1
            hi += 1
        else:
            if run_start is None:
                run_start = (si, hi)
            if op == "s":
                si += 1
                hi += 1
            elif op == "d":
                si += 1
            else:
                hi += 1
    close_run(si, hi)
    return edits


def _walk(src: tuple[str, ...], hyp: tuple[str, ...]) -> tuple[list[str], int, int]:
    """The alignment of ``src`` to ``hyp`` as operations in source order
    (``m``atch, ``s``ubstitute, ``d``elete, ``i``nsert), and the cell
    ``(i, j)`` where the walk back reached the top row or left column."""
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
    # cost is d[i][j]: every move but a match lowers it by one.
    ops: list[str] = []
    i, j = m, len(hyp)
    cost = j + vp.bit_count() - vn.bit_count()
    while i > 0 and j > 0:
        if src[i - 1] == hyp[j - 1]:
            # Equal tokens always give d[i-1][j-1] == d[i][j].
            ops.append("m")
            i -= 1
            j -= 1
            continue
        mask = (1 << (i - 1)) - 1
        if j + (vps[j - 1] & mask).bit_count() - (vns[j - 1] & mask).bit_count() == cost:
            ops.append("s")
            i -= 1
            j -= 1
        elif j + 1 + (vps[j] & mask).bit_count() - (vns[j] & mask).bit_count() == cost:
            ops.append("d")
            i -= 1
        else:
            ops.append("i")
            j -= 1
        cost -= 1
    # On the top row only insertions remain, in the left column only deletions.
    ops.extend("d" * i)
    ops.extend("i" * j)
    ops.reverse()
    return ops, i, j


class EditTable:
    """The edits of (source, hypothesis) pairs, each distinct pair extracted once.

    Ensembling, oracles, ranking and scoring all ask for the edits of the
    same member outputs; pass one table to all of them to share the work.
    Entries are keyed on the sentences themselves (no copies) and compared
    by value, which is exact because extraction depends on token values
    only. A table lives as long as its owner keeps it: there is no global
    cache.

    >>> table = EditTable()
    >>> src, hyp = TokenSentence.parse("a b"), TokenSentence.parse("a c")
    >>> table.edits(src, hyp)
    [Edit(start=1, end=2, replacement=('c',))]
    """

    __slots__ = ("_edits",)

    def __init__(self) -> None:
        self._edits: dict[tuple[TokenSentence, TokenSentence], tuple[Edit, ...]] = {}

    def edits(self, source: TokenSentence, hypothesis: TokenSentence) -> list[Edit]:
        """:func:`extract_edits` of the pair, as a new list on every call.

        The copy keeps the table intact when a caller changes the list, and
        keeps list comparisons (``edits == [...]``) meaning what they mean
        for :func:`extract_edits`.
        """
        key = (source, hypothesis)
        edits = self._edits.get(key)
        if edits is None:
            edits = self._edits[key] = tuple(extract_edits(source, hypothesis))
        return list(edits)


def apply_edits(source: Sequence[str], edits: Sequence[Edit]) -> TokenSentence:
    """Apply an edit set that passes :func:`geckit.corpus.check_edits` to source.

    Order-independent: any permutation of the same set gives the same
    result. Raises what :func:`~geckit.corpus.check_edits` raises for an
    invalid set.
    """
    src = tuple(source)
    ordered = sorted(edits, key=lambda e: (e.start, e.end))
    check_edits(src, ordered)
    out: list[str] = []
    pos = 0
    for e in ordered:
        out.extend(src[pos : e.start])
        out.extend(e.replacement)
        pos = e.end
    out.extend(src[pos:])
    return TokenSentence(out)
