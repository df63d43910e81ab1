"""Token-level edit extraction and application.

Edits are recovered from (source, hypothesis) pairs by unit-cost
Levenshtein alignment over tokens, then maximal runs of contiguous
non-match operations are merged into single span edits. The traceback is
deterministic (preference match > substitute > delete > insert, ties
resolved toward the top-left of the DP matrix), which keeps edit keys
stable across runs and platforms: voting depends on that.
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
    """
    src = tuple(source)
    hyp = tuple(hypothesis)

    # Strip the common suffix before running the DP. This is exact, not a
    # heuristic: when the trailing tokens are equal, d[i][j] == d[i-1][j-1]
    # always holds, and match is the top traceback preference, so the full
    # traceback consumes the suffix as matches no matter what precedes it.
    # (The same is NOT true for the common prefix under this tie-breaking,
    # so the prefix is deliberately left alone.)
    k = 0
    limit = min(len(src), len(hyp))
    while k < limit and src[len(src) - 1 - k] == hyp[len(hyp) - 1 - k]:
        k += 1
    m = len(src) - k
    n = len(hyp) - k

    # Cost matrix, row by row. d[i][j] = cost of aligning src[:i] to hyp[:j].
    rows = [list(range(n + 1))]
    for i in range(1, m + 1):
        s_tok = src[i - 1]
        prev = rows[-1]
        cur = [0] * (n + 1)
        cur[0] = i
        left = i
        for j in range(1, n + 1):
            best = prev[j - 1]  # diagonal: match or substitute
            if s_tok != hyp[j - 1]:
                best += 1
            up = prev[j] + 1
            if up < best:
                best = up
            left += 1
            if left < best:
                best = left
            cur[j] = left = best
        rows.append(cur)

    # Traceback from the bottom-right corner. At each cell take the first
    # move in preference order whose cost is consistent with the matrix.
    ops: list[str] = []
    i, j = m, n
    while i > 0 or j > 0:
        cost = rows[i][j]
        if i > 0 and j > 0 and src[i - 1] == hyp[j - 1] and rows[i - 1][j - 1] == cost:
            ops.append("m")
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and src[i - 1] != hyp[j - 1] and rows[i - 1][j - 1] + 1 == cost:
            ops.append("s")
            i -= 1
            j -= 1
        elif i > 0 and rows[i - 1][j] + 1 == cost:
            ops.append("d")
            i -= 1
        else:
            ops.append("i")
            j -= 1
    ops.reverse()

    # Merge contiguous non-match runs into single edits.
    edits: list[Edit] = []
    si = hi = 0
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
