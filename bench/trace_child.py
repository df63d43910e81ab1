"""Run one geckit command with a span around every call into each layer.

Usage: python trace_child.py TRACE_JSON [geckit arguments...]

The program itself is not changed. After importing ``geckit.cli`` this
script replaces each traced public function by a wrapper, rebinding every
``geckit.*`` module attribute that refers to it, so calls from inside the
package go through the wrapper too. Then it calls ``geckit.cli.main(argv)``.
Spans stay in memory; when the command returns, they are reduced to per-span
totals and written to TRACE_JSON, and the script exits with the command's
exit code.

A span's self time is its duration minus the durations of the spans it
directly contains. A call into a function whose span has the same name as
the innermost open span (``load_system_output`` calling ``load_parallel``,
``rank_weighted`` calling ``rank_by_score``) is folded into that span, so
``calls`` counts entries into a layer, not internal hops.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import geckit.cli  # noqa: E402

_T_IMPORTED = time.perf_counter()

# (module, function) -> span name
SPANS = {
    ("geckit.corpus", "parse_m2"): "corpus.load",
    ("geckit.corpus", "load_m2"): "corpus.load",
    ("geckit.corpus", "load_parallel"): "corpus.load",
    ("geckit.corpus", "load_system_output"): "corpus.load",
    ("geckit.corpus", "parse_score_file"): "corpus.load",
    ("geckit.corpus", "load_score_file"): "corpus.load",
    ("geckit.corpus", "atomic_write_text"): "corpus.write",
    ("geckit.corpus", "save_m2"): "corpus.write",
    ("geckit.corpus", "save_parallel"): "corpus.write",
    ("geckit.align", "extract_edits"): "align.extract",
    ("geckit.align", "apply_edits"): "align.apply",
    ("geckit.vote", "pool_edits"): "vote.pool",
    ("geckit.vote", "majority_vote_corpus"): "vote.corpus",
    ("geckit.scoring", "score_corpus"): "scoring.score",
    ("geckit.oracle", "oracle_ensemble_corpus"): "oracle.ensemble",
    ("geckit.oracle", "oracle_rank_corpus"): "oracle.rank",
    ("geckit.ranking", "rank_by_score"): "ranking.select",
    ("geckit.ranking", "rank_weighted"): "ranking.select",
    ("geckit.ranking", "aggr_rank"): "ranking.select",
    ("geckit.ranking", "similarity_matrix"): "ranking.similarity",
    ("geckit.ranking", "cluster_systems"): "ranking.cluster",
    ("geckit.llm", "build_prompt"): "llm.prompt",
    ("geckit.llm", "parse_response"): "llm.parse",
    ("geckit.llm", "llm_rank_corpus"): "llm.rank",
    ("geckit.experiment", "run_experiment"): "experiment.run",
}


class Tracer:
    """Spans of one process: ``[name, start, end, parent index]`` rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.extract_pairs: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        row = [name, 0.0, 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out


def _rebind(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "geckit" or module_name.startswith("geckit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _extract_stats(pairs) -> dict:
    """Distinct (source, hypothesis) pairs and the DP cells extract_edits
    computes: (m+1)(n+1) summed over calls, after its common-suffix strip."""
    cells = 0
    for src, hyp in pairs:
        k, limit = 0, min(len(src), len(hyp))
        while k < limit and src[-1 - k] == hyp[-1 - k]:
            k += 1
        cells += (len(src) - k + 1) * (len(hyp) - k + 1)
    return {"unique": len({(tuple(s), tuple(h)) for s, h in pairs}), "dp_cells": cells}


def _count_file_size(tracer: Tracer, args, result) -> None:
    tracer.count("corpus.load.bytes", os.path.getsize(args[0]))


# Counts read from a traced call's arguments or result, outside its span.
HOOKS = {
    "load_m2": _count_file_size,
    "load_parallel": _count_file_size,
    "load_score_file": _count_file_size,
    "atomic_write_text": lambda t, args, result: t.count(
        "corpus.write.bytes", len(args[1].encode("utf-8"))
    ),
    "extract_edits": lambda t, args, result: t.extract_pairs.append(args[:2]),
    "oracle_ensemble_corpus": lambda t, args, result: t.count(
        "oracle.ensemble.selected", sum(c.n_selected for c in result[1])
    ),
    "llm_rank_corpus": lambda t, args, result: (
        t.count("llm.sentences", sum(len(r.output.sentences) for r in result)),
        t.count("llm.fallbacks", sum(len(r.fallbacks) for r in result)),
    ),
}


def install(tracer: Tracer) -> None:
    for (module_name, attr), name in SPANS.items():
        original = getattr(sys.modules[module_name], attr)
        hook = HOOKS.get(attr)
        if hook is None:
            _rebind(original, tracer.wrap(name, original))
            continue

        @functools.wraps(original)
        def traced(*args, _fn=original, _name=name, _hook=hook, **kwargs):
            result = tracer.call(_name, _fn, args, kwargs)
            _hook(tracer, args, result)
            return result

        _rebind(original, traced)

    # The backend is an object the CLI builds; trace it by wrapping what
    # make_backend returns. Each call_with_retries is one logical request,
    # so backend calls beyond those are retries.
    llm = sys.modules["geckit.llm"]
    make_backend, call_with_retries = llm.make_backend, llm.call_with_retries

    def traced_make_backend(*args, **kwargs):
        backend = make_backend(*args, **kwargs)
        return lambda *a, **kw: tracer.call("llm.backend", backend, a, kw)

    def counted_call_with_retries(*args, **kwargs):
        tracer.count("llm.requests")
        return call_with_retries(*args, **kwargs)

    _rebind(make_backend, traced_make_backend)
    _rebind(call_with_retries, counted_call_with_retries)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.call("cli.main", geckit.cli.main, (argv,), {})
    finally:
        record = {
            "import_s": _T_IMPORTED - _T0,
            "spans": tracer.summary(),
            "counters": tracer.counters,
            "extract": {
                "calls": len(tracer.extract_pairs),
                **_extract_stats(tracer.extract_pairs),
            },
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
