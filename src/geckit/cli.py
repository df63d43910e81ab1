"""Command-line entry point.

One binary, verb subcommands: extract, apply, score, vote,
oracle-ensemble, oracle-rank, rank, rank-w, aggr-rank, cluster, llm-rank,
experiment. Data goes to files or stdout; diagnostics go to stderr. Exit
codes: 0 success, 1 validation/usage error, 2 runtime error. File outputs
are written atomically. All randomness derives from --seed.

Member systems are given as repeated --sys flags, either a bare path
(system name = file stem) or explicit name=path.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .align import EditTable, apply_edits, extract_edits
from .corpus import (
    ValidationError,
    atomic_write_text,
    check_source_file,
    check_unique_names,
    load_edit_tsv,
    load_m2,
    load_parallel,
    load_system_output,
    parse_system_spec,
    serialize_edit_tsv,
    serialize_parallel,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    ablation_remove_one,
    combine,
    load_config,
    load_inputs,
    prf_tsv,
    result_row_tsv,
    run_experiment,
    sweep_n_min,
)
from .oracle import choices_tsv
from .ranking import cluster_systems, clusters_tsv, matrix_tsv, similarity_matrix
from .scoring import report_table, report_tsv, score_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants usage errors -> 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _fallback_note(fallbacks: tuple[int, ...]) -> str:
    """The stderr note on an LLM run, naming how many sentences fell back to label A."""
    return f", {len(fallbacks)} fallback sentences" if fallbacks else ""


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_extract(args) -> int:
    sources = load_parallel(args.src)
    hyps = load_parallel(args.hyp, expected_len=len(sources))
    edits = [extract_edits(src, hyp) for src, hyp in zip(sources, hyps)]
    _emit(serialize_edit_tsv(edits), args.out)
    return 0


def _cmd_apply(args) -> int:
    sources = load_parallel(args.src)
    edits = load_edit_tsv(args.edits, sources)
    edited = [apply_edits(src, sentence_edits) for src, sentence_edits in zip(sources, edits)]
    _emit(serialize_parallel(edited), args.out)
    return 0


def _cmd_score(args) -> int:
    gold = load_m2(args.gold)
    if args.src:
        check_source_file(args.src, gold)
    hyp = load_system_output(args.hyp, expected_len=len(gold))
    report = score_corpus(hyp, gold, EditTable())
    text = report_tsv(report) if args.tsv else report_table(report)
    _emit(text, args.out)
    return 0


# method flag -> the ExperimentConfig field it sets if given; else the field default holds
_FLAG_FIELDS = {
    "src": "source_path", "nmin": "n_min", "scores": "score_path", "variant": "variant",
    "runs": "runs", "seed": "seed", "base_url": "base_url", "model": "model", "jobs": "jobs",
}


def _cmd_method(method: str, args) -> int:
    """Run a method subcommand through :func:`experiment.combine`, the method
    step of an experiment with the same method; write where the flags say."""
    flags = {k: v for k, v in vars(args).items() if v is not None}  # the flags given
    if method == "aggr-rank":  # named by role, so the two files may share a stem
        systems = (("primary", Path(args.primary)), ("alternative", Path(args.alt)))
    else:
        systems = tuple(parse_system_spec(spec) for spec in args.sys)
    given = {name: flags[flag] for flag, name in _FLAG_FIELDS.items() if flag in flags}
    if flags.get("base_url"):
        given["backend"] = "http"
    elif "mock" in flags:
        given["backend"] = f"mock-{flags['mock']}"
    config = ExperimentConfig(  # paths kept as typed: error messages quote them
        name=method, gold_path=flags.get("gold"), systems=systems, method=method, **given
    )
    outputs, choices, fallbacks = combine(
        config, load_inputs(config), shuffle=not flags.get("no_shuffle")
    )
    if method == "llm-rank":
        for run_index, (output, run_fallbacks) in enumerate(zip(outputs, fallbacks)):
            path = f"{args.out_prefix}.run{run_index}.txt"
            atomic_write_text(path, serialize_parallel(output.sentences))
            print(f"wrote {path}{_fallback_note(run_fallbacks)}", file=sys.stderr)
        return 0
    _emit(serialize_parallel(outputs[0].sentences), args.out)
    if choices is not None:
        if args.audit:
            atomic_write_text(args.audit, choices_tsv(choices))
        print(f"wrote {args.out}", file=sys.stderr)
    elif method == "vote":
        print(f"wrote {args.out} ({outputs[0].name})", file=sys.stderr)
    return 0


def _cmd_cluster(args) -> int:
    named = [parse_system_spec(spec) for spec in args.sys]
    check_unique_names(name for name, _ in named)
    systems = [load_system_output(path, name) for name, path in named]
    matrix = similarity_matrix(systems)
    clusters = cluster_systems(matrix, args.threshold)
    _emit(clusters_tsv(clusters), args.out)
    if args.matrix:
        atomic_write_text(args.matrix, matrix_tsv(matrix))
    print(f"{len(clusters)} clusters at threshold {args.threshold}", file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.jobs is not None:
        config = config.replace(jobs=args.jobs)
    if args.seed is not None:
        config = config.replace(seed=args.seed, seeds=None)
    if args.ablation:
        rows = ablation_remove_one(config)
        for _, result in rows:
            _print_fallbacks(result)
        sys.stdout.write(prf_tsv("variant", rows))
        return 0
    if args.sweep_nmin:
        rows = sweep_n_min(config)
        for n_min, result in rows:
            print(f"n_min={n_min}: F0.5={result.report.f05:.4f}", file=sys.stderr)
        return 0
    result = run_experiment(config, load_inputs(config))
    _print_fallbacks(result)
    sys.stdout.write(result_row_tsv([result]))
    return 0


def _print_fallbacks(result: ExperimentResult) -> None:
    for run_index, fallbacks in enumerate(result.fallbacks):
        if fallbacks:
            print(f"{result.config.name} run{run_index}{_fallback_note(fallbacks)}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geckit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str):
        return sub.add_parser(name, help=help_text)

    p = add("extract", "extract edit spans between source and hypothesis files")
    p.add_argument("--src", required=True, help="source parallel text")
    p.add_argument("--hyp", required=True, help="hypothesis parallel text")
    p.add_argument("--out", help="output TSV (default: stdout)")
    p.set_defaults(func=_cmd_extract)

    p = add("apply", "apply an extract-format edit TSV to source sentences")
    p.add_argument("--src", required=True)
    p.add_argument("--edits", required=True, help="TSV from the extract subcommand")
    p.add_argument("--out", help="output text (default: stdout)")
    p.set_defaults(func=_cmd_apply)

    p = add("score", "score a hypothesis file against gold M2")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True, help="gold M2 file")
    p.add_argument("--src", help="optional source file, validated against the M2")
    p.add_argument("--tsv", action="store_true", help="emit TSV instead of a table")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_score)

    p = add("vote", "majority-vote ensemble of member outputs")
    p.add_argument("--src", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--nmin", type=int, required=True, help="keep edits with votes > nmin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda a: _cmd_method("vote", a))

    p = add("oracle-ensemble", "gold-informed best edit subset (upper bound)")
    p.add_argument("--gold", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="write per-sentence choice TSV here")
    p.set_defaults(func=lambda a: _cmd_method("oracle-ensemble", a))

    p = add("oracle-rank", "gold-informed best candidate per sentence (upper bound)")
    p.add_argument("--gold", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="write per-sentence choice TSV here")
    p.set_defaults(func=lambda a: _cmd_method("oracle-rank", a))

    p = add("rank", "pick the highest-scored candidate per sentence")
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--scores", required=True, help="score TSV (system, sentence_index, score)")
    p.add_argument("--out", help="output text (default: stdout)")
    p.set_defaults(func=lambda a: _cmd_method("rank", a))

    p = add("rank-w", "rank with output-frequency weighting")
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", help="output text (default: stdout)")
    p.set_defaults(func=lambda a: _cmd_method("rank-w", a))

    p = add("aggr-rank", "prefer the primary candidate when it edits less (but edits)")
    p.add_argument("--src", required=True)
    p.add_argument("--primary", required=True)
    p.add_argument("--alt", required=True)
    p.add_argument("--out", help="output text (default: stdout)")
    p.set_defaults(func=lambda a: _cmd_method("aggr-rank", a))

    p = add("cluster", "cluster systems by output similarity; pick representatives")
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--threshold", type=float, default=0.11, help="dendrogram cut distance")
    p.add_argument("--out", help="cluster TSV (default: stdout)")
    p.add_argument("--matrix", help="write the similarity matrix TSV here")
    p.set_defaults(func=_cmd_cluster)

    p = add("llm-rank", "rank candidates with a chat model (or offline mock)")
    p.add_argument("--src", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--variant", choices=("a", "b"))
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mock", choices=("lexmin", "label-a"),
                   help="offline backend (ignored when --base-url is given)")
    p.add_argument("--base-url", help="chat-completions endpoint base URL")
    p.add_argument("--model", help="model name for the http backend")
    p.add_argument("--no-shuffle", action="store_true",
                   help="keep candidates in input order")
    p.add_argument("--jobs", type=int, help="concurrent requests")
    p.add_argument("--out-prefix", required=True,
                   help="one output per run: PREFIX.runN.txt")
    p.set_defaults(func=lambda a: _cmd_method("llm-rank", a))

    p = add("experiment", "run a JSON experiment config")
    p.add_argument("--config", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--ablation", action="store_true", help="remove-one member ablation")
    mode.add_argument("--sweep-nmin", action="store_true", help="sweep the vote threshold")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--jobs", type=int, help="override the config jobs")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    # The loaded corpora hold no reference cycles (tuples of interned str,
    # Edit tuples, NamedTuple records), yet the default thresholds walk them
    # in over a hundred collections per sweep. Collect rarely while the
    # command runs, and give the caller its own thresholds back.
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, 50, 1000)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception:
        import traceback

        traceback.print_exc(file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
