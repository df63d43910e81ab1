"""Command-line entry point.

One binary, verb subcommands: extract, apply, score, vote,
oracle-ensemble, oracle-rank, rank, rank-w, aggr-rank, cluster, llm-rank,
experiment. Data goes to files or stdout; diagnostics go to stderr. Exit
codes: 0 success, 1 validation/usage error, 2 runtime error. A command's
plan, the files it reads and writes, is checked before any input is read
(no output may be an input), then outputs are written atomically. All
randomness derives from --seed.

Member systems are given as repeated --sys flags, either a bare path
(system name = file stem) or explicit name=path.

Importing this module runs no other geckit module: each is registered
lazily and runs when the command first reads one of its names, so
``score``, ``extract`` and ``apply`` never run ``experiment``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
from pathlib import Path
from types import ModuleType


def _lazy(name: str) -> ModuleType:
    """The module ``geckit.<name>``, registered to run when one of its
    attributes is first read (the standard library's LazyLoader recipe).

    A module already in ``sys.modules`` is returned as it is, so every
    caller shares one module object and one ``ValidationError`` class. Like
    an import, this sets the module as an attribute of the package.
    ``LazyLoader`` takes no lock before Python 3.13, so each command reads
    its modules on the main thread, before ``llm-rank`` starts its workers.
    """
    full_name = f"{__package__}.{name}"
    module = sys.modules.get(full_name)
    if module is None:
        spec = importlib.util.find_spec(full_name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full_name] = module
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# cli reads no vote or llm name; the bench's tracer wraps both from sys.modules
corpus, align, scoring, vote, oracle, ranking, llm, experiment = map(_lazy, (
    "corpus", "align", "scoring", "vote", "oracle", "ranking", "llm", "experiment"
))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants usage errors -> 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _emit(text: str, out: str | None = None) -> None:
    """Write ``text`` to ``out``, or to stdout: as UTF-8 whatever the locale,
    or as text to a stream that takes no bytes."""
    if out is not None:
        corpus.atomic_write_text(out, text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _fallback_note(fallbacks: tuple[int, ...]) -> str:
    """The stderr note on an LLM run, naming how many sentences fell back to label A."""
    return f", {len(fallbacks)} fallback sentences" if fallbacks else ""


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_extract(args, _) -> int:
    sources = corpus.load_parallel(args.src)
    hyps = corpus.load_parallel(args.hyp, expected_len=len(sources))
    edits = [align.extract_edits(src, hyp) for src, hyp in zip(sources, hyps)]
    _emit(corpus.serialize_edit_tsv(edits), args.out)
    return 0


def _cmd_apply(args, _) -> int:
    sources = corpus.load_parallel(args.src)
    edits = corpus.load_edit_tsv(args.edits, sources)
    edited = [align.apply_edits(src, edit_set) for src, edit_set in zip(sources, edits)]
    _emit(corpus.serialize_parallel(edited), args.out)
    return 0


def _cmd_score(args, _) -> int:
    gold = corpus.load_m2(args.gold)
    if args.src is not None:
        corpus.check_source_file(args.src, gold)
    hyp = corpus.load_system_output(args.hyp, expected_len=len(gold))
    report = scoring.score_corpus(hyp, gold, align.EditTable())
    text = scoring.report_tsv(report) if args.tsv else scoring.report_table(report)
    _emit(text, args.out)
    return 0


def _cmd_method(args, config: experiment.ExperimentConfig) -> int:
    """Run a method subcommand through :func:`experiment.combine`, the method
    step of an experiment with the same method; write where its plan says."""
    outputs, choices, fallbacks = experiment.combine(
        config, experiment.load_inputs(config), shuffle=not vars(args).get("no_shuffle")
    )
    if config.method == "llm-rank":
        for (_, path), output, run_fallbacks in zip(plan(args, config)[1], outputs, fallbacks,
                                                   strict=True):
            corpus.atomic_write_text(path, corpus.serialize_parallel(output.sentences))
            print(f"wrote {path}{_fallback_note(run_fallbacks)}", file=sys.stderr)
        return 0
    _emit(corpus.serialize_parallel(outputs[0].sentences), args.out)
    if choices is not None:
        if args.audit is not None:
            corpus.atomic_write_text(args.audit, oracle.choices_tsv(choices))
        print(f"wrote {args.out}", file=sys.stderr)
    elif config.method == "vote":
        print(f"wrote {args.out} ({outputs[0].name})", file=sys.stderr)
    return 0


def _cmd_cluster(args, _) -> int:
    named = [corpus.parse_system_spec(spec) for spec in args.sys]
    corpus.check_unique_names(name for name, _ in named)
    ranking.check_cluster(len(named), args.threshold)
    lines = {}  # one sentence object per distinct line, as experiment.load_inputs
    systems = [corpus.load_system_output(path, name, lines=lines) for name, path in named]
    matrix = ranking.similarity_matrix(systems)
    clusters = ranking.cluster_systems(matrix, args.threshold)
    _emit(ranking.clusters_tsv(clusters), args.out)
    if args.matrix is not None:
        corpus.atomic_write_text(args.matrix, ranking.matrix_tsv(matrix))
    print(f"{len(clusters)} clusters at threshold {args.threshold}", file=sys.stderr)
    return 0


def _cmd_experiment(args, config: experiment.ExperimentConfig) -> int:
    if args.study is None:
        rows = [(None, experiment.run_experiment(config, experiment.load_inputs(config)))]
    else:
        rows = experiment.run_study(config, args.study)
    for label, result in rows:  # a sweep votes, so no run of it falls back
        if args.study == "sweep":
            print(f"n_min={label}: F0.5={result.report.f05:.4f}", file=sys.stderr)
        for run_index, fallbacks in enumerate(result.fallbacks):
            if fallbacks:
                print(f"{result.config.name} run{run_index}{_fallback_note(fallbacks)}",
                      file=sys.stderr)
    if args.study is None:
        _emit(experiment.result_row_tsv(rows[0][1]))
    elif args.study == "ablation":
        _emit(experiment.prf_tsv("variant", rows))
    return 0


def _config(args) -> experiment.ExperimentConfig | None:
    """The config of a method subcommand, or of ``experiment --config`` (the
    one file read before the plan is checked), with the flags that fill its
    fields. None for the other commands, which run no experiment code."""
    if args.func is not _cmd_method and args.func is not _cmd_experiment:
        return None
    # a flag given whose dest is a config field fills it; else the field default holds
    given = {key: value for key, value in vars(args).items()
             if key in experiment.ExperimentConfig._fields and value is not None}
    if args.func is _cmd_experiment:
        config = experiment.load_config(args.config)
        for key in given:  # a flag given is a setting, even at its default
            experiment.check_reads(config.method, key)
        if "seed" in given:
            given["seeds"] = None
        return config._replace(**given)  # checked as one config: the first bad key is named
    if args.command == "aggr-rank":  # named by role, so the two files may share a stem
        systems = (("primary", Path(args.primary)), ("alternative", Path(args.alt)))
    else:
        systems = tuple(corpus.parse_system_spec(spec) for spec in args.sys)
    # paths kept as typed: error messages quote them
    return experiment.ExperimentConfig(**{"gold": None, **given}, name=args.command,
                                       systems=systems, method=args.command)


def _check_paths(args) -> None:
    """Refuse a flag that names a file given "", and ``--sys NAME=``, by name:
    it would read the working directory, or write to stdout or nowhere."""
    for dest in ("src", "source", "hyp", "gold", "edits", "scores", "primary", "alt", "sys",
                 "config", "out", "audit", "matrix", "out_prefix"):
        value = vars(args).get(dest)
        paths = [spec.split("=", 1)[-1] for spec in value] if dest == "sys" and value else [value]
        if "" in paths:  # the --src of vote, aggr-rank and llm-rank fills source
            flag = "--src" if dest == "source" else "--" + dest.replace("_", "-")
            raise corpus.ValidationError(f"{flag} must not be empty")


def plan(args, config: experiment.ExperimentConfig | None = None) -> tuple[list, list]:
    """The files the command of ``args`` reads and the files it writes, in
    order, as (role, path) pairs for :func:`corpus.check_plan`; ``config`` is
    the command's :func:`_config`. Reads no file."""
    if args.command == "experiment":
        reads, writes = experiment.plan(config, args.study)
        return [("config", args.config), *reads], writes
    writes = [(f"--{flag}", getattr(args, flag)) for flag in ("out", "audit", "matrix")
              if getattr(args, flag, None) is not None]
    if config is not None:  # a method subcommand
        if args.command == "llm-rank":  # one PREFIX.runK.txt per run
            writes = [("--out-prefix", f"{args.out_prefix}.run{k}.txt") for k in range(config.runs)]
        return experiment.plan(config)[0], writes
    # extract, apply, score and cluster: (role, dest) of each file read, in the order read
    reads = [(role, vars(args).get(dest)) for role, dest in (
        ("gold", "gold"), ("source", "src"), ("hypothesis", "hyp"), ("edits", "edits"))]
    members = map(corpus.parse_system_spec, vars(args).get("sys") or ())  # cluster's
    reads += ((f"member {name}", path) for name, path in members)
    return [(role, path) for role, path in reads if path is not None], writes


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geckit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str, func=_cmd_method):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("extract", "extract edit spans between source and hypothesis files", _cmd_extract)
    p.add_argument("--src", required=True, help="source parallel text")
    p.add_argument("--hyp", required=True, help="hypothesis parallel text")
    p.add_argument("--out", help="output TSV (default: stdout)")

    p = add("apply", "apply an extract-format edit TSV to source sentences", _cmd_apply)
    p.add_argument("--src", required=True)
    p.add_argument("--edits", required=True, help="TSV from the extract subcommand")
    p.add_argument("--out", help="output text (default: stdout)")

    p = add("score", "score a hypothesis file against gold M2", _cmd_score)
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True, help="gold M2 file")
    p.add_argument("--src", help="optional source file, validated against the M2")
    p.add_argument("--tsv", action="store_true", help="emit TSV instead of a table")
    p.add_argument("--out", help="output path (default: stdout)")

    # a method subcommand's flag has the config field it fills as its dest
    p = add("vote", "majority-vote ensemble of member outputs")
    p.add_argument("--src", dest="source", metavar="SRC", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--nmin", dest="n_min", metavar="NMIN", type=int, required=True,
                   help="keep edits with votes > nmin")
    p.add_argument("--out", required=True)

    p = add("oracle-ensemble", "gold-informed best edit subset (upper bound)")
    p.add_argument("--gold", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="write per-sentence choice TSV here")

    p = add("oracle-rank", "gold-informed best candidate per sentence (upper bound)")
    p.add_argument("--gold", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="write per-sentence choice TSV here")

    p = add("rank", "pick the highest-scored candidate per sentence")
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--scores", required=True, help="score TSV (system, sentence_index, score)")
    p.add_argument("--out", help="output text (default: stdout)")

    p = add("rank-w", "rank with output-frequency weighting")
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", help="output text (default: stdout)")

    p = add("aggr-rank", "prefer the primary candidate when it edits less (but edits)")
    p.add_argument("--src", dest="source", metavar="SRC", required=True)
    p.add_argument("--primary", required=True)
    p.add_argument("--alt", required=True)
    p.add_argument("--out", help="output text (default: stdout)")

    p = add("cluster", "cluster systems by output similarity; pick representatives", _cmd_cluster)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--threshold", type=float, default=0.11, help="dendrogram cut distance")
    p.add_argument("--out", help="cluster TSV (default: stdout)")
    p.add_argument("--matrix", help="write the similarity matrix TSV here")

    p = add("llm-rank", "rank candidates with a chat model (or offline mock)")
    p.add_argument("--src", dest="source", metavar="SRC", required=True)
    p.add_argument("--sys", action="append", required=True, metavar="[NAME=]PATH")
    p.add_argument("--variant", help="prompt variant: a (default) or b")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--backend", help="mock-lexmin (default, offline), mock-label-a or http")
    p.add_argument("--base-url", help="chat-completions endpoint base URL (http backend)")
    p.add_argument("--model", help="model name (http backend)")
    p.add_argument("--no-shuffle", action="store_true",
                   help="keep candidates in input order")
    p.add_argument("--jobs", type=int, help="concurrent requests")
    p.add_argument("--out-prefix", required=True,
                   help="one output per run: PREFIX.runN.txt")

    p = add("experiment", "run a JSON experiment config", _cmd_experiment)
    p.add_argument("--config", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--ablation", dest="study", action="store_const", const="ablation",
                      help="remove-one member ablation")
    mode.add_argument("--sweep-nmin", dest="study", action="store_const", const="sweep",
                      help="sweep the vote threshold")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--jobs", type=int, help="override the config jobs")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return int(exc.code or 0)
    # The loaded corpora hold no reference cycles (tuples of interned str,
    # Edit tuples, NamedTuple records), yet the default thresholds walk them
    # in over a hundred collections per sweep. Collect rarely while the
    # command runs, and give the caller its own thresholds back.
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, 50, 1000)
    try:
        _check_paths(args)  # before the config, the one file read before the plan
        config = _config(args)
        corpus.check_plan(*plan(args, config))  # before any other input is read
        return args.func(args, config)
    except corpus.ValidationError as err:
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
