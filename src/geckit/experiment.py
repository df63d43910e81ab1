"""Config-driven reproduction experiments.

A JSON config names the gold corpus, the member system outputs, a
combination method and its parameters; running it produces the combined
output file, its score report, and a one-row machine-readable TSV, all
deterministic given the config and seeds. A run reads one record built by
:func:`load_inputs`: the input files, the score file among them, read and
validated once, the edit table, the vote pools (each sentence's member
edits, pooled once) and the vote-output memo. Remove-one ablations and
vote-threshold sweeps (:func:`run_study`) share that record across all
their runs, so each input file is read once per study. The method step,
:func:`combine`, is also what the method subcommands of the CLI run. The
method modules are read by module (``vote.pool_corpus``), so a command run
through the CLI, which registers them lazily, runs only the ones it uses.

Config schema (JSON object). Each key is also the name of the
:class:`ExperimentConfig` field it fills; ``name``, ``gold``, ``systems``
and ``method``, the fields without a default, are required. Every method
reads the first six keys, and each other key is read by the methods named
above it, as :data:`METHODS` says:

    name          experiment id; prefixes all artifact filenames
    gold          path to the gold M2 file
    systems       list of member outputs: "path", "name=path", or
                  {"name": ..., "path": ...}
    method        vote | second-order-vote | oracle-ensemble | oracle-rank
                  | rank | rank-w | aggr-rank | llm-rank
    source        optional parallel source file (defaults to M2 sources;
                  validated against them when given)
    output_dir    artifact directory (default "results")
  vote, second-order-vote:
    n_min         vote threshold (default 0)
  rank, rank-w:
    scores        score TSV path
  llm-rank:
    variant       prompt variant "a" | "b" (default "a")
    runs          run count (default 1)
    seed          root seed (default 0); per-run seeds derive from it
    seeds         explicit non-empty per-run seed list (overrides seed)
    backend       mock-lexmin (default) | mock-label-a | http
    base_url      chat-completions endpoint (http backend only)
    model         model name (http backend only)
    jobs          request concurrency (default 1)

Any other key of a config must be absent or hold its default: ``"n_min":
3`` in an oracle-rank config is an error (``method oracle-rank does not
read key 'n_min'``), not ignored, and a key given twice, at any depth, is
an error, not its last value. Relative paths are resolved against the
config file's directory; ``gold``, ``source`` and ``scores`` must not be
``""``, and an ``output_dir`` of ``""`` is that directory. ``n_min``,
``runs``, ``seed``, ``jobs`` and each ``seeds`` entry must be JSON
integers (a float, string or boolean is an error, not rounded), ``systems``
a list and every other value a string (``source``, ``scores``, ``base_url``
and ``model`` may be null). An llm-rank config with backend ``http`` needs
``base_url`` and ``model``; a mock backend, which runs offline, takes
neither. Every error in a config names the config file, and is raised
before any input file is read; of two keys of the wrong type, or two that
the method does not read, the first in field order is reported.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from . import llm, oracle, ranking, scoring, vote  # read by module: see above
from .align import EditTable
from .corpus import (
    CheckedRecord,
    GoldSentence,
    SystemOutput,
    TokenSentence,
    ValidationError,
    atomic_write_text,
    check_aligned,
    check_name,
    check_source_file,
    check_unique_names,
    load_m2,
    load_parallel,
    load_score_file,
    load_system_output,
    parse_system_spec,
    read_text,
    serialize_parallel,
    tsv,
)

# The config keys each method reads beyond the six that every method reads:
# name, gold, systems, method, source and output_dir. Every other field of a
# method's config holds its default (ExperimentConfig refuses any other value).
METHODS = {
    "vote": ("n_min",),
    "second-order-vote": ("n_min",),
    "oracle-ensemble": (),
    "oracle-rank": (),
    "rank": ("scores",),
    "rank-w": ("scores",),
    "aggr-rank": (),
    "llm-rank": ("variant", "runs", "seed", "seeds", "backend", "base_url", "model", "jobs"),
}


_ORACLES = ("oracle-ensemble", "oracle-rank")  # the methods that write an audit table
_VOTES = ("vote", "second-order-vote")  # the methods that vote over pooled member edits


def check_reads(method: str, key: str) -> None:
    """Raise :class:`ValidationError` unless ``method`` reads ``key``, a config
    key with a default."""
    if key not in ("source", "output_dir", *METHODS[method]):
        raise ValidationError(f"method {method} does not read key {key!r}")


class _ConfigFields(NamedTuple):  # each field is named by its config key
    name: str
    gold: str | Path | None  # None: a method subcommand without --gold
    systems: tuple[tuple[str, Path], ...]  # (name, path)
    method: str
    source: str | Path | None = None
    output_dir: Path = Path("results")
    n_min: int = 0
    scores: str | Path | None = None
    variant: str = "a"
    runs: int = 1
    seed: int = 0
    seeds: tuple[int, ...] | None = None
    backend: str = "mock-lexmin"
    base_url: str | None = None
    model: str | None = None
    jobs: int = 1


class ExperimentConfig(CheckedRecord, _ConfigFields):
    """A validated experiment config. Construction, ``_replace`` and
    ``_make`` check every field against the method."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentConfig:
        self = super().__new__(cls, *args, **kwargs)
        check_name("experiment", self.name)
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; expected one of {', '.join(METHODS)}"
            )
        for key, default in self._field_defaults.items():
            if getattr(self, key) != default:
                check_reads(self.method, key)
        if not self.systems:
            raise ValidationError("config needs at least one member system")
        if self.method in ("rank", "rank-w") and self.scores is None:
            raise ValidationError(f"method {self.method} needs a score file")
        if self.method == "aggr-rank" and len(self.systems) != 2:
            raise ValidationError("aggr-rank takes exactly 2 systems: primary, then alternative")
        if self.method == "llm-rank":
            llm.check_backend(self.backend, self.base_url, self.model)
            if not 2 <= len(self.systems) <= 26:
                raise ValidationError(f"llm-rank takes 2 to 26 systems, got {len(self.systems)}")
        # a method that does not read a field holds its default, which passes its check
        if self.variant not in ("a", "b"):
            raise ValidationError(f"unknown prompt variant {self.variant!r}")
        if self.seeds is not None and len(self.seeds) != self.runs:
            raise ValidationError(f"{self.runs} runs but {len(self.seeds)} seeds")
        if self.runs < 1:
            raise ValidationError("runs must be >= 1")
        if self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")
        check_unique_names(name for name, _ in self.systems)
        # majority_vote_corpus checks this too, but only after every pair is extracted
        if not 0 <= self.n_min <= len(self.systems):
            raise ValidationError(f"n_min must be within 0..{len(self.systems)}, got {self.n_min}")
        return self


class ExperimentResult(NamedTuple):
    """Everything one experiment produced, before presentation."""

    config: ExperimentConfig
    outputs: tuple[SystemOutput, ...]  # one per run (one except llm-rank)
    reports: tuple[scoring.ScoreReport, ...]  # aligned with outputs
    # llm-rank only: per run, the sentence indices that fell back to label A
    fallbacks: tuple[tuple[int, ...], ...] = ()

    @property
    def report(self) -> scoring.ScoreReport:
        return self.reports[0]

    def spread_f05(self) -> float:
        """2 x population std of F0.5 across runs; 0.0 for a single run."""
        import statistics

        return 2 * statistics.pstdev(r.f05 for r in self.reports)


_ROW_COLUMNS = ("experiment", "method", "P", "R", "F0.5", "F0.5_2std",
                "n_correct", "n_proposed", "n_gold", "runs")  # result_row_tsv


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment config; every error names the file."""
    import json  # loaded on first use: most commands read no JSON

    path = Path(path)
    text = read_text(path)
    try:
        return _config(json.loads(text, object_pairs_hook=_json_object), path.parent)
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"{path}: line {err.lineno} column {err.colno}: invalid JSON: {err.msg}"
        ) from None
    except ValidationError as err:
        raise type(err)(f"{path}: {err}") from None


def _json_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's dict: a key given twice is an error, not its last value."""
    obj: dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"key {key!r} given twice")
        obj[key] = value
    return obj


_PATH_KEYS = ("gold", "source", "output_dir", "scores")  # relative to the config file


def _config(raw: object, base: Path) -> ExperimentConfig:
    """The config of the JSON value ``raw``, with paths relative to ``base``."""
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(raw).difference(ExperimentConfig._fields)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")

    import json

    def typed(key: str, value: object, kind: type) -> object:
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = {int: "an integer", str: "a string", list: "a list"}[kind]
            raise ValidationError(f"key {key!r} must be {noun}, got {json.dumps(value)}")
        return value

    defaults = ExperimentConfig._field_defaults
    # an absent key takes the field default, and output_dir's lies under base
    fields = {"output_dir": base / defaults["output_dir"]}
    for key in ExperimentConfig._fields:
        if key not in raw:
            if key not in defaults:
                raise ValidationError(f"missing required key {key!r}")
            continue
        value = raw[key]
        if key == "systems":
            value = tuple(_parse_system_entry(entry, base) for entry in typed(key, value, list))
        elif key == "seeds":
            if not isinstance(value, list) or not value:
                raise ValidationError(
                    f"key 'seeds' must be a non-empty list, got {json.dumps(value)}"
                )
            value = tuple(typed(f"seeds[{k}]", seed, int) for k, seed in enumerate(value))
        elif value is None and key in defaults and defaults[key] is None:
            pass  # null stands for absent in an optional key whose default is None
        elif key in _PATH_KEYS:
            if typed(key, value, str) == "" and key != "output_dir":  # "" is base itself
                raise ValidationError(f'key {key!r} must be a non-empty string, got ""')
            value = base / value
        else:  # the integer fields are those with an integer default
            value = typed(key, value, int if isinstance(defaults.get(key), int) else str)
        fields[key] = value
    return ExperimentConfig(**fields)


def _parse_system_entry(entry, base: Path) -> tuple[str, Path]:
    if isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values()):
        if set(entry) != {"name", "path"}:
            raise ValidationError(f"system entry needs exactly name and path: {entry}")
        return entry["name"], base / entry["path"]
    if isinstance(entry, str):
        name, path = parse_system_spec(entry)
        return name, base / path
    raise ValidationError(f"bad system entry: {entry!r}")


class _Inputs(NamedTuple):
    """Everything the runs over a config's input files read or share: the
    files, read and checked once, the edit table, the vote pools and the
    vote-output memo. Built by :func:`load_inputs`, so a run reads no file."""

    gold: list[GoldSentence] | None  # None without a gold file
    sources: list[TokenSentence] | None  # None with neither gold nor source
    members: dict[str, SystemOutput]  # by system name
    scores: dict[tuple[str, int], float] | None  # the score file's, if the config names one
    table: EditTable
    # each sentence's edits pooled over all members; None unless the method votes
    pools: list[list[vote.VotedEdit]] | None
    # the vote output of each (sentence index, kept edit set): see majority_vote_corpus
    applied: dict[tuple, TokenSentence]


def load_inputs(config: ExperimentConfig) -> _Inputs:
    """Read and check a config's input files, then the score file, and pool
    the members' edits if ``config.method`` votes. The sources are the
    gold's (checked against the source file if given), else the source file's.

    Every file is read through one line dict, so equal lines are one
    sentence object across the gold, the source and the members."""
    lines: dict[str, TokenSentence] = {}
    gold = sources = None
    if config.gold is not None:
        gold = load_m2(config.gold, lines)
        if config.source is not None:
            check_source_file(config.source, gold, lines)
        sources = [gs.source for gs in gold]
    elif config.source is not None:
        sources = load_parallel(config.source, lines=lines)
    n = None if sources is None else len(sources)
    members = {
        name: load_system_output(path, name, expected_len=n, lines=lines)
        for name, path in config.systems
    }
    scores = None if config.scores is None else load_score_file(config.scores)
    table, pools = EditTable(), None
    if config.method in _VOTES:
        pools = vote.pool_corpus(sources, list(members.values()), table)
    return _Inputs(gold, sources, members, scores, table, pools, {})


def combine(
    config: ExperimentConfig, inputs: _Inputs, *, shuffle: bool = True
) -> tuple[list[SystemOutput], list[oracle.OracleChoice] | None, list[tuple[int, ...]]]:
    """The method step: run ``config.method`` over the loaded ``inputs``,
    :func:`load_inputs` of ``config`` or of a config with the same method and
    input files. It reads no file and changes no field of ``inputs``; it
    only adds to the edit table and the vote-output memo.

    Returns the outputs (one per run; one except for llm-rank), the oracle
    choices (None for other methods) and, per llm-rank run, the sentence
    indices that fell back to label A. ``shuffle=False`` is ``--no-shuffle``.
    """
    gold, sources, scores, table = inputs.gold, inputs.sources, inputs.scores, inputs.table
    outputs = [inputs.members[name] for name, _ in config.systems]

    combined: list[SystemOutput]
    choices = None
    fallbacks: list[tuple[int, ...]] = []
    if config.method in _VOTES:
        members = [name for name, _ in config.systems]
        combined = [vote.majority_vote_corpus(
            sources, inputs.pools, members, config.n_min, inputs.applied
        )]
    elif config.method in _ORACLES:
        ensemble = config.method == "oracle-ensemble"
        run = oracle.oracle_ensemble_corpus if ensemble else oracle.oracle_rank_corpus
        result, choices = run(gold, outputs, table)
        combined = [result]
    elif config.method in ("rank", "rank-w"):
        # a misaligned member is no fault of the score file, so check it unprefixed
        check_aligned(outputs, len(outputs[0].sentences))
        try:
            combined = [ranking.rank_corpus(outputs, scores, weighted=config.method == "rank-w")]
        except ValidationError as err:
            raise type(err)(f"{config.scores}: {err}") from None
    elif config.method == "aggr-rank":
        combined = [ranking.aggr_rank_corpus(sources, *outputs, table)]
    else:  # llm-rank
        backend = llm.make_backend(
            config.backend, base_url=config.base_url, model=config.model
        )
        seeds = llm.run_seeds(config.seed, config.runs) if config.seeds is None else config.seeds
        runs = llm.llm_rank_corpus(
            sources, outputs, config.variant, seeds, backend, shuffle=shuffle, jobs=config.jobs
        )
        combined = [run.output for run in runs]
        fallbacks = [run.fallbacks for run in runs]
    return combined, choices, fallbacks


def run_experiment(config: ExperimentConfig, inputs: _Inputs) -> ExperimentResult:
    """Run one configured experiment over ``inputs`` and write its artifacts.

    ``inputs`` is :func:`load_inputs` of ``config``, or of a config with the
    same method and the same input files, from which this run takes its
    members by name: sweeps and ablations load once for all their runs.
    """
    if inputs.gold is None:
        raise ValidationError(f"experiment {config.name!r} needs a gold file")
    combined, choices, fallbacks = combine(config, inputs)

    paths = [path for _, path in plan(config)[1]]
    if choices is not None:
        atomic_write_text(paths.pop(0), oracle.choices_tsv(choices))
    *output_paths, report_path, row_path = paths
    reports = []
    for path, output in zip(output_paths, combined, strict=True):
        atomic_write_text(path, serialize_parallel(output.sentences))
        reports.append(scoring.score_corpus(output, inputs.gold, inputs.table))

    result = ExperimentResult(config, tuple(combined), tuple(reports), tuple(fallbacks))
    atomic_write_text(report_path, scoring.report_table(result.report))
    atomic_write_text(row_path, result_row_tsv(result))
    return result


def _ablation_runs(config: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    if len(config.systems) < 3:
        raise ValidationError("remove-one ablation needs at least 3 member systems")
    return [("full", config), *((f"w/o {name}", config._replace(
        name=f"{config.name}.wo-{name}",
        systems=tuple(s for s in config.systems if s[0] != name),
    )) for name, _ in config.systems)]


def _sweep_runs(config: ExperimentConfig) -> list[tuple[int, ExperimentConfig]]:
    if config.method not in _VOTES:
        raise ValidationError("n_min sweep applies to vote methods only")
    return [(n_min, config._replace(name=f"{config.name}.nmin{n_min}", n_min=n_min))
            for n_min in range(len(config.systems) + 1)]


# study: (its labelled runs of a config, the label column of its NAME.STUDY.tsv)
_STUDIES = {"ablation": (_ablation_runs, "variant"), "sweep": (_sweep_runs, "n_min")}


def run_study(config: ExperimentConfig, study: str) -> list[tuple[object, ExperimentResult]]:
    """Run ``study`` over ``config`` and write ``NAME.STUDY.tsv`` after the
    artifacts of its runs, which share one :func:`load_inputs`. The study
    ``"ablation"`` is the full ensemble plus one rerun per left-out member
    system, and ``"sweep"`` reruns a vote experiment at every n_min from 0
    to the member count. Returns (label, result) per run, in order."""
    runs, key = _STUDIES[study]
    variants = runs(config)  # its errors come before any input is read
    inputs = load_inputs(config)
    rows = [(label, run_experiment(variant, inputs)) for label, variant in variants]
    atomic_write_text(artifact_path(config, f"{study}.tsv"), prf_tsv(key, rows))
    return rows


def result_row_tsv(result: ExperimentResult) -> str:
    """The machine-readable result row of one experiment: P, R and F0.5 are
    means over its runs, and F0.5_2std is "-" for a single run."""
    columns = zip(*(scoring.prf(*r) for r in result.reports))
    # statistics.fmean's arithmetic, without importing statistics for one run
    mean = (math.fsum(column) / len(column) for column in columns)
    spread = scoring.score_cell(result.spread_f05()) if len(result.reports) > 1 else "-"
    row = (result.config.name, result.config.method, *map(scoring.score_cell, mean), spread,
           *map(str, result.report), f"{len(result.reports)}")
    return tsv(_ROW_COLUMNS, [row])


def prf_tsv(key: str, rows: Sequence[tuple[object, ExperimentResult]]) -> str:
    """One P/R/F0.5 row per (label, result), under a ``key`` column: the
    sweep (``n_min``) and ablation (``variant``) tables."""
    return tsv((key, "P", "R", "F0.5"), (
        (f"{label}", *map(scoring.score_cell, scoring.prf(*r.report)))
        for label, r in rows
    ))


def artifact_path(config: ExperimentConfig, suffix: str) -> Path:
    """Where ``config``'s artifact ``suffix`` (``out.txt``, ``row.tsv``, ...) is written."""
    return config.output_dir / f"{config.name}.{suffix}"


def plan(config: ExperimentConfig, study: str | None = None) -> tuple[list, list]:
    """The files a run of ``config`` reads, in the order :func:`load_inputs`
    reads them, and the files it writes, in the order written: those of
    :func:`run_experiment`, or with ``study`` (``"sweep"`` or ``"ablation"``)
    those of each of its runs, then ``NAME.STUDY.tsv``. Each is a (role, path)
    pair for :func:`corpus.check_plan`; the runs write through this list."""
    members = ((f"member {name}", path) for name, path in config.systems)
    reads = [("gold", config.gold), ("source", config.source), *members, ("scores", config.scores)]
    if study is None:
        audit = ["audit.tsv"] if config.method in _ORACLES else []
        outputs = [f"run{k}.txt" for k in range(config.runs)] if config.runs > 1 else ["out.txt"]
        written = [artifact_path(config, s) for s in (*audit, *outputs, "report.txt", "row.tsv")]
    else:
        written = [path for _, run in _STUDIES[study][0](config) for _, path in plan(run)[1]]
        written.append(artifact_path(config, f"{study}.tsv"))
    return ([(role, path) for role, path in reads if path is not None],
            [(f"artifact {path.name}", path) for path in written])
