"""Config-driven reproduction experiments.

A JSON config names the gold corpus, the member system outputs, a
combination method and its parameters; running it produces the combined
output file, its score report, and a one-row machine-readable TSV, all
deterministic given the config and seeds. Remove-one ablations and
vote-threshold sweeps reuse the same runner; they read and validate their
input files once and share one edit table across all their runs, and their
vote runs share each sentence's member edits, pooled once. The method step,
:func:`combine`, is also what the method subcommands of the CLI run. The
method modules are read by module (``vote.pool_corpus``), so a command run
through the CLI, which registers them lazily, runs only the ones it uses.

Config schema (JSON object). Each key is also the name of the
:class:`ExperimentConfig` field it fills; ``name``, ``gold``, ``systems``
and ``method``, the fields without a default, are required:

    name          experiment id; prefixes all artifact filenames
    gold          path to the gold M2 file
    systems       list of member outputs: "path", "name=path", or
                  {"name": ..., "path": ...}
    method        vote | second-order-vote | oracle-ensemble | oracle-rank
                  | rank | rank-w | aggr-rank | llm-rank
    source        optional parallel source file (defaults to M2 sources;
                  validated against them when given)
    output_dir    artifact directory (default "results")
    n_min         vote threshold (vote methods)
    scores        score TSV path (rank, rank-w)
    variant       llm prompt variant "a" | "b" (default "a")
    runs          llm run count (default 1)
    seed          root seed (default 0); per-run seeds derive from it
    seeds         explicit non-empty per-run seed list (overrides seed
                  derivation)
    backend       llm backend: mock-lexmin | mock-label-a | http
    base_url      chat-completions endpoint (http backend)
    model         model name (http backend)
    jobs          request concurrency for llm-rank (default 1)

Relative paths are resolved against the config file's directory.
``n_min``, ``runs``, ``seed``, ``jobs`` and each ``seeds`` entry must be
JSON integers; a float, string or boolean is an error, not rounded.
``systems`` must be a list and every other value a string (``source``,
``scores``, ``base_url`` and ``model`` may be null). Every error in a
config names the config file.
"""

from __future__ import annotations

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

METHODS = (
    "vote",
    "second-order-vote",
    "oracle-ensemble",
    "oracle-rank",
    "rank",
    "rank-w",
    "aggr-rank",
    "llm-rank",
)


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
        if not self.systems:
            raise ValidationError("config needs at least one member system")
        if self.method in ("rank", "rank-w") and self.scores is None:
            raise ValidationError(f"method {self.method} needs a score file")
        if self.method == "aggr-rank" and len(self.systems) != 2:
            raise ValidationError(
                "aggr-rank takes exactly 2 systems: primary, then alternative"
            )
        if self.method == "llm-rank":  # llm.py checks some of these too, but after loading
            if not 2 <= len(self.systems) <= 26:
                raise ValidationError(f"llm-rank takes 2 to 26 systems, got {len(self.systems)}")
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
        if self.method in ("vote", "second-order-vote") and not (
            0 <= self.n_min <= len(self.systems)
        ):
            raise ValidationError(
                f"n_min must be within 0..{len(self.systems)}, got {self.n_min}"
            )
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
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"{path}: line {err.lineno} column {err.colno}: invalid JSON: {err.msg}"
        ) from None
    try:
        return _config(raw, path.parent)
    except ValidationError as err:
        raise type(err)(f"{path}: {err}") from None


def _config(raw: object, base: Path) -> ExperimentConfig:
    """The config of the JSON value ``raw``, with paths relative to ``base``."""
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(raw).difference(ExperimentConfig._fields)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    defaults = ExperimentConfig._field_defaults
    for required in ExperimentConfig._fields:
        if required not in raw and required not in defaults:
            raise ValidationError(f"missing required key {required!r}")

    import json

    def resolve(p: str | Path) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    def typed(key: str, value: object, kind: type) -> object:
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = {int: "an integer", str: "a string", list: "a list"}[kind]
            raise ValidationError(f"key {key!r} must be {noun}, got {json.dumps(value)}")
        return value

    def get(key: str, kind: type) -> object:
        """``raw[key]``, or the field's default when absent; null only
        stands for absent in an optional key whose default is None."""
        if key not in raw:
            return defaults.get(key)
        if raw[key] is None and key in defaults and defaults[key] is None:
            return None
        return typed(key, raw[key], kind)

    systems = tuple(
        _parse_system_entry(entry, resolve) for entry in typed("systems", raw["systems"], list)
    )
    seeds = None
    if "seeds" in raw:
        if not isinstance(raw["seeds"], list) or not raw["seeds"]:
            raise ValidationError(
                f"key 'seeds' must be a non-empty list, got {json.dumps(raw['seeds'])}"
            )
        seeds = tuple(typed(f"seeds[{k}]", seed, int) for k, seed in enumerate(raw["seeds"]))
    source, scores = get("source", str), get("scores", str)
    return ExperimentConfig(
        name=get("name", str),
        gold=resolve(get("gold", str)),
        systems=systems,
        method=get("method", str),
        source=resolve(source) if source else None,
        output_dir=resolve(get("output_dir", str)),
        n_min=get("n_min", int),
        scores=resolve(scores) if scores else None,
        variant=get("variant", str),
        runs=get("runs", int),
        seed=get("seed", int),
        seeds=seeds,
        backend=get("backend", str),
        base_url=get("base_url", str),
        model=get("model", str),
        jobs=get("jobs", int),
    )


def _parse_system_entry(entry, resolve) -> tuple[str, Path]:
    if isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values()):
        if set(entry) != {"name", "path"}:
            raise ValidationError(f"system entry needs exactly name and path: {entry}")
        return entry["name"], resolve(entry["path"])
    if isinstance(entry, str):
        name, path = parse_system_spec(entry)
        return name, resolve(path)
    raise ValidationError(f"bad system entry: {entry!r}")


class _Inputs:
    """A config's input files, read and validated once, and the edit table
    and vote pools shared by every run over them."""

    __slots__ = ("gold", "sources", "members", "table", "pools", "applied")

    def __init__(
        self,
        gold: list[GoldSentence] | None,  # None without a gold file
        sources: list[TokenSentence] | None,  # None with neither gold nor source
        members: dict[str, SystemOutput],  # by system name
    ) -> None:
        self.gold, self.sources, self.members = gold, sources, members
        self.table = EditTable()
        # each sentence's edits pooled over all members; built by the first vote run
        self.pools: list[list[vote.VotedEdit]] | None = None
        # the vote output of each (sentence index, kept edit set) met by runs over
        # pools; set by sweeps and ablations only, see majority_vote_corpus
        self.applied: dict[tuple, TokenSentence] | None = None


def load_inputs(config: ExperimentConfig) -> _Inputs:
    """Read and check a config's input files. The sources are the gold's
    (checked against the source file if given), else the source file's.

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
    return _Inputs(gold, sources, members)


def combine(
    config: ExperimentConfig, inputs: _Inputs, *, shuffle: bool = True
) -> tuple[list[SystemOutput], list[oracle.OracleChoice] | None, list[tuple[int, ...]]]:
    """The method step: run ``config.method`` over the loaded ``inputs``.

    Returns the outputs (one per run; one except for llm-rank), the oracle
    choices (None for other methods) and, per llm-rank run, the sentence
    indices that fell back to label A. ``shuffle=False`` is ``--no-shuffle``.
    """
    gold, sources, table = inputs.gold, inputs.sources, inputs.table
    outputs = [inputs.members[name] for name, _ in config.systems]

    combined: list[SystemOutput]
    choices = None
    fallbacks: list[tuple[int, ...]] = []
    if config.method in ("vote", "second-order-vote"):
        if inputs.pools is None:
            inputs.pools = vote.pool_corpus(sources, list(inputs.members.values()), table)
        members = [name for name, _ in config.systems]
        combined = [vote.majority_vote_corpus(
            sources, inputs.pools, members, config.n_min, inputs.applied
        )]
    elif config.method in ("oracle-ensemble", "oracle-rank"):
        ensemble = config.method == "oracle-ensemble"
        run = oracle.oracle_ensemble_corpus if ensemble else oracle.oracle_rank_corpus
        result, choices = run(gold, outputs, table)
        combined = [result]
    elif config.method in ("rank", "rank-w"):
        scores = load_score_file(config.scores)
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
    same gold, source and member files, from which this run takes its
    members by name: sweeps and ablations load once for all their runs.
    """
    if inputs.gold is None:
        raise ValidationError(f"experiment {config.name!r} needs a gold file")
    combined, choices, fallbacks = combine(config, inputs)

    if choices is not None:
        _write(config, "audit.tsv", oracle.choices_tsv(choices))
    reports = []
    for run_index, output in enumerate(combined):
        suffix = f"run{run_index}.txt" if len(combined) > 1 else "out.txt"
        _write(config, suffix, serialize_parallel(output.sentences))
        reports.append(scoring.score_corpus(output, inputs.gold, inputs.table))

    result = ExperimentResult(config, tuple(combined), tuple(reports), tuple(fallbacks))
    _write(config, "report.txt", scoring.report_table(result.report))
    _write(config, "row.tsv", result_row_tsv(result))
    return result


def ablation_remove_one(config: ExperimentConfig) -> list[tuple[str, ExperimentResult]]:
    """The full ensemble plus one rerun per left-out member system."""
    if len(config.systems) < 3:
        raise ValidationError("remove-one ablation needs at least 3 member systems")
    inputs = load_inputs(config)
    inputs.applied = {}
    rows = [("full", run_experiment(config, inputs))]
    for name, _ in config.systems:
        reduced = config._replace(
            name=f"{config.name}.wo-{name}",
            systems=tuple(s for s in config.systems if s[0] != name),
        )
        rows.append((f"w/o {name}", run_experiment(reduced, inputs)))
    _write(config, "ablation.tsv", prf_tsv("variant", rows))
    return rows


def sweep_n_min(config: ExperimentConfig) -> list[tuple[int, ExperimentResult]]:
    """Rerun a vote experiment at every n_min from 0 to the member count."""
    if config.method not in ("vote", "second-order-vote"):
        raise ValidationError("n_min sweep applies to vote methods only")
    inputs = load_inputs(config)
    inputs.applied = {}
    rows = []
    for n_min in range(len(config.systems) + 1):
        variant = config._replace(name=f"{config.name}.nmin{n_min}", n_min=n_min)
        rows.append((n_min, run_experiment(variant, inputs)))
    _write(config, "sweep.tsv", prf_tsv("n_min", rows))
    return rows


def result_row_tsv(result: ExperimentResult) -> str:
    """The machine-readable result row of one experiment: P, R and F0.5 are
    means over its runs, and F0.5_2std is "-" for a single run."""
    import statistics

    mean = map(statistics.fmean, zip(*(scoring.prf(*r) for r in result.reports)))
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


def _write(config: ExperimentConfig, suffix: str, text: str) -> None:
    atomic_write_text(config.output_dir / f"{config.name}.{suffix}", text)
