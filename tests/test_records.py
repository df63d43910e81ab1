"""Record semantics: every record is an immutable NamedTuple, and the three
that check their fields check them on construction, ``_replace`` and
``_make``."""

from pathlib import Path

import pytest

from geckit.corpus import (
    Edit,
    GoldSentence,
    OverlapError,
    SystemOutput,
    TokenSentence,
    ValidationError,
)
from geckit.experiment import ExperimentConfig, ExperimentResult
from geckit.llm import RankedRun, RankPrompt
from geckit.oracle import OracleChoice
from geckit.ranking import SimilarityMatrix, SystemCluster
from geckit.scoring import ScoreReport
from geckit.vote import VotedEdit

SRC = TokenSentence("a b c".split())
OUT = SystemOutput("s", [("a", "b", "c")])
REPORT = ScoreReport(1, 2, 3)


def _config(**changes) -> ExperimentConfig:
    fields = dict(name="exp", gold=Path("g.m2"), method="vote",
                  systems=(("a", Path("a.txt")), ("b", Path("b.txt"))))
    return ExperimentConfig(**{**fields, **changes})


RECORDS = [
    Edit(0, 1, ("x",)),
    GoldSentence(SRC, ((Edit(0, 1, ("x",)),), ())),
    OUT,
    _config(),
    ExperimentResult(_config(), (OUT,), (REPORT,)),
    RankPrompt("a", (SRC,), "text"),
    RankedRun(OUT, ()),
    REPORT,
    OracleChoice(0, "oracle-rank", 0, "s", 1),
    SimilarityMatrix(("s",), ((1.0,),)),
    SystemCluster(("s",), "s"),
    VotedEdit(Edit(0, 1, ("x",)), frozenset({"s"})),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("source, annotations, error", [
    (SRC, (), ValidationError),  # no annotation set
    (SRC, ((Edit(2, 4, ("x",)),),), ValidationError),  # out of bounds
    (SRC, ((Edit(0, 1, ("a",)),),), ValidationError),  # no-op
    (SRC, ((Edit(0, 2, ("x",)), Edit(1, 3, ("y",))),), OverlapError),
])
def test_gold_sentence_validates_on_construction(source, annotations, error):
    with pytest.raises(error):
        GoldSentence(source, annotations)


def test_gold_sentence_normalizes_its_fields():
    later, earlier = Edit(2, 3, ("z",)), Edit(0, 1, ("x",))
    gold = GoldSentence(["a", "b", "c"], [[later, earlier]])
    assert type(gold.source) is TokenSentence
    assert gold.annotations == ((earlier, later),)
    assert gold == GoldSentence(source=SRC, annotations=((earlier, later),))


def test_system_output_validates_on_construction():
    with pytest.raises(ValidationError, match="non-empty"):
        SystemOutput("", ())
    with pytest.raises(ValidationError):
        SystemOutput("s", [("two words",)])
    assert type(OUT.sentences) is tuple and type(OUT.sentences[0]) is TokenSentence


@pytest.mark.parametrize("changes, message", [
    ({"method": "sorcery"}, "unknown method"),
    ({"n_min": 3}, "n_min must be within 0..2, got 3"),
    ({"n_min": -1}, "n_min must be within 0..2, got -1"),
    ({"name": ""}, "experiment name must be non-empty"),
    ({"method": "llm-rank", "jobs": 0}, "jobs must be >= 1, got 0"),
    ({"method": "llm-rank", "runs": 2, "seeds": (1,)}, "2 runs but 1 seeds"),
    ({"seed": 5}, "method vote does not read key 'seed'"),
])
def test_experiment_config_validates_on_construction_and_replace(changes, message):
    with pytest.raises(ValidationError, match=message):
        _config(**changes)
    with pytest.raises(ValidationError, match=message):
        _config()._replace(**changes)


def test_experiment_config_replace_keeps_the_other_fields():
    config = _config(n_min=1)
    changed = config._replace(n_min=2, name="exp.nmin2")
    assert type(changed) is ExperimentConfig
    assert changed == config._replace(n_min=2, name="exp.nmin2")
    assert (config.n_min, config.name) == (1, "exp")  # the original is untouched
    with pytest.raises(TypeError):
        config._replace(no_such_field=1)


GOLD = GoldSentence(SRC, ((Edit(0, 1, ("x",)),), ()))


@pytest.mark.parametrize("record, changes, error", [
    (GOLD, {"annotations": ()}, ValidationError),  # no annotation set
    (GOLD, {"annotations": ((Edit(2, 4, ("x",)),),)}, ValidationError),  # out of bounds
    (GOLD, {"annotations": ((Edit(0, 1, ("a",)),),)}, ValidationError),  # no-op
    (GOLD, {"annotations": ((Edit(0, 2, ("x",)), Edit(1, 3, ("y",))),)}, OverlapError),
    (GOLD, {"source": ("two words",)}, ValidationError),
    (GOLD, {"source": ("x",)}, ValidationError),  # the kept edit becomes a no-op
    (OUT, {"name": ""}, ValidationError),
    (OUT, {"sentences": [("two words",)]}, ValidationError),
    (_config(), {"method": "sorcery"}, ValidationError),
    (_config(), {"n_min": 3}, ValidationError),
    (_config(), {"name": ""}, ValidationError),
    (_config(), {"systems": ()}, ValidationError),
    (_config(), {"method": "rank"}, ValidationError),  # no score file
], ids=lambda v: type(v).__name__ if hasattr(v, "_fields") else None)
def test_replace_and_make_refuse_what_construction_refuses(record, changes, error):
    fields = {**record._asdict(), **changes}
    with pytest.raises(error):
        type(record)(**fields)
    with pytest.raises(error):
        record._replace(**changes)
    with pytest.raises(error):
        type(record)._make(fields.values())


@pytest.mark.parametrize("record", [GOLD, OUT, _config()], ids=lambda r: type(r).__name__)
def test_replace_and_make_of_a_checked_record(record):
    assert type(record._replace()) is type(record) and record._replace() == record
    assert type(type(record)._make(record)) is type(record)
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)
    with pytest.raises(TypeError):
        type(record)._make([*record, None])
