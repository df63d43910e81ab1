"""Toolkit for combining and evaluating grammatical error correction systems.

Core pieces:

- :mod:`geckit.corpus`: file formats, the Edit type and edit-set validity.
- :mod:`geckit.align`: edit extraction and application.
- :mod:`geckit.scoring`: MaxMatch-style F0.5 scoring.
- :mod:`geckit.vote`: majority-vote edit ensembling.
- :mod:`geckit.oracle`: gold-informed upper bounds.
- :mod:`geckit.ranking`: score-based selection and similarity clustering.
- :mod:`geckit.llm`: chat-model candidate ranking with offline mocks.
- :mod:`geckit.experiment`: reproducible experiment configs and sweeps.
"""

from .align import EditTable, apply_edits, extract_edits
from .corpus import (
    Edit,
    GoldSentence,
    M2ParseError,
    OverlapError,
    ScoreFile,
    SystemOutput,
    TokenSentence,
    ValidationError,
    conflicts,
    load_m2,
    load_parallel,
    load_score_file,
    load_system_output,
    save_m2,
    save_parallel,
    serialize_m2,
    serialize_parallel,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    ablation_remove_one,
    load_config,
    run_experiment,
    sweep_n_min,
)
from .llm import (
    BackendSetupError,
    MockLabelBackend,
    MockLexminBackend,
    RankedRun,
    build_prompt,
    llm_rank_corpus,
    make_backend,
    parse_response,
)
from .oracle import oracle_ensemble, oracle_ensemble_corpus, oracle_rank, oracle_rank_corpus
from .ranking import (
    SimilarityMatrix,
    SystemCluster,
    aggr_rank,
    cluster_systems,
    rank_by_score,
    rank_weighted,
    similarity_matrix,
    weight_candidates,
)
from .scoring import ScoreReport, f_beta, round_score, score_corpus, sentence_counts
from .seeds import derive_rng, derive_seed
from .vote import VotedEdit, majority_vote, majority_vote_corpus, pool_edits, voted_edits

__version__ = "0.1.0"

__all__ = [
    "BackendSetupError",
    "Edit",
    "EditTable",
    "ExperimentConfig",
    "ExperimentResult",
    "GoldSentence",
    "M2ParseError",
    "MockLabelBackend",
    "MockLexminBackend",
    "OverlapError",
    "RankedRun",
    "ScoreFile",
    "ScoreReport",
    "SimilarityMatrix",
    "SystemCluster",
    "SystemOutput",
    "TokenSentence",
    "ValidationError",
    "VotedEdit",
    "ablation_remove_one",
    "aggr_rank",
    "apply_edits",
    "build_prompt",
    "cluster_systems",
    "conflicts",
    "derive_rng",
    "derive_seed",
    "extract_edits",
    "f_beta",
    "llm_rank_corpus",
    "load_config",
    "load_m2",
    "load_parallel",
    "load_score_file",
    "load_system_output",
    "majority_vote",
    "majority_vote_corpus",
    "make_backend",
    "oracle_ensemble",
    "oracle_ensemble_corpus",
    "oracle_rank",
    "oracle_rank_corpus",
    "parse_response",
    "pool_edits",
    "rank_by_score",
    "rank_weighted",
    "round_score",
    "run_experiment",
    "save_m2",
    "save_parallel",
    "score_corpus",
    "sentence_counts",
    "serialize_m2",
    "serialize_parallel",
    "similarity_matrix",
    "sweep_n_min",
    "voted_edits",
    "weight_candidates",
    "__version__",
]
