"""Transductive one-shot inference over fixed features, with a fine-tuned
norm-induced feature transformation and a clustering-side analysis toolkit,
whose names live in :mod:`fttim.analysis`."""

from .features import (
    DegenerateVectorError,
    Episode,
    FeatureBank,
    FeatureFormatError,
    SyntheticTaskSpec,
    TooFewClassesError,
    class_separation_ratio,
    generate_synthetic_episode,
    l2_normalize_rows,
    load_feature_bank,
    sample_episode,
    write_feature_bank,
)
from .engine import (
    EpisodeFailure,
    LossTerms,
    RunResult,
    SolverState,
    TimConfig,
    init_transform,
    norm_induced_map,
    posteriors,
    predict_features,
    run_ft_tim,
    tim_gradients,
    tim_loss,
)
from .bench import (
    BankSource,
    CompareReport,
    EvalReport,
    SyntheticSource,
    compare,
    evaluate,
    export_embeddings,
    run_theory_suite,
)

__version__ = "0.1.0"
