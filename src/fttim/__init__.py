"""Transductive one-shot inference over fixed features, with a fine-tuned
norm-induced feature transformation and a clustering-side analysis toolkit."""

from .features import (
    DegenerateVectorError,
    Episode,
    FeatureBank,
    FeatureFormatError,
    SyntheticTaskSpec,
    class_separation_ratio,
    generate_synthetic_episode,
    l2_normalize_rows,
    load_feature_bank,
    sample_episode,
    write_feature_bank,
)
from .transform import init_transform, norm_induced_map
from .engine import (
    EpisodeFailure,
    LossTerms,
    RunResult,
    SemiSupervisedResult,
    SolverState,
    TimConfig,
    load_checkpoint,
    posteriors,
    predict_features,
    run_ft_tim,
    run_semi_supervised,
    save_checkpoint,
    tim_gradients,
    tim_loss,
)
from .analysis import (
    AssignmentMatrix,
    BoundCheck,
    InternalConsistencyError,
    KMeansResult,
    ObjectiveBreakdown,
    alternate_kmeans,
    bound_check,
    clustering_term,
    entropy_decomposition,
    kkt_soft_assignments,
    kmeans_objective,
    make_random_instance,
    minimize_soft_assignment_rows,
    mm_iteration,
    project_simplex_rows,
    soft_assignment_objective,
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
