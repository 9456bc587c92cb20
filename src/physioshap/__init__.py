"""Explainable emotion prediction from peripheral physiological signals.

Pipeline: per-channel preprocessing, singular spectrum decomposition,
entropy/energy features, GOSS-boosted trees, exact tree attribution, and
leave-one-subject-out evaluation with attribution-guided feature selection.
"""

from .entropy import (
    FEATURE_NAMES,
    EntropyConfig,
    FeatureVector,
    energy,
    extract_feature_vector,
    fuzzy_entropy,
    sample_entropy,
)
from .errors import PhysioShapError
from .evaluate import (
    CvReport,
    Dataset,
    DatasetRow,
    Metrics,
    binarize_label,
    compute_metrics,
    loso_split,
    wilcoxon_signed_rank,
)
from .explain import (
    ImportanceRanking,
    InteractionMatrix,
    ShapExplanation,
    global_importance,
    select_features,
    shap_interactions,
    shap_values_batch,
)
from .gbdt import (
    FlatTree,
    GbdtModel,
    SearchSpace,
    TrainConfig,
    fit,
    goss_sample,
    grow_tree,
    load_model,
    predict,
    random_search,
    save_model,
    train,
)
from .pipeline import RunConfig, extract_dataset, run_loso_explained, trial_features
from .signals import (
    ChannelKind,
    PreprocessConfig,
    Trial,
    baseline_correct,
    detrend_quadratic,
    moving_average_smooth,
    preprocess_trial,
    scr_split,
    znormalize,
)
from .ssa import (
    SsaConfig,
    SsaDecomposition,
    decompose,
    diagonal_average,
    embed,
    hard_threshold_rank,
    reconstruct_selected,
)
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
