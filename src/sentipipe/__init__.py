"""Sentimentality detection over facial action unit streams.

The pipeline: weak frame labels derived from ad-level annotations, a small
sigmoid MLP over 20 AU activations, per-ad aggregation into sentimentality
curves, and two ad-level KPIs (whole-ad and within-ad separability).
"""

from .aggregate import (
    DEFAULT_STEP_S,
    aggregate_ad,
    aggregate_columns,
    aggregate_scores,
    export_curve_svg,
    max_over_interval,
    n_bins_for,
    read_curves_csv,
    score_video,
    write_curves_csv,
)
from .core import (
    CANONICAL_AU_NAMES,
    FRAME_DTYPE,
    N_AUS,
    AdLabel,
    AdSpec,
    AggregateCurve,
    AuVector,
    Interval,
    LabeledExample,
    VideoRecord,
    active_au_count,
    canonical_au_index,
)
from .errors import (
    ConfigError,
    DegenerateComplement,
    DegenerateTrainingSet,
    EmptyInterval,
    EmptyScoreList,
    InsufficientAds,
    NoMoments,
    NoPredictions,
    SchemaError,
    SentiPipeError,
    UnknownAdId,
    UnknownAuName,
    ValidationError,
)
from .ingest import (
    DEFAULT_MIN_COVERAGE,
    Dataset,
    face_coverage,
    filter_by_coverage,
    load_dataset,
    parse_ad_annotations,
    parse_au_stream,
    write_ad_annotations,
    write_au_stream,
    write_dataset,
)
from .metrics import (
    AdScore,
    KpiReport,
    chance_baseline,
    complement_intervals,
    curve_max,
    evaluate_kpis,
    kpi_roc_ad,
    kpi_roc_sent,
    roc_auc,
    single_au_baselines,
    write_kpi_report,
    write_kpi_table_csv,
)
from .mlp import (
    MODEL_FORMAT,
    MlpParams,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    evaluate_accuracy,
    forward,
    load_model,
    save_model,
    train,
)
from .pipeline import ChainResult, predict_curves, run_baselines, run_chain, run_stages
from .synth import SynthConfig, SynthData, expected_positive_rate, generate, generate_null
from .weak_label import (
    LabelingConfig,
    LabelSummary,
    extract_examples,
    frame_in_moments,
    label_summary,
    read_examples_jsonl,
    write_examples_jsonl,
)

__version__ = "0.1.0"
