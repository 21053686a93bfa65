"""Sentimentality detection over facial action unit streams.

The pipeline: weak frame labels derived from ad-level annotations, a small
sigmoid MLP over 20 AU activations, per-ad aggregation into sentimentality
curves, and two ad-level KPIs (whole-ad and within-ad separability).

The package root re-exports only the names the benchmark's workloads call;
everything else is imported from its module (``sentipipe.metrics`` and so
on). Importing ``pipeline`` loads every stage module.
"""

from .aggregate import write_curves_csv
from .ingest import Dataset, filter_by_coverage
from .metrics import evaluate_kpis, write_kpi_report, write_kpi_table_csv
from .mlp import TrainConfig, save_model, train
from .pipeline import predict_curves, run_baselines, run_stages
from .synth import SynthConfig, generate
from .weak_label import LabelingConfig, extract_examples

__version__ = "0.1.0"
