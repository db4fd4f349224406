"""Data-free class-incremental learning with prototype-guided pseudo-feature replay.

The package exports what a library user runs: the datasets and their I/O,
the experiment loop and its configs, the classification head, and the
paper's components (PFGBP pseudo features, the class-statistics store, and
the replay CE, TCE and VPR losses). Everything else lives in its module, may
change, and carries no error contract.
"""

from .classifier import new_classifier, predict
from .dataio import Dataset, load_csv, load_dataset, save_dataset, synth_gaussian
from .engine import ExperimentState, TaskSchedule, TrainConfig, run_experiment
from .extractor import ExtractorSpec
from .losses import LossConfig, replay_ce_loss, tce_loss, vpr_loss
from .metrics import MetricsRecord, summarize
from .prototypes import PrototypeStore, fit_class_statistics
from .replay import generate_pseudo_batch

__version__ = "0.1.0"
