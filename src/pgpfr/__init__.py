"""Data-free class-incremental learning with prototype-guided pseudo-feature replay."""

from .classifier import (AdamState, IncrementalClassifier, adam_step, expand,
                         new_classifier, predict)
from .dataio import (Dataset, TaskDataset, batches, load_csv, load_dataset,
                     save_dataset, split_schedule, synth_gaussian)
from .engine import (ExperimentState, TaskSchedule, TrainConfig,
                     run_experiment, run_incremental_task, run_task0)
from .extractor import Extractor, ExtractorSpec, train_task0
from .losses import (LossConfig, LossValueGrad, replay_ce_loss, tce_loss,
                     total_loss, vpr_loss)
from .metrics import MetricsRecord, accuracy, ifm, summarize
from .numerics import cosine_sim
from .prototypes import PrototypeStore, fit_class_statistics, register
from .replay import generate_pseudo_batch, merge

__version__ = "0.1.0"
