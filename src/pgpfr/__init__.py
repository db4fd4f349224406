"""Data-free class-incremental learning with prototype-guided pseudo-feature replay."""

from .classifier import (AdamState, IncrementalClassifier, adam_step, expand,
                         logits, new_classifier, predict)
from .dataio import (Dataset, TaskDataset, batches, load_csv, load_dataset,
                     save_dataset, split_schedule, synth_gaussian)
from .engine import (ExperimentState, TaskSchedule, TrainConfig,
                     run_experiment, run_incremental_task, run_task0)
from .extractor import Extractor, ExtractorSpec, init as init_extractor, train_task0
from .losses import (LossConfig, LossValueGrad, proto_loss, replay_ce_loss,
                     tce_loss, total_loss, vpr_loss)
from .metrics import MetricsRecord, accuracy, ifm, summarize
from .numerics import cosine_sim, covariance, mean_rows
from .prototypes import (ClassStatistics, PrototypeStore,
                         batch_class_prototypes, fit_class_statistics,
                         register)
from .replay import (MergedBatch, PseudoBatch, assign_pseudo_label,
                     generate_pseudo_batch, merge)

__version__ = "0.1.0"
