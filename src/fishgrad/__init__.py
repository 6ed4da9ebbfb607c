"""fishgrad: squared-gradient parameter scoring, sparse-mask fine-tuning,
and the alternating sample/parameter halving search, on a self-contained
float64 reverse-mode differentiation core."""

__version__ = "0.1.0"

from .autodiff import (ShapeMismatch, Tape, Tensor, finite_difference_gradient,
                       log_prob_gradient, loss_gradient, per_sample_gradients)
from .data import Dataset, SyntheticSpec, featurize_text, generate, load, save, split
from .fisher import (FisherDiagonal, Mask, SampleScore, SampleSubset,
                     empirical_fisher, expectation_fisher, mask_size,
                     random_mask, sample_scores, top_k_mask)
from .search import (CellComparison, GridResult, GridSpec, IRDConfig, IRDTrace,
                     Task, compare_grids, ird, ird_inverse, run_grid,
                     staircase_cells)
from .metrics import (accuracy, combined_score, f1, mcc, pearson,
                      pearson_spearman_mean, score, spearman)
from .models import Model, ModelSpec, ParamVector, build, load_checkpoint, save_checkpoint
from .report import comparison_csv, render_heatmap
from .training import (AdamState, TrainConfig, TrainReport, TrainingDiverged,
                       adam_step, early_stop_check, sgd_step, train_masked)
