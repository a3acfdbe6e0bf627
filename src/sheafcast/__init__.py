"""sheafcast: continuous-time forecasting of networked neural activity.

The package couples per-node temporal encoding (LSTM stalks), sheaf-based
message passing over a Granger-derived prior graph, and a neural ODE
integrated with fixed-step RK4. A leaky integrate-and-fire simulator
provides synthetic spiking data, including single-neuron silencing
perturbations for out-of-distribution evaluation.
"""

__version__ = "0.1.0"

from .graphs import (BrainGraph, PriorGraph, generate_small_world,
                     granger_score_matrix, prior_from_scores)
from .neurosim import (LifParams, PerturbationSpec, SimulationRecord,
                       bin_and_smooth, sample_perturbation, simulate,
                       simulate_many)
from .data import TrajectoryWindow, make_perturbed_windows, make_windows
from .encoder import LstmParams, encode_all
from .sheaf import SheafParameters, message_pass, sheaf_laplacian_apply
from .dynamics import VectorFieldParams
from .model import ForecastModel, ModelConfig
from .training import (ModelCheckpoint, TrainingConfig, adamw_step,
                       cross_validate, load_checkpoint, loss_mse, loss_prior,
                       loss_sparse, save_checkpoint, total_loss, train)
from .metrics import MetricReport, dtw_normalized, evaluate, mae, mse

__all__ = [
    "__version__",
    "BrainGraph", "PriorGraph", "generate_small_world", "granger_score_matrix",
    "prior_from_scores",
    "LifParams", "PerturbationSpec", "SimulationRecord", "simulate",
    "simulate_many", "bin_and_smooth", "sample_perturbation",
    "TrajectoryWindow", "make_windows", "make_perturbed_windows",
    "LstmParams", "encode_all",
    "SheafParameters", "sheaf_laplacian_apply", "message_pass",
    "VectorFieldParams",
    "ForecastModel", "ModelConfig",
    "TrainingConfig", "ModelCheckpoint", "loss_mse", "loss_sparse",
    "loss_prior", "total_loss", "adamw_step", "train", "cross_validate",
    "save_checkpoint", "load_checkpoint",
    "MetricReport", "mse", "mae", "dtw_normalized", "evaluate",
]
