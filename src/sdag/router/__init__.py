"""Trainable subject router: graph network, loss, training, DAG generation."""

from .checkpoint import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from .generation import GenerationConfig, assemble_dag, generate_sdag
from .loss import PROB_EPS, LossConfig, edge_mask, loss_and_gradients, masked_bce_loss
from .model import RouterDims, RouterOutput, RouterParams, init_params, route
from .training import TrainConfig, TrainResult, TrainSample, train, train_router

__all__ = [
    "CHECKPOINT_VERSION",
    "load_checkpoint",
    "save_checkpoint",
    "GenerationConfig",
    "assemble_dag",
    "generate_sdag",
    "PROB_EPS",
    "LossConfig",
    "edge_mask",
    "loss_and_gradients",
    "masked_bce_loss",
    "RouterDims",
    "RouterOutput",
    "RouterParams",
    "init_params",
    "route",
    "TrainConfig",
    "TrainResult",
    "TrainSample",
    "train",
    "train_router",
]
