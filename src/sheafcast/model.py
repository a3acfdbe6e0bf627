"""Full forecasting pipeline: encode -> sheaf message passing -> neural ODE.

A model instance is bound to one working graph (the prior's edge set). The
forward pass encodes each node's context into a stalk, runs the configured
rounds of sheaf message passing, then integrates the per-node vector field
over the horizon with the stalks held fixed.

Ablations:
  * "graph":   restriction maps frozen to the identity, gates pinned to 1,
               reducing the sheaf to plain graph-Laplacian diffusion.
  * "no_lstm": stalks are the raw context fitted to the stalk dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .dynamics import Horizon, VectorFieldParams, field_batch, rk4_states
from .encoder import LstmParams, encode_all, raw_stalks
from .errors import InvalidParameterError, ShapeMismatchError
from .sheaf import SheafParameters, message_pass

ABLATIONS = ("full", "graph", "no_lstm")
# the parameter group (tensor-name prefix) each ablation freezes
FROZEN = {"graph": "sheaf.", "no_lstm": "lstm."}


@dataclass
class ModelConfig:
    stalk_dim: int = 32
    map_dim: int = 0                  # 0 means "same as stalk_dim"
    rounds: int = 2
    normalize: bool = False
    field_width: int = 64
    dt: float = 1.0
    ablation: str = "full"

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise InvalidParameterError(f"unknown ablation {self.ablation!r}")
        if self.stalk_dim < 1 or self.field_width < 1:
            raise InvalidParameterError("stalk_dim and field_width must be >= 1")
        if self.map_dim < 0 or self.rounds < 0:
            raise InvalidParameterError("map_dim and rounds must be >= 0")
        if not self.dt > 0:
            raise InvalidParameterError("dt must be positive")
        if self.map_dim == 0:
            self.map_dim = self.stalk_dim
        if self.ablation == "graph" and self.map_dim != self.stalk_dim:
            raise InvalidParameterError("graph ablation needs map_dim == stalk_dim")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ForecastModel:
    config: ModelConfig
    lstm: LstmParams
    sheaf: SheafParameters
    vfield: VectorFieldParams

    @classmethod
    def init(cls, edges, n_nodes: int, config: ModelConfig, seed: int) -> "ForecastModel":
        rng = np.random.default_rng(seed)
        lstm = LstmParams.init(config.stalk_dim, rng)
        sheaf = SheafParameters.init(
            edges, n_nodes, stalk_dim=config.stalk_dim, map_dim=config.map_dim,
            rounds=config.rounds, normalize=config.normalize, rng=rng,
            identity=(config.ablation == "graph"))
        vfield = VectorFieldParams.init(config.stalk_dim, config.field_width, rng)
        return cls(config=config, lstm=lstm, sheaf=sheaf, vfield=vfield)._freeze()

    @classmethod
    def from_arrays(cls, edges, n_nodes: int, config: ModelConfig,
                    arrays: dict) -> "ForecastModel":
        """A model holding `arrays` themselves, not copies (keyed like
        `all_tensors`, no other key; float64 arrays are not converted), each
        group as trainable as `init` makes it; no random draws."""
        d, m, width = config.stalk_dim, config.map_dim, config.field_width
        n_edges = len(np.asarray(edges).reshape(-1, 2))
        shapes = {"lstm.w_x": (1, 4 * d), "lstm.w_h": (d, 4 * d), "lstm.bias": (4 * d,),
                  "sheaf.rho_src": (n_edges, m, d), "sheaf.rho_dst": (n_edges, m, d),
                  "sheaf.attention": (m,),
                  "field.w1": (d + 1, width),
                  "field.b1": (width,), "field.w2": (width, 1), "field.b2": (1,)}
        unknown = sorted(set(arrays) - set(shapes))
        if unknown:
            raise ShapeMismatchError(f"arrays {unknown} are not parameters of the model")
        for name, shape in shapes.items():
            got = np.shape(arrays[name]) if name in arrays else None
            if got != shape:
                raise ShapeMismatchError(f"array {name} has shape {got}, expected {shape}")

        def tensor(name):
            return ad.Tensor(arrays[name])

        return cls(config=config,
                   lstm=LstmParams(tensor("lstm.w_x"), tensor("lstm.w_h"),
                                   tensor("lstm.bias")),
                   sheaf=SheafParameters(tensor("sheaf.rho_src"),
                                         tensor("sheaf.rho_dst"),
                                         tensor("sheaf.attention"),
                                         edges=edges, n_nodes=n_nodes,
                                         rounds=config.rounds,
                                         normalize=config.normalize),
                   vfield=VectorFieldParams(tensor("field.w1"), tensor("field.b1"),
                                            tensor("field.w2"), tensor("field.b2")))._freeze()

    def _freeze(self) -> "ForecastModel":
        """Train every tensor but those of the group the ablation freezes."""
        frozen = FROZEN.get(self.config.ablation)
        for name, t in self.all_tensors().items():
            t.requires_grad = frozen is None or not name.startswith(frozen)
        return self

    @property
    def n_nodes(self) -> int:
        return self.sheaf.n_nodes

    def parameters(self) -> dict:
        """Trainable tensors only; the ablation's frozen group is left out."""
        return {k: t for k, t in self.all_tensors().items() if t.requires_grad}

    def all_tensors(self) -> dict:
        """Every parameter group, trainable or not (checkpoint surface)."""
        return {**self.lstm.parameters(), **self.sheaf.parameters(),
                **self.vfield.parameters()}

    def stalks(self, context: np.ndarray) -> ad.Tensor:
        if self.config.ablation == "no_lstm":
            return ad.Tensor(raw_stalks(context, self.config.stalk_dim))
        return encode_all(context, self.lstm)

    def forward(self, context: np.ndarray, t_hor: int):
        """Forecast t_hor steps from one (n, t_ctx) context or a (B, n, t_ctx)
        window stack; returns (predictions (..., n, t_hor), first-round edge
        discrepancies (..., n_edges, m)). The LSTM sequence and the RK4
        horizon are one tape node each, and both keep the window axis, so
        their matrix products stay window-sized."""
        context = np.asarray(context, dtype=np.float64)
        if context.ndim not in (2, 3) or context.shape[-2] != self.n_nodes:
            raise ShapeMismatchError(
                f"context {context.shape} does not match the {self.n_nodes}-node graph")
        if t_hor < 1:
            raise InvalidParameterError(f"t_hor must be >= 1, got {t_hor}")
        alpha_override = 1.0 if self.config.ablation == "graph" else None
        h_final, delta = message_pass(self.stalks(context), self.sheaf,
                                      alpha_override=alpha_override)
        dt, n_steps = self.config.dt, int(t_hor)
        horizon = Horizon(h_final, self.vfield, dt, n_steps)
        states = rk4_states(lambda _t, x: field_batch(x, horizon),
                            context[..., -1], 0.0, dt, n_steps)
        return horizon.node(states), delta

    def predict(self, context: np.ndarray, t_hor: int) -> np.ndarray:
        """Numpy forecast without tape recording."""
        with ad.no_grad():
            pred, _ = self.forward(context, t_hor)
        return pred.data
