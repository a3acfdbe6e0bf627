"""Learnable sheaf structure over the prior graph.

Each directed edge (src, dst) carries two restriction maps that transport
the endpoint stalks into a shared edge space. A shared attention vector
produces per-endpoint gates, the gated difference is the edge discrepancy,
and pulling discrepancies back to the nodes (with a minus sign for the dst
role) yields the sheaf Laplacian. Message passing applies H <- H - L(H).

Sign convention: for a stored edge (s, d), delta = alpha_s * rho_s h_s -
alpha_d * rho_d h_d; node s accumulates +rho_s^T delta and node d
accumulates -rho_d^T delta. With identity maps and equal gates of 1/2 this
reduces to half the classical graph Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (InvalidParameterError, MissingEdgeParametersError,
                     ShapeMismatchError, UnknownEdgeError)


@dataclass
class SheafParameters:
    """Per-edge restriction maps plus the shared attention vector."""

    rho_src: ad.Tensor                # (n_edges, m, d)
    rho_dst: ad.Tensor                # (n_edges, m, d)
    attention: ad.Tensor              # (m,)
    edges: np.ndarray                 # (n_edges, 2) int
    n_nodes: int
    rounds: int = 2
    normalize: bool = False

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        e, m, d = self.rho_src.data.shape
        if self.rho_dst.data.shape != (e, m, d):
            raise ShapeMismatchError("rho_src/rho_dst shapes differ")
        if self.attention.data.shape != (m,):
            raise ShapeMismatchError("attention vector must have the map dimension")
        if e != len(self.edges):
            raise MissingEdgeParametersError(
                f"{e} restriction-map pairs for {len(self.edges)} edges")
        if self.rounds < 0:
            raise InvalidParameterError("rounds must be >= 0")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def map_dim(self) -> int:
        return self.rho_src.data.shape[1]

    @property
    def stalk_dim(self) -> int:
        return self.rho_src.data.shape[2]

    @classmethod
    def init(cls, edges, n_nodes: int, stalk_dim: int, map_dim: int = 0,
             rounds: int = 2, normalize: bool = False,
             rng: np.random.Generator | None = None,
             identity: bool = False) -> "SheafParameters":
        """Near-identity initialization so training starts close to the
        half-graph-Laplacian regime. `identity=True` freezes exact identity
        maps (the plain-graph ablation)."""
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        m = map_dim or stalk_dim
        eye = np.broadcast_to(np.eye(m, stalk_dim), (len(edges), m, stalk_dim)).copy()
        if identity:
            if m != stalk_dim:
                raise InvalidParameterError("identity sheaf needs map_dim == stalk_dim")
            rho_s, rho_d = eye, eye.copy()
            trainable = False
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            rho_s = eye + rng.uniform(-0.01, 0.01, size=eye.shape)
            rho_d = eye + rng.uniform(-0.01, 0.01, size=eye.shape)
            trainable = True
        return cls(rho_src=ad.Tensor(rho_s, requires_grad=trainable),
                   rho_dst=ad.Tensor(rho_d, requires_grad=trainable),
                   attention=ad.Tensor(np.zeros(m), requires_grad=trainable),
                   edges=edges, n_nodes=n_nodes, rounds=rounds,
                   normalize=normalize)

    def parameters(self) -> dict:
        out = {}
        if self.rho_src.requires_grad:
            out = {"sheaf.rho_src": self.rho_src, "sheaf.rho_dst": self.rho_dst,
                   "sheaf.attention": self.attention}
        return out

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes)
        np.add.at(deg, self.edges[:, 0], 1.0)
        np.add.at(deg, self.edges[:, 1], 1.0)
        return deg


@dataclass
class EdgeDiscrepancy:
    """Single-edge discrepancy with the gates that produced it."""

    delta: np.ndarray
    alpha_src: float
    alpha_dst: float


def edge_project(h, rho):
    """Transport a stalk vector into the edge space: rho @ h."""
    h = ad.lift(h)
    rho = ad.lift(rho)
    if rho.data.ndim != 2 or h.data.ndim != 1 or rho.data.shape[1] != h.data.shape[0]:
        raise ShapeMismatchError(
            f"edge_project: map {rho.data.shape} incompatible with stalk {h.data.shape}")
    return (rho @ h.reshape(-1, 1)).reshape(rho.data.shape[0])


def attention_coeffs(h_src_proj, h_dst_proj, a):
    """Logistic gates sigma(a^T h) for both projected endpoints."""
    a = ad.lift(a)
    h_src_proj, h_dst_proj = ad.lift(h_src_proj), ad.lift(h_dst_proj)
    if h_src_proj.data.shape != a.data.shape or h_dst_proj.data.shape != a.data.shape:
        raise ShapeMismatchError("projected stalks must match the attention vector")
    col = a.reshape(-1, 1)
    alpha_src = ad.sigmoid(h_src_proj.reshape(1, -1) @ col).reshape(())
    alpha_dst = ad.sigmoid(h_dst_proj.reshape(1, -1) @ col).reshape(())
    return alpha_src, alpha_dst


def edge_discrepancy(edge, H, params: SheafParameters) -> EdgeDiscrepancy:
    """Gated discrepancy of one stored edge, evaluated in plain numpy."""
    edge = (int(edge[0]), int(edge[1]))
    matches = np.flatnonzero((params.edges[:, 0] == edge[0])
                             & (params.edges[:, 1] == edge[1]))
    if len(matches) == 0:
        raise UnknownEdgeError(f"edge {edge} not in the working graph")
    k = int(matches[0])
    h = H.data if isinstance(H, ad.Tensor) else np.asarray(H, dtype=np.float64)
    proj_s = params.rho_src.data[k] @ h[edge[0]]
    proj_d = params.rho_dst.data[k] @ h[edge[1]]
    a = params.attention.data
    alpha_s = float(1.0 / (1.0 + np.exp(-a @ proj_s)))
    alpha_d = float(1.0 / (1.0 + np.exp(-a @ proj_d)))
    return EdgeDiscrepancy(delta=alpha_s * proj_s - alpha_d * proj_d,
                           alpha_src=alpha_s, alpha_dst=alpha_d)


def _check_graph(params: SheafParameters, graph) -> None:
    if graph is None:
        return
    stored = {tuple(e) for e in params.edges}
    wanted = set(graph.edges)
    if stored != wanted or params.n_nodes != graph.n_nodes:
        raise MissingEdgeParametersError(
            "sheaf parameters do not cover the working graph's edge set")


def _discrepancies(H: ad.Tensor, params: SheafParameters, alpha_override):
    if H.data.shape[-2:] != (params.n_nodes, params.stalk_dim):
        raise ShapeMismatchError(
            f"stalk matrix {H.data.shape} does not match "
            f"({params.n_nodes}, {params.stalk_dim})")
    proj_src = ad.edge_matvec(params.rho_src, H[..., params.edges[:, 0], :])
    proj_dst = ad.edge_matvec(params.rho_dst, H[..., params.edges[:, 1], :])
    if alpha_override is None:
        col = params.attention.reshape(-1, 1)
        alpha_src = ad.sigmoid(proj_src @ col)
        alpha_dst = ad.sigmoid(proj_dst @ col)
        delta = alpha_src * proj_src - alpha_dst * proj_dst
    else:
        delta = float(alpha_override) * (proj_src - proj_dst)
    return delta


def _laplacian_from_delta(delta: ad.Tensor, params: SheafParameters) -> ad.Tensor:
    """Pull edge discrepancies back to the nodes: the Laplacian's second half."""
    pull_src = ad.edge_matvec_t(params.rho_src, delta)
    pull_dst = ad.edge_matvec_t(params.rho_dst, delta)
    out = (ad.index_add_rows(pull_src, params.edges[:, 0], params.n_nodes)
           - ad.index_add_rows(pull_dst, params.edges[:, 1], params.n_nodes))
    if params.normalize:
        out = out * (1.0 / (1.0 + params.degrees()))[:, None]
    return out


def sheaf_laplacian_apply(H, params: SheafParameters, graph=None,
                          alpha_override=None) -> ad.Tensor:
    """Apply the learnable sheaf Laplacian to an (n, d) stalk matrix or a
    (..., n, d) stack of them.

    `alpha_override` pins every gate to a constant, bypassing the sigmoid
    (used by the positive-semidefiniteness checks with alpha = 1).
    """
    _check_graph(params, graph)
    delta = _discrepancies(ad.lift(H), params, alpha_override)
    return _laplacian_from_delta(delta, params)


def message_pass(H0, params: SheafParameters, graph=None, alpha_override=None,
                 return_first_discrepancy: bool = False):
    """Run `params.rounds` rounds of H <- H - L(H).

    Gates are recomputed from the current stalks every round. With
    `return_first_discrepancy` the (..., n_edges, m) discrepancy of the first
    round (computed from H0 even when rounds == 0) is returned as well,
    which is what the sparsity and prior losses consume; round one reuses it.
    """
    _check_graph(params, graph)
    H = ad.lift(H0)
    first_delta = None
    if return_first_discrepancy:
        first_delta = _discrepancies(H, params, alpha_override)
    for r in range(params.rounds):
        delta = (first_delta if r == 0 and first_delta is not None
                 else _discrepancies(H, params, alpha_override))
        H = H - _laplacian_from_delta(delta, params)
    if return_first_discrepancy:
        return H, first_delta
    return H
