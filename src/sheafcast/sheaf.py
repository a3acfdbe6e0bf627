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
                     ShapeMismatchError)
from .graphs import check_edges


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
        self.edges = check_edges(self.edges, self.n_nodes)
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
    def stalk_dim(self) -> int:
        return self.rho_src.data.shape[2]

    @classmethod
    def init(cls, edges, n_nodes: int, stalk_dim: int, map_dim: int = 0,
             rounds: int = 2, normalize: bool = False,
             rng: np.random.Generator | None = None,
             identity: bool = False) -> "SheafParameters":
        """Near-identity initialization so training starts close to the
        half-graph-Laplacian regime. `identity=True` gives exact identity
        maps (the plain-graph ablation, whose model freezes them)."""
        edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        m = map_dim or stalk_dim
        shape = (len(edges), m, stalk_dim)
        if identity:
            if m != stalk_dim:
                raise InvalidParameterError("identity sheaf needs map_dim == stalk_dim")
            rho_s = np.broadcast_to(np.eye(m, stalk_dim), shape).copy()
            rho_d = rho_s.copy()
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            # identity plus noise, the identity added on the diagonal only
            diag = np.arange(min(m, stalk_dim))
            rho_s, rho_d = (rng.uniform(-0.01, 0.01, size=shape) for _ in range(2))
            for rho in (rho_s, rho_d):
                rho[:, diag, diag] += 1.0
        return cls(rho_src=ad.Tensor(rho_s, requires_grad=True),
                   rho_dst=ad.Tensor(rho_d, requires_grad=True),
                   attention=ad.Tensor(np.zeros(m), requires_grad=True),
                   edges=edges, n_nodes=n_nodes, rounds=rounds,
                   normalize=normalize)

    def parameters(self) -> dict:
        return {"sheaf.rho_src": self.rho_src, "sheaf.rho_dst": self.rho_dst,
                "sheaf.attention": self.attention}

    def degrees(self) -> np.ndarray:
        return (np.bincount(self.edges[:, 0], minlength=self.n_nodes)
                + np.bincount(self.edges[:, 1], minlength=self.n_nodes)).astype(np.float64)


# edges per GEMM block in `_outer_sum`: 1 MB of output at m = d = 32
_EDGE_CHUNK = 128


# ----------------------------------------------------------------------
# the numpy kernel: node and edge rows are (rows, k, B) arrays with the B
# windows on the last axis, so each per-edge product is one GEMM of an
# edge's map with every window as a column
# ----------------------------------------------------------------------
def _stalk_data(H, params: SheafParameters) -> np.ndarray:
    h = H.data if isinstance(H, ad.Tensor) else np.asarray(H, dtype=np.float64)
    if h.ndim < 2 or h.shape[-2:] != (params.n_nodes, params.stalk_dim):
        raise ShapeMismatchError(
            f"stalk matrix {h.shape} does not match "
            f"({params.n_nodes}, {params.stalk_dim})")
    return h


def _windows_last(x: np.ndarray) -> np.ndarray:
    """A (..., k, c) array as a (k, c, B) view, its windows on the last axis."""
    return np.moveaxis(x.reshape((-1,) + x.shape[-2:]), 0, -1)


def _windows_first(x: np.ndarray, lead: tuple) -> np.ndarray:
    """A (k, c, B) array back as a contiguous (*lead, k, c) array."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(lead + x.shape[:-1])


def _transport(maps: np.ndarray, H: np.ndarray, index: np.ndarray) -> np.ndarray:
    """`maps[e] @ H[index[e]]` for every edge e: E edge-major GEMMs,
    (E, m, d) @ (E, d, B) -> (E, m, B)."""
    return maps @ H[index]


def _scatter(rows: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum (E, d, B) edge rows into (n_rows, d, B) node rows by `index`, in
    edge order: one flat bincount, bit-identical to `np.add.at`."""
    k = rows.shape[1] * rows.shape[2]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, rows.ravel(), minlength=n_rows * k).reshape(
        (n_rows,) + rows.shape[1:])


def _outer_sum(pairs, index, out=None) -> np.ndarray:
    """Per edge e, the sum over the (a, b) `pairs` and over the windows of
    the outer products a[e] b[index[e]]^T: (E, m, B) edge rows `a` and
    (n, d, B) node rows `b` give (E, m, d), added to `out` when given.

    Each block of edges is one GEMM per edge with every pair's windows on
    its inner axis; blocks keep every temporary a block in size."""
    fresh = out is None
    if fresh:
        out = np.empty((len(index), pairs[0][0].shape[1], pairs[0][1].shape[1]))
    for lo in range(0, len(index), _EDGE_CHUNK):
        e = slice(lo, lo + _EDGE_CHUNK)
        lhs = np.concatenate([a[e] for a, _ in pairs], axis=-1)
        rhs = np.concatenate([np.swapaxes(b[index[e]], 1, 2) for _, b in pairs], axis=1)
        if fresh:
            np.matmul(lhs, rhs, out=out[e])
        else:
            out[e] += lhs @ rhs
    return out


def _project(H: np.ndarray, params: SheafParameters, alpha_override):
    """One round's (E, m, B) discrepancies of (n, d, B) stalks, and the
    gating they came from: both projections and both (E, 1, B) gates, or
    None when the gates are pinned."""
    proj_s = _transport(params.rho_src.data, H, params.edges[:, 0])
    proj_d = _transport(params.rho_dst.data, H, params.edges[:, 1])
    if alpha_override is not None:
        return float(alpha_override) * (proj_s - proj_d), None
    a = params.attention.data
    gating = (proj_s, proj_d, ad.sigmoid(a @ proj_s).data[:, None],
              ad.sigmoid(a @ proj_d).data[:, None])
    return _gate(*gating), gating


def _gate(proj_s, proj_d, gate_s, gate_d) -> np.ndarray:
    return gate_s * proj_s - gate_d * proj_d


def _pull(delta: np.ndarray, params: SheafParameters) -> np.ndarray:
    """The Laplacian term (n, d, B) of one round's discrepancies: each is
    pulled back through both transposed maps and summed on the nodes."""
    n = params.n_nodes
    out = (_scatter(np.swapaxes(params.rho_src.data, 1, 2) @ delta, params.edges[:, 0], n)
           - _scatter(np.swapaxes(params.rho_dst.data, 1, 2) @ delta, params.edges[:, 1], n))
    if params.normalize:
        out *= (1.0 / (1.0 + params.degrees()))[:, None, None]
    return out


def sheaf_laplacian_apply(H, params: SheafParameters, alpha_override=None) -> ad.Tensor:
    """Apply the learnable sheaf Laplacian to an (n, d) stalk matrix or a
    (..., n, d) stack of them. It runs the kernel of one `message_pass`
    round and is not recorded on the tape.

    `alpha_override` pins every gate to a constant, bypassing the sigmoid
    (used by the positive-semidefiniteness checks with alpha = 1).
    """
    h = _stalk_data(H, params)
    delta, _ = _project(_windows_last(h), params, alpha_override)
    return ad.Tensor(_windows_first(_pull(delta, params), h.shape[:-2]))


def message_pass(H0, params: SheafParameters, alpha_override=None):
    """Run `params.rounds` rounds of H <- H - L(H) as one tape node.

    Gates are recomputed from the current stalks every round. Returns the
    final stalks and the (..., n_edges, m) discrepancy of the first round
    (computed from H0 even when rounds == 0), which is what the sparsity and
    prior losses consume; round one reuses it, and it is the node's second
    output.

    Every round runs in numpy. While the tape records, each round keeps its
    stalks and its projections and gates (with pinned gates, its
    discrepancy); the backward runs the rounds in reverse and sums each
    map's gradient into one (E, m, d) array.
    """
    H0 = ad.lift(H0)
    h0 = _stalk_data(H0, params)
    lead = h0.shape[:-2]
    H = _windows_last(h0)
    first = _project(H, params, alpha_override)
    keep = ad.records(H0, params.rho_src, params.rho_dst, params.attention)
    # per round: the stalks, and the gating or (pinned gates) the discrepancy
    cache = []
    for r in range(params.rounds):
        delta, gating = first if r == 0 else _project(H, params, alpha_override)
        if keep:
            cache.append((H, gating or delta))
        H = H - _pull(delta, params)
    # the first discrepancy as a view: the losses only read it
    out = (_windows_first(H, lead),
           np.moveaxis(first[0], -1, 0).reshape(lead + first[0].shape[:-1]))
    if not keep:
        return tuple(map(ad.Tensor, out))
    if not cache:
        cache.append((H, first[1] or first[0]))

    rho_s, rho_d, a = params.rho_src.data, params.rho_dst.data, params.attention.data
    ends = (params.edges[:, 0], params.edges[:, 1])
    maps_grad = params.rho_src.requires_grad or params.rho_dst.requires_grad
    scale = (1.0 / (1.0 + params.degrees()))[:, None, None] if params.normalize else 1.0
    n, rounds = params.n_nodes, params.rounds

    def backward(g_out):
        g_out, g_first = g_out
        G = _windows_last(g_out)
        g_maps = [None, None]
        g_att = np.zeros(a.shape)
        for r in reversed(range(len(cache))):
            H, kept = cache[r]
            g_delta = None if g_first is None or r else _windows_last(g_first)
            g_nodes = ()
            if r < rounds:
                # H' = H - scale * (source pull-backs - destination pull-backs):
                # the pulled rows' gradients, gathered from node arrays
                g_nodes = (G * -scale, G * scale)
                g_pull = rho_s @ g_nodes[0][ends[0]]
                g_pull += rho_d @ g_nodes[1][ends[1]]
                if g_delta is not None:
                    g_pull += g_delta
                g_delta = g_pull
                del g_pull
            if g_delta is None:
                continue
            if alpha_override is not None:
                g_proj = (float(alpha_override) * g_delta,
                          -float(alpha_override) * g_delta)
            else:
                proj_s, proj_d, gate_s, gate_d = kept
                g_zs = (g_delta * proj_s).sum(axis=1, keepdims=True) * gate_s * (1.0 - gate_s)
                g_zd = (g_delta * proj_d).sum(axis=1, keepdims=True) * gate_d * (gate_d - 1.0)
                g_att += ((proj_s @ np.swapaxes(g_zs, 1, 2)).sum(axis=0)
                          + (proj_d @ np.swapaxes(g_zd, 1, 2)).sum(axis=0))[:, 0]
                g_proj = (gate_s * g_delta, -gate_d * g_delta)
                for g, g_z in zip(g_proj, (g_zs, g_zd)):
                    g += a[:, None] * g_z
            del g_delta
            if maps_grad:
                delta = kept if alpha_override is not None else _gate(*kept)
                for j in (0, 1):
                    # the pull-back's and the projection's outer products
                    g_maps[j] = _outer_sum(([(delta, g_nodes[j])] if g_nodes else [])
                                           + [(g_proj[j], H)], ends[j], g_maps[j])
                del delta
            G = (G + _scatter(np.swapaxes(rho_s, 1, 2) @ g_proj[0], ends[0], n)
                 + _scatter(np.swapaxes(rho_d, 1, 2) @ g_proj[1], ends[1], n))
        return (_windows_first(G, lead), *g_maps,
                None if alpha_override is not None else g_att)

    return ad.node(out, (H0, params.rho_src, params.rho_dst, params.attention),
                   backward)
