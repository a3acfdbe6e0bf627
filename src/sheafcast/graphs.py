"""Graph construction: directed small-world generators and the Granger prior.

The prior graph is estimated from context windows only, by pairwise lagged
regressions: for every ordered pair (source -> target) the score is the log
ratio of residual sums of squares between a target-only autoregression and
one augmented with the source's lags, floored at zero. The ridge fits run
per target, with the augmented models of all sources batched into one
solve. Each node keeps its top-k strongest incoming edges.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, WindowTooShortError

_RSS_FLOOR = 1e-12


def check_edges(edges, n_nodes: int | None) -> np.ndarray:
    """`edges` as an (E, 2) intp array, refused when an id is negative or,
    unless `n_nodes` is None, not below `n_nodes`, and when it holds a
    self-loop or a repeated edge."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    outside = edges < 0
    if n_nodes is not None:
        outside |= edges >= n_nodes
    if outside.any():
        s, d = edges[outside.any(axis=1)][0]
        raise InvalidParameterError(f"edge ({s}, {d}) out of range for {n_nodes} nodes")
    loops = edges[edges[:, 0] == edges[:, 1]]
    if len(loops):
        raise InvalidParameterError(f"self-loop {tuple(map(int, loops[0]))}")
    pairs, counts = np.unique(edges, axis=0, return_counts=True)
    if np.any(counts > 1):
        raise InvalidParameterError(
            f"duplicate edge {tuple(map(int, pairs[counts > 1][0]))}")
    return edges


@dataclass(frozen=True)
class BrainGraph:
    """Directed graph shared by the simulator, the prior, and the sheaf."""

    n_nodes: int
    edges: tuple
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidParameterError("n_nodes must be positive")
        edges = check_edges(self.edges, self.n_nodes)
        object.__setattr__(self, "edges", tuple(map(tuple, edges.tolist())))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_array(self) -> np.ndarray:
        return np.array(self.edges, dtype=np.intp).reshape(-1, 2)


@dataclass
class PriorGraph:
    """Granger-derived directed edge set with per-edge strengths."""

    edges: tuple
    scores: tuple
    lag_order: int
    top_k: int
    n_nodes: int = 0                  # 0: unknown, ids have no upper bound

    def __post_init__(self):
        edges = check_edges(self.edges, self.n_nodes or None)
        self.edges = tuple(map(tuple, edges.tolist()))
        self.scores = tuple(float(s) for s in self.scores)
        if len(self.edges) != len(self.scores):
            raise InvalidParameterError("edges and scores must align")
        if not all(0.0 <= s < np.inf for s in self.scores):
            raise InvalidParameterError("scores must be finite and nonnegative")
        if len(edges) and np.bincount(edges[:, 1]).max() > self.top_k:
            raise InvalidParameterError("in-degree exceeds top_k")

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def check_small_world(n: int, k: int, beta: float) -> None:
    """Refuse small-world parameters outside their domain: k even, k >= 2,
    n > k and 0 <= beta <= 1 (NaN refused)."""
    if k % 2 != 0:
        raise InvalidParameterError(f"small-world k must be even, got {k}")
    if not k >= 2:
        raise InvalidParameterError(f"small-world k must be >= 2, got {k}")
    if k >= n:
        raise InvalidParameterError(f"small-world graph needs n > k, got n {n} and k {k}")
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError(f"small-world beta must lie in [0, 1], got {beta}")


def generate_small_world(n: int, k: int, beta: float, seed: int) -> BrainGraph:
    """Directed small-world graph: ring lattice plus random rewiring.

    Each node points at its k/2 nearest successors on a ring; every such
    edge is independently rewired with probability `beta` to a uniformly
    drawn non-self, non-duplicate target. Total edge count is always n*k/2.
    """
    check_small_world(n, k, beta)
    rng = np.random.default_rng(seed)
    half = k // 2
    out_targets = [set((i + j) % n for j in range(1, half + 1)) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(1, half + 1):
            target = (i + j) % n
            if rng.random() < beta:
                out_targets[i].discard(target)
                while True:
                    candidate = int(rng.integers(0, n))
                    if candidate != i and candidate not in out_targets[i]:
                        break
                out_targets[i].add(candidate)
                target = candidate
            edges.append((i, target))
    return BrainGraph(n_nodes=n, edges=tuple(edges), seed=seed)


def _standardize_rows(context: np.ndarray) -> np.ndarray:
    mean = context.mean(axis=1, keepdims=True)
    std = context.std(axis=1, keepdims=True)
    out = np.zeros_like(context, dtype=np.float64)
    ok = std[:, 0] > 1e-12
    out[ok] = (context[ok] - mean[ok]) / std[ok]
    return out


def _ridge_rss(design: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Residual sums of squares of ridge fits of y on a batch of designs.

    `design` is (batch, rows, k); `y` is (rows,) or (batch, rows).
    """
    design_t = design.transpose(0, 2, 1)
    gram = design_t @ design + ridge * np.eye(design.shape[2])
    beta = np.linalg.solve(gram, design_t @ y[..., None])
    resid = y[..., None] - design @ beta
    return (resid * resid).sum(axis=(1, 2))


def granger_score_matrix(context: np.ndarray, lag_order: int = 3,
                         ridge: float = 1e-6) -> np.ndarray:
    """Matrix S with S[source, target] = Granger score of source -> target,
    from a context block only (never the horizon).

    Rows are standardized first, so the scores are invariant under
    per-channel affine rescaling, and a constant channel scores 0 instead
    of making the solve singular.
    """
    context = np.asarray(context, dtype=np.float64)
    if context.ndim != 2:
        raise InvalidParameterError("context must be a 2-D (nodes x time) matrix")
    n, t_len = context.shape
    p = int(lag_order)
    if p < 1:
        raise InvalidParameterError("lag_order must be positive")
    if ridge < 0:
        raise InvalidParameterError("ridge must be nonnegative")
    if t_len <= 2 * p + 2:
        raise WindowTooShortError(
            f"context length {t_len} needs at least {2 * p + 3} samples for p={p}")
    if not np.all(np.isfinite(context)):
        raise InvalidParameterError("context contains non-finite values")

    z = _standardize_rows(context)
    # lags[i, :, l - 1] is lag l of channel i, aligned to the targets z[i, p:]
    lags = np.stack([z[:, p - l:t_len - l] for l in range(1, p + 1)], axis=2)
    targets = z[:, p:]
    rss_r = np.maximum(_ridge_rss(lags, targets, ridge), _RSS_FLOOR)
    scores = np.zeros((n, n))
    for i in range(n):
        # self-pairs are left out: their design repeats the target's lags
        sources = np.arange(n) != i
        own = np.broadcast_to(lags[i], (n - 1,) + lags.shape[1:])
        design = np.concatenate([own, lags[sources]], axis=2)
        rss_f = np.maximum(_ridge_rss(design, targets[i], ridge), _RSS_FLOOR)
        scores[sources, i] = np.maximum(0.0, np.log(rss_r[i] / rss_f))
    return scores


def prior_from_scores(scores: np.ndarray, lag_order: int, top_k: int) -> PriorGraph:
    """Keep the top-k strongest incoming edges per node.

    Ties go to the lower source index; edges come out sorted by (src, dst).
    """
    if top_k < 1:
        raise InvalidParameterError("top_k must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    ranked = -scores
    np.fill_diagonal(ranked, np.inf)
    # a stable sort down each column keeps lower source indices first on ties
    top = np.argsort(ranked, axis=0, kind="stable")[:min(top_k, n - 1)]
    keep = np.zeros((n, n), dtype=bool)
    np.put_along_axis(keep, top, True, axis=0)
    src, dst = np.nonzero(keep)
    return PriorGraph(edges=tuple(zip(src.tolist(), dst.tolist())),
                      scores=tuple(scores[src, dst].tolist()),
                      lag_order=lag_order, top_k=top_k, n_nodes=n)


# ----------------------------------------------------------------------
# CSV interchange: header `src,dst,score`, 0-based ids
# ----------------------------------------------------------------------
def save_prior_csv(path, prior: PriorGraph) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "score"])
        for (s, d), sc in zip(prior.edges, prior.scores):
            writer.writerow([s, d, repr(sc)])


def load_prior_csv(path, lag_order: int, top_k: int, n_nodes: int = 0) -> PriorGraph:
    """The prior `save_prior_csv` wrote; another header, or rows `PriorGraph`
    refuses (a score that is not finite), raise InvalidParameterError."""
    with open(path, newline="") as fh:
        header, *rows = [*filter(None, csv.reader(fh))] or [[]]
    if header != ["src", "dst", "score"]:
        raise InvalidParameterError(f"{path} has header {','.join(header)!r}, not 'src,dst,score'")
    try:
        return PriorGraph(edges=tuple((int(s), int(d)) for s, d, _ in rows),
                          scores=tuple(float(score) for _, _, score in rows),
                          lag_order=lag_order, top_k=top_k, n_nodes=n_nodes)
    except (ValueError, InvalidParameterError) as exc:
        raise InvalidParameterError(f"{path} is not a prior: {exc}") from exc
