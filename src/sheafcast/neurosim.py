"""Leaky integrate-and-fire network simulator with alpha-shaped synapses.

Desk-scale generator of spiking activity on a directed graph: exact
integration of membrane and alpha-current synapse on a sub-millisecond
grid, synapses driven by recurrent spikes and a shared Poisson background
train, spike binning into firing rates, Gaussian-kernel smoothing, and
single-neuron silencing perturbations for out-of-distribution forecasting
tests.

Between spikes the state (syn1, syn2, v - E_L) of every neuron is linear,
so one 3x3 propagator exp(A dt) advances it exactly by one step (Rotter and
Diesmann, Biol. Cybern. 81:381, 1999); each presynaptic spike at time s
contributes w * ((t-s-delay)/tau) * exp(1 - (t-s-delay)/tau) of current.

`simulate_many` steps any number of runs (graphs, seeds, perturbations;
one `LifParams`) in one loop over blocks of K = min(delay steps,
refractory steps + 1) grid steps, 15 at the defaults. No spike reaches
another neuron sooner than the delay, so every input to a block is known
at its start (Morrison et al., Neural Comput. 17:1776, 2005): arrivals of
earlier spikes, delivered through a CSR out-edge list, and the run's
background train, broadcast to its neurons as a (K, N) input. Every
neuron of every run sits on one flat axis at its run's node offset. One
(K + 2, K + 3) matrix, applied to each run's columns, maps the start state
and the block's input to each neuron's free membrane path (no resets) and
the block-end kernel states; each neuron's first threshold crossing is one
`argmax` over the (K, N) block. A neuron that fires is not free again
before the block ends, so it fires at most once per block. Refractory or
silenced neurons are held at reset; a neuron whose refractory period or
silencing window ends inside a block restarts from reset at its free step,
which adds the decay of its offset from reset to its free path. The blocks depend on `params` alone and the
product is taken per run, so a run's record, and every bit of its state,
do not depend on the batch it is in; `simulate` is a batch of one.
Records are byte-equal to `tests/oracles.py::lif_loop`, which steps one
run with one propagator step per grid step and a dense adjacency; the
states differ by rounding only (block sums round differently from step
sums). Each run draws from its own generator before the loop. The
background counts are int16 per step and run; apart from them and the
per-bin spike counts, what the loop allocates scales with one (K + 3, N)
block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .artifacts import file_hash, read_array, read_manifest, save_array, write_json
from .errors import ArtifactMismatchError, InvalidParameterError
from .graphs import BrainGraph

_MIN_PERTURB_MS = 240.0
_MAX_PERTURB_MS = 400.0


@dataclass(frozen=True)
class LifParams:
    """Neuron, synapse, and drive parameters.

    Defaults follow the standard published values for this neuron model;
    the two weights were calibrated once, under forward-Euler membrane
    integration, so that the default small-world network fires in the
    5-50 Hz band (see tests/test_neurosim.py); it still does with the
    exact propagator. `syn_tau` may equal `membrane_tau`. The loop steps
    min(syn_delay_ms, refractory_ms + dt_ms) at a time, rounded to the
    grid; a zero delay counts as one step.
    """

    membrane_tau: float = 10.0        # ms
    threshold_mV: float = -55.0
    reset_mV: float = -70.0
    resting_mV: float = -70.0
    capacitance_pF: float = 250.0
    refractory_ms: float = 2.0
    syn_tau: float = 2.0              # alpha-current time constant, ms
    syn_weight: float = 20.0          # recurrent current amplitude, pA
    syn_delay_ms: float = 1.5
    poisson_rate_hz: float = 1000.0
    poisson_weight: float = 70.0      # background current amplitude, pA
    dt_ms: float = 0.1
    duration_ms: float = 2000.0

    def __post_init__(self):
        for name in ("membrane_tau", "capacitance_pF", "syn_tau", "dt_ms",
                     "duration_ms", "refractory_ms"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")
        if self.threshold_mV <= self.reset_mV:
            raise InvalidParameterError("threshold_mV must exceed reset_mV")
        if self.dt_ms > self.refractory_ms:
            raise InvalidParameterError("dt_ms must not exceed refractory_ms")
        if self.poisson_rate_hz < 0 or self.syn_delay_ms < 0:
            raise InvalidParameterError("rates and delays must be nonnegative")


@dataclass(frozen=True)
class PerturbationSpec:
    """Single-neuron silencing window."""

    neuron: int
    onset_ms: float
    duration_ms: float

    def validate(self, sim_duration_ms: float) -> None:
        if not _MIN_PERTURB_MS <= self.duration_ms <= _MAX_PERTURB_MS:
            raise InvalidParameterError(
                f"perturbation duration {self.duration_ms} outside "
                f"[{_MIN_PERTURB_MS}, {_MAX_PERTURB_MS}]")
        lo = 0.1 * sim_duration_ms
        hi = 0.9 * sim_duration_ms
        if self.onset_ms < lo or self.onset_ms + self.duration_ms > hi:
            raise InvalidParameterError(
                "perturbation window must lie in the inner 80% of the simulation")


@dataclass
class SimulationRecord:
    """Smoothed firing rates plus everything needed to reproduce them."""

    rates: np.ndarray                 # (n_nodes, n_bins), Hz
    adjacency: BrainGraph
    bin_edges_ms: np.ndarray          # (n_bins + 1,)
    seed: int
    params: LifParams
    perturbation: Optional[PerturbationSpec] = None

    @property
    def n_bins(self) -> int:
        return self.rates.shape[1]

    @property
    def bin_ms(self) -> float:
        """The width of the first bin, which every bin has."""
        return float(self.bin_edges_ms[1] - self.bin_edges_ms[0])


def sample_perturbation(duration_ms: float, seed: int,
                        n_nodes: Optional[int] = None) -> PerturbationSpec:
    """Draw a silencing window: duration U[240,400] ms, onset uniform over
    the feasible inner-80% range. Requires duration_ms >= 500 so every
    drawable duration fits. When n_nodes is given the target neuron is
    sampled uniformly, otherwise it defaults to 0."""
    if duration_ms < 500.0:
        raise InvalidParameterError(
            "simulation must last >= 500 ms for a feasible perturbation window")
    rng = np.random.default_rng(seed)
    dur = float(rng.uniform(_MIN_PERTURB_MS, _MAX_PERTURB_MS))
    onset = float(rng.uniform(0.1 * duration_ms, 0.9 * duration_ms - dur))
    neuron = int(rng.integers(0, n_nodes)) if n_nodes else 0
    return PerturbationSpec(neuron=neuron, onset_ms=onset, duration_ms=dur)


def _poisson_counts_from_uniforms(u: np.ndarray, lam: float) -> np.ndarray:
    """Poisson quantile applied to shared uniforms.

    Inverse-CDF coupling makes the count at each step monotone in the rate,
    so raising the rate (same seed) never loses a background spike.
    """
    counts = np.zeros(u.shape, dtype=np.int64)
    if lam <= 0:
        return counts
    pmf = np.exp(-lam)
    cdf = pmf
    k = 0
    remaining = u > cdf
    while np.any(remaining):
        k += 1
        pmf *= lam / k
        cdf += pmf
        counts[remaining] = k
        remaining = u > cdf
        if k > 1000:
            raise InvalidParameterError("poisson rate too high for this dt")
    return counts


def simulate(graph: BrainGraph, params: LifParams, seed: int,
             perturbation: Optional[PerturbationSpec] = None,
             bin_ms: float = 10.0, sigma_ms: float = 20.0) -> SimulationRecord:
    """Run one network simulation and return binned, smoothed rates.

    Deterministic for a fixed seed; a perturbed and an unperturbed run with
    the same seed share the background drive, adjacency, and bin edges. The
    silenced neuron is clamped at reset and emits nothing during its window;
    spikes it emitted before onset still arrive through the synaptic delay.
    """
    return simulate_many([(graph, seed, perturbation)], params,
                         bin_ms=bin_ms, sigma_ms=sigma_ms)[0]


def simulate_many(runs: Sequence[Tuple[BrainGraph, int, Optional[PerturbationSpec]]],
                  params: LifParams, *, bin_ms: float = 10.0,
                  sigma_ms: float = 20.0) -> list[SimulationRecord]:
    """Run every `(graph, seed, perturbation)` in `runs` in one block loop.

    Returns one `SimulationRecord` per run, in order; each is byte-identical
    to what `simulate` gives for that run alone. Every run is validated
    before any of them is stepped.
    """
    runs = list(runs)
    if not runs:
        raise InvalidParameterError("simulate_many needs at least one run")
    for graph, _, perturbation in runs:
        if perturbation is not None:
            perturbation.validate(params.duration_ms)
            if not 0 <= perturbation.neuron < graph.n_nodes:
                raise InvalidParameterError("perturbed neuron index out of range")
    edges = bin_edges(params.duration_ms, bin_ms, sigma_ms)

    n_steps = int(round(params.duration_ms / params.dt_ms))
    counts = _run_lif(runs, params, n_steps, _bin_starts(n_steps, params.dt_ms, edges))
    return [SimulationRecord(rates=_rates_from_counts(c, bin_ms, sigma_ms),
                             adjacency=graph, bin_edges_ms=edges, seed=seed,
                             params=params, perturbation=perturbation)
            for c, (graph, seed, perturbation) in zip(counts, runs)]


def _propagator(params: LifParams) -> np.ndarray:
    """exp(A dt) for the state (syn1, syn2, v - E_L): the alpha kernel's two
    states and the membrane offset from rest, with no reset in between.

    A Taylor series of exp(A dt / 2**s) squared s times, so it needs no
    case split where closed forms divide by syn_tau - membrane_tau.
    """
    inv_s = 1.0 / params.syn_tau
    a = np.array([[-inv_s, 0.0, 0.0],
                  [1.0, -inv_s, 0.0],
                  [0.0, 1.0 / params.capacitance_pF, -1.0 / params.membrane_tau]])
    a *= params.dt_ms
    squarings = max(0, int(np.ceil(np.log2(np.abs(a).sum(axis=1).max()))) + 1)
    a /= 2.0 ** squarings                     # row-sum norm <= 1/2
    term = np.eye(3)
    prop = np.eye(3)
    for k in range(1, 20):
        term = term @ a / k
        prop += term
    for _ in range(squarings):
        prop = prop @ prop
    return prop


def _block_matrices(powers: np.ndarray, k: int):
    """The linear maps of a k-step block without resets.

    `powers[j]` is the propagator to the power j. The first returned matrix
    maps the block's (k + 3, N) input, the start state (syn1, syn2, v - E_L)
    then the alpha-kernel impulse added at each step, to k membrane offsets
    (after each step's update) and the two kernel states at the block's end.
    The second gives the decay over steps r..i of a restart at step r.
    """
    i = np.arange(k)
    lag = i[:, None] - i[None, :]
    later = lag >= 0
    # an impulse added at step j moves the state j..i, i + 1 - j propagator
    # steps; lag 0 (the identity) gives 0 input weight before step j
    lag = np.where(later, lag + 1, 0)
    block = np.empty((k + 2, k + 3))
    block[:k, :3] = powers[i + 1, 2]
    block[:k, 3:] = powers[lag, 2, 0]
    block[k:, :3] = powers[k, :2]
    block[k:, 3:] = powers[k - i, :2, 0].T
    return block, np.where(later, powers[lag, 2, 2], 0.0)


def _run_lif(runs, params: LifParams, n_steps: int, starts: np.ndarray) -> list:
    """Draw and step all runs on one flat neuron axis; per-run (n, n_bins)
    spike counts.

    Bin b covers steps starts[b] <= step < starts[b + 1]; nothing after the
    last bin is stepped. The draws are made here so that they are freed
    before the caller smooths the rates.
    """
    bg_counts, v0 = _draw_runs(runs, params, n_steps)
    counts = np.zeros((len(v0), len(starts) - 1))
    for _, idx, steps, _ in _lif_blocks(runs, params, bg_counts, v0, int(starts[-1])):
        if idx.size:
            # a neuron fires at most once per block, so no index repeats
            counts[idx, np.searchsorted(starts, steps, "right") - 1] += 1
    offsets = np.cumsum([0] + [graph.n_nodes for graph, _, _ in runs]).tolist()
    return [counts[o0:o1] for o0, o1 in zip(offsets[:-1], offsets[1:])]


def _draw_runs(runs, params: LifParams, n_steps: int):
    """Each run's background spike count per step, (n_steps, n_runs), and
    the initial potentials of the flat neuron axis."""
    lam = params.poisson_rate_hz * params.dt_ms / 1000.0
    # counts stay below the 1000 that _poisson_counts_from_uniforms allows
    bg_counts = np.empty((n_steps, len(runs)), dtype=np.int16)
    v0 = []
    for r, (graph, seed, _) in enumerate(runs):
        # one generator per run, drawn in a fixed order: the shared background
        # train (delivered identically to all its neurons), then potentials
        rng = np.random.default_rng(seed)
        bg_counts[:, r] = _poisson_counts_from_uniforms(rng.random(n_steps), lam)
        # randomized initial potentials break the symmetry the shared drive
        # would otherwise impose (equal-in-degree neurons become exact clones)
        v0.append(rng.uniform(params.reset_mV, params.threshold_mV,
                              size=graph.n_nodes))
    return bg_counts, np.concatenate(v0)


def _out_edges(runs, offsets):
    """Out-edges of the flat neuron axis in CSR form: neuron i sends to
    out_dst[ptr[i]:ptr[i + 1]]."""
    src, dst = np.concatenate([g.edge_array() + o
                               for (g, _, _), o in zip(runs, offsets)]).T
    out_dst = dst[np.argsort(src, kind="stable")]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=offsets[-1]))))
    return out_dst, ptr


def _lif_blocks(runs, params: LifParams, bg_counts: np.ndarray, v0: np.ndarray,
                n_total: int):
    """Step the first `n_total` steps of the runs' draws one block at a time.

    Yields (end step, fired neurons, their spike steps, state) after each
    block; the state is the (3, N) array of (syn1, syn2, v - E_L) at the
    start of the end step, updated in place by the next block.
    """
    dt = params.dt_ms
    sizes = [graph.n_nodes for graph, _, _ in runs]
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    n = offsets[-1]
    delay_steps = max(1, int(round(params.syn_delay_ms / dt)))
    refr_steps = int(round(params.refractory_ms / dt))
    # Within a block every input is known at its start: a spike reaches its
    # targets no sooner than delay_steps later. A neuron that fires is not
    # free again before the block ends, so it fires at most once per block.
    k_max = min(delay_steps, refr_steps + 1)

    rest = params.resting_mV
    u_reset = params.reset_mV - rest
    theta = params.threshold_mV - rest
    # impulse height making the kernel peak equal the weight
    amp_rec = params.syn_weight * np.e / params.syn_tau
    amp_bg = params.poisson_weight * np.e / params.syn_tau
    # rows: the state (syn1, syn2, v - E_L), then one input row per step
    x = np.zeros((k_max + 3, n))
    y = np.empty((k_max + 2, n))
    np.subtract(v0, rest, out=x[2])
    run_of = np.repeat(np.arange(len(runs)), sizes)
    state = x[:3]

    out_dst, ptr = _out_edges(runs, offsets)
    pend_at = np.empty(0, dtype=np.int64)       # arrival step of each sent spike
    pend_src = np.empty(0, dtype=np.int64)      # and its sender

    # silencing: from its onset step the neuron sits at reset and is not
    # free before the window's end step; keyed by the block the window opens in
    opening = {}
    for (_, _, p), o in zip(runs, offsets):
        if p is not None:
            start = int(round(p.onset_ms / dt))
            end = int(round((p.onset_ms + p.duration_ms) / dt))
            if start < end:
                opening.setdefault(start - start % k_max, []).append(
                    (o + p.neuron, start, end))

    powers = [np.eye(3)]
    prop = _propagator(params)
    for _ in range(k_max):
        powers.append(powers[-1] @ prop)
    powers = np.stack(powers)
    matrices = {}
    # free_from[i, r]: a neuron first free at block step r integrates at step i
    free_from = np.tri(k_max, k_max + 1, dtype=bool)
    free_at = np.zeros(n, dtype=np.int64)       # first step a neuron may integrate
    busy_until = 0                              # every neuron is free from here on
    # one product per run, on blocks that depend on `params` alone: BLAS may
    # pick its kernel by the column count, and a run's bits must not depend
    # on the batch it is in
    slices = list(zip(offsets[:-1], offsets[1:]))

    for s0 in range(0, n_total, k_max):
        s1 = min(s0 + k_max, n_total)
        k = s1 - s0
        if k not in matrices:
            matrices[k] = _block_matrices(powers, k)
        block, restart = matrices[k]

        inputs = x[3:k + 3]
        (amp_bg * bg_counts[s0:s1]).take(run_of, axis=1, out=inputs, mode="clip")
        if pend_at.size:
            due = pend_at < s1
            if due.any():
                senders, rows = pend_src[due], pend_at[due] - s0
                pend_at, pend_src = pend_at[~due], pend_src[~due]
                first_edge = ptr[senders]
                degree = ptr[senders + 1] - first_edge
                ends = np.cumsum(degree)
                edge = np.arange(ends[-1]) + np.repeat(first_edge - ends + degree, degree)
                cell = np.repeat(rows * n, degree) + out_dst[edge]
                np.add.at(inputs.reshape(-1), cell, amp_rec)

        xs, ys = x[:k + 3], y[:k + 2]
        for o0, o1 in slices:
            np.matmul(block, xs[:, o0:o1], out=ys[:, o0:o1])
        path = ys[:k]                           # v - E_L after each step, no resets
        if s0 < busy_until:
            # a held neuron restarts from reset at its free step r: the
            # free path plus the decay of its offset from reset at r
            wait = free_at - s0
            late = ((wait > 0) & (wait < k)).nonzero()[0]
            if late.size:
                r = wait[late]
                path[:, late] += restart[:, r] * (u_reset - path[r - 1, late])
            crossed = path >= theta
            crossed &= free_from[:k].take(np.minimum(np.maximum(wait, 0), k), axis=1)
        else:
            crossed = path >= theta
        opened = opening.get(s0, ())
        for i, start, end in opened:
            # the neuron may fire before the onset; if it does not, it sits at
            # reset until the later of its own free step and the window's end
            j = start - s0
            fired_before = crossed[:j, i].any()
            crossed[j:, i] = False
            q = max(int(free_at[i]), end) - s0
            if not fired_before and q < k:
                if end > free_at[i]:    # else its refractory restart at q stands
                    path[q:, i] += restart[q:, q] * (u_reset - path[q - 1, i])
                crossed[q:, i] = path[q:, i] >= theta

        x[:2] = ys[k:]
        x[2] = path[-1]
        idx = crossed.any(axis=0).nonzero()[0]
        steps = idx                             # no spikes: empty too
        if idx.size:
            steps = s0 + crossed[:, idx].argmax(axis=0)
            free_at[idx] = steps + refr_steps + 1
            busy_until = max(busy_until, int(steps.max()) + refr_steps + 1)
            pend_at = np.concatenate((pend_at, steps + delay_steps))
            pend_src = np.concatenate((pend_src, idx))
        for i, _, end in opened:
            free_at[i] = max(free_at[i], end)
            busy_until = max(busy_until, end)
        if s1 <= busy_until:
            x[2, free_at >= s1] = u_reset
        yield s1, idx, steps, state


def bin_edges(duration_ms: float, bin_ms: float, sigma_ms: float = 0.0) -> np.ndarray:
    """Edges of the `bin_ms` bins of a `duration_ms` record. Refuses a bin
    that is not positive or does not divide the duration, and a negative
    smoothing width `sigma_ms`, so every binning entry point checks both."""
    if not bin_ms > 0:
        raise InvalidParameterError(f"bin_ms must be positive, got {bin_ms:g}")
    if not sigma_ms >= 0:
        raise InvalidParameterError(f"sigma_ms must be >= 0, got {sigma_ms:g}")
    n_bins = duration_ms / bin_ms
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise InvalidParameterError("duration_ms must be a multiple of bin_ms")
    return np.arange(int(round(n_bins)) + 1) * bin_ms


def _bin_starts(n_steps: int, dt: float, edges: np.ndarray) -> np.ndarray:
    """First step of each bin, then the end of the last one.

    Step s falls in bin b iff starts[b] <= s < starts[b + 1], which is where
    `np.histogram` puts the time s * dt (the last bin holds its right edge).
    """
    t = np.arange(n_steps, dtype=np.float64)
    t *= dt
    starts = np.searchsorted(t, edges, "left")
    starts[-1] = np.searchsorted(t, edges[-1], "right")
    return starts


def bin_and_smooth(spikes, duration_ms: float, bin_ms: float = 10.0,
                   sigma_ms: float = 20.0):
    """Bin spike times into firing rates (Hz) and smooth along time.

    The Gaussian kernel is truncated at +-4 sigma, renormalized to sum to
    one, and applied with reflective padding, which conserves total spike
    mass. sigma_ms = 0 skips smoothing. Returns (rates, bin_edges_ms).
    """
    edges = bin_edges(duration_ms, bin_ms, sigma_ms)
    counts = np.zeros((len(spikes), len(edges) - 1))
    for i, times in enumerate(spikes):
        if len(times):
            t = np.asarray(times, dtype=np.float64)
            if t.min() < 0 or t.max() >= duration_ms:
                raise InvalidParameterError("spike time outside [0, duration)")
            counts[i] = np.histogram(t, bins=edges)[0]
    return _rates_from_counts(counts, bin_ms, sigma_ms), edges


def _rates_from_counts(counts: np.ndarray, bin_ms: float,
                       sigma_ms: float) -> np.ndarray:
    rates = counts / (bin_ms / 1000.0)
    if sigma_ms > 0:
        rates = _gaussian_smooth_rows(rates, sigma_ms / bin_ms)
    return np.maximum(rates, 0.0)


def gaussian_kernel(sigma_bins: float) -> np.ndarray:
    half = int(np.ceil(4.0 * sigma_bins))
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (offsets / sigma_bins) ** 2)
    return kernel / kernel.sum()


def _gaussian_smooth_rows(rows: np.ndarray, sigma_bins: float) -> np.ndarray:
    kernel = gaussian_kernel(sigma_bins)
    half = len(kernel) // 2
    # half-sample symmetric padding: the reflection that conserves total mass
    padded = np.pad(rows, ((0, 0), (half, half)), mode="symmetric")
    out = np.empty_like(rows)
    for i in range(rows.shape[0]):
        out[i] = np.convolve(padded[i], kernel, mode="valid")
    return out


# ----------------------------------------------------------------------
# persistence: rates `.npy`, the C-ordered (nodes, bins) block the record
# holds, read at the shape its JSON meta gives, which alone states seed,
# node count, params, graph edges, bin edges and perturbation
# ----------------------------------------------------------------------
def save_record(out_dir, stem: str, record: SimulationRecord) -> dict:
    """Write `<stem>_rates.npy` and `<stem>_meta.json`; returns the sha256
    of each by file name."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rates_name, meta_name = f"{stem}_rates.npy", f"{stem}_meta.json"
    pins = {rates_name: save_array(out_dir / rates_name, record.rates)}
    meta = {
        "seed": record.seed,
        "n_nodes": record.adjacency.n_nodes,
        "graph_seed": record.adjacency.seed,
        "edges": record.adjacency.edges,        # pairs of ints, written as lists
        "params": asdict(record.params),
        "bin_edges_ms": [float(e) for e in record.bin_edges_ms],
        "perturbation": (asdict(record.perturbation)
                         if record.perturbation is not None else None),
    }
    write_json(out_dir / meta_name, meta)
    pins[meta_name] = file_hash(out_dir / meta_name)
    return pins


# the meta `save_record` writes, which has no format key (its dataset's has)
_META_SCHEMA = {
    "seed": int, "n_nodes": int, "graph_seed": int, "edges": [[int, int]],
    "params": get_type_hints(LifParams), "bin_edges_ms": [float],
    "perturbation": (get_type_hints(PerturbationSpec), type(None))}


def load_record(out_dir, stem: str) -> SimulationRecord:
    """The record `save_record` wrote. A meta that is malformed or outside
    its domain (a graph, params or perturbation its class refuses, or bin
    edges that are not `bin_edges` of its duration at the width of their
    first bin), and rates that are not the meta's block, raise
    ArtifactMismatchError."""
    out_dir = Path(out_dir)
    meta_name = f"{stem}_meta.json"
    meta = read_manifest(out_dir / meta_name, None, "", _META_SCHEMA)
    pert, listed = meta["perturbation"], meta["bin_edges_ms"]
    edges = np.array(listed, dtype=np.float64)
    width = listed[1] - listed[0] if len(listed) > 1 else 0.0
    try:
        params = LifParams(**meta["params"])
        # the bin count first, so that a narrow first bin builds no long array
        if not (width > 0 and abs(params.duration_ms / width - len(edges) + 1) < 0.5
                and np.array_equal(edges, bin_edges(params.duration_ms, width))):
            raise InvalidParameterError(f"bin_edges_ms are not the bins of its "
                                        f"duration_ms {params.duration_ms:g}")
        return SimulationRecord(
            adjacency=BrainGraph(meta["n_nodes"], meta["edges"], meta["graph_seed"]),
            params=params, perturbation=PerturbationSpec(**pert) if pert else None,
            rates=read_array(out_dir / f"{stem}_rates.npy", (meta["n_nodes"], len(edges) - 1)),
            bin_edges_ms=edges, seed=meta["seed"])
    except InvalidParameterError as exc:
        raise ArtifactMismatchError(f"{meta_name} is outside its domain: {exc}") from exc


def save_rates_csv(path, rates: np.ndarray) -> None:
    """Forecasts, the one block people read: rows are time bins, columns
    are neurons."""
    n = rates.shape[0]
    header = ",".join(f"n{i}" for i in range(n))
    np.savetxt(path, rates.T, delimiter=",", header=header, comments="",
               fmt="%.17g")


def load_rates_csv(path) -> np.ndarray:
    with warnings.catch_warnings():     # a header-only file is refused below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise InvalidParameterError(f"no data rows in {path}")
    return data.T
