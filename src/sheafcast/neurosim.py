"""Leaky integrate-and-fire network simulator with alpha-shaped synapses.

Desk-scale generator of spiking activity on a directed graph: forward-Euler
membrane integration at sub-millisecond resolution, alpha-current synapses
driven by recurrent spikes and a shared Poisson background train, spike
binning into firing rates, Gaussian-kernel smoothing, and single-neuron
silencing perturbations for out-of-distribution forecasting tests.

The synaptic current uses the exact two-state propagator of the alpha
kernel, so each presynaptic spike at time s contributes exactly
w * ((t-s-delay)/tau) * exp(1 - (t-s-delay)/tau) at grid times.

`simulate_many` steps any number of runs (graphs, seeds, perturbations;
one `LifParams`) in a single loop over time. Every neuron of every run
sits on one flat axis at its run's node offset, so each step is a few
in-place ufuncs over that axis, whatever the number of runs. A quiet step
(nothing arrives, no neuron is refractory or silenced, none fires) is 12
numpy calls: gather each neuron's background state, integrate the
membrane, test the threshold, and advance both alpha-kernel states, which
are the two rows of one array so that one multiply decays both. Scalar
operands are 0-d arrays, which spares each call a float conversion.
A step with events adds only the calls they need. Delayed spikes reach
their targets through a CSR out-edge list and one `bincount` (the 0/1
weights make the counts exact); a background spike is one add to its
run's entry. A spiking or silenced neuron gets a first free step, and
the refractory mask (`less_equal` and a masked add) runs only on steps
before the last of these; a neuron is released on reaching its own.
Spikes go straight into per-bin counts, flushed at each bin boundary.
Each run draws from its own generator before the loop, so a run's record
does not depend on the batch it is in; `simulate` is a batch of one.
Every record is byte-identical to `tests/oracles.py::simulate_loop`,
which steps one run with the same float operations. The background counts
and the bin counts stay per run, and the background is gathered one bin
at a time, so with no more runs than bins no temporary is larger than the
float64 vector of uniforms each run draws anyway: freeing a larger block
raises glibc's mmap threshold and fragments the heap of whatever runs next.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError
from .graphs import BrainGraph, load_edges_csv, save_edges_csv

_MIN_PERTURB_MS = 240.0
_MAX_PERTURB_MS = 400.0


@dataclass(frozen=True)
class LifParams:
    """Neuron, synapse, and drive parameters.

    Defaults follow the standard published values for this neuron model;
    the two weights were calibrated once so that the default small-world
    network fires in the 5-50 Hz band (see tests/test_neurosim.py).
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
    """Run every `(graph, seed, perturbation)` in `runs` in one step loop.

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


def _run_lif(runs, params: LifParams, n_steps: int, starts: np.ndarray) -> list:
    """Draw and step all runs on one flat neuron axis; per-run (n, n_bins)
    spike counts.

    Bin b covers steps starts[b] <= step < starts[b + 1]; nothing after the
    last bin is stepped. The draws are made here so that the per-run
    background counts are freed before the caller smooths the rates.
    """
    dt = params.dt_ms
    lam = params.poisson_rate_hz * dt / 1000.0
    bg_counts, v0 = [], []
    for graph, seed, _ in runs:
        # one generator per run, drawn in a fixed order: the shared background
        # train (delivered identically to all its neurons), then potentials
        rng = np.random.default_rng(seed)
        bg_counts.append(_poisson_counts_from_uniforms(rng.random(n_steps), lam))
        # randomized initial potentials break the symmetry the shared drive
        # would otherwise impose (equal-in-degree neurons become exact clones)
        v0.append(rng.uniform(params.reset_mV, params.threshold_mV,
                              size=graph.n_nodes))
    v = np.concatenate(v0)

    sizes = [graph.n_nodes for graph, _, _ in runs]
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    n, n_runs = offsets[-1], len(runs)
    # scalar operands are 0-d arrays: a Python float operand costs every
    # ufunc call a conversion, and the arithmetic is the same
    decay = np.array(np.exp(-dt / params.syn_tau))
    dt_op = np.array(dt)
    # impulse height making the kernel peak equal the weight
    amp_rec = np.array(params.syn_weight * np.e / params.syn_tau)
    amp_bg = params.poisson_weight * np.e / params.syn_tau
    leak = np.array(dt / params.membrane_tau)
    inv_c = np.array(dt / params.capacitance_pF)
    rest, threshold = np.array(params.resting_mV), np.array(params.threshold_mV)
    reset = params.reset_mV
    refr_steps = int(round(params.refractory_ms / dt))

    # out-edges of the flat axis in CSR form: neuron i sends to
    # out_dst[ptr[i]:ptr[i + 1]]
    src, dst = np.concatenate([g.edge_array() + o
                               for (g, _, _), o in zip(runs, offsets)]).T
    out_dst = dst[np.argsort(src, kind="stable")]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))).tolist()
    delay_steps = max(1, int(round(params.syn_delay_ms / dt)))
    arrivals = [None] * delay_steps     # targets of the spikes of step - delay

    # silencing: from its onset step the neuron sits at reset and is not
    # free before the window's end step
    onsets = {}
    for (_, _, p), o in zip(runs, offsets):
        if p is not None:
            start = int(round(p.onset_ms / dt))
            end = int(round((p.onset_ms + p.duration_ms) / dt))
            if start < end:
                onsets.setdefault(start, []).append((o + p.neuron, end))

    # alpha-kernel states, one row per propagator state: n recurrent
    # entries, then one background entry per run
    syn = np.zeros((2, n + n_runs))
    syn1, syn2 = syn
    rec1, bg1, rec2 = syn1[:n], syn1[n:], syn2[:n]
    bg_of = n + np.repeat(np.arange(n_runs), sizes)
    free_at = np.zeros(n, dtype=np.int64)       # first step a neuron may integrate
    busy_until = 0                              # every neuron is free from here on
    current = np.empty(n)
    drift = np.empty(n)
    syn_step = np.empty(n + n_runs)
    active = np.empty(n, dtype=bool)
    fired = np.empty(n, dtype=bool)
    acc = np.zeros(n, dtype=np.int64)           # spikes in the current bin
    counts = [np.zeros((size, len(starts) - 1)) for size in sizes]

    for b, (s0, s1) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
        bg_in = amp_bg * np.stack([c[s0:s1] for c in bg_counts], axis=1)
        bg_on = bg_in.any(axis=1).tolist()
        for step in range(s0, s1):
            slot = step % delay_steps
            targets = arrivals[slot]
            if targets is not None:
                rec1 += amp_rec * np.bincount(targets, minlength=n)
            if bg_on[step - s0]:
                bg1 += bg_in[step - s0]

            np.add(rec2, syn2[bg_of], out=current)
            current *= inv_c
            for i, end in onsets.get(step, ()):
                v[i] = reset
                free_at[i] = max(free_at[i], end)
                busy_until = max(busy_until, end)
            np.subtract(v, rest, out=drift)
            drift *= leak
            current -= drift
            if step < busy_until:
                np.less_equal(free_at, step, out=active)
                np.add(v, current, out=v, where=active)
            else:
                v += current

            # no mask needed: a neuron that is not free sits at reset < threshold
            np.greater_equal(v, threshold, out=fired)
            idx = fired.nonzero()[0]
            if idx.size:
                v[idx] = reset
                free_at[idx] = step + refr_steps + 1
                busy_until = max(busy_until, step + refr_steps + 1)
                acc[idx] += 1
                arrivals[slot] = np.concatenate(
                    [out_dst[ptr[i]:ptr[i + 1]] for i in idx.tolist()])
            else:
                arrivals[slot] = None

            # advance the exact alpha-kernel propagator of both states
            np.multiply(syn1, dt_op, out=syn_step)
            syn2 += syn_step
            syn *= decay
        for c, o0, o1 in zip(counts, offsets[:-1], offsets[1:]):
            c[:, b] = acc[o0:o1]
        acc[:] = 0
    return counts


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
# persistence: rates CSV (rows = bins, cols = neurons), adjacency CSV,
# and a JSON sidecar with seed, params, bin edges, and perturbation
# ----------------------------------------------------------------------
def save_record(out_dir, stem: str, record: SimulationRecord) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rates_path = out_dir / f"{stem}_rates.csv"
    adj_path = out_dir / f"{stem}_adjacency.csv"
    meta_path = out_dir / f"{stem}_meta.json"

    save_rates_csv(rates_path, record.rates)
    save_edges_csv(adj_path, record.adjacency)
    meta = {
        "seed": record.seed,
        "n_nodes": record.adjacency.n_nodes,
        "graph_seed": record.adjacency.seed,
        "params": asdict(record.params),
        "bin_edges_ms": [float(e) for e in record.bin_edges_ms],
        "perturbation": (asdict(record.perturbation)
                         if record.perturbation is not None else None),
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    return {"rates": rates_path.name, "adjacency": adj_path.name,
            "meta": meta_path.name}


def load_record(out_dir, stem: str) -> SimulationRecord:
    out_dir = Path(out_dir)
    meta = json.loads((out_dir / f"{stem}_meta.json").read_text())
    rates = load_rates_csv(out_dir / f"{stem}_rates.csv")
    graph = load_edges_csv(out_dir / f"{stem}_adjacency.csv",
                           n_nodes=meta["n_nodes"], seed=meta["graph_seed"])
    pert = meta["perturbation"]
    return SimulationRecord(
        rates=rates,
        adjacency=graph,
        bin_edges_ms=np.array(meta["bin_edges_ms"]),
        seed=meta["seed"],
        params=LifParams(**meta["params"]),
        perturbation=PerturbationSpec(**pert) if pert else None,
    )


def save_rates_csv(path, rates: np.ndarray) -> None:
    """Rates stored transposed: rows are time bins, columns are neurons."""
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
