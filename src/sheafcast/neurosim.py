"""Leaky integrate-and-fire network simulator with alpha-shaped synapses.

Desk-scale generator of spiking activity on a directed graph: forward-Euler
membrane integration at sub-millisecond resolution, alpha-current synapses
driven by recurrent spikes and a shared Poisson background train, spike
binning into firing rates, Gaussian-kernel smoothing, and single-neuron
silencing perturbations for out-of-distribution forecasting tests.

The synaptic current uses the exact two-state propagator of the alpha
kernel, so each presynaptic spike at time s contributes exactly
w * ((t-s-delay)/tau) * exp(1 - (t-s-delay)/tau) at grid times.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

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
    if perturbation is not None:
        perturbation.validate(params.duration_ms)
        if not 0 <= perturbation.neuron < graph.n_nodes:
            raise InvalidParameterError("perturbed neuron index out of range")

    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    dt = params.dt_ms
    n_steps = int(round(params.duration_ms / dt))
    tau_syn = params.syn_tau
    decay = np.exp(-dt / tau_syn)
    # impulse height making the kernel peak equal the weight
    amp_rec = params.syn_weight * np.e / tau_syn
    amp_bg = params.poisson_weight * np.e / tau_syn

    # shared background train: one draw, delivered identically to all neurons
    lam = params.poisson_rate_hz * dt / 1000.0
    bg_counts = _poisson_counts_from_uniforms(rng.random(n_steps), lam)

    adj = graph.adjacency()                      # (dst, src)
    delay_steps = max(1, int(round(params.syn_delay_ms / dt)))
    spike_buffer = np.zeros((delay_steps, n))

    # randomized initial potentials break the symmetry the shared drive
    # would otherwise impose (equal-in-degree neurons become exact clones)
    v = rng.uniform(params.reset_mV, params.threshold_mV, size=n)
    refr = np.zeros(n, dtype=np.int64)
    rec1 = np.zeros(n)
    rec2 = np.zeros(n)
    bg1 = 0.0
    bg2 = 0.0

    p_neuron = perturbation.neuron if perturbation is not None else -1
    p_start = int(round(perturbation.onset_ms / dt)) if perturbation else -1
    p_end = (int(round((perturbation.onset_ms + perturbation.duration_ms) / dt))
             if perturbation else -1)

    spike_times = [[] for _ in range(n)]
    leak = dt / params.membrane_tau
    inv_c = dt / params.capacitance_pF

    for step in range(n_steps):
        # deliver delayed recurrent spikes and background impulses
        arriving = spike_buffer[step % delay_steps]
        if arriving.any():
            rec1 += amp_rec * (adj @ arriving)
        if bg_counts[step]:
            bg1 += amp_bg * bg_counts[step]

        current = rec2 + bg2
        silenced = p_start <= step < p_end

        active = refr <= 0
        if silenced:
            active[p_neuron] = False
            v[p_neuron] = params.reset_mV
        v[active] += (-(v[active] - params.resting_mV) * leak
                      + current[active] * inv_c)
        refr[refr > 0] -= 1

        fired = active & (v >= params.threshold_mV)
        if silenced:
            fired[p_neuron] = False
        if fired.any():
            t_ms = step * dt
            for idx in np.flatnonzero(fired):
                spike_times[idx].append(t_ms)
            v[fired] = params.reset_mV
            refr[fired] = int(round(params.refractory_ms / dt))
        spike_buffer[step % delay_steps] = fired.astype(np.float64)

        # advance exact alpha-kernel propagator
        rec2 = (rec2 + dt * rec1) * decay
        rec1 *= decay
        bg2 = (bg2 + dt * bg1) * decay
        bg1 *= decay

    rates, edges = bin_and_smooth(spike_times, params.duration_ms,
                                  bin_ms=bin_ms, sigma_ms=sigma_ms)
    return SimulationRecord(rates=rates, adjacency=graph, bin_edges_ms=edges,
                            seed=seed, params=params, perturbation=perturbation)


def bin_and_smooth(spikes, duration_ms: float, bin_ms: float = 10.0,
                   sigma_ms: float = 20.0):
    """Bin spike times into firing rates (Hz) and smooth along time.

    The Gaussian kernel is truncated at +-4 sigma, renormalized to sum to
    one, and applied with reflective padding, which conserves total spike
    mass. sigma_ms = 0 skips smoothing. Returns (rates, bin_edges_ms).
    """
    n_bins = duration_ms / bin_ms
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise InvalidParameterError("duration_ms must be a multiple of bin_ms")
    n_bins = int(round(n_bins))
    edges = np.arange(n_bins + 1) * bin_ms

    n = len(spikes)
    counts = np.zeros((n, n_bins))
    for i, times in enumerate(spikes):
        if len(times):
            t = np.asarray(times, dtype=np.float64)
            if t.min() < 0 or t.max() >= duration_ms:
                raise InvalidParameterError("spike time outside [0, duration)")
            counts[i] = np.histogram(t, bins=edges)[0]
    rates = counts / (bin_ms / 1000.0)

    if sigma_ms > 0:
        rates = _gaussian_smooth_rows(rates, sigma_ms / bin_ms)
    return np.maximum(rates, 0.0), edges


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
