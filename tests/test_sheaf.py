import gc
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast import sheaf
from sheafcast.errors import InvalidParameterError, MissingEdgeParametersError
from sheafcast.sheaf import (SheafParameters, message_pass, sheaf_laplacian_apply,
                             _discrepancies)

from oracles import (finite_difference_grads, graph_laplacian, message_pass_composed,
                     relative_errors)


def _random_edges(rng, n, n_edges):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    idx = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    return [pairs[i] for i in idx]


# ----------------------------------------------------------------------
# gates and discrepancies, read from message_pass's first discrepancy
# ----------------------------------------------------------------------
def _first_delta(H, params):
    """The first round's (n_edges, m) discrepancies of (n, d) stalks."""
    return message_pass(np.asarray(H, dtype=np.float64), params)[1].data


def _one_edge(stalk_dim, attention=None):
    """Edge (0, 1) with identity maps: with a zero stalk at one end, the
    discrepancy is the other end's stalk times its gate (minus at dst)."""
    params = SheafParameters.init([(0, 1)], 2, stalk_dim=stalk_dim, identity=True)
    if attention is not None:
        params.attention.data[:] = attention
    return params


def test_attention_coeffs_values_and_range():
    zero = _one_edge(3)
    np.testing.assert_array_equal(_first_delta([np.ones(3), np.zeros(3)], zero),
                                  [[0.5] * 3])
    np.testing.assert_array_equal(_first_delta([np.zeros(3), -np.ones(3)], zero),
                                  [[0.5] * 3])

    h = np.array([1.0, 5.0, -2.0])
    got = _first_delta([h, np.zeros(3)], _one_edge(3, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(got, [h / (1.0 + np.exp(-1.0))], rtol=1e-12)

    ones = _one_edge(3, 1.0)
    prev = 0.0
    for scale in (0.5, 1.0, 2.0, 4.0):
        val = _first_delta([scale * np.ones(3), np.zeros(3)], ones)[0, 0] / scale
        assert prev < val < 1.0
        prev = val
    saturated = _first_delta([500.0 * np.ones(3), np.zeros(3)], ones)[0, 0] / 500.0
    assert saturated <= 1.0


def test_edge_discrepancy_examples():
    params = _one_edge(2)
    H = np.array([[0.3, -0.7], [0.3, -0.7]])
    np.testing.assert_allclose(_first_delta(H, params), 0.0, atol=1e-15)

    H2 = np.array([[0.3, -0.7], [0.0, 0.0]])
    np.testing.assert_allclose(_first_delta(H2, params), [0.5 * H2[0]])

    scalar = _one_edge(1)
    np.testing.assert_allclose(_first_delta([[2.0], [1.0]], scalar), [[0.5]])

    # gate logits of -10000 and +2000: exp(10000) would overflow in the
    # naive logistic; the gates are exactly 0 and 1
    saturated = _one_edge(2, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        off = _first_delta([[-5.0, -5.0], [0.0, 0.0]], saturated)
        on = _first_delta([[0.0, 0.0], [1.0, 1.0]], saturated)
        gated = _first_delta([[-5.0, -5.0], [1.0, 1.0]], saturated)
    np.testing.assert_array_equal(off, [[0.0, 0.0]])
    np.testing.assert_array_equal(on, [[-1.0, -1.0]])
    np.testing.assert_array_equal(gated, [[-1.0, -1.0]])


@pytest.mark.parametrize("edges", [[(-1, 0)], [(0, 4)]])
def test_sheaf_parameters_refuse_edge_ids_outside_the_graph(edges):
    with pytest.raises(InvalidParameterError):
        SheafParameters.init(edges, 4, stalk_dim=2)


def test_sheaf_parameters_need_one_map_pair_per_edge():
    maps = SheafParameters.init([(0, 1), (1, 2)], 3, stalk_dim=2)
    with pytest.raises(MissingEdgeParametersError, match="2 restriction-map pairs for 1 edges"):
        SheafParameters(rho_src=maps.rho_src, rho_dst=maps.rho_dst,
                        attention=maps.attention, edges=[(0, 1)], n_nodes=3)


@pytest.mark.parametrize("edges, named", [([(0, 1), (2, 0), (0, 1)], "duplicate edge (0, 1)"),
                                          ([(0, 1), (1, 1)], "self-loop (1, 1)")])
def test_sheaf_parameters_refuse_duplicate_edges_and_self_loops(edges, named):
    with pytest.raises(InvalidParameterError, match=re.escape(named)):
        SheafParameters.init(edges, 3, stalk_dim=2)


# ----------------------------------------------------------------------
# Laplacian
# ----------------------------------------------------------------------
def test_identity_sheaf_reduces_to_half_graph_laplacian():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 9))
        edges = _random_edges(rng, n, int(rng.integers(1, 2 * n)))
        params = SheafParameters.init(edges, n, stalk_dim=d, identity=True)
        H = rng.normal(size=(n, d))
        got = sheaf_laplacian_apply(H, params).data
        want = 0.5 * graph_laplacian(n, edges) @ H
        assert np.abs(got - want).max() <= 1e-6


def test_constant_sections_are_harmonic():
    rng = np.random.default_rng(1)
    edges = _random_edges(rng, 6, 8)
    params = SheafParameters.init(edges, 6, stalk_dim=3, identity=True)
    H = np.tile(rng.normal(size=3), (6, 1))
    np.testing.assert_allclose(sheaf_laplacian_apply(H, params).data, 0.0,
                               atol=1e-12)
    # constant sections are fixed points of message passing
    params.rounds = 3
    np.testing.assert_allclose(message_pass(H, params)[0].data, H, atol=1e-12)


def test_two_node_path_orientation_signs():
    params = SheafParameters.init([(0, 1)], 2, stalk_dim=1, identity=True,
                                  rounds=1)
    H = np.array([[2.0], [1.0]])
    np.testing.assert_allclose(sheaf_laplacian_apply(H, params).data,
                               [[0.5], [-0.5]])
    np.testing.assert_allclose(message_pass(H, params)[0].data, [[1.5], [1.5]])


def test_quadratic_form_equals_discrepancy_energy_with_pinned_gates():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        edges = _random_edges(rng, n, int(rng.integers(1, 12)))
        params = SheafParameters.init(edges, n, stalk_dim=d, map_dim=m, rng=rng)
        params.rho_src.data[:] = rng.normal(size=params.rho_src.data.shape)
        params.rho_dst.data[:] = rng.normal(size=params.rho_dst.data.shape)
        H = rng.normal(size=(n, d))
        lap = sheaf_laplacian_apply(H, params, alpha_override=1.0).data
        quad = float((H * lap).sum())
        # pinned gates: delta without the sigmoid, straight from the maps
        deltas = [params.rho_src.data[k] @ H[s] - params.rho_dst.data[k] @ H[t]
                  for k, (s, t) in enumerate(params.edges)]
        energy = float(sum(np.dot(x, x) for x in deltas))
        assert quad >= -1e-9
        assert abs(quad - energy) <= 1e-6 * max(1.0, energy)


def test_normalization_divides_by_one_plus_degree():
    edges = [(0, 1), (0, 2)]
    params = SheafParameters.init(edges, 3, stalk_dim=1, identity=True)
    H = np.array([[3.0], [1.0], [1.0]])
    raw = sheaf_laplacian_apply(H, params).data
    params.normalize = True
    normed = sheaf_laplacian_apply(H, params).data
    np.testing.assert_allclose(normed[0], raw[0] / 3.0)   # degree 2
    np.testing.assert_allclose(normed[1], raw[1] / 2.0)   # degree 1


def test_message_pass_edge_cases():
    rng = np.random.default_rng(3)
    edges = _random_edges(rng, 5, 6)
    H = rng.normal(size=(5, 2))

    params = SheafParameters.init(edges, 5, stalk_dim=2, rng=rng, rounds=0)
    np.testing.assert_array_equal(message_pass(H, params)[0].data, H)

    params = SheafParameters.init(edges, 5, stalk_dim=2, rng=rng, rounds=4)
    params.rho_src.data[:] = 0.0
    params.rho_dst.data[:] = 0.0
    np.testing.assert_allclose(message_pass(H, params)[0].data, H)


def test_first_round_reuses_the_returned_discrepancy(monkeypatch):
    rng = np.random.default_rng(6)
    params = SheafParameters.init(_random_edges(rng, 6, 10), 6, stalk_dim=3,
                                  rng=rng, rounds=2)
    calls = []
    real = sheaf._transport

    def counting(maps, H, index):
        calls.append(1)
        return real(maps, H, index)

    monkeypatch.setattr(sheaf, "_transport", counting)
    message_pass(rng.normal(size=(2, 6, 3)), params)
    assert len(calls) == 4      # two projections per round, none repeated


@pytest.mark.parametrize("normalize", [False, True])
def test_message_pass_matches_round_by_round_laplacian(normalize):
    rng = np.random.default_rng(7)
    params = SheafParameters.init(_random_edges(rng, 7, 12), 7, stalk_dim=4,
                                  map_dim=3, rng=rng, rounds=3,
                                  normalize=normalize)
    params.attention.data[:] = rng.normal(size=3)
    H0 = rng.normal(size=(5, 7, 4))
    with ad.no_grad():
        got, got_delta = message_pass(H0, params)
        want = ad.lift(H0)
        for _ in range(params.rounds):
            want = want - sheaf_laplacian_apply(want, params)
        want_delta = _discrepancies(ad.lift(H0), params, None)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(got_delta.data, want_delta.data)
    assert np.array_equal(message_pass(H0, params)[0].data, want.data)


def _oracle_case(mode, normalize, rounds, batch, seed=0):
    """Random maps with map_dim < stalk_dim, gated ("full") or with pinned
    gates ("pinned"); or the graph ablation's frozen identity maps."""
    rng = np.random.default_rng(seed)
    n, d = 6, 4
    m = d if mode == "graph" else 3
    params = SheafParameters.init(_random_edges(rng, n, 11), n, stalk_dim=d,
                                  map_dim=m, rng=rng, rounds=rounds,
                                  normalize=normalize, identity=mode == "graph")
    for t in params.parameters().values():
        if mode == "graph":
            t.requires_grad = False         # as the graph ablation's model freezes them
        else:
            t.data[:] = rng.normal(size=t.data.shape)
    H0 = ad.Tensor(rng.normal(size=(batch, n, d)), requires_grad=True)
    weights = (rng.normal(size=(batch, n, d)),
               rng.normal(size=(batch, params.n_edges, m)))
    return params, H0, weights, (None if mode == "full" else 1.0)


@pytest.mark.parametrize("first", [False, True])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("rounds", [0, 1, 2, 3])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("mode", ["full", "pinned", "graph"])
def test_message_pass_is_one_node_matching_the_composed_oracle(mode, normalize,
                                                               rounds, batch, first):
    params, H0, (w_h, w_delta), alpha = _oracle_case(mode, normalize, rounds, batch)
    leaves = (H0, params.rho_src, params.rho_dst, params.attention)
    results = []
    for fn in (message_pass, message_pass_composed):
        for t in leaves:
            t.grad = None
        H, delta = fn(H0, params, alpha_override=alpha)
        # `first`: whether the loss reads the first discrepancy
        loss = (H * w_h).sum() + ((delta * w_delta).sum() if first else 0.0)
        loss.backward()
        results.append([H.data, delta.data]
                       + [np.zeros_like(t.data) if t.grad is None else t.grad
                          for t in leaves])
        if fn is message_pass:
            # one node computes the pass straight from its inputs; the first
            # discrepancy is its second output
            assert H._parents == leaves
            assert delta._parents == (H,)
    for got, want in zip(*results):
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_message_pass_tape_memory_at_the_default_training_shape():
    # pipeline-default's training step: B 5, n 100, E 800, d = m = 32
    rng = np.random.default_rng(12)
    params = SheafParameters.init(_random_edges(rng, 100, 800), 100, stalk_dim=32,
                                  rng=rng, rounds=2)
    params.attention.data[:] = rng.normal(size=32) * 0.1
    H0 = ad.Tensor(rng.normal(size=(5, 100, 32)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        with ad.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            H, delta = message_pass(H0, params)
            kept = tracemalloc.get_traced_memory()[0] - base
        assert kept <= H.data.nbytes + delta.data.nbytes + 2 ** 16   # the outputs
        del H, delta

        base = tracemalloc.get_traced_memory()[0]
        H, delta = message_pass(H0, params)
        tape = tracemalloc.get_traced_memory()[0] - base
        loss = H.sum() + delta.sum()
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert tape <= 8e6, tape
    # the two map gradients alone are 13.1 MB
    assert peak <= 30e6, peak


def test_node_permutation_equivariance():
    rng = np.random.default_rng(4)
    n, d = 6, 3
    edges = _random_edges(rng, n, 8)
    params = SheafParameters.init(edges, n, stalk_dim=d, rng=rng, rounds=2)
    params.attention.data[:] = rng.normal(size=d) * 0.3
    H = rng.normal(size=(n, d))
    out = message_pass(H, params)[0].data

    perm = rng.permutation(n)
    relabel = {old: new for new, old in enumerate(perm)}
    edges_p = [(relabel[s], relabel[t]) for s, t in params.edges]
    params_p = SheafParameters.init(edges_p, n, stalk_dim=d, rounds=2)
    params_p.rho_src.data[:] = params.rho_src.data
    params_p.rho_dst.data[:] = params.rho_dst.data
    params_p.attention.data[:] = params.attention.data
    out_p = message_pass(H[perm], params_p)[0].data
    np.testing.assert_allclose(out_p, out[perm], rtol=1e-10, atol=1e-12)


def test_gradients_of_rho_and_attention_match_finite_differences():
    rng = np.random.default_rng(5)
    edges = [(0, 1), (1, 2), (2, 0)]
    params = SheafParameters.init(edges, 3, stalk_dim=2, map_dim=2, rng=rng,
                                  rounds=2)
    params.attention.data[:] = rng.normal(size=2) * 0.5
    H = rng.normal(size=(3, 2))
    tensors = params.parameters()

    def loss_fn():
        out = message_pass(H, params)[0]
        return (out * out).sum()

    for t in tensors.values():
        t.grad = None
    loss_fn().backward()
    numeric = finite_difference_grads(lambda: loss_fn().data, tensors)
    for name, t in tensors.items():
        errs = relative_errors(t.grad, numeric[name])
        assert errs.max() <= 1e-4, f"{name}: {errs.max():.2e}"
