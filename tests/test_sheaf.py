import warnings

import numpy as np
import pytest

from sheafcast import autodiff as ad
from sheafcast.errors import (InvalidParameterError, MissingEdgeParametersError,
                              ShapeMismatchError, UnknownEdgeError)
from sheafcast.graphs import BrainGraph
from sheafcast.sheaf import (SheafParameters, attention_coeffs, edge_discrepancy,
                             edge_project, message_pass, sheaf_laplacian_apply,
                             _discrepancies)

from oracles import finite_difference_grads, graph_laplacian, relative_errors


def _random_edges(rng, n, n_edges):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    idx = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    return [pairs[i] for i in idx]


# ----------------------------------------------------------------------
# primitive ops
# ----------------------------------------------------------------------
def test_edge_project_identity_zero_and_arithmetic():
    h = np.array([1.0, 1.0])
    np.testing.assert_array_equal(edge_project(h, np.eye(2)).data, h)
    np.testing.assert_array_equal(edge_project(h, np.zeros((2, 2))).data, [0, 0])
    np.testing.assert_array_equal(
        edge_project(h, np.array([[1.0, 2.0], [3.0, 4.0]])).data, [3.0, 7.0])
    with pytest.raises(ShapeMismatchError):
        edge_project(np.ones(3), np.eye(2))


def test_attention_coeffs_values_and_range():
    a_zero = np.zeros(3)
    s, d = attention_coeffs(np.ones(3), -np.ones(3), a_zero)
    assert float(s.data) == 0.5 and float(d.data) == 0.5

    a = np.array([1.0, 0.0, 0.0])
    s, _ = attention_coeffs(np.array([1.0, 5.0, -2.0]), np.zeros(3), a)
    np.testing.assert_allclose(float(s.data), 1.0 / (1.0 + np.exp(-1.0)),
                               rtol=1e-12)

    prev = 0.0
    for scale in (0.5, 1.0, 2.0, 4.0):
        s, _ = attention_coeffs(scale * np.ones(3), np.zeros(3), np.ones(3))
        val = float(s.data)
        assert prev < val < 1.0
        prev = val
    saturated, _ = attention_coeffs(500.0 * np.ones(3), np.zeros(3), np.ones(3))
    assert float(saturated.data) <= 1.0


def test_edge_discrepancy_examples():
    params = SheafParameters.init([(0, 1)], 2, stalk_dim=2, identity=True)
    H = np.array([[0.3, -0.7], [0.3, -0.7]])
    out = edge_discrepancy((0, 1), H, params)
    np.testing.assert_allclose(out.delta, 0.0, atol=1e-15)
    assert out.alpha_src == out.alpha_dst == 0.5

    H2 = np.array([[0.3, -0.7], [0.0, 0.0]])
    one_sided = edge_discrepancy((0, 1), H2, params)
    np.testing.assert_allclose(one_sided.delta, 0.5 * H2[0])

    scalar = SheafParameters.init([(0, 1)], 2, stalk_dim=1, identity=True)
    d = edge_discrepancy((0, 1), np.array([[2.0], [1.0]]), scalar)
    np.testing.assert_allclose(d.delta, [0.5])

    with pytest.raises(UnknownEdgeError):
        edge_discrepancy((1, 0), H, params)

    # a gate logit of -10000: exp(10000) would overflow in the naive logistic
    saturated = SheafParameters.init([(0, 1)], 2, stalk_dim=2, identity=True)
    saturated.attention.data[:] = 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gated = edge_discrepancy((0, 1), np.array([[-5.0, -5.0], [1.0, 1.0]]), saturated)
    assert gated.alpha_src == 0.0 and gated.alpha_dst == 1.0
    np.testing.assert_array_equal(gated.delta, [-1.0, -1.0])


@pytest.mark.parametrize("edges", [[(-1, 0)], [(0, 4)]])
def test_sheaf_parameters_refuse_edge_ids_outside_the_graph(edges):
    with pytest.raises(InvalidParameterError):
        SheafParameters.init(edges, 4, stalk_dim=2)


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
    np.testing.assert_allclose(message_pass(H, params).data, H, atol=1e-12)


def test_two_node_path_orientation_signs():
    params = SheafParameters.init([(0, 1)], 2, stalk_dim=1, identity=True,
                                  rounds=1)
    H = np.array([[2.0], [1.0]])
    np.testing.assert_allclose(sheaf_laplacian_apply(H, params).data,
                               [[0.5], [-0.5]])
    np.testing.assert_allclose(message_pass(H, params).data, [[1.5], [1.5]])


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
    np.testing.assert_array_equal(message_pass(H, params).data, H)

    params = SheafParameters.init(edges, 5, stalk_dim=2, rng=rng, rounds=4)
    params.rho_src.data[:] = 0.0
    params.rho_dst.data[:] = 0.0
    np.testing.assert_allclose(message_pass(H, params).data, H)


def test_first_round_reuses_the_returned_discrepancy(monkeypatch):
    rng = np.random.default_rng(6)
    params = SheafParameters.init(_random_edges(rng, 6, 10), 6, stalk_dim=3,
                                  rng=rng, rounds=2)
    calls = []
    real = ad.edge_matvec

    def counting(mats, vecs):
        calls.append(1)
        return real(mats, vecs)

    monkeypatch.setattr(ad, "edge_matvec", counting)
    message_pass(rng.normal(size=(2, 6, 3)), params, return_first_discrepancy=True)
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
        got, got_delta = message_pass(H0, params, return_first_discrepancy=True)
        want = ad.lift(H0)
        for _ in range(params.rounds):
            want = want - sheaf_laplacian_apply(want, params)
        want_delta = _discrepancies(ad.lift(H0), params, None)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(got_delta.data, want_delta.data)
    assert np.array_equal(message_pass(H0, params).data, want.data)


def test_node_permutation_equivariance():
    rng = np.random.default_rng(4)
    n, d = 6, 3
    edges = _random_edges(rng, n, 8)
    params = SheafParameters.init(edges, n, stalk_dim=d, rng=rng, rounds=2)
    params.attention.data[:] = rng.normal(size=d) * 0.3
    H = rng.normal(size=(n, d))
    out = message_pass(H, params).data

    perm = rng.permutation(n)
    relabel = {old: new for new, old in enumerate(perm)}
    edges_p = [(relabel[s], relabel[t]) for s, t in params.edges]
    params_p = SheafParameters.init(edges_p, n, stalk_dim=d, rounds=2)
    params_p.rho_src.data[:] = params.rho_src.data
    params_p.rho_dst.data[:] = params.rho_dst.data
    params_p.attention.data[:] = params.attention.data
    out_p = message_pass(H[perm], params_p).data
    np.testing.assert_allclose(out_p, out[perm], rtol=1e-10, atol=1e-12)


def test_graph_cross_check_detects_mismatch():
    params = SheafParameters.init([(0, 1)], 3, stalk_dim=2, identity=True)
    graph = BrainGraph(n_nodes=3, edges=((0, 1), (1, 2)))
    with pytest.raises(MissingEdgeParametersError):
        sheaf_laplacian_apply(np.zeros((3, 2)), params, graph=graph)


def test_gradients_of_rho_and_attention_match_finite_differences():
    rng = np.random.default_rng(5)
    edges = [(0, 1), (1, 2), (2, 0)]
    params = SheafParameters.init(edges, 3, stalk_dim=2, map_dim=2, rng=rng,
                                  rounds=2)
    params.attention.data[:] = rng.normal(size=2) * 0.5
    H = rng.normal(size=(3, 2))
    tensors = params.parameters()

    def loss_fn():
        out = message_pass(H, params)
        return (out * out).sum()

    for t in tensors.values():
        t.grad = None
    loss_fn().backward()
    numeric = finite_difference_grads(lambda: loss_fn().data, tensors)
    for name, t in tensors.items():
        errs = relative_errors(t.grad, numeric[name])
        assert errs.max() <= 1e-4, f"{name}: {errs.max():.2e}"
