import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheafcast.errors import InvalidParameterError, WindowTooShortError
from sheafcast.graphs import (BrainGraph, PriorGraph, generate_small_world,
                              granger_score_matrix, load_prior_csv, prior_from_scores,
                              save_prior_csv)

from oracles import granger_score_matrix_loop, ols_granger_score, top_k_incoming


# ----------------------------------------------------------------------
# small-world generator
# ----------------------------------------------------------------------
def test_reference_instance_has_400_edges():
    graph = generate_small_world(100, 8, 0.1, seed=7)
    assert graph.n_edges == 400


def test_beta_zero_is_exact_ring():
    graph = generate_small_world(6, 2, 0.0, seed=0)
    assert set(graph.edges) == {(i, (i + 1) % 6) for i in range(6)}


def test_generator_is_deterministic():
    a = generate_small_world(100, 8, 0.1, seed=7)
    b = generate_small_world(100, 8, 0.1, seed=7)
    assert a.edges == b.edges


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 40), half_k=st.integers(1, 2),
       beta=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_edge_count_always_n_k_over_2(n, half_k, beta, seed):
    k = 2 * half_k
    graph = generate_small_world(n, k, beta, seed=seed)
    assert graph.n_edges == n * k // 2


@pytest.mark.parametrize("n,k,beta", [(10, 3, 0.1), (10, 12, 0.1),
                                      (10, 4, -0.1), (10, 4, 1.5)])
def test_generator_rejects_bad_parameters(n, k, beta):
    with pytest.raises(InvalidParameterError):
        generate_small_world(n, k, beta, seed=0)


def test_braingraph_rejects_self_loops_and_duplicates():
    with pytest.raises(InvalidParameterError):
        BrainGraph(n_nodes=3, edges=((0, 0),))
    with pytest.raises(InvalidParameterError):
        BrainGraph(n_nodes=3, edges=((0, 1), (0, 1)))
    with pytest.raises(InvalidParameterError):
        BrainGraph(n_nodes=3, edges=((0, 5),))


# ----------------------------------------------------------------------
# Granger prior
# ----------------------------------------------------------------------
def _driven_pair(seed, t_len=200, coupling=0.9):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=t_len)
    x0 = np.zeros(t_len)
    for t in range(1, t_len):
        x0[t] = coupling * x1[t - 1] + 0.3 * rng.normal()
    return np.stack([x0, x1])


def test_driver_edge_outscores_reverse():
    hits = 0
    oracle_hits = 0
    for seed in range(40):
        ctx = _driven_pair(seed)
        scores = granger_score_matrix(ctx, lag_order=3)
        if scores[1, 0] > scores[0, 1]:
            hits += 1
        if (ols_granger_score(ctx[0], ctx[1], 3)
                > ols_granger_score(ctx[1], ctx[0], 3)):
            oracle_hits += 1
    assert hits >= 38
    assert oracle_hits >= 38          # independent plain-OLS oracle agrees


def test_constant_channels_score_zero_but_edges_selected():
    ctx = np.ones((2, 50))
    ctx[1] *= 3.0
    prior = prior_from_scores(granger_score_matrix(ctx, 3), lag_order=3, top_k=1)
    assert prior.n_edges == 2
    assert all(s == 0.0 for s in prior.scores)


def test_affine_rescaling_preserves_scores_and_edges():
    ctx = _driven_pair(3, t_len=120)
    ctx = np.vstack([ctx, np.random.default_rng(9).normal(size=(2, 120))])
    base = prior_from_scores(granger_score_matrix(ctx, 2), lag_order=2, top_k=2)
    scaled = ctx * np.array([[3.0], [0.2], [-1.4], [10.0]]) + \
        np.array([[5.0], [-2.0], [0.0], [100.0]])
    other = prior_from_scores(granger_score_matrix(scaled, 2), lag_order=2, top_k=2)
    assert base.edges == other.edges
    np.testing.assert_allclose(base.scores, other.scores, rtol=1e-8)


def test_white_noise_scores_far_below_driver():
    driver_scores = []
    noise_scores = []
    for seed in range(30):
        driver_scores.append(granger_score_matrix(_driven_pair(seed))[1, 0])
        ctx = np.random.default_rng(seed + 1000).normal(size=(4, 200))
        s = granger_score_matrix(ctx, lag_order=3)
        noise_scores.append(s[~np.eye(4, dtype=bool)].mean())
    assert np.mean(noise_scores) * 10.0 < np.mean(driver_scores)


def test_in_degree_never_exceeds_top_k():
    rng = np.random.default_rng(5)
    ctx = rng.normal(size=(6, 60))
    prior = prior_from_scores(granger_score_matrix(ctx, 2), lag_order=2, top_k=3)
    indeg = {}
    for _, d in prior.edges:
        indeg[d] = indeg.get(d, 0) + 1
    assert max(indeg.values()) <= 3


def test_prior_never_reads_horizon():
    rng = np.random.default_rng(11)
    series = rng.normal(size=(3, 80))
    t_ctx = 40
    scores = granger_score_matrix(series[:, :t_ctx], lag_order=3)
    corrupted = series.copy()
    corrupted[:, t_ctx:] = 1e6 * rng.normal(size=(3, 40))
    scores2 = granger_score_matrix(corrupted[:, :t_ctx], lag_order=3)
    np.testing.assert_array_equal(scores, scores2)


def _constant_channel(rng):
    ctx = rng.normal(size=(5, 40))
    ctx[2] = 4.0
    return ctx, 3


def _affine_copies(rng):
    ctx = rng.normal(size=(5, 40))
    ctx[3] = -2.5 * ctx[1] + 7.0
    return ctx, 2


@pytest.mark.parametrize("make", [
    lambda rng: (rng.normal(size=(2, 50)), 3),
    lambda rng: (rng.normal(size=(4, 2 * 3 + 3)), 3),     # shortest context
    lambda rng: (rng.normal(size=(6, 40)), 1),
    lambda rng: (rng.normal(size=(6, 40)), 4),
    lambda rng: (rng.normal(size=(3, 2 * 4 + 3)), 4),
    lambda rng: (rng.normal(size=(100, 30)), 3),
    _constant_channel,
    _affine_copies,
], ids=["n2", "shortest-p3", "p1", "p4", "shortest-p4", "n100", "constant",
        "affine-copy"])
def test_batched_scores_match_per_pair_loop(make):
    ctx, p = make(np.random.default_rng(21))
    np.testing.assert_allclose(granger_score_matrix(ctx, p),
                               granger_score_matrix_loop(ctx, p),
                               rtol=0.0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), top_k=st.integers(1, 14))
def test_top_k_matches_sorted_tuple_rule(data, n, top_k):
    flat = data.draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    scores = np.array(flat, dtype=float).reshape(n, n)
    prior = prior_from_scores(scores, lag_order=3, top_k=top_k)
    edges, strengths = top_k_incoming(scores, top_k)
    assert list(prior.edges) == edges
    assert list(prior.scores) == strengths


def test_window_too_short_raises():
    with pytest.raises(WindowTooShortError):
        granger_score_matrix(np.zeros((2, 8)), lag_order=3)


def test_prior_graph_invariants_enforced():
    with pytest.raises(InvalidParameterError):
        PriorGraph(edges=((0, 1),), scores=(-1.0,), lag_order=3, top_k=8)
    with pytest.raises(InvalidParameterError):
        PriorGraph(edges=((0, 1), (2, 1)), scores=(1.0, 1.0),
                   lag_order=3, top_k=1)
    for edges in (((-1, 0),), ((0, 7),), ((0, 1), (0, 1))):
        with pytest.raises(InvalidParameterError):
            PriorGraph(edges=edges, scores=(1.0,) * len(edges), lag_order=3,
                       top_k=8, n_nodes=4)
    # n_nodes 0 means the node count is unknown, so ids are not range-checked
    assert PriorGraph(edges=((0, 7),), scores=(1.0,), lag_order=3, top_k=8).n_edges == 1


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------
def test_prior_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    prior = prior_from_scores(rng.random((5, 5)), lag_order=3, top_k=2)
    path = tmp_path / "prior.csv"
    save_prior_csv(path, prior)
    assert path.read_text().splitlines()[0] == "src,dst,score"
    loaded = load_prior_csv(path, lag_order=3, top_k=2, n_nodes=5)
    assert loaded.edges == prior.edges
    np.testing.assert_allclose(loaded.scores, prior.scores)
