import hashlib
import itertools
import math

import numpy as np
import pytest

from satmdp import polyfeat
from satmdp.cnf import assignment_from_mask, hamming
from satmdp.agents import greedy_rollout_value, random_actions
from satmdp.mdp import (
    build_instance,
    enumerate_reachable,
    features_state,
    initial_state,
    reward_mean,
    transition,
)
from satmdp.polyfeat import (
    feature_dim,
    greedy_value_poly,
    theta_vector,
    to_feature_vector,
)
from satmdp.instances import random_satisfiable_instance, regular_planted_formula
from satmdp.reward import g, log_degree, params_for_rounds


def _greedy_value_at(s, params, x):
    """The greedy value at s if the planted assignment were x, from reward.g."""
    w = assignment_from_mask(s.w, params.v)
    free = [(s.free >> i) & 1 for i in range(params.v)]
    dist_free = sum(1 for i, f in enumerate(free) if f and w[i] != x[i])
    dist_used = sum(1 for i, f in enumerate(free) if not f and w[i] != x[i])
    past = math.prod(g(i, d, params) for i, d in enumerate(s.round_dists, 1))
    return (past * g(s.n, hamming(s.w_round, s.w) + dist_free, params)
            * g(s.n + 1, dist_used, params))


@pytest.mark.parametrize("v", [4, 5, 6, 7])
def test_greedy_value_poly_matches_walsh_expansion(v):
    # coefficient of x_S = 2^-v sum_x P(x) x_S over all x, with no polynomial
    # algebra; subsets in the canonical order
    inst, _, _ = random_satisfiable_instance(29 + v, v=v, h=2, epsilon=0.125)
    params = inst.params
    d = feature_dim(v, params.p)
    points = list(itertools.product((-1, 1), repeat=v))
    subsets = [S for size in range(v + 1)
               for S in itertools.combinations(range(v), size)]
    chi = np.array([[math.prod(x[i] for i in S) for S in subsets]
                    for x in points])
    states, _children = enumerate_reachable(inst, budget=20_000)
    assert any(s.n == 2 for s in states) and any(s.is_terminal for s in states)
    for s in states:
        values = np.array([_greedy_value_at(s, params, x) for x in points])
        walsh = chi.T @ values / 2 ** v
        got = to_feature_vector(greedy_value_poly(s, params), v)
        np.testing.assert_allclose(got, walsh[:d], rtol=0, atol=1e-12)
        # degree <= 2p: nothing above the feature dimension
        assert np.abs(walsh[d:]).max(initial=0.0) <= 1e-12


def test_feature_dim_bound():
    for v in range(2, 10):
        for p in (1, 2, 3):
            assert feature_dim(v, p) == sum(
                math.comb(v, i) for i in range(min(2 * p, v) + 1))
            assert feature_dim(v, p) <= 2 * v ** (2 * p)
    assert feature_dim(5, 2) == 31


def test_theta_vector_entries():
    wstar = (1, -1, 1, 1)
    theta = theta_vector(wstar, 4, 1)
    assert set(np.unique(theta)) <= {-1.0, 1.0}
    assert theta[0] == 1.0  # empty product
    assert len(theta) == feature_dim(4, 1)


def test_greedy_value_poly_matches_reward_at_wstar():
    inst, wstar, _ = random_satisfiable_instance(11, v=5, h=2, epsilon=0.125)
    theta = theta_vector(wstar, 5, inst.params.p)
    states, _children = enumerate_reachable(inst, budget=10_000)
    for s in states:
        if s.is_terminal:
            continue
        psi = to_feature_vector(greedy_value_poly(s, inst.params), 5)
        assert psi @ theta == pytest.approx(
            greedy_rollout_value(inst, s), abs=1e-9)


def test_greedy_value_poly_terminal_equals_exact_reward():
    # at a terminal state the polynomial evaluates to the entering payout
    inst, wstar, _ = random_satisfiable_instance(13, v=5, h=2, epsilon=0.125)
    states, _children = enumerate_reachable(inst, budget=10_000)
    terminals = [s for s in states if s.is_terminal]
    assert terminals
    theta = theta_vector(wstar, 5, inst.params.p)
    for s in terminals:
        psi = to_feature_vector(greedy_value_poly(s, inst.params), 5)
        assert psi @ theta == pytest.approx(
            reward_mean(inst, s), abs=1e-12)


def test_features_span_two_mask_words():
    # v = 66 needs two 64-bit words per subset mask; p = 1 keeps d at 2,212
    f, planted = regular_planted_formula(66, seed=0)
    params = params_for_rounds(v=66, h=2, p=1, q=4, epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    assert inst.d == 2212
    theta = theta_vector(planted, 66, 1)
    subsets = [S for size in range(3)
               for S in itertools.combinations(range(66), size)]
    assert np.array_equal(theta, [math.prod(planted[i] for i in S)
                                  for S in subsets])
    rng = np.random.default_rng(0)
    checked = 0
    for _episode in range(3):
        s = initial_state(inst)
        while not s.is_terminal:
            if s.step % 8 == 0:
                assert features_state(inst, s) @ theta == \
                    pytest.approx(greedy_rollout_value(inst, s), abs=1e-12)
                checked += 1
            s = transition(inst, s, int(rng.integers(0, 3)))
    assert checked >= 30


# sha256 over features_state(...).tobytes() at every non-terminal state of
# the first two random-play episodes (actions from default_rng(0), 46 states)
# of regular_planted_formula(15, seed=3) at q=2, h=2, eps=1/64 and
# p=log_degree(15)=6: d = 32,647, and the signed table's 2 * 13^2 = 338 cells
# take a uint16 index
P6_FEATURES_SHA256 = "a5fe22875cb4dcbbf9cba9b3156457c6f941677381b58dfe51793dba036e5f5f"


def test_features_golden_at_p6_with_uint16_cells():
    f, planted = regular_planted_formula(15, seed=3)
    params = params_for_rounds(v=15, h=2, p=log_degree(15), q=2,
                               epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    assert (params.p, inst.d) == (6, 32_647)
    actions = random_actions(np.random.default_rng(0), 3)
    h = hashlib.sha256()
    checked = 0
    for _episode in range(2):
        s = initial_state(inst)
        while not s.is_terminal:
            h.update(features_state(inst, s).tobytes())
            checked += 1
            s = transition(inst, s, next(actions))
    assert checked == 46
    assert h.hexdigest() == P6_FEATURES_SHA256


def test_features_never_read_wstar():
    # same formula, two different satisfying assignments: identical features
    from satmdp.cnf import brute_force_sat, formula_from_ints, satisfied_count
    f = formula_from_ints(4, [[1, 2, 3], [2, 3, 4], [-1, 2, 4], [1, -3, 4]])
    first = brute_force_sat(f)
    others = []
    import itertools
    for a in itertools.product((-1, 1), repeat=4):
        if satisfied_count(f, a) == f.m and a != first:
            others.append(a)
    assert others
    params = params_for_rounds(v=4, h=2, p=2, q=4)
    inst1 = build_instance(f, params, wstar=first)
    inst2 = build_instance(f, params, wstar=others[0])
    states, _ = enumerate_reachable(inst1, budget=10_000)
    for s in states:
        assert features_state(inst1, s).tobytes() == \
            features_state(inst2, s).tobytes()



def test_terms_count_the_nonzero_features(pool_trees):
    pool, _sweep = pool_trees
    for inst, states, _children in pool:
        for s in states:
            if not s.is_terminal:
                poly = greedy_value_poly(s, inst.params)
                assert len(poly.terms) == np.count_nonzero(
                    to_feature_vector(poly, inst.formula.v))


def _shared_summaries(pool_trees):
    """The largest criterion-1 tree's instance and its round summaries held
    by more than one non-terminal state, as lists of those states."""
    inst, states, _children = max(pool_trees[0], key=lambda tree: len(tree[1]))
    by_summary = {}
    for s in states:
        if not s.is_terminal:
            key = (s.n, s.round_dists, hamming(s.w_round, s.w),
                   s.free.bit_count())
            by_summary.setdefault(key, []).append(s)
    shared = [group for group in by_summary.values() if len(group) > 1]
    assert shared
    return inst, shared


def test_states_of_one_round_summary_share_one_read_only_table(pool_trees):
    inst, shared = _shared_summaries(pool_trees)
    for group in shared:
        polys = [greedy_value_poly(s, inst.params) for s in group]
        assert all(poly.coef is polys[0].coef for poly in polys)
        assert all(poly.signed is polys[0].signed for poly in polys)
    poly = greedy_value_poly(shared[0][0], inst.params)
    with pytest.raises(ValueError, match="read-only"):
        poly.coef[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        poly.signed[0] = 1.0


def test_a_mutated_feature_vector_leaves_the_shared_table_intact(pool_trees):
    inst, shared = _shared_summaries(pool_trees)
    first, second = shared[0][:2]
    expected = [features_state(inst, s).tobytes() for s in (first, second)]
    phi = features_state(inst, first)
    phi[:] = -1.0
    assert features_state(inst, second).tobytes() == expected[1]
    assert features_state(inst, first).tobytes() == expected[0]


def test_coefficient_table_cache_stays_within_its_bound():
    bound = polyfeat._coefficient_table.cache_info().maxsize
    params = params_for_rounds(v=100, h=2, p=2, q=4)
    for k in range(bound + 3):  # bound + 3 distinct round summaries
        polyfeat._coefficient_table(params, 1, (), k % 101, k // 101)
        assert polyfeat._coefficient_table.cache_info().currsize <= bound
    assert polyfeat._coefficient_table.cache_info().currsize == bound
