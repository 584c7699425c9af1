import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest

from satmdp import polyfeat
from satmdp.cnf import (
    assignment_from_mask,
    brute_force_sat,
    formula_from_ints,
    hamming,
    satisfied_count,
)
from satmdp.errors import ResourceLimitError
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
    DENSE_VECTOR_BYTES,
    MultilinearPoly,
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


def _reference_subset_sums(delta, k):
    """sum_{i in S} delta[i] for every subset S of size < k of len(delta)
    variables, in the canonical order as itertools.combinations gives it."""
    v = len(delta)
    layers = [np.zeros(1, dtype=delta.dtype)]
    for size in range(1, min(k - 1, v) + 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(v), size)),
            dtype=np.intp).reshape(-1, size)
        layers.append(delta[combos].sum(axis=1, dtype=delta.dtype))
    return np.concatenate(layers)


# every k up to v + 2 at small v (k - 1 > v included), v on both sides of
# 64 and 128, feature_map's (48, 5), the p=6 table (15, 13) and v=768 at p=1
MASK_GRID = ([(v, k) for v in range(1, 10) for k in range(1, v + 3)]
             + [(v, 3) for v in (63, 64, 65, 128, 130)]
             + [(v, 5) for v in (63, 64, 65)] + [(48, 5), (15, 13), (768, 3)])


@pytest.mark.parametrize("v, k", MASK_GRID)
def test_subset_masks_match_the_combinations_builder(v, k):
    """The layered subset sums list the subsets of the combinations builder
    in its order: with random 40-bit delta, a sum names its subset's mask."""
    delta = np.random.default_rng(v * 100 + k).integers(0, 1 << 40, v)
    got = polyfeat._subset_sums(delta, k)
    want = _reference_subset_sums(delta, k)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("v, k", [(1, 3), (9, 5), (15, 13), (20, 7), (66, 3)])
def test_cell_index_is_parity_free_and_used_counts(v, k):
    sign, cell = polyfeat._cell_layout(k)
    rng = np.random.default_rng(v + k)
    w, free = (int.from_bytes(rng.bytes(9), "little") % (1 << v)
               for _ in range(2))
    want = [(S & w).bit_count() % 2 * sign + (S & free).bit_count() * k
            + (S & ~free).bit_count()
            for size in range(min(k - 1, v) + 1)
            for S in (sum(1 << i for i in c)
                      for c in itertools.combinations(range(v), size))]
    index = polyfeat._cell_index_cache(v, k)(w, free)
    assert index.dtype == cell and not index.flags.writeable
    assert np.array_equal(index, want)


# sha256 over to_feature_vector on 24 random (w, free, coef) draws at (v, k),
# and over theta_vector on 8 random assignments at (v, (k - 1) / 2), as the
# popcounts over the subset mask table gave them
DRAWS_SHA256 = {
    (48, 5): ("80d6b9369cc716f2190708acebbcfd4d12538a9d2b1f1b2393c2b3eaae59053a",
              "ccbd7d74b6100906d5132f774196923e3361b4a749dea0b2cb36e2389c4e4c86"),
    (66, 3): ("f9584387cd68564d4436f9ce2618f866e6afd1580ced77f074542e370606d785",
              "e5460e8d117447d6c31fdd3ad5221c012705f2b275ce30e58d48ab73516d9d06"),
}


@pytest.mark.parametrize("v, k", DRAWS_SHA256)
def test_features_and_theta_golden_on_random_draws(v, k):
    rng = np.random.default_rng(v * 100 + k)
    features = hashlib.sha256()
    for _ in range(24):
        w, free = (int.from_bytes(rng.bytes(9), "little") % (1 << v)
                   for _ in range(2))
        coef = rng.standard_normal((k, k))
        poly = MultilinearPoly(coef, polyfeat._signed_table(coef), free, w,
                               range(0))
        features.update(to_feature_vector(poly, v).tobytes())
    theta = hashlib.sha256()
    for _ in range(8):
        wstar = tuple(rng.choice((-1, 1), v).tolist())
        theta.update(theta_vector(wstar, v, k // 2).tobytes())
    assert (features.hexdigest(), theta.hexdigest()) == DRAWS_SHA256[v, k]


@pytest.mark.parametrize("p", range(1, 15))
def test_cell_type_holds_every_sum_before_the_mask(p):
    # p = 14 is the log degree at v=768
    k = 2 * p + 1
    sign, cell = polyfeat._cell_layout(k)
    assert sign // 2 < k * k <= sign  # 2^b, the smallest power of two >= k^2
    assert (k - 1) * k < sign  # the free and used counts never carry into b
    assert (k - 1) * (sign + k) <= np.iinfo(cell).max
    assert cell is (np.uint8 if p <= 2 else np.uint16)
    params = params_for_rounds(v=768, h=2, p=p, q=4)
    coef, signed, _terms = polyfeat._coefficient_table(params, 1, (), 0, 400)
    assert len(signed) == 2 * sign and not signed.flags.writeable
    assert np.array_equal(signed[:k * k], coef.ravel())
    assert np.array_equal(signed[sign:sign + k * k], 0.0 - coef.ravel())
    assert not signed[k * k:sign].any() and not signed[sign + k * k:].any()


def test_theta_vector_refuses_an_oversized_table():
    # sum C(48, i) for i <= 16 subsets, 8 bytes each: 30 TiB
    with pytest.raises(ResourceLimitError,
                       match="v=48, 2p\\+1=17: 32,994,436,782,672 bytes is over "
                             "DENSE_VECTOR_BYTES=268,435,456"):
        theta_vector((1,) * 48, 48, 8)


def test_dense_vector_bound_admits_its_exact_size(monkeypatch):
    # (66, 3): 2,212 subsets
    nbytes = 2212 * 8
    monkeypatch.setattr(polyfeat, "DENSE_VECTOR_BYTES", nbytes)
    assert polyfeat._subset_layout.__wrapped__(66, 3)[0] * 8 == nbytes
    monkeypatch.setattr(polyfeat, "DENSE_VECTOR_BYTES", nbytes - 1)
    with pytest.raises(ResourceLimitError, match=f"{nbytes:,} bytes is over"):
        polyfeat._subset_layout.__wrapped__(66, 3)


def test_feature_dim_needs_no_table_at_v768():
    f, planted = regular_planted_formula(768, seed=7)
    params = params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    d = sum(math.comb(768, i) for i in range(5))
    assert d * 8 > DENSE_VECTOR_BYTES  # the vector it would take
    assert feature_dim(768, 2) == d
    assert build_instance(f, params, wstar=planted).d == d


def test_theta_vector_entries():
    wstar = (1, -1, 1, 1)
    theta = theta_vector(wstar, 4, 1)
    assert set(np.unique(theta)) <= {-1.0, 1.0}
    assert theta[0] == 1.0  # empty product
    assert len(theta) == feature_dim(4, 1)


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
# p=log_degree(15)=6: d = 32,647, and the signed table's 2 * 256 = 512 cells
# (13^2 = 169 per sign, at a stride of 256) take a uint16 index, whose sums
# reach 12 * (256 + 13) = 3,228 before the mask
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
    f = formula_from_ints(4, [[1, 2, 3], [2, 3, 4], [-1, 2, 4], [1, -3, 4]])
    first = brute_force_sat(f)
    others = []
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
    cell_index = polyfeat._cell_index_cache(inst.formula.v, 2 * inst.params.p + 1)
    hits = cell_index.cache_info().hits
    assert features_state(inst, second).tobytes() == expected[1]
    assert features_state(inst, first).tobytes() == expected[0]
    # both read the cached indexes the mutated vector was taken with
    assert cell_index.cache_info().hits == hits + 2


def test_coefficient_table_cache_stays_within_its_bound():
    bound = polyfeat._coefficient_table.cache_info().maxsize
    params = params_for_rounds(v=100, h=2, p=2, q=4)
    for k in range(bound + 3):  # bound + 3 distinct round summaries
        polyfeat._coefficient_table(params, 1, (), k % 101, k // 101)
        assert polyfeat._coefficient_table.cache_info().currsize <= bound
    assert polyfeat._coefficient_table.cache_info().currsize == bound


@pytest.mark.parametrize("v, d", [(7, 99), (30, 31_931)])
def test_cell_index_cache_stays_within_its_byte_budget(v, d):
    polyfeat._cell_index_cache.cache_clear()
    cell_index = polyfeat._cell_index_cache(v, 5)  # p = 2
    bound = cell_index.cache_info().maxsize
    nbytes = cell_index(0, 0).nbytes
    assert nbytes == d  # uint8 cells
    assert bound == polyfeat.INDEX_CACHE_BYTES // nbytes
    held = [weakref.ref(cell_index(0, 0))]
    for key in range(1, bound + 3):  # bound + 3 distinct (w, free) pairs
        index = cell_index(key % 2 ** v, key // 2 ** v)
        assert not index.flags.writeable
        assert cell_index.cache_info().currsize * nbytes <= \
            polyfeat.INDEX_CACHE_BYTES
        held.append(weakref.ref(index))
    del index
    # only the cache keeps indexes alive, so the live ones are what it holds
    alive = [ref() for ref in held if ref() is not None]
    assert len(alive) == cell_index.cache_info().currsize == bound
    assert sum(index.nbytes for index in alive) <= polyfeat.INDEX_CACHE_BYTES
    with pytest.raises(ValueError, match="read-only"):
        alive[0][0] = 1


def test_cell_index_cache_builds_each_w_and_free_pair_once(pool_trees):
    """Every non-terminal state of a tree, from a cleared cache, builds the
    index of its (w, free) pair if no earlier state of the tree had that
    pair, and reads the cached one if one did."""
    pool, sweep = pool_trees

    def sweep_tree(inst, states):
        polyfeat._cell_index_cache.cache_clear()
        inner = [s for s in states if not s.is_terminal]
        for s in inner:
            features_state(inst, s)
        info = polyfeat._cell_index_cache(
            inst.formula.v, 2 * inst.params.p + 1).cache_info()
        distinct = len({(s.w, s.free) for s in inner})
        assert (info.misses, info.hits) == (distinct, len(inner) - distinct)
        return len(inner), distinct

    inst, states, _children = max(pool, key=lambda tree: len(tree[1]))
    inner, distinct = sweep_tree(inst, states)
    assert distinct < inner
    # a tree_sweep pass: 1,639 of its 15,015 non-terminal states build one
    counts = [sweep_tree(inst, states) for inst, states, _children in sweep]
    assert tuple(map(sum, zip(*counts))) == (15_015, 1_639)


def test_cell_index_cache_never_hits_on_a_cycle_of_large_states():
    # feature_map's shape: 24 states at v=48 (d = 213,053), one at every 4th
    # step, cycled through twice; the cache holds 4 of them
    v = 48
    f, planted = regular_planted_formula(v, seed=1)
    params = params_for_rounds(v=v, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    assert inst.d == 213_053
    actions = random_actions(np.random.default_rng(1), 3)
    steps = {}
    while len(steps) < params.H // 4:
        s = initial_state(inst)
        while not s.is_terminal:
            if s.step % 4 == 0:
                steps.setdefault(s.step, s)
            s = transition(inst, s, next(actions))
    cycle = [steps[step] for step in sorted(steps)]
    assert len({(s.w, s.free) for s in cycle}) == len(cycle) == 24
    polyfeat._cell_index_cache.cache_clear()
    for s in cycle + cycle:
        features_state(inst, s)
    info = polyfeat._cell_index_cache(v, 5).cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 48, 4)
    assert info.currsize * inst.d <= polyfeat.INDEX_CACHE_BYTES
