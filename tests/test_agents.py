import hashlib
import math
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import combinations, islice, product
from operator import mul

import numpy as np
import pytest
from conftest import merge_by_summary
from hypothesis import assume, example, given, settings, strategies as st

from satmdp import agents, polyfeat, reward
from satmdp.agents import (
    ReductionOracle,
    SatOracle,
    _lattice_lines,
    _pair_cuts,
    a_sat,
    cover_radius,
    cover_spacing,
    epsilon_net_search,
    greedy_action,
    greedy_on_q,
    greedy_policy,
    greedy_reference_learner,
    greedy_rollout_value,
    horizon_split_policy,
    horizon_split_q,
    random_actions,
    random_learner,
    rollout,
    select_independent,
    tree_greedy_values,
    tree_optimal_values,
)
from satmdp.cnf import (
    formula_from_ints,
    hamming,
    mask_from_assignment,
    satisfied_count,
)
from satmdp.errors import InvariantViolation, ParameterError, ResourceLimitError
from satmdp.gapsat import PromiseKind, check_gap_promise
from satmdp.instances import (
    random_gap_unsat_formula,
    random_satisfiable_instance,
    regular_planted_formula,
)
from satmdp.mdp import (
    GAP_SATISFIED,
    MODE_SIMULATOR,
    build_instance,
    enumerate_reachable,
    features_state,
    initial_state,
    reward_mean,
    summary_tree,
    transition,
)
from satmdp.reward import log_degree, params_for_rounds
from satmdp.toys import ToyLinearMdp


def test_greedy_action_figure_root(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    inst = build_instance(figure_formula, params,
                          start=(-1, 1, -1, -1, -1))
    s = initial_state(inst)
    # offered clause (a | ~b | c); target (F,T,T,T,T) differs on c only
    assert greedy_policy(inst, (-1, 1, 1, 1, 1))(s) == 2


def test_greedy_action_stage_two_keep(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    inst = build_instance(figure_formula, params, start=(-1, 1, -1, -1, -1))
    s = initial_state(inst)
    s = transition(inst, s, 2)
    s = transition(inst, s, 2)
    # stage two offers variable a; any target agreeing on a says keep
    wstar = inst.wstar_assignment()
    expected = 1 if wstar[0] != -1 else 0
    assert greedy_action(inst, s) == expected


def test_greedy_action_invariant_violation(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    inst = build_instance(figure_formula, params, start=(-1, 1, -1, -1, -1))
    s = initial_state(inst)
    # clause (a | ~b | c) is satisfied by (T,F,F,..): feeding a target that
    # leaves it unsatisfied must blow up loudly
    with pytest.raises(InvariantViolation):
        greedy_policy(inst, (-1, 1, -1, 1, 1))(s)


def test_greedy_reaches_target_within_one_full_round():
    inst, wstar, _ = random_satisfiable_instance(41, v=6, h=3, epsilon=0.125)
    states, _ = enumerate_reachable(inst, budget=20_000)
    for s in states:
        if s.is_terminal or s.n >= inst.params.h:
            continue
        cur = s
        start_round = cur.n
        while not cur.is_terminal:
            cur = transition(inst, cur, greedy_action(inst, cur))
            if cur.w == inst.wstar:
                break
        if cur.w == inst.wstar:
            assert cur.n <= start_round + 1
        else:
            assert cur.is_terminal


def test_tree_greedy_values_equal_the_rollout_at_every_pool_state(pool_trees):
    """The one comparison of the bottom-up greedy pass with its single-state
    reference: bit-equal at every state of the 50 criterion-1 trees, on each
    instance and on its w*-less simulator twin."""
    pool, _sweep = pool_trees
    for inst, states, children in pool:
        twin = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR)
        for game in (inst, twin):
            assert tree_greedy_values(game, states, children) == \
                [greedy_rollout_value(game, s) for s in states]


# sha256 over, tree by tree of the criterion-1 pool: repr of
# tree_optimal_values on the instance and on its simulator twin, then repr of
# the greedy value at every state on each (tree_greedy_values)
POOL_VALUES_SHA256 = "becd18ff20ad7c5d2b39ee44a69121bafca16955e9c924aaae52a7941daded93"


def test_pool_values_golden(pool_trees):
    pool, _sweep = pool_trees
    h = hashlib.sha256()
    for inst, states, children in pool:
        twin = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR)
        for game in (inst, twin):
            h.update(repr(tree_optimal_values(game, states, children)).encode())
            h.update(repr(tree_greedy_values(game, states, children)).encode())
    assert h.hexdigest() == POOL_VALUES_SHA256


def test_summary_dag_agrees_with_the_tree_at_every_pool_state(pool_trees):
    """`summary_tree`'s DAG against the enumerated tree on every criterion-1
    tree, on the instance and on its simulator twin: the DAG is the tree
    merged by round summary (`merge_by_summary`), and read at each tree
    state's node, `tree_optimal_values`, `tree_greedy_values` and
    <phi, theta(w*)> over the nodes equal their values over the tree bit for
    bit."""
    pool, _sweep = pool_trees
    for inst, states, children in pool:
        theta = polyfeat.theta_vector(inst.wstar_assignment(), inst.formula.v,
                                      inst.params.p)
        twin = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR)
        dag, at = merge_by_summary(states, children)
        for game in (inst, twin):
            tree = summary_tree(game, 20_000)
            assert tree == dag
            nodes, dag_children, _mult = tree
            for values in (tree_optimal_values, tree_greedy_values):
                on_dag = values(game, nodes, dag_children)
                assert repr([on_dag[i] for i in at]) == \
                    repr(values(game, states, children))
            on_dag = [float(features_state(game, s) @ theta) for s in nodes]
            assert repr([on_dag[i] for i in at]) == \
                repr([float(features_state(game, s) @ theta) for s in states])


def test_value_caches_build_each_round_summary_once(pool_trees, monkeypatch):
    """A tree_sweep pass over the 16 sweep trees, from cleared caches, builds
    one terminal mean per distinct terminal round summary and one coefficient
    table per distinct non-terminal one, each table from two calls of
    `_symmetric_coefficients`."""
    _pool, sweep = pool_trees
    symmetric_calls = []

    def spy(*args, real=polyfeat._symmetric_coefficients):
        symmetric_calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyfeat, "_symmetric_coefficients", spy)
    reward.expected_reward.cache_clear()
    polyfeat._coefficient_table.cache_clear()
    means, tables = set(), set()
    for inst, states, children in sweep:
        tree_optimal_values(inst, states, children)
        for s in states:
            features_state(inst, s)
            # a rollout per state, as perfbench's tree_sweep pass runs it
            greedy_rollout_value(inst, s)
            flips = hamming(s.w_round, s.w)
            if s.is_terminal:
                diff = s.w ^ inst.wstar
                means.add((inst.params, s.round_dists, s.n, flips,
                           (diff & s.free).bit_count(),
                           (diff & ~s.free & inst.all_mask).bit_count()))
            else:
                tables.add((inst.params, s.n, s.round_dists, flips,
                            s.free.bit_count()))
    assert (len(means), len(tables)) == (1524, 1076)
    assert reward.expected_reward.cache_info().misses == len(means)
    assert polyfeat._coefficient_table.cache_info().misses == len(tables)
    assert len(symmetric_calls) == 2 * len(tables)


@pytest.mark.parametrize("v, d, sampled", [(15, 32_647, 466),
                                            (18, 249_528, 326)])
def test_greedy_linear_and_bellman_on_sampled_states_p6_q2(v, d, sampled):
    """Linearity and greedy optimality in the second parameterization at
    (v, p, q) = (15, 6, 2) and (18, 6, 2), where 2p < v, so the features do
    not span every function of x. This checks a sample, not a whole tree:
    the non-terminal states of 20 random-play episodes (actions from
    default_rng(0)) on regular_planted_formula(v, seed=3) at h=2, eps=1/64.
    At each, <phi(s), theta> matches the greedy rollout to 1e-12 relative,
    and no action improves on the greedy value in one step:
    r(s, a) + V_greedy(s') <= V_greedy(s) for all three actions."""
    f, planted = regular_planted_formula(v, seed=3)
    params = params_for_rounds(v=v, h=2, p=log_degree(v), q=2,
                               epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    assert (params.p, inst.d) == (6, d) and 2 * params.p < v
    theta = polyfeat.theta_vector(planted, v, params.p)
    actions = random_actions(np.random.default_rng(0), 3)
    checked = 0
    for _episode in range(20):
        s = initial_state(inst)
        while not s.is_terminal:
            # sampled states, not a whole tree: no tree pass to read
            value = greedy_rollout_value(inst, s)
            assert features_state(inst, s) @ theta == pytest.approx(
                value, rel=1e-12, abs=0)
            for a in range(3):
                child = transition(inst, s, a)
                step = reward_mean(inst, child) + greedy_rollout_value(inst, child)
                assert step <= value * (1 + 1e-12)
            checked += 1
            s = transition(inst, s, next(actions))
    assert checked == sampled


def test_rollout_semantics(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2, epsilon=0.125)
    inst = build_instance(figure_formula, params, start=(-1, 1, -1, -1, -1))
    oracle = SatOracle(inst, seed=1)
    steps = list(rollout(oracle, greedy_policy(inst)))
    final = steps[-1][3]
    assert final.is_terminal
    assert final.terminal_kind == GAP_SATISFIED
    assert 1 < len(steps) <= inst.params.H
    assert all(r == 0 for _, _, r, _ in steps[:-1])


def test_rollout_streams_each_step_as_taken(figure_instance):
    oracle = SatOracle(figure_instance, seed=0)
    next(rollout(oracle, greedy_policy(figure_instance)))
    # the initial state plus one step: nothing beyond the first step is played
    assert oracle.counters == {"transition": 2, "reward": 1, "feature": 0}


def test_rollout_refuses_an_episode_past_the_horizon(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2, epsilon=0.125)
    inst = build_instance(figure_formula, params, start=(-1, 1, -1, -1, -1))
    oracle = SatOracle(inst, seed=1)
    oracle.horizon = 1
    steps = rollout(oracle, greedy_policy(inst))
    assert not next(steps)[3].is_terminal
    with pytest.raises(InvariantViolation, match="horizon"):
        next(steps)


def test_a_sat_yes_on_satisfiable_and_witness_is_verified():
    inst, wstar, _ = random_satisfiable_instance(47, v=6, h=2,
                                                 epsilon=1 / 16, b=8)
    result = a_sat(inst.formula, greedy_reference_learner(wstar), inst.params,
                   seed=3)
    assert result.answer == "YES"
    assert satisfied_count(inst.formula, result.witness) \
        >= inst.gap_threshold_count
    # completeness within one episode: few hundred oracle calls at most
    assert sum(result.queries.values()) <= 2 * inst.params.H + 4


def test_a_sat_never_solves_its_formula(sat_solves):
    inst, wstar, _ = random_satisfiable_instance(47, v=6, h=2,
                                                 epsilon=1 / 16, b=8)
    sat_solves.clear()
    result = a_sat(inst.formula, greedy_reference_learner(wstar), inst.params,
                   seed=3)
    assert result.answer == "YES"
    assert sat_solves == []


def test_a_sat_no_on_gap_unsatisfiable():
    rng = np.random.default_rng(5)
    f = random_gap_unsat_formula(rng, v=7)
    assert check_gap_promise(f, 1 / 16).kind is PromiseKind.GAP_UNSATISFIABLE
    params = params_for_rounds(v=7, h=2, p=2, q=4, epsilon=1 / 16, b=8)
    result = a_sat(f, random_learner(episodes=4, seed=1), params, seed=1)
    assert result.answer == "NO" and result.witness is None


@pytest.mark.parametrize("make", [
    lambda: random_gap_unsat_formula(np.random.default_rng(0), v=5),
    lambda: random_gap_unsat_formula(np.random.default_rng(0), v=17),
    lambda: random_satisfiable_instance(0, v=2, h=2),
], ids=["gap-unsat-v5", "gap-unsat-v17", "satisfiable-v2"])
def test_generators_refuse_out_of_domain_v(make):
    with pytest.raises(ParameterError, match="need v"):
        make()


def test_gap_unsat_formula_at_largest_v():
    f = random_gap_unsat_formula(np.random.default_rng(0), v=16)
    assert f.m == 16
    assert check_gap_promise(f, 1 / 16).kind is PromiseKind.GAP_UNSATISFIABLE


def test_a_sat_budget_exhaustion_answers_no():
    inst, wstar, _ = random_satisfiable_instance(53, v=6, h=2,
                                                 epsilon=1 / 16, b=8)
    result = a_sat(inst.formula, random_learner(episodes=50, seed=2),
                   inst.params, budget=10, seed=2)
    assert result.answer in ("NO", "YES")
    if result.answer == "NO":
        assert result.note == "budget exhausted" or result.witness is None

    # a batched reward query is charged in full before it runs
    def batch_learner(oracle):
        return oracle.sample_reward_batch(oracle.initial_state(), 0, 1000)

    f = random_gap_unsat_formula(np.random.default_rng(5), v=7)
    params = params_for_rounds(v=7, h=2, p=2, q=4, epsilon=1 / 16, b=8)
    result = a_sat(f, batch_learner, params, budget=10, seed=0)
    assert result.answer == "NO" and result.note == "budget exhausted"
    assert sum(result.queries.values()) <= 10


def test_a_sat_budget_boundary_and_running_total():
    """A greedy-reference run that takes Q queries answers YES at budget Q and
    NO at Q - 1, where the witness-finding transition is refused; after every
    run the oracle's running total is the sum of its counters."""
    inst, wstar, _ = random_satisfiable_instance(53, v=6, h=2,
                                                 epsilon=1 / 16, b=8)
    f768, planted = regular_planted_formula(768, seed=7)
    params768 = params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    for f, params, target in ((inst.formula, inst.params, wstar),
                              (f768, params768, planted)):
        oracles = []

        def learner(oracle):
            oracles.append(oracle)
            return greedy_reference_learner(target)(oracle)

        def run(budget):
            result = a_sat(f, learner, params, budget=budget, seed=0)
            oracle = oracles[-1]
            assert oracle.total == sum(oracle.counters.values()) <= budget
            assert result.queries == oracle.counters
            return result

        q = sum(run(1_000_000).queries.values())
        at = run(q)
        assert at.answer == "YES" and at.note == "" and oracles[-1].total == q
        below = run(q - 1)
        assert below.answer == "NO" and below.note == "budget exhausted"
        assert below.witness is None and oracles[-1].total == q - 1


def test_a_sat_executes_the_path_a_learner_returns():
    """A path the learner never played, here the greedy path to w* worked out
    on the instance outside the oracle, is walked from the initial state."""
    inst, _, _ = random_satisfiable_instance(47, v=6, h=2, epsilon=1 / 16, b=8)
    s, path = initial_state(inst), []
    while not s.is_terminal:
        path.append(greedy_action(inst, s))
        s = transition(inst, s, path[-1])
    assert s.stage == GAP_SATISFIED
    result = a_sat(inst.formula, lambda _oracle: path, inst.params, seed=3)
    assert result.answer == "YES"
    assert mask_from_assignment(result.witness) == s.w
    assert result.queries == {"transition": len(path) + 1, "reward": 0,
                              "feature": 0}


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of the repr of the runs below: any change in the queries made, their
# order or the Philox draws behind them moves it
A_SAT_GOLDEN = "f20a9e830995579f17235c806cde3e6f89c632999958c14c989dee78012af7a9"


def test_a_sat_learners_golden():
    """answer, witness and queries of the greedy reference and random learners
    on the first criterion-6 instances and on the v=768 criterion-5 formula."""
    eps, b = 1 / 16, 8
    runs = []
    for i in range(3):
        inst, wstar, _ = random_satisfiable_instance(
            5000 + i, v=6 + (i % 3), h=2, p=2, q=4, epsilon=eps, b=b)
        runs.append(a_sat(inst.formula, greedy_reference_learner(wstar),
                          inst.params, seed=i))
    rng = np.random.default_rng(6000)
    gap = []
    while len(gap) < 3:
        fml = random_gap_unsat_formula(rng, v=int(rng.integers(6, 10)))
        if check_gap_promise(fml, eps).kind is PromiseKind.GAP_UNSATISFIABLE:
            gap.append(fml)
    for i, fml in enumerate(gap):
        params = params_for_rounds(v=fml.v, h=2, p=2, q=4, epsilon=eps, b=b)
        runs.append(a_sat(fml, random_learner(episodes=4, seed=i), params, seed=i))
    f, planted = regular_planted_formula(768, seed=7)
    params = params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    for seed in (1, 2):
        runs.append(a_sat(f, greedy_reference_learner(planted), params, seed=seed))
        runs.append(a_sat(f, random_learner(1, seed=seed), params, seed=seed))
    assert [r.answer for r in runs] == ["YES"] * 3 + ["NO"] * 3 + ["YES", "NO"] * 2
    assert _sha256([(r.answer, r.witness, sorted(r.queries.items()))
                    for r in runs]) == A_SAT_GOLDEN


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make", [
    lambda s: np.random.default_rng(np.random.SeedSequence(s).spawn(1)[0]),
    lambda s: np.random.Generator(np.random.Philox(key=s)),
], ids=["seedsequence-child", "philox"])
def test_random_actions_match_scalar_draws(make, k):
    """Blocks give the actions of one scalar draw each, across block ends,
    and a consumed block leaves the generator where its scalar draws do."""
    for seed in (0, 5):
        blocks, scalar = make(seed), make(seed)
        actions = list(islice(random_actions(blocks, k), 10_000))
        assert actions == [int(scalar.integers(0, k)) for _ in actions]
        blocks, scalar = make(seed), make(seed)
        block = list(islice(random_actions(blocks, k), agents.ACTION_BLOCK))
        assert block == [int(scalar.integers(0, k)) for _ in block]
        assert blocks.random() == scalar.random()


def test_reduction_oracle_requires_simulator(figure_instance):
    with pytest.raises(ParameterError):
        ReductionOracle(figure_instance, seed=0, budget=10)


def test_greedy_on_q_ties_and_missing():
    toy = ToyLinearMdp(depth=2, num_actions=3, dim=2, structure_seed=3,
                       reward_seed=4)
    root = toy.initial_state()
    q = {(root, 0): 1.0, (root, 1): 1.0, (root, 2): 0.5}
    policy = greedy_on_q(q, toy)
    assert policy(root) == 0  # tie broken toward the lowest action
    with pytest.raises(ParameterError, match="no Q estimate"):
        greedy_on_q({}, toy)(root)


def test_greedy_on_q_keys_on_sat_states(figure_instance):
    oracle = SatOracle(figure_instance, seed=0)
    s0 = oracle.initial_state()
    q = {(s0, 0): 0.25, (s0, 1): 0.5, (s0, 2): 0.5}
    # an equal state from another call finds the same entries
    assert greedy_on_q(q, oracle)(oracle.initial_state()) == 1
    q[(s0, 0)] = 0.75
    assert greedy_on_q(q, oracle)(s0) == 0
    with pytest.raises(ParameterError, match="no Q estimate"):
        greedy_on_q({}, oracle)(s0)


def test_greedy_on_q_with_exact_q_is_optimal():
    toy = ToyLinearMdp(depth=3, num_actions=3, dim=2, structure_seed=3,
                       reward_seed=4)
    policy = greedy_on_q(toy.q_star_table(), toy)
    s, actions = toy.initial_state(), []
    while not toy.is_terminal(s):
        a = policy(s)
        actions.append(a)
        s = toy.transition(s, a)
    assert toy.policy_value(actions) == pytest.approx(toy.v_star())


def test_perturbed_q_keeps_policy_near_optimal():
    # estimates within eps/(2H) of truth lose at most eps of value
    eps = 0.2
    toy = ToyLinearMdp(depth=4, num_actions=3, dim=2, structure_seed=9,
                       reward_seed=10)
    rng = np.random.default_rng(0)
    bound = eps / (2 * toy.horizon)
    exact = toy.q_star_table()
    for _ in range(100):
        q = {k: val + rng.uniform(-bound, bound) for k, val in exact.items()}
        policy = greedy_on_q(q, toy)
        s, actions = toy.initial_state(), []
        while not toy.is_terminal(s):
            a = policy(s)
            actions.append(a)
            s = toy.transition(s, a)
        assert toy.policy_value(actions) >= toy.v_star() - eps - 1e-12


def test_select_independent_spans_and_bounds():
    rng = np.random.default_rng(1)
    vectors = [rng.normal(size=3) for _ in range(10)]
    vectors.append(vectors[0] * 2.0)  # dependent
    kept = select_independent(vectors)
    assert len(kept) == 3
    basis = np.stack([vectors[i] for i in kept])
    for vec in vectors:
        alpha, *_ = np.linalg.lstsq(basis.T, vec, rcond=None)
        assert np.linalg.norm(basis.T @ alpha - vec) <= 1e-9
    assert select_independent([np.zeros(3)]) == []


@pytest.mark.parametrize("off_plane, rank", [(3e-11, 2), (3e-10, 3)])
def test_select_independent_pivots_at_its_tolerance(off_plane, rank):
    # PIVOT_TOL = 1e-10: a row 3e-11 off the plane of the others is rounding,
    # not a new direction, and one 3e-10 off it is a direction; PIVOT_TOL / 10
    # would keep the first and PIVOT_TOL * 10 drop the second
    rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, off_plane]]
    assert len(select_independent(rows)) == rank


def test_cover_lattice_covers_unit_sphere():
    eps, H, d = 0.1, 3, 2
    r = cover_radius(eps, H, d)
    spacing = cover_spacing(eps, H, d)
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        theta = rng.normal(size=d)
        theta /= np.linalg.norm(theta)
        nearest = spacing * np.round(theta / spacing)
        assert np.linalg.norm(nearest - theta) <= r
        assert np.linalg.norm(nearest) <= 1.0 + spacing * math.sqrt(d) / 2


def test_epsilon_net_zero_reward_mdp():
    toy = ToyLinearMdp(depth=2, num_actions=2, dim=2, structure_seed=12,
                       reward_seed=13)
    toy._value = np.zeros_like(toy._value)  # silence every payout
    actions, info = epsilon_net_search(toy, eps=0.2, delta=0.2)
    assert toy.policy_value(actions) == 0.0
    assert info["best_estimate"] == 0.0


# the trajectory counts of the three criterion-8 searches at eps = delta = 0.1
# and reward seed 1; the features depend only on structure_seed, so any reward
# seed gives the same counts. The reference epsilon-net re-derives the two
# d = 2 rows; no point-by-point walk reaches the d = 3 spec's 7,394,773 points
EPSILON_NET_GOLDEN = [
    (dict(depth=3, num_actions=3, dim=2, structure_seed=5), 45_765,
     {(0, 0, 0): 1, (0, 0, 1): 12_213, (0, 0, 2): 1_383, (0, 2, 0): 428,
      (0, 2, 2): 6_058, (1, 1, 1): 11_989, (1, 1, 2): 1_098, (1, 2, 1): 2_937,
      (2, 0, 0): 9_658}),
    (dict(depth=4, num_actions=3, dim=2, structure_seed=9), 81_173,
     {(0, 0, 0, 0): 1, (0, 0, 0, 2): 1_276, (0, 0, 2, 1): 11_313,
      (0, 0, 2, 2): 22_974, (0, 1, 1, 2): 695, (1, 0, 0, 0): 430,
      (1, 0, 2, 1): 6_995, (1, 1, 1, 2): 8_659, (2, 0, 0, 2): 3_074,
      (2, 0, 1, 0): 8_604, (2, 0, 1, 2): 15_324, (2, 0, 2, 2): 1_828}),
    (dict(depth=2, num_actions=3, dim=3, structure_seed=7), 7_394_773,
     {(0, 0): 132_992, (0, 1): 1_639_123, (0, 2): 959_574, (1, 1): 515_921,
      (1, 2): 935_539, (2, 0): 1_201_123, (2, 1): 1_832_688, (2, 2): 177_813}),
]


@pytest.mark.parametrize("spec,cover_points,counts", EPSILON_NET_GOLDEN)
def test_epsilon_net_counts_golden(spec, cover_points, counts):
    toy = ToyLinearMdp(reward_seed=1, **spec)
    _actions, info = epsilon_net_search(toy, eps=0.1, delta=0.1)
    assert info["cover_points"] == cover_points
    assert info["trajectory_counts"] == counts
    assert info["unique_policies"] == len(counts)


# the work of the three criterion-8 searches (reward seed 1): root lines,
# oracle transitions (distinct tree edges walked; the rollouts read those edges
# and take none), features_sa calls (k per state scored) and reward samples
# (rollouts per policy times the summed trajectory lengths)
EPSILON_NET_WORK = [
    (EPSILON_NET_GOLDEN[0][0],
     dict(lines=241, transitions=17, feature_calls=27, reward_samples=18_549)),
    (EPSILON_NET_GOLDEN[1][0],
     dict(lines=321, transitions=29, feature_calls=54, reward_samples=34_368)),
    (EPSILON_NET_GOLDEN[2][0],
     dict(lines=45_877, transitions=11, feature_calls=12,
          reward_samples=15_056)),
]


@pytest.mark.parametrize("spec,work", EPSILON_NET_WORK)
def test_epsilon_net_counts_its_work(spec, work):
    toy = ToyLinearMdp(reward_seed=1, **spec)
    _actions, info = epsilon_net_search(toy, eps=0.1, delta=0.1)
    assert {key: info[key] for key in work} == work
    paths = info["trajectory_counts"]
    assert info["reward_samples"] == (info["rollouts_per_policy"]
                                      * sum(map(len, paths)))
    assert info["feature_calls"] % toy.num_actions == 0


@pytest.mark.parametrize("spec", [spec for spec, _work in EPSILON_NET_WORK])
def test_epsilon_net_takes_each_transition_once(spec):
    """The rollouts sample rewards along the edges the search walked, so the
    oracle is asked each (state, action) transition once, and `info` counts
    the transitions, feature calls and reward samples it was asked."""
    toy = _CountingToy(reward_seed=1, **spec)
    _actions, info = epsilon_net_search(toy, eps=0.1, delta=0.1)
    asked = toy.transition_pairs
    assert len(set(asked)) == len(asked) == info["transitions"]
    assert len(toy.feature_pairs) == info["feature_calls"]
    assert toy.reward_samples == info["reward_samples"]


def cover_bound(eps, horizon, dim):
    """The integer ball bound B of the epsilon-net cover, floor((R / s)^2):
    the cover radius eps / (2 H sqrt(d)), the spacing s = radius / sqrt(d)
    and the ball radius R = 1 + s sqrt(d) / 2."""
    spacing = eps / (2 * horizon * math.sqrt(dim)) / math.sqrt(dim)
    radius = 1.0 + spacing * math.sqrt(dim) / 2
    return math.floor((radius / spacing) ** 2)


def brute_ball(dim, bound):
    """Integer points z with sum(z ** 2) <= bound from the full integer cube,
    with no lines, slabs or sorting: the reference for the line generator."""
    top = math.isqrt(bound)
    ints = np.indices((2 * top + 1,) * dim).reshape(dim, -1).T - top
    return ints[(ints * ints).sum(axis=1) <= bound]


BALLS = [(1, 0.1, 3), (2, 0.2, 3), (3, 0.5, 2)]


@pytest.mark.parametrize("dim, eps, horizon", BALLS)
def test_lattice_lines_match_full_cube(dim, eps, horizon):
    # every line's reach is isqrt(bound - |rest|^2), no line repeats, and the
    # lines' points are exactly the ball; these balls hold 121 to 64,373
    # points on at most 1,941 lines, so each is one chunk
    bound = cover_bound(eps, horizon, dim)
    chunks = list(_lattice_lines(dim, bound))
    assert len(chunks) == 1
    rest, reach = chunks[0]
    assert rest.shape == (dim - 1, len(reach))
    lines = rest.T.astype(np.int64).tolist()
    assert len(set(map(tuple, lines))) == len(lines)
    points = []
    for line, m in zip(lines, reach.tolist()):
        assert m == math.isqrt(bound - sum(z * z for z in line))
        points += [(*line, t) for t in range(-m, m + 1)]
    assert sorted(points) == sorted(map(tuple, brute_ball(dim, bound).tolist()))


# the balls of the three criterion-8 covers; only the d = 3 one, 45,877 lines
# in 241 slabs of 1 to 241 lines, takes more than one chunk
COVER_BALLS = [(2, 0.1, 3, 241, 45_765), (2, 0.1, 4, 321, 81_173),
               (3, 0.1, 2, 45_877, 7_394_773)]


@pytest.mark.parametrize("dim, eps, horizon, lines, points", COVER_BALLS)
def test_lattice_lines_come_in_chunks_of_whole_slabs(dim, eps, horizon, lines,
                                                     points):
    chunks = list(_lattice_lines(dim, cover_bound(eps, horizon, dim)))
    firsts = np.concatenate([rest[0] for rest, _ in chunks])
    assert len(firsts) == lines
    assert sum(int((2 * reach + 1).sum()) for _, reach in chunks) == points
    # z_0 ascends through the chunks, every z_0 lies in exactly one chunk,
    # and no chunk holds more than LINE_CHUNK lines
    assert (np.diff(firsts) >= 0).all()
    per_chunk = [set(rest[0].tolist()) for rest, _ in chunks]
    assert sum(map(len, per_chunk)) == len(set().union(*per_chunk))
    assert all(len(reach) <= agents.LINE_CHUNK for _, reach in chunks)
    assert (len(chunks) > 1) == (lines > agents.LINE_CHUNK)


def reference_epsilon_net(toy, eps, delta):
    """`epsilon_net_search` from its definition, one point of `brute_ball`'s
    ball at a time. At each state a point takes the lowest action with the
    largest score <round(2^K features_sa(s, a)), z> in Python ints (rounded
    half to even, as np.rint), K the most bits with d 2^(K + 1) (top + 1) <
    2^52. The distinct trajectories, sorted, are rolled out with n_roll =
    max(64, ceil(log(2 points / delta) / (2 eps^2))) samples a step, in step
    order, and the first strictly best mean wins. `lines` counts the points'
    distinct first d - 1 coordinates, `transitions` the distinct edges they
    take and `feature_calls` k per state scored."""
    k, dim = toy.num_actions, toy.dim
    bound = cover_bound(eps, toy.horizon, dim)
    bits = 0
    while dim * 2 ** (bits + 2) * (math.isqrt(bound) + 1) < 2 ** 52:
        bits += 1
    points = brute_ball(dim, bound).tolist()
    tables, edges, counts = {}, set(), {}
    for z in points:
        s, path = toy.initial_state(), ()
        while not toy.is_terminal(s) and len(path) < toy.horizon:
            if s not in tables:
                tables[s] = [[round(Fraction(x) * 2 ** bits)
                              for x in toy.features_sa(s, a).tolist()] for a in range(k)]
            scores = [sum(map(mul, row, z)) for row in tables[s]]
            a = scores.index(max(scores))  # the first maximum: the lowest action
            edges.add((s, a))
            s, path = toy.transition(s, a), path + (a,)
        counts[path] = counts.get(path, 0) + 1
    n_roll = max(64, math.ceil(math.log(2 * len(points) / delta) / (2 * eps * eps)))
    best, best_estimate = None, -math.inf
    for path in sorted(counts):
        s, estimate = toy.initial_state(), 0.0
        for a in path:
            estimate += toy.sample_reward_batch(s, a, n_roll) / n_roll
            s = toy.transition(s, a)
        if estimate > best_estimate:
            best, best_estimate = list(path), estimate
    return best, {
        "cover_points": len(points), "lines": len({tuple(z[:-1]) for z in points}),
        "unique_policies": len(counts), "rollouts_per_policy": n_roll,
        "best_estimate": best_estimate, "trajectory_counts": counts,
        "transitions": len(edges), "feature_calls": k * len(tables),
        "reward_samples": n_roll * sum(map(len, counts))}


# the two d = 2 criterion-8 specs, 45,765 and 81,173 points at eps = 0.1. In
# the H = 4 spec, actions 1 and 2 at state 24 (path (1, 0, 2)) are twin
# siblings, both Q* = 0.25, whose doubles differ by rounding residue alone
# ((-2^-53, 2^-54)): rounded to 2^-42 they are equal rows, so action 1 takes
# all 6,995 points that reach that state
NET_SPECS = {"H3": EPSILON_NET_GOLDEN[0][0], "H4": EPSILON_NET_GOLDEN[1][0]}


@pytest.mark.parametrize("spec", NET_SPECS.values(), ids=NET_SPECS.keys())
def test_epsilon_net_matches_its_reference_at_the_criterion_specs(spec):
    """The actions and the whole `info` equal the reference's."""
    assert epsilon_net_search(ToyLinearMdp(reward_seed=1, **spec), eps=0.1,
                              delta=0.1) == reference_epsilon_net(
        ToyLinearMdp(reward_seed=1, **spec), eps=0.1, delta=0.1)


@settings(max_examples=100, deadline=None)
@given(depth=st.integers(1, 4), k=st.integers(2, 4), dim=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), top=st.integers(1, 40))
@example(depth=4, k=3, dim=2, seed=9, top=24)  # the twin tie of NET_SPECS["H4"]
def test_epsilon_net_matches_its_reference_on_small_toys(depth, k, dim, seed, top):
    """eps = 2 H d / top makes the ball's top |z_j| `top`, capped at about
    2,100 points. Toys plant siblings whose features are equal in exact
    arithmetic and apart by rounding residue alone, which tie once rounded."""
    assume(top <= {1: 40, 2: 24, 3: 8}[dim])
    eps = 2 * depth * dim / top
    spec = dict(depth=depth, num_actions=k, dim=dim, structure_seed=seed)
    assert epsilon_net_search(ToyLinearMdp(reward_seed=1, **spec), eps=eps,
                              delta=0.1) == \
        reference_epsilon_net(ToyLinearMdp(reward_seed=1, **spec), eps, 0.1)


@pytest.fixture
def net_memo(monkeypatch):
    """Give this test an empty epsilon-net memo of its own, and return a
    Counter of the searches' calls to `_lattice_lines` and `_pair_cuts`,
    which a replayed partition skips."""
    monkeypatch.setattr(agents, "_recordings", OrderedDict())
    calls = Counter()
    for name in ("_lattice_lines", "_pair_cuts"):
        def spy(*args, name=name, real=getattr(agents, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(agents, name, spy)
    return calls


CRITERION_NET_SPECS = {"H3": EPSILON_NET_GOLDEN[0][0],
                       "H4": EPSILON_NET_GOLDEN[1][0],
                       "d3": EPSILON_NET_GOLDEN[2][0]}


@pytest.mark.parametrize("spec", CRITERION_NET_SPECS.values(),
                         ids=CRITERION_NET_SPECS.keys())
def test_epsilon_net_replays_the_partition_of_a_spec_it_has_searched(
        spec, net_memo, monkeypatch):
    """A second reward seed of a criterion-8 spec reads the same features,
    so its search counts no line: it equals the reference (d = 2), and at
    every spec the search of an empty memo, which counts them all."""
    epsilon_net_search(ToyLinearMdp(reward_seed=8000, **spec), eps=0.1, delta=0.1)
    assert net_memo["_pair_cuts"] > 0
    net_memo.clear()
    hit = epsilon_net_search(ToyLinearMdp(reward_seed=8001, **spec), eps=0.1,
                             delta=0.1)
    assert net_memo == {}
    if spec["dim"] == 2:
        assert hit == reference_epsilon_net(ToyLinearMdp(reward_seed=8001, **spec),
                                            eps=0.1, delta=0.1)
    monkeypatch.setattr(agents, "_recordings", OrderedDict())
    assert hit == epsilon_net_search(ToyLinearMdp(reward_seed=8001, **spec),
                                     eps=0.1, delta=0.1)
    assert net_memo["_pair_cuts"] > 0


@pytest.mark.parametrize("spec", CRITERION_NET_SPECS.values(),
                         ids=CRITERION_NET_SPECS.keys())
def test_epsilon_net_asks_the_same_queries_on_a_hit_as_on_a_miss(spec, net_memo):
    """The replay reads each recorded edge and feature table in the order the
    search first read them, so the oracle sees the same transition and
    feature queries, in the same order, and the same reward samples."""
    miss = _CountingToy(reward_seed=1, **spec)
    epsilon_net_search(miss, eps=0.1, delta=0.1)
    net_memo.clear()
    hit = _CountingToy(reward_seed=2, **spec)
    _actions, info = epsilon_net_search(hit, eps=0.1, delta=0.1)
    assert net_memo == {}
    assert hit.transition_pairs == miss.transition_pairs
    assert hit.feature_pairs == miss.feature_pairs
    assert hit.reward_samples == miss.reward_samples == info["reward_samples"]
    assert len(hit.transition_pairs) == info["transitions"]
    assert len(hit.feature_pairs) == info["feature_calls"]


def check_recount(toy, twin, net_memo):
    """Search `toy` after a recording of its unchanged spec: the search counts
    its lines again, equals the reference on `twin` (a toy built the same
    way) and asks each transition and feature query once."""
    net_memo.clear()
    result = epsilon_net_search(toy, eps=0.1, delta=0.1)
    assert net_memo["_pair_cuts"] > 0
    assert result == reference_epsilon_net(twin, eps=0.1, delta=0.1)
    _actions, info = result
    assert len(set(toy.transition_pairs)) == len(toy.transition_pairs) \
        == info["transitions"]
    assert len(set(toy.feature_pairs)) == len(toy.feature_pairs) \
        == info["feature_calls"]


def test_epsilon_net_recounts_when_a_read_child_moves_one_rounding_unit(net_memo):
    """The H = 3 spec with the root's features as recorded, but one feature of
    node 1 (path (0,), which the search scores) moved by 2^-K."""
    spec = NET_SPECS["H3"]
    epsilon_net_search(ToyLinearMdp(reward_seed=1, **spec), eps=0.1, delta=0.1)
    bits = agents._rounding_bits(2, math.isqrt(cover_bound(0.1, 3, 2)))

    def moved():
        toy = _CountingToy(reward_seed=2, **spec)
        psi = toy._psi_sa.copy()
        psi[3, 0] -= math.copysign(2.0 ** -bits, psi[3, 0])  # the pair (1, 0)
        toy._psi_sa = psi
        return toy

    toy = moved()
    shift = np.rint(toy._psi_sa * 2 ** bits) - np.rint(
        ToyLinearMdp(**spec)._psi_sa * 2 ** bits)
    assert np.abs(shift).sum() == 1 and shift[3, 0] != 0
    check_recount(toy, moved(), net_memo)


def test_epsilon_net_recounts_when_an_edge_settles_elsewhere(net_memo):
    """The H = 3 spec with its features as recorded, but node 1 a leaf: the
    search reads its edge, finds it ends there, and reads no feature of it."""
    spec = NET_SPECS["H3"]
    epsilon_net_search(ToyLinearMdp(reward_seed=1, **spec), eps=0.1, delta=0.1)
    toy = _EarlyLeafToy(reward_seed=2, **spec)
    check_recount(toy, _EarlyLeafToy(reward_seed=2, **spec), net_memo)
    assert all(s != 1 for s, _a in toy.feature_pairs)


# the cover at d = 1, 2, 3 (eps = 0.1) and d = 4 (eps = 0.2), with k = 3,
# H = 2 and structure seed 3: the measured (1/eps)^d work of the search; a
# convolution of the one-dimensional square counts gives the same points and
# lines
@pytest.mark.parametrize("dim, eps, cover_points, lines", [
    (1, 0.1, 81, 1), (2, 0.1, 20_461, 161), (3, 0.1, 7_394_773, 45_877),
    (4, 0.2, 212_357_353, 2_224_701)],
    ids=["1-81-1", "2-20461-161", "3-7394773-45877", "4-212357353-2224701"])
def test_epsilon_net_cover_across_dims(dim, eps, cover_points, lines):
    toy = ToyLinearMdp(depth=2, num_actions=3, dim=dim, structure_seed=3,
                       reward_seed=1)
    _actions, info = epsilon_net_search(toy, eps=eps, delta=0.1)
    assert (info["cover_points"], info["lines"]) == (cover_points, lines)


def int_sides(table, rest, lo, hi):
    """{(pair, line, t): a wins} for every pair a < b, line and t in [lo, hi],
    from the Python-int scores of an integer table."""
    sides = {}
    for p, (a, b) in enumerate(combinations(range(len(table)), 2)):
        diff = [x - y for x, y in zip(table[a], table[b])]
        for i, line in enumerate(rest.T.astype(np.int64).tolist()):
            c = sum(dj * z for dj, z in zip(diff, line))
            for t in range(int(lo[i]), int(hi[i]) + 1):
                sides[p, i, t] = c + diff[-1] * t >= 0
    return sides


def assert_cuts_match_int_scores(table, rest, lo, hi):
    """Check every (pair, line, t) side of `_pair_cuts` on an integer table
    (Python ints, as the search's rounded features) against its Python-int
    scores; return the cuts."""
    features = np.array(table, dtype=np.float64)
    assert features.tolist() == table
    cuts, upper, lower = _pair_cuts(features, rest, lo, hi)
    pairs = list(combinations(range(len(table)), 2))
    assert cuts.shape == (len(pairs), len(lo))
    assert sorted(zip(upper.tolist(), lower.tolist())) == sorted(
        (a, b) if table[a][-1] >= table[b][-1] else (b, a) for a, b in pairs)
    assert ((cuts >= lo) & (cuts <= hi + 1)).all()
    for (p, i, t), a_wins in int_sides(table, rest, lo, hi).items():
        upper_side = t >= cuts[p, i]
        assert a_wins == (upper_side == (upper[p] == pairs[p][0])), (p, i, t)
    return cuts


def ball_group(rng, dim, top, n):
    """n lines of the ball sum(z ** 2) <= top^2 (with replacement), both rim
    lines z_0 = +-top among them, each over its whole reach or a random
    part of it, as one group of `_pair_cuts`."""
    chunks = list(_lattice_lines(dim, top * top))
    rest = np.hstack([rest for rest, _reach in chunks])
    reach = np.concatenate([reach for _rest, reach in chunks])
    pick = np.concatenate([[0, len(reach) - 1],
                           rng.integers(0, len(reach), size=n - 2)])
    rest, reach = rest[:, pick], reach[pick]
    lo = np.where(pick % 2, -reach, rng.integers(-reach, reach + 1))
    hi = np.where(pick % 3, reach, rng.integers(lo, reach + 1))
    return rest, lo, hi


@pytest.mark.parametrize("seed", range(4))
def test_pair_cuts_match_exact_scores(seed):
    # integer tables at the magnitude limit of a ball with |z_j| <= top, d = 1
    # to 4: entries up to 2^K, as the search's rounding gives. Row 1 is row 0
    # one unit apart, row 2 a copy of row 0, row 3 shares row 0's last entry
    # (h = 0), and rows 4 and 5 are opposite corners, so their differences
    # reach 2^(K + 1)
    rng = np.random.default_rng(seed)
    for dim in range(1, 5):
        top = int(rng.integers(8, 25))
        limit = 2 ** agents._rounding_bits(dim, top)
        rows = rng.integers(-limit, limit + 1, size=(6, dim)).tolist()
        j = int(rng.integers(dim))
        rows[1] = list(rows[0])
        rows[1][j] += 1 if rows[0][j] < limit else -1
        rows[2] = list(rows[0])
        rows[3][-1] = rows[0][-1]
        rows[4] = [limit * int(x) for x in rng.choice([-1, 1], size=dim)]
        rows[5] = [-x for x in rows[4]]
        assert_cuts_match_int_scores(rows, *ball_group(rng, dim, top, 24))


def test_pair_cuts_settle_copied_rows_and_the_ball_rim():
    # one group of every line of the ball sum(z ** 2) <= 50, each running to
    # t = +-reach, rows at the magnitude limit of its top |z_j| = 7. Rows 0 and
    # 1 are apart by L (1/8, 0, 7/8), L = 2^K: exact ties on the rim at
    # (7, 0, -1) and (-7, 0, 1)
    (rest, reach), = _lattice_lines(3, 50)
    assert np.abs(rest[0]).max() == 7
    lo, hi = -reach, reach
    limit = 2 ** agents._rounding_bits(3, 7)
    rows = [[limit, 3, limit], [limit - limit // 8, 3, limit // 8]]
    diff = [x - y for x, y in zip(*rows)]
    assert sum(d * z for d, z in zip(diff, [7, 0, -1])) == 0
    cuts = assert_cuts_match_int_scores(rows, rest, lo, hi)
    # a copy of row 1: the pair (1, 2) ties at every point, which row 1 wins
    # from lo on, and the pair (0, 2) repeats the pair (0, 1)
    copied = assert_cuts_match_int_scores([rows[0], rows[1], rows[1]],
                                          rest, lo, hi)
    assert (copied[2] == lo).all()
    assert (copied[1] == cuts[0]).all() and (copied[0] == cuts[0]).all()


def largest_admitted_top(dim):
    """The largest top |z_j| whose cube of (2 top + 1)^(d - 1) lines is
    within LINE_BUDGET, for d >= 2."""
    side = round(agents.LINE_BUDGET ** (1 / (dim - 1)))
    while side ** (dim - 1) > agents.LINE_BUDGET:
        side -= 1
    while (side + 1) ** (dim - 1) <= agents.LINE_BUDGET:
        side += 1
    return (side - 1) // 2


@pytest.mark.parametrize("unit", [1, -1])
def test_pair_cuts_divide_exactly_at_the_largest_ball(unit):
    """The largest ball `LINE_BUDGET` admits at d = 2 (top 4,999,999, K = 27)
    and a line at z_0 = w with |c| about 2^49.7, near the largest |c| at which
    a cut still falls inside its line: rows whose score difference c + h t is
    `unit` at one t, so -c/h lies 1/|h| from that integer, the closest a
    non-integer can be, with h = 1 - 2^28, the largest odd difference of two
    entries."""
    top = 4_999_999
    assert largest_admitted_top(2) == top
    limit = 2 ** agents._rounding_bits(2, top)
    h = 1 - 2 * limit
    w = 3_535_526  # coprime to h, and reach(w) holds t = -c/h
    d0 = unit * pow(w, -1, -h)  # c = d0 w = unit (mod h)
    c = d0 * w
    t_star = (unit - c) // h
    assert c + h * t_star == unit and abs(c) > 2 ** 49.5
    assert math.isqrt(top * top - w * w) >= abs(t_star)
    first = -limit + max(d0, 0)
    rows = [[first, -limit], [first - d0, limit - 1]]
    rest = np.array([[float(w)]])
    lo, hi = np.array([t_star - 3]), np.array([t_star + 3])
    for table in (rows, rows[::-1]):
        cuts = assert_cuts_match_int_scores(table, rest, lo, hi)
        assert abs(int(cuts[0, 0]) - t_star) <= 1


def test_horizon_split_rejects_zero_feature_layers(figure_formula):
    # the SAT construction zeroes features on terminal-entering pairs, so its
    # last decision layer carries no usable basis; fail loudly, not silently
    params = params_for_rounds(v=5, h=1, p=2, q=2, epsilon=0.125)
    inst = build_instance(figure_formula, params, start=(-1, 1, -1, -1, -1))
    # H = 5 is not a perfect square; check the padding refusal first
    with pytest.raises(ParameterError):
        horizon_split_q(SatOracle(inst, seed=0), 0.2, 0.1)
    f4 = formula_from_ints(4, [[1, 2, 3], [2, 3, 4], [-1, 2, 4], [1, -3, 4],
                               [1, 2, -4]])
    params4 = params_for_rounds(v=4, h=1, p=2, q=2, epsilon=0.125)
    inst4 = build_instance(f4, params4)
    with pytest.raises(InvariantViolation, match="no independent"):
        horizon_split_q(SatOracle(inst4, seed=0), 0.2, 0.1)


def test_epsilon_net_refuses_oversized_cover():
    toy = ToyLinearMdp(depth=4, num_actions=3, dim=3, structure_seed=5,
                       reward_seed=21)
    with pytest.raises(ResourceLimitError):
        epsilon_net_search(toy, eps=0.01, delta=0.1)


def test_epsilon_net_budgets_lines_before_building_the_lattice(monkeypatch):
    # d = 4 at eps = 0.01: a cube of 3,203 ** 3 lines, far over LINE_BUDGET
    def no_lattice(dim, bound):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(agents, "_lattice_lines", no_lattice)
    toy = _CountingToy(depth=2, num_actions=3, dim=4, structure_seed=7,
                       reward_seed=1)
    with pytest.raises(ResourceLimitError,
                       match="needs up to 32860246427 lines, over budget"):
        epsilon_net_search(toy, eps=0.01, delta=0.1)
    assert toy.feature_pairs == toy.transition_pairs == []


def test_epsilon_net_line_budget_holds_at_its_bound(monkeypatch):
    # the H = 3, k = 3, d = 2 criterion-8 spec at eps = 0.1: the cube bounds
    # the cover's lines by 241, which the ball fills
    spec = NET_SPECS["H3"]
    monkeypatch.setattr(agents, "LINE_BUDGET", 241)
    _actions, info = epsilon_net_search(ToyLinearMdp(reward_seed=1, **spec),
                                        eps=0.1, delta=0.1)
    assert info["lines"] == 241
    monkeypatch.setattr(agents, "LINE_BUDGET", 240)
    toy = _CountingToy(reward_seed=1, **spec)
    with pytest.raises(ResourceLimitError,
                       match="needs up to 241 lines, over budget 240 lines"):
        epsilon_net_search(toy, eps=0.1, delta=0.1)
    assert toy.feature_pairs == toy.transition_pairs == []
    assert toy.reward_samples == 0


class LatticeReached(Exception):
    pass


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_epsilon_net_rounding_fits_the_largest_admitted_ball(dim, monkeypatch):
    # the smallest eps (largest ball) whose cover LINE_BUDGET admits at H = 2,
    # by bisection: its K keeps every score below 2^52 and its rounding bound,
    # |theta|_1 2^-(K + 1) <= sqrt(d) radius 2^-(K + 1), under the cover radius
    small, large = 1e-6, 1.0
    for _ in range(100):
        mid = math.sqrt(small * large)
        top = math.isqrt(cover_bound(mid, 2, dim))
        if (2 * top + 1) ** (dim - 1) <= agents.LINE_BUDGET:
            large = mid
        else:
            small = mid
    eps, top = large, math.isqrt(cover_bound(large, 2, dim))
    assert top == largest_admitted_top(dim)
    bits = agents._rounding_bits(dim, top)
    assert dim * 2 ** (bits + 1) * (top + 1) < 2 ** 52
    radius = 1.0 + cover_spacing(eps, 2, dim) * math.sqrt(dim) / 2
    assert math.sqrt(dim) * radius * 2.0 ** -(bits + 1) < cover_radius(eps, 2, dim)

    # the search passes both of its refusals and goes on to the lattice
    def reached(_dim, _bound):
        raise LatticeReached

    monkeypatch.setattr(agents, "_lattice_lines", reached)
    toy = ToyLinearMdp(depth=2, num_actions=3, dim=dim, structure_seed=7,
                       reward_seed=1)
    with pytest.raises(LatticeReached):
        epsilon_net_search(toy, eps=eps, delta=0.1)


def test_epsilon_net_refuses_rounding_past_the_cover_radius():
    # d = 1 takes one line at any eps, so no line budget stops a tiny eps:
    # at eps = 1e-8, H = 2 the ball's top is 4e8, K = 22 and rounding could
    # move a score by 2^-23, over the cover radius 2.5e-9
    toy = _CountingToy(depth=2, num_actions=3, dim=1, structure_seed=3,
                       reward_seed=1)
    with pytest.raises(ResourceLimitError,
                       match="rounded to 22 bits move a score by up to 1.19e-07"):
        epsilon_net_search(toy, eps=1e-8, delta=0.1)
    assert toy.feature_pairs == toy.transition_pairs == []
    assert toy.reward_samples == 0


@pytest.mark.parametrize("entry, refused", [
    (1.0, False), (-1.0, False), (math.nextafter(1.0, 2.0), True), (-1.5, True),
    (math.nan, True)])
def test_epsilon_net_refuses_features_outside_the_unit_box(entry, refused):
    # one entry of the root pair (0, 1), which the search reads first: a
    # refused entry stops it after the root's feature reads, before any
    # transition or reward sample
    toy = _CountingToy(depth=2, num_actions=3, dim=2, structure_seed=3,
                       reward_seed=1)
    psi = toy._psi_sa.copy()
    psi[1, 0] = entry
    toy._psi_sa = psi
    if not refused:
        _actions, info = epsilon_net_search(toy, eps=0.4, delta=0.1)
        assert sum(info["trajectory_counts"].values()) == info["cover_points"]
        return
    with pytest.raises(ParameterError, match=r"outside \[-1, 1\]"):
        epsilon_net_search(toy, eps=0.4, delta=0.1)
    assert toy.feature_pairs == [(0, a) for a in range(3)]
    assert toy.transition_pairs == [] and toy.reward_samples == 0


def test_horizon_split_rejects_non_square_horizon():
    toy = ToyLinearMdp(depth=3, num_actions=2, dim=2, structure_seed=1,
                       reward_seed=1)
    with pytest.raises(ParameterError):
        horizon_split_q(toy, eps=0.2, delta=0.1)


class _CountingToy(ToyLinearMdp):
    """Records the transitions, feature reads and reward samples asked of it.
    With `exact_rewards`, a reward batch sums to exactly count * mean."""
    reward_samples = 0
    exact_rewards = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transition_pairs = []
        self.feature_pairs = []

    def transition(self, s, a):
        self.transition_pairs.append((s, a))
        return super().transition(s, a)

    def features_sa(self, s, a):
        self.feature_pairs.append((s, a))
        return super().features_sa(s, a)

    def sample_reward_batch(self, s, a, count):
        self.reward_samples += count
        if self.exact_rewards:
            return self.exact_mean(s, a) * count
        return super().sample_reward_batch(s, a, count)


class _EarlyLeafToy(_CountingToy):
    """A toy whose node 1 (path (0,)) is terminal, every feature unchanged."""

    def is_terminal(self, s):
        return s == 1 or super().is_terminal(s)


def split_work(k, dim, eps, delta, sample_cap, horizon, start, basis_sizes):
    """One `horizon_split_q` call's work `info` from depth `start`, in closed
    form at its basis sizes b_t, and its candidate rows per level. Levels are
    the multiples of sqrt(H) from `start` on, with `start` and H - 1, so no
    walk reaches a leaf. Each basis pair of level t walks k^(D_t - 1) tails
    of D_t steps, 64 samples a step, and reads k features at each end. The
    terminal level takes min(cap, ceil(log(2 (sum b_t + k) / delta) /
    (2 acc^2))) samples a basis pair, acc = eps / (2 H) (2 d)^-segments."""
    step = math.isqrt(horizon)
    levels = sorted({t for t in range(0, horizon, step) if t >= start}
                    | {start, horizon - 1})
    spans = [b - a for a, b in zip(levels, levels[1:])]
    walks = [size * k ** (span - 1) for size, span in zip(basis_sizes, spans)]
    transitions = sum(w * span for w, span in zip(walks, spans))
    accuracy = (eps / (2 * horizon)) * (2 * dim) ** (-len(spans))
    theoretical = math.ceil(math.log(2 * (sum(basis_sizes) + k) / delta)
                            / (2 * accuracy ** 2))
    terminal = min(theoretical, sample_cap)
    work = {"levels": levels, "transitions": transitions,
            "feature_calls": k + k * sum(walks),
            "reward_samples": terminal * basis_sizes[-1] + 64 * transitions,
            "terminal_samples": terminal, "theoretical_terminal_samples": theoretical}
    return work, [k] + [k * w for w in walks]


def check_split_against_its_definition(spec):
    """`horizon_split_policy` at criterion 9's accuracy, on a toy with exact
    reward batches, against its definition: each call's `info` is
    `split_work`'s, each basis size the rank of its level's candidate rows
    (read once each, at the level's depth), and the oracle saw that work
    plus a transition per action. Every estimate is within 1e-10 of Q*(s, a)
    = r(s, a) + V*(s'), the policy is worth V* exactly, and the argmax of the
    estimates (lowest action on ties) replays its actions."""
    toy = _CountingToy(reward_seed=1, **spec)
    toy.exact_rewards = True
    eps, delta, sample_cap = 0.2, 0.1, 20_000
    actions, q_all, infos = horizon_split_policy(toy, eps, delta, sample_cap)
    k, reads = toy.num_actions, toy.feature_pairs
    seen = (len(toy.transition_pairs) - len(actions), len(reads), toy.reward_samples)
    assert seen == tuple(sum(info[key] for info in infos) for key in
                         ("transitions", "feature_calls", "reward_samples"))
    exact = ToyLinearMdp(reward_seed=1, **spec)
    s, visited = exact.initial_state(), []
    for start, (a, info) in enumerate(zip(actions, infos)):
        visited.append(s)
        work, candidates = split_work(k, toy.dim, eps, delta, sample_cap,
                                      toy.horizon, start, info["basis_sizes"])
        assert {key: info[key] for key in work} == work
        call, reads = reads[:info["feature_calls"]], reads[info["feature_calls"]:]
        assert len(set(call)) == len(call) and call[:k] == [(s, b) for b in range(k)]
        for level, size, count in zip(work["levels"], info["basis_sizes"], candidates):
            rows, call = call[:count], call[count:]
            first = (k ** level - 1) // (k - 1)  # the level's first heap index
            assert all(first <= state < first + k ** level for state, _ in rows)
            assert size == np.linalg.matrix_rank(
                [exact.features_sa(state, b) for state, b in rows])
        s = exact.transition(s, a)
    assert set(q_all) == {(state, a) for state in visited for a in range(k)}
    for (state, a), q in q_all.items():
        child = exact.transition(state, a)
        assert abs(q - (exact.exact_mean(state, a) + exact.v_star(child))) <= 1e-10
    assert exact.policy_value(actions) == exact.v_star()
    replay = [max(range(k), key=lambda b: q_all[(state, b)]) for state in visited]
    assert replay == actions


@pytest.mark.parametrize("horizon", [1, 4, 9])
def test_horizon_split_matches_its_definition(horizon):
    """24 toys a horizon: k = 2 to 4, d = 1 to 4 and two structure seeds. k
    runs downward, so the planted cache is left holding the smallest trees."""
    for k, dim, seed in product((4, 3, 2), range(1, 5), (3, 21)):
        check_split_against_its_definition(
            dict(depth=horizon, num_actions=k, dim=dim, structure_seed=seed))

def test_horizon_split_exact_on_deterministic_rewards():
    toy = ToyLinearMdp(depth=4, num_actions=3, dim=2, structure_seed=5,
                       reward_seed=11)
    # every batch sums to exactly count * mean: no sampling noise
    toy.sample_reward_batch = lambda s, a, count: toy.exact_mean(s, a) * count
    qest, info = horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=200)
    q_star = toy.q_star_table()
    root = toy.initial_state()
    for a in range(3):
        assert qest[(root, a)] == pytest.approx(q_star[(root, a)], abs=1e-10)
    assert all(size <= toy.dim for size in info["basis_sizes"])
    assert info["max_residual"] <= 1e-8


@pytest.mark.parametrize("horizon, transitions, feature_calls, reward_samples", [
    (4, 10, 14, 40_640), (9, 56, 42, 43_584), (16, 216, 114, 53_824)],
    ids=["4-10", "9-56", "16-216"])
def test_horizon_split_walks_from_each_basis_state(horizon, transitions,
                                                   feature_calls, reward_samples):
    """One root estimate on sampled rewards (k = 2, d = 2, every basis of size
    2): each basis walk starts at the state its entry's action is taken at
    and is walked once, each (state, action) pair's features are read once,
    and `info` counts what the oracle saw. The pins are `split_work`'s closed
    forms at these basis sizes."""
    toy = _CountingToy(depth=horizon, num_actions=2, dim=2, structure_seed=3,
                       reward_seed=1)
    _qest, info = horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=20_000)
    assert len(set(toy.feature_pairs)) == len(toy.feature_pairs)
    seen = (len(toy.transition_pairs), len(toy.feature_pairs), toy.reward_samples)
    counted = (info["transitions"], info["feature_calls"], info["reward_samples"])
    assert seen == counted == (transitions, feature_calls, reward_samples)


BAD_ACCURACY = [
    (search, kwargs)
    for search in (epsilon_net_search, horizon_split_q, horizon_split_policy)
    for kwargs in ({"eps": 0}, {"eps": -0.1}, {"eps": math.inf},
                   {"eps": math.nan}, {"delta": 0}, {"delta": -0.1},
                   {"delta": 1})
] + [(search, {"sample_cap": cap})
     for search in (horizon_split_q, horizon_split_policy) for cap in (0, -1)]


@pytest.mark.parametrize("search, kwargs", BAD_ACCURACY, ids=[
    f"{search.__name__}-{key}={value}"
    for search, kwargs in BAD_ACCURACY for key, value in kwargs.items()])
def test_baselines_refuse_bad_accuracy_before_any_query(search, kwargs):
    toy = _CountingToy(depth=4, num_actions=2, dim=2, structure_seed=3,
                       reward_seed=1)
    with pytest.raises(ParameterError, match="eps|delta|sample_cap"):
        search(toy, **{"eps": 0.2, "delta": 0.1, **kwargs})
    assert toy.transition_pairs == toy.feature_pairs == []
    assert toy.reward_samples == 0


def test_horizon_split_checks_every_expansion_residual(monkeypatch):
    toy = ToyLinearMdp(depth=9, num_actions=3, dim=4, structure_seed=21,
                       reward_seed=1)
    solves, lstsq = [], np.linalg.lstsq

    def recorded(mat, rhs, rcond=None):
        alpha, *rest = lstsq(mat, rhs, rcond=rcond)
        solves.append((mat, rhs, alpha))
        return (alpha, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    _qest, info = horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=200)
    # at most one solve per level, with every vector it expands as a column
    assert len(solves) <= len(info["levels"])
    largest = max(float(np.linalg.norm(mat @ alpha - rhs, axis=0).max())
                  for mat, rhs, alpha in solves)
    assert info["max_residual"] == largest > 0
    # under any real residual: every expansion fails the check
    monkeypatch.setattr(agents, "RESIDUAL_TOL", -1.0)
    with pytest.raises(InvariantViolation, match="feature expansion residual"):
        horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=200)
    # one ulp under the reported largest residual: exactly that column fails,
    # so info reports the largest residual that is checked
    monkeypatch.setattr(agents, "RESIDUAL_TOL", float(np.nextafter(largest, 0)))
    with pytest.raises(InvariantViolation, match=f"residual {largest:.3e} exceeds"):
        horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=200)
    monkeypatch.setattr(agents, "RESIDUAL_TOL", largest)
    assert horizon_split_q(toy, eps=0.2, delta=0.1,
                           sample_cap=200)[1]["max_residual"] == largest


# sha256 of the repr of the runs below, at reward seed 9000 with sampled
# rewards: pins every sample, expansion, argmax and work counter, which
# `test_horizon_split_matches_its_definition` checks only on exact rewards
HORIZON_SPLIT_GOLDEN = "9019b02fcca1afbc37fdfad5156cc7441e648948bf645a83577c8e0ddfb129d3"


def test_horizon_split_policy_golden():
    """Actions, sorted Q table and infos on the two criterion-9 specs."""
    runs = []
    for spec in (dict(depth=4, num_actions=3, dim=2, structure_seed=5),
                 dict(depth=9, num_actions=3, dim=4, structure_seed=21)):
        toy = ToyLinearMdp(reward_seed=9000, **spec)
        actions, q_all, infos = horizon_split_policy(toy, eps=0.2, delta=0.1,
                                                     sample_cap=20_000)
        runs.append((actions, sorted(q_all.items()),
                     [sorted(info.items()) for info in infos]))
    assert _sha256(runs) == HORIZON_SPLIT_GOLDEN


def test_sat_oracle_exposes_query_counters(figure_instance):
    oracle = SatOracle(figure_instance, seed=0)
    for _ in rollout(oracle, greedy_policy(figure_instance)):
        pass
    counts = oracle.counters
    assert counts["transition"] >= 1 and counts["reward"] >= 1
    assert sum(counts.values()) == counts["transition"] + counts["reward"] \
        + counts["feature"]
