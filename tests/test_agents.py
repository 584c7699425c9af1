import hashlib
import math
from itertools import islice

import numpy as np
import pytest

from satmdp import agents, polyfeat, reward
from satmdp.agents import (
    ReductionOracle,
    SatOracle,
    _first_argmax,
    _lattice_ball_slabs,
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
    STAGE_ONE,
    build_instance,
    enumerate_reachable,
    features_state,
    initial_state,
    reward_mean,
    transition,
)
from satmdp.reward import log_degree, params_for_rounds
from satmdp.toys import ToyLinearMdp


def distinct_actions(s):
    """Representative actions with distinct successors (stage two aliases 0 and 2)."""
    if s.stage == STAGE_ONE:
        return (0, 1, 2)
    return (0, 1)


def exact_value_dp(inst, s, node_budget: int = 2_000_000) -> float:
    """Optimal value by exhaustive max-over-actions recursion (explicit
    stack): the independent oracle for `tree_optimal_values`.

    The terminal Bernoulli mean is credited on the transition entering the
    terminal state; terminal states themselves are worth 0.
    """
    if s.is_terminal:
        return 0.0
    visited = 0
    # frames: [state, actions, next action index, best value so far]; rewards
    # are only paid on terminal-entering transitions, so interior edges add 0.
    stack = [[s, distinct_actions(s), 0, 0.0]]
    result = 0.0
    while stack:
        frame = stack[-1]
        if frame[2] == len(frame[1]):
            stack.pop()
            if stack:
                stack[-1][3] = max(stack[-1][3], frame[3])
            else:
                result = frame[3]
            continue
        a = frame[1][frame[2]]
        frame[2] += 1
        nxt = transition(inst, frame[0], a)
        visited += 1
        if visited > node_budget:
            raise ResourceLimitError(
                f"DP subtree exceeded node budget {node_budget}")
        if nxt.is_terminal:
            frame[3] = max(frame[3], reward_mean(inst, nxt))
        else:
            stack.append([nxt, distinct_actions(nxt), 0, 0.0])
    return result


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


def test_exact_value_dp_matches_bottom_up_and_greedy():
    inst, _, _ = random_satisfiable_instance(43, v=5, h=2, epsilon=0.125)
    states, children = enumerate_reachable(inst, budget=20_000)
    bottom_up = tree_optimal_values(inst, states, children)
    for s, expect in list(zip(states, bottom_up))[:80]:
        assert exact_value_dp(inst, s) == pytest.approx(expect, abs=1e-12)
    for s, expect in zip(states, bottom_up):
        assert greedy_rollout_value(inst, s) == pytest.approx(expect, abs=1e-9)


# sha256 over, tree by tree of the criterion-1 pool: repr of
# tree_optimal_values on the instance and on its simulator twin, then repr of
# greedy_rollout_value at every state on each
POOL_VALUES_SHA256 = "becd18ff20ad7c5d2b39ee44a69121bafca16955e9c924aaae52a7941daded93"


def test_pool_values_golden(pool_trees):
    pool, _sweep = pool_trees
    h = hashlib.sha256()
    for inst, states, children in pool:
        twin = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR)
        for game in (inst, twin):
            h.update(repr(tree_optimal_values(game, states, children)).encode())
            h.update(repr([greedy_rollout_value(game, s) for s in states]).encode())
    assert h.hexdigest() == POOL_VALUES_SHA256


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


def test_greedy_optimal_on_whole_trees_v4_to_7_p4_q2():
    """Greedy optimality in the second parameterization, q=2 and
    p=log_degree(v), which is 4 for v 4-7: |V* - V_greedy| at every state of
    48 whole trees (v 4-7, h 2-3, seeds 1000+k, 75,902 states), so this
    covers whole trees, not a sample. Linearity is not checked: 2p >= v
    here, so the features span every function of x and it holds trivially."""
    combos = [(v, h, eps) for v in (4, 5, 6, 7) for h in (2, 3)
              for eps in (0.25, 0.125)]
    worst, total = 0.0, 0
    for k in range(48):
        v, h, eps = combos[k % len(combos)]
        p = log_degree(v)
        assert p == 4 and 2 * p >= v
        inst, _, _ = random_satisfiable_instance(
            1000 + k, v=v, h=h, p=p, q=2, epsilon=eps, tree_budget=20_000)
        states, children = enumerate_reachable(inst, budget=20_000)
        optimal = tree_optimal_values(inst, states, children)
        for s, opt in zip(states, optimal):
            worst = max(worst, abs(opt - greedy_rollout_value(inst, s)))
        total += len(states)
    assert total == 75_902
    assert worst <= 1e-9


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


def test_exact_value_dp_unsat_and_budget(figure_instance):
    from satmdp.gapsat import strictify
    f = strictify(formula_from_ints(1, [[1], [-1]], strict=False))
    params = params_for_rounds(v=f.v, h=1, p=2, q=2, b=8)
    inst = build_instance(f, params)
    assert inst.wstar is None
    assert exact_value_dp(inst, initial_state(inst)) == 0.0
    with pytest.raises(ResourceLimitError):
        exact_value_dp(figure_instance, initial_state(figure_instance),
                       node_budget=1)


def test_exact_value_dp_initial_state_formula(figure_formula):
    from satmdp.reward import g
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    inst = build_instance(figure_formula, params)
    wstar = inst.wstar_assignment()
    start = (-1,) * 5
    dist = sum(1 for a, b in zip(start, wstar) if a != b)
    assert exact_value_dp(inst, initial_state(inst)) == pytest.approx(
        g(1, dist, inst.params), abs=1e-12)


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
# order or the Philox draws behind them moves it. Recorded when the random
# learner stopped returning its last episode for a_sat to walk again, after
# an old-vs-new dump of the whole criterion-6 pool and both v=768 seeds that
# differed only in the random runs' transitions, each by that episode's
# length + 1
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
    q = {((), 0): 1.0, ((), 1): 1.0, ((), 2): 0.5}
    policy = greedy_on_q(q, toy)
    assert policy(()) == 0  # tie broken toward the lowest action
    with pytest.raises(ParameterError, match="no Q estimate"):
        greedy_on_q({}, toy)(())


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
    s, actions = (), []
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
        s, actions = (), []
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


def test_epsilon_net_finds_planted_policy():
    toy = ToyLinearMdp(depth=3, num_actions=3, dim=2, structure_seed=5,
                       reward_seed=21)
    actions, info = epsilon_net_search(toy, eps=0.1, delta=0.1)
    assert toy.policy_value(actions) >= toy.v_star() - 0.1
    assert info["unique_policies"] <= 27


# cover_points and trajectory_counts of the three criterion-8 specs at
# eps = delta = 0.1; the features depend only on structure_seed, so any reward
# seed gives the same counts
EPSILON_NET_GOLDEN = [
    (dict(depth=3, num_actions=3, dim=2, structure_seed=5), 45_765,
     {(0, 0, 0): 1, (0, 0, 1): 12_213, (0, 0, 2): 1_383, (0, 2, 0): 428,
      (0, 2, 2): 6_058, (1, 1, 1): 11_989, (1, 1, 2): 1_098, (1, 2, 1): 2_937,
      (2, 0, 0): 9_658}),
    (dict(depth=4, num_actions=3, dim=2, structure_seed=9), 81_173,
     {(0, 0, 0, 0): 1, (0, 0, 0, 2): 1_276, (0, 0, 2, 1): 11_313,
      (0, 0, 2, 2): 22_974, (0, 1, 1, 2): 695, (1, 0, 0, 0): 430,
      (1, 0, 2, 1): 217, (1, 0, 2, 2): 6_778, (1, 1, 1, 2): 8_659,
      (2, 0, 0, 2): 3_074, (2, 0, 1, 0): 8_604, (2, 0, 1, 2): 15_324,
      (2, 0, 2, 2): 1_828}),
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


def brute_ball(dim, spacing, radius):
    """Lattice points of norm <= radius from the full integer cube, with no
    slabs or sorting: the reference the slab generator is checked against."""
    reach = math.ceil(radius / spacing) + 1
    ints = np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach
    pts = ints * spacing
    return pts[np.einsum("ij,ij->i", pts, pts) <= radius * radius]


def sorted_rows(pts):
    return pts[np.lexsort(pts.T[::-1])]


def ball_blocks(dim, eps, horizon):
    """The blocks of one ball, checked against the full cube and against the
    block contract; returns each block's first coordinates and their counts."""
    spacing = cover_spacing(eps, horizon, dim)
    radius = 1.0 + spacing * math.sqrt(dim) / 2
    # a block is only valid until the next one is yielded
    blocks = [block.copy() for block in _lattice_ball_slabs(dim, spacing, radius)]
    assert all(block.shape[0] == dim for block in blocks)
    got = np.concatenate(blocks, axis=1)
    assert np.array_equal(sorted_rows(got.T),
                          sorted_rows(brute_ball(dim, spacing, radius)))
    if dim == 1:
        assert len(blocks) == 1
        return []
    firsts = [np.unique(block[0], return_counts=True) for block in blocks]
    # blocks of whole slabs: x0 ascends through the blocks, every x0 lies in
    # exactly one block, and no block exceeds max(BLOCK_ROWS, its largest slab)
    assert (np.diff(got[0]) >= 0).all()
    every = np.concatenate([x0s for x0s, _ in firsts])
    assert len(every) == len(np.unique(every))
    assert all(block.shape[1] <= max(agents.BLOCK_ROWS, widths.max())
               for block, (_, widths) in zip(blocks, firsts))
    return firsts


BALLS = [(1, 0.1, 3), (2, 0.2, 3), (3, 0.5, 2)]


@pytest.mark.parametrize("dim, eps, horizon", BALLS)
def test_lattice_ball_slabs_match_full_cube(dim, eps, horizon):
    # at dim > 1 every slab of these balls is narrower than BLOCK_ROWS, so
    # they are copied into shared blocks
    assert all(len(x0s) > 1 for x0s, _ in ball_blocks(dim, eps, horizon))


@pytest.mark.parametrize("dim, eps, horizon", BALLS)
def test_lattice_ball_slabs_match_full_cube_in_small_blocks(dim, eps, horizon,
                                                            monkeypatch):
    # at 64 rows the slabs of 64 points or more are yielded as views
    monkeypatch.setattr(agents, "BLOCK_ROWS", 64)
    firsts = ball_blocks(dim, eps, horizon)
    assert dim == 1 or any(widths.max() >= 64 for _, widths in firsts)


def assert_grouping_matches_walk(toy, eps):
    # dual route: the grouped candidate-to-trajectory mapping must agree with
    # walking every point of the ball, enumerated from the full cube
    delta = 0.1
    _actions, info = epsilon_net_search(toy, eps=eps, delta=delta)
    spacing = cover_spacing(eps, toy.horizon, toy.dim)
    radius = 1.0 + spacing * math.sqrt(toy.dim) / 2
    brute = {}
    total = 0
    for theta in brute_ball(toy.dim, spacing, radius):
        total += 1
        s, trail = (), []
        while not toy.is_terminal(s):
            scores = [float(np.dot(theta, toy.features_sa(s, a)))
                      for a in range(toy.num_actions)]
            best = max(range(toy.num_actions), key=lambda a: scores[a])
            # max() returns the first maximum, matching np.argmax
            trail.append(best)
            s = toy.transition(s, best)
        key = tuple(trail)
        brute[key] = brute.get(key, 0) + 1
    assert total == info["cover_points"]
    assert brute == info["trajectory_counts"]


def test_epsilon_net_grouping_matches_per_candidate_walk():
    toy = ToyLinearMdp(depth=3, num_actions=3, dim=2, structure_seed=5,
                       reward_seed=77)
    assert_grouping_matches_walk(toy, eps=0.2)


def test_epsilon_net_grouping_matches_per_candidate_walk_at_d3(monkeypatch):
    # the ball holds 16,831 points in 31 slabs of 89 to 793: at 512 rows the
    # two narrowest slabs at each end share a block, the next four are copied
    # alone and the rest are yielded as views
    monkeypatch.setattr(agents, "BLOCK_ROWS", 512)
    toy = ToyLinearMdp(depth=2, num_actions=3, dim=3, structure_seed=7,
                       reward_seed=77)
    assert_grouping_matches_walk(toy, eps=0.8)


@pytest.mark.parametrize("k", [2, 3, 4, 300])
def test_first_argmax_matches_numpy_argmax(k):
    rng = np.random.default_rng(k)
    # few distinct integer values, so most rows hold ties
    scores = rng.integers(-2, 3, size=(5_000, k)).astype(np.float64)
    # then rows whose maximum is planted at a random column, and tied at a
    # later one in about half of them, so the first argmax reaches every column
    planted = rng.integers(-2, 3, size=(5_000, k)).astype(np.float64)
    rows = np.arange(len(planted))
    first = rng.integers(0, k, size=len(planted))
    planted[rows, first] = 3.0
    tied = rows[(first < k - 1) & (rng.random(len(planted)) < 0.5)]
    planted[tied, rng.integers(first[tied] + 1, k)] = 3.0
    scores = np.concatenate([scores, planted])
    signed_zero = (scores == 0) & (rng.random(scores.shape) < 0.5)
    scores[signed_zero] = -0.0
    assert np.signbit(scores[scores == 0]).any()
    assert not np.signbit(scores[scores == 0]).all()
    expected = np.argmax(scores, axis=1)
    assert expected.max() == k - 1
    # scores are laid out (k, n): one row per action
    acts = _first_argmax(np.ascontiguousarray(scores.T))
    assert acts.dtype == np.min_scalar_type(k - 1)
    assert np.array_equal(acts, expected)


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


def test_horizon_split_rejects_non_square_horizon():
    toy = ToyLinearMdp(depth=3, num_actions=2, dim=2, structure_seed=1,
                       reward_seed=1)
    with pytest.raises(ParameterError):
        horizon_split_q(toy, eps=0.2, delta=0.1)


def test_horizon_split_exact_on_deterministic_rewards():
    toy = ToyLinearMdp(depth=4, num_actions=3, dim=2, structure_seed=5,
                       reward_seed=11)
    # every batch sums to exactly count * mean: no sampling noise
    toy.sample_reward_batch = lambda s, a, count: toy.exact_mean(s, a) * count
    qest, info = horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=200)
    q_star = toy.q_star_table()
    for a in range(3):
        assert qest[((), a)] == pytest.approx(q_star[((), a)], abs=1e-10)
    assert all(size <= toy.dim for size in info["basis_sizes"])
    assert info["max_residual"] <= 1e-8


def test_horizon_split_policy_reaches_near_optimal():
    toy = ToyLinearMdp(depth=4, num_actions=3, dim=2, structure_seed=5,
                       reward_seed=31)
    actions, q_all, infos = horizon_split_policy(toy, eps=0.2, delta=0.1,
                                                 sample_cap=20_000)
    assert toy.policy_value(actions) >= toy.v_star() - 0.1
    # greedy over the accumulated table reproduces the same trajectory
    policy = greedy_on_q(q_all, toy)
    s, replay = (), []
    while not toy.is_terminal(s):
        a = policy(s)
        replay.append(a)
        s = toy.transition(s, a)
    assert replay == actions


class _TransitionCountingToy(ToyLinearMdp):
    transitions = 0

    def transition(self, s, a):
        self.transitions += 1
        return super().transition(s, a)


@pytest.mark.parametrize("horizon, transitions", [(4, 20), (9, 112), (16, 432)])
def test_horizon_split_walks_from_each_basis_state(horizon, transitions):
    """Every basis walk starts at the state its entry's action is taken at,
    so one root estimate takes these transitions (34, 194 and 798 when each
    walk replayed its action path from the query state)."""
    toy = _TransitionCountingToy(depth=horizon, num_actions=2, dim=2,
                                 structure_seed=3, reward_seed=1)
    horizon_split_q(toy, eps=0.2, delta=0.1, sample_cap=20_000)
    assert toy.transitions == transitions


# sha256 of the repr of the runs below, recorded before the tail walks of
# horizon_split_q were merged: pins every sample, expansion and argmax
HORIZON_SPLIT_GOLDEN = "c82201087b9c6ae323fc3f8fd20d6ae67958af4cf41f7183538d8bfe6bd10bc6"


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
