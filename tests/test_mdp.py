import hashlib

import numpy as np
import pytest

from satmdp import mdp
from satmdp.agents import SatOracle
from satmdp.cnf import (
    assignment_from_mask,
    brute_force_sat,
    formula_from_ints,
    gap_threshold_count,
    parse_dimacs,
    satisfied_count,
    to_dimacs,
)
from satmdp.errors import (
    FormulaError,
    InvariantViolation,
    ParameterError,
    ResourceLimitError,
)
from satmdp.mdp import (
    GAP_SATISFIED,
    LAST_LEVEL,
    MODE_SIMULATOR,
    STAGE_ONE,
    STAGE_TWO,
    build_instance,
    clause_tables,
    encode_state,
    enumerate_reachable,
    features_state,
    initial_state,
    reward_mean,
    stage_one_floor,
    state_digest,
    transition,
)
from satmdp.instances import random_satisfiable_instance, regular_planted_formula
from satmdp.reward import expected_reward, g, params_for_rounds


@pytest.fixture
def figure_start_instance(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    return build_instance(figure_formula, params,
                          start=(-1, 1, -1, -1, -1))


@pytest.fixture
def two_round_game():
    """v=15 planted game whose random episodes cross the round boundary; the
    figure game always ends gap_satisfied after one step."""
    f, planted = regular_planted_formula(15, seed=3)
    return build_instance(
        f, params_for_rounds(v=15, h=2, p=2, q=2, epsilon=1 / 16, b=6),
        wstar=planted)


def test_build_instance_metadata(figure_instance):
    assert figure_instance.d == 31
    assert figure_instance.params.H == 10
    assert figure_instance.wstar is not None
    assert satisfied_count(figure_instance.formula,
                           figure_instance.wstar_assignment()) == 5


def test_build_instance_validations(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    with pytest.raises(ParameterError):
        build_instance(figure_formula, params_for_rounds(v=6, h=2))
    with pytest.raises(FormulaError):
        build_instance(formula_from_ints(4, [[1, 2, 3], [2, 3, 4]]),
                       params_for_rounds(v=4, h=2))  # m < v
    with pytest.raises(FormulaError):
        lenient = formula_from_ints(3, [[1, 2]] * 3, strict=False)
        build_instance(lenient, params_for_rounds(v=3, h=1))
    with pytest.raises(FormulaError):
        build_instance(figure_formula,
                       params_for_rounds(v=5, h=2, b=3))  # occurrence bound 4
    with pytest.raises(ParameterError):
        # satisfies only 2 of 5 clauses
        build_instance(figure_formula, params, wstar=(-1, 1, -1, -1, -1))
    with pytest.raises(ParameterError, match="simulator takes no wstar"):
        build_instance(figure_formula, params, mode=MODE_SIMULATOR,
                       wstar=brute_force_sat(figure_formula))


def test_unsatisfiable_formula_zero_reward_mode():
    # (x1)(~x1) padded to strict 3-CNF via two fresh variables each, m >= v
    from satmdp.gapsat import strictify
    f = strictify(formula_from_ints(1, [[1], [-1]], strict=False))
    params = params_for_rounds(v=f.v, h=2, p=2, q=4, b=8)  # x sits in all 8 clauses
    inst = build_instance(f, params)
    assert inst.wstar is None
    oracle = SatOracle(inst, seed=3)
    s = oracle.initial_state()
    while not s.is_terminal:
        a = int(np.random.default_rng(s.step).integers(0, 3))
        assert oracle.sample_reward_batch(s, a, 1) == 0
        s = oracle.transition(s, a)


def test_initial_state_figure_start(figure_start_instance):
    s = initial_state(figure_start_instance)
    assert s.stage == STAGE_ONE and s.cursor == 0
    assert s.step == 0 and s.n == 1
    assert assignment_from_mask(s.w, 5) == (-1, 1, -1, -1, -1)


def test_initial_state_default_start_all_false(figure_instance):
    s = initial_state(figure_instance)
    assert assignment_from_mask(s.w, 5) == (-1, -1, -1, -1, -1)


def test_initial_state_terminates_when_start_satisfies(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    wstar = brute_force_sat(figure_formula)
    inst = build_instance(figure_formula, params, start=wstar)
    s = initial_state(inst)
    assert s.is_terminal and s.terminal_kind == GAP_SATISFIED
    with pytest.raises(ParameterError):
        transition(inst, s, 0)


def test_figure_one_walkthrough(figure_start_instance):
    """The exact edge sequence of the round pictured in the construction:
    stage one flips c then e, stage two keeps a, keeps b, flips d."""
    inst = figure_start_instance
    s = initial_state(inst)
    # stage one, clause 0 = (a | ~b | c): sorted variables (a, b, c)
    s = transition(inst, s, 2)  # flip c
    assert assignment_from_mask(s.w, 5) == (-1, 1, 1, -1, -1)
    assert s.stage == STAGE_ONE and s.cursor == 2  # (a | d | e) next
    s = transition(inst, s, 2)  # flip e (sorted vars a, d, e)
    assert assignment_from_mask(s.w, 5) == (-1, 1, 1, -1, 1)
    assert s.stage == STAGE_TWO and s.cursor == 0  # free vars a, b, d
    s = transition(inst, s, 0)  # keep a
    assert s.stage == STAGE_TWO and s.cursor == 1
    s = transition(inst, s, 0)  # keep b
    assert s.stage == STAGE_TWO and s.cursor == 3
    s = transition(inst, s, 1)  # flip d -> round ends
    assert assignment_from_mask(s.w, 5) == (-1, 1, 1, 1, 1)
    assert s.n == 2 and s.round_dists == (3,)
    assert s.step == 5
    assert assignment_from_mask(s.w_round, 5) == (-1, 1, 1, 1, 1)


def test_stage_two_actions_zero_and_two_alias(figure_start_instance):
    inst = figure_start_instance
    s = initial_state(inst)
    s = transition(inst, s, 2)
    s = transition(inst, s, 2)
    assert s.stage == STAGE_TWO
    assert transition(inst, s, 0) == transition(inst, s, 2)
    assert transition(inst, s, 0) != transition(inst, s, 1)


def test_round_accounting_and_termination_kinds(two_round_game):
    # every completed round consumes exactly v steps; finishing round h ends
    # the game at the last level unless the threshold fires first
    inst = two_round_game
    rng = np.random.default_rng(0)
    crossings = last_level = 0
    for _ in range(50):
        s = initial_state(inst)
        while not s.is_terminal:
            prev_n = s.n
            s = transition(inst, s, int(rng.integers(0, 3)))
            if s.n != prev_n:
                assert s.step == prev_n * inst.params.v
                crossings += 1
        assert s.terminal_kind in (LAST_LEVEL, GAP_SATISFIED)
        if s.terminal_kind == LAST_LEVEL:
            assert s.step == inst.params.H
            last_level += 1
        assert len(s.round_dists) == s.n - 1
    assert crossings >= 1 and last_level >= 1


def test_transitions_are_pure_and_replayable(figure_instance, two_round_game):
    for inst in (figure_instance, two_round_game):
        rng = np.random.default_rng(7)
        actions = [int(rng.integers(0, 3)) for _ in range(inst.params.H)]

        def run():
            s = initial_state(inst)
            seq = [(len(s.round_dists), state_digest(inst, s))]
            for a in actions:
                if s.is_terminal:
                    break
                s = transition(inst, s, a)
                seq.append((len(s.round_dists), state_digest(inst, s)))
            return seq

        seq = run()
        assert seq == run()
        # a digest's size depends on the round only, never on the step
        sizes = {}
        for rounds_done, digest in seq:
            assert sizes.setdefault(rounds_done, len(digest)) == len(digest)
    assert len(seq) == two_round_game.params.H + 1 and len(sizes) == 2


# sha256 over encode_state of every state of the figure tree and of 10 seeded
# two-round episodes; `satmdp run` writes these bytes into trajectories.jsonl
ENCODING_SHA256 = "e6299c7ba3699c8200e54bac2196071bbefdf7f36ce24f230d85b4e4fb36e883"


def test_encode_state_golden(figure_instance, two_round_game):
    h = hashlib.sha256()

    def add(inst, s):
        assert (s.terminal_kind is None) == (not s.is_terminal)
        h.update(encode_state(inst, s))

    states, _ = enumerate_reachable(figure_instance)
    for s in states:
        add(figure_instance, s)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = initial_state(two_round_game)
        add(two_round_game, s)
        while not s.is_terminal:
            s = transition(two_round_game, s, int(rng.integers(0, 3)))
            add(two_round_game, s)
    assert h.hexdigest() == ENCODING_SHA256


def test_tree_property_and_digest_uniqueness():
    inst, _, _ = random_satisfiable_instance(23, v=5, h=2, epsilon=0.125)
    states, children = enumerate_reachable(inst, budget=20_000)
    digests = [state_digest(inst, s) for s in states]
    # states are oracle keys: distinct nodes stay distinct without digests
    assert len(set(states)) == len(set(digests)) == len(states)
    # each non-root state has exactly one parent
    parent_of = {}
    for i, edges in enumerate(children):
        for _a, j in edges:
            assert parent_of.setdefault(j, i) == i
    assert set(parent_of) == set(range(1, len(states)))


def test_enumerate_respects_budget(figure_instance):
    with pytest.raises(ResourceLimitError):
        enumerate_reachable(figure_instance, budget=2)


def test_enumerate_budget_is_the_state_count():
    inst, _, _ = random_satisfiable_instance(23, v=5, h=2, epsilon=0.125)
    states, _ = enumerate_reachable(inst, budget=20_000)
    assert any(s.stage == STAGE_TWO for s in states)
    assert enumerate_reachable(inst, budget=len(states))[0] == states
    with pytest.raises(ResourceLimitError):
        enumerate_reachable(inst, budget=len(states) - 1)


def test_enumerate_refuses_a_state_with_two_parents(monkeypatch):
    # every depth-one node's action 0 leads to the first such child made,
    # so the second depth-one node reaches a state that already has a parent
    inst, _, _ = random_satisfiable_instance(23, v=5, h=2, epsilon=0.125)
    real, merged = mdp.transition, []

    def transition_merging_depth_two(inst, s, a):
        nxt = real(inst, s, a)
        if s.step == 1 and a == 0:
            merged.append(nxt)
            return merged[0]
        return nxt

    monkeypatch.setattr(mdp, "transition", transition_merging_depth_two)
    with pytest.raises(InvariantViolation, match="two different parents"):
        enumerate_reachable(inst, budget=20_000)
    assert len(merged) == 2 and merged[0] != merged[1]


# sha256 over every state's encode_state bytes and repr(children), tree by
# tree, of the criterion-1 pool and the tree_sweep instances
POOL_TREES_SHA256 = "7d1b26b8f4c7456e43cf24b4f0fd1f28f61a647ee51094b763572417eb728420"
SWEEP_TREES_SHA256 = "348954ed40706bb357a95ba2970b5346a58ed7c3578f10a2892d7836628e1388"


def test_pool_trees_golden_and_edge_shape(pool_trees):
    pool, sweep = pool_trees
    digests = []
    for trees in (pool, sweep):
        h = hashlib.sha256()
        for inst, states, children in trees:
            for s in states:
                h.update(encode_state(inst, s))
            h.update(repr(children).encode())
            for s, edges in zip(states, children):
                if s.is_terminal:
                    assert edges == []
                    continue
                actions, kids = zip(*edges)
                assert actions == (0, 1, 2)
                if s.stage == STAGE_ONE:
                    assert len(set(kids)) == 3
                else:
                    assert kids[0] == kids[2] != kids[1]
        digests.append(h.hexdigest())
    assert digests == [POOL_TREES_SHA256, SWEEP_TREES_SHA256]


def test_states_at_different_steps_are_distinct():
    inst, _, _ = random_satisfiable_instance(29, v=4, h=2, epsilon=0.125)
    states, _ = enumerate_reachable(inst, budget=20_000)
    by_encoding = {}
    for s in states:
        key = encode_state(inst, s)
        assert key not in by_encoding
        by_encoding[key] = s


def recount_by_clause(inst, w, free):
    """Independent oracle, clause by clause: (satisfied count, mask of the
    unsatisfied clauses whose variables are all free)."""
    a = assignment_from_mask(w, inst.formula.v)
    sat = eligible = 0
    for ci, clause in enumerate(inst.formula.lits.tolist()):
        if any((a[abs(x) - 1] == 1) == (x > 0) for x in clause):
            sat += 1
        elif all((free >> (abs(x) - 1)) & 1 for x in clause):
            eligible |= 1 << ci
    return sat, eligible


def test_clause_tables_golden():
    """The engine's per-variable clause tables for the long-episode formula
    (v=768, m=1536), pinned by sha256 from the object-per-literal table pass
    that the clause array replaced."""
    f, planted = regular_planted_formula(768, seed=7)
    params = params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    tables = (inst.true_bits, inst.occ_clause_bits, inst.recount,
              inst.clause_vars_sorted)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == \
        "2203d065852d811bda4766983237bfd56de968d9a1eeeba91c577b95a68cbec1"


def test_content_equal_formulas_share_one_table_record():
    """A formula parsed again from its DIMACS text is another object with the
    same content: its instances, full or simulator, under any epsilon, read
    the very same tables, while the gap threshold follows each one's params."""
    f, planted = regular_planted_formula(768, seed=7)
    copy = parse_dimacs(to_dimacs(f))
    assert copy is not f and copy == f
    full = build_instance(
        f, params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6),
        wstar=planted)
    sims = [build_instance(
        copy, params_for_rounds(v=768, h=2, p=2, q=4, epsilon=eps, b=6),
        mode=MODE_SIMULATOR) for eps in (1 / 64, 1 / 8)]
    record = clause_tables(f)
    assert clause_tables(copy) is record
    for inst in [full] + sims:
        for name, table in zip(record._fields, record):
            assert getattr(inst, name) is table
    assert [inst.gap_threshold_count for inst in [full] + sims] == \
        [gap_threshold_count(f.m, eps) for eps in (1 / 64, 1 / 64, 1 / 8)]
    assert sims[0].gap_threshold_count != sims[1].gap_threshold_count


def test_formula_one_literal_apart_gets_its_own_tables():
    f, _ = regular_planted_formula(69, seed=5)
    lits = f.lits.copy()
    lits[0, 0] = -lits[0, 0]
    g = formula_from_ints(f.v, lits.tolist())
    params = params_for_rounds(v=69, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    fi = build_instance(f, params, mode=MODE_SIMULATOR)
    gi = build_instance(g, params, mode=MODE_SIMULATOR)
    assert clause_tables(g) is not clause_tables(f)
    assert gi.true_bits != fi.true_bits and gi.recount != fi.recount
    assert gi.clause_vars_sorted == fi.clause_vars_sorted
    assert gi.occ_clause_bits == fi.occ_clause_bits


def test_clause_table_cache_stays_within_its_bound():
    bound = clause_tables.cache_info().maxsize
    params = params_for_rounds(v=15, h=2, p=2, q=2, epsilon=1 / 16, b=6)
    for seed in range(bound + 3):
        f, planted = regular_planted_formula(15, seed=seed)
        build_instance(f, params, wstar=planted)
        assert clause_tables.cache_info().currsize <= bound
    assert clause_tables.cache_info().currsize == bound


def test_incremental_eligibility_matches_recompute():
    inst, _, _ = random_satisfiable_instance(37, v=6, h=2, epsilon=0.125)
    rng = np.random.default_rng(4)
    for _ in range(40):
        s = initial_state(inst)
        while not s.is_terminal:
            assert s.eligible == recount_by_clause(inst, s.w, s.free)[1]
            s = transition(inst, s, int(rng.integers(0, 3)))


def test_step_recount_matches_clause_recount_across_words():
    """v=69 (masks of several machine words), a random non-zero start, three
    rounds, and negated literals: sat_count and eligible at every step equal
    a clause-by-clause recount."""
    v = 69
    f, planted = regular_planted_formula(v, seed=5)
    assert (f.lits < 0).any()
    params = params_for_rounds(v=v, h=3, p=2, q=4, epsilon=1 / 64, b=6)
    rng = np.random.default_rng(23)
    rollovers = 0
    for _ in range(6):
        start = tuple(int(x) for x in rng.choice([-1, 1], size=v))
        inst = build_instance(f, params, wstar=planted, start=start)
        assert inst.start >> 64
        s = initial_state(inst)
        while True:
            sat, eligible = recount_by_clause(inst, s.w, s.free)
            assert s.sat_count == sat
            assert s.eligible == (0 if s.is_terminal else eligible)
            if s.is_terminal:
                break
            n = s.n
            s = transition(inst, s, int(rng.integers(0, 3)))
            rollovers += s.n > n
    assert rollovers >= 6


def test_incremental_satisfaction_matches_recount(figure_instance):
    inst = figure_instance
    rng = np.random.default_rng(11)
    for _ in range(30):
        s = initial_state(inst)
        while not s.is_terminal:
            expected = satisfied_count(inst.formula, assignment_from_mask(s.w, 5))
            assert s.sat_count == expected
            s = transition(inst, s, int(rng.integers(0, 3)))
        assert s.sat_count == satisfied_count(inst.formula,
                                              assignment_from_mask(s.w, 5))


def test_exact_expected_reward_uses_extended_assignment(figure_start_instance):
    inst = figure_start_instance
    wstar = inst.wstar_assignment()
    s = initial_state(inst)
    while not s.is_terminal:
        s = transition(inst, s, __import__("satmdp.agents", fromlist=["x"])
                       .greedy_action(inst, s))
    # greedy run from the start: payout is the round-1 factor at the distance
    # from the round start to the target (free coordinates corrected)
    start = (-1, 1, -1, -1, -1)
    dist = sum(1 for a, b in zip(start, wstar) if a != b)
    if s.n == 1:
        assert reward_mean(inst, s) == pytest.approx(
            g(1, dist, inst.params), abs=1e-12)


def test_reward_mean_zero_off_terminal_and_without_wstar(figure_formula):
    # the same walk on a full instance and its simulator twin: 0 before the
    # terminal, 0 at the simulator's terminal, the terminal mean at the full
    # instance's, from the distances coordinate by coordinate
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    full = build_instance(figure_formula, params)
    sim = build_instance(figure_formula, params, mode=MODE_SIMULATOR)
    s = initial_state(full)
    while not s.is_terminal:
        assert reward_mean(full, s) == 0.0
        s = transition(full, s, 1)
    assert reward_mean(sim, s) == 0.0
    w, wstar = assignment_from_mask(s.w, 5), full.wstar_assignment()
    within = sum(a != b for a, b in zip(assignment_from_mask(s.w_round, 5), w))
    off = [i for i in range(5) if w[i] != wstar[i]]
    free_d = sum(1 for i in off if (s.free >> i) & 1)
    mean = expected_reward(s.round_dists, s.n, within, free_d,
                           len(off) - free_d, params)
    assert reward_mean(full, s) == mean > 0.0


def test_extended_assignment_distance_split():
    # hand check: ext((-1,-1,-1), S={1}) with wstar=(1,1,1) corrects var 1 only
    f = formula_from_ints(3, [[1, 2, 3], [1, 2, -3], [1, -2, 3]])
    params = params_for_rounds(v=3, h=1, p=2, q=2, epsilon=0.125)
    inst = build_instance(f, params, wstar=(1, 1, 1))
    s = initial_state(inst)
    # walk to the last level keeping everything; all variables end used
    while not s.is_terminal:
        acts = {STAGE_ONE: 0, STAGE_TWO: 0}[s.stage]
        s = transition(inst, s, acts)
    assert s.terminal_kind in (LAST_LEVEL, GAP_SATISFIED)
    w = assignment_from_mask(s.w, 3)
    free = [i for i in range(3) if (s.free >> i) & 1]
    within = sum(1 for a, b in zip(assignment_from_mask(s.w_round, 3), w) if a != b)
    free_d = sum(1 for i in free if w[i] != 1)
    used_d = sum(1 for i in range(3) if i not in free and w[i] != 1)
    assert reward_mean(inst, s) == pytest.approx(
        expected_reward(s.round_dists, s.n, within, free_d, used_d, inst.params))


def test_sample_reward_zero_before_termination(figure_instance):
    oracle = SatOracle(figure_instance, seed=5)
    s = oracle.initial_state()
    while True:
        nxt = transition(figure_instance, s, 1)
        if nxt.is_terminal:
            break
        assert oracle.sample_reward_batch(s, 1, 1) == 0
        s = nxt


def test_seeded_reward_replay(figure_instance):
    def sample_bits(seed):
        oracle = SatOracle(figure_instance, seed=seed)
        bits = []
        for _ in range(200):
            s = oracle.initial_state()
            while not s.is_terminal:
                nxt, r = oracle.step(s, 1)
                bits.append(r)
                s = nxt
        return bits

    assert sample_bits(42) == sample_bits(42)
    assert sample_bits(42) != sample_bits(43)


def test_bernoulli_mean_matches_exact_reward(figure_start_instance):
    inst = figure_start_instance
    from satmdp.agents import greedy_action
    s = initial_state(inst)
    while not s.is_terminal:
        prev, act = s, greedy_action(inst, s)
        s = transition(inst, s, act)
    mean = reward_mean(inst, s)
    oracle = SatOracle(inst, seed=99)
    n = 40_000
    ones = oracle.sample_reward_batch(prev, act, n)
    assert ones / n == pytest.approx(mean, abs=0.01)
    assert oracle.counters["reward"] == n


def test_simulator_last_level_rewards_zero(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    sim = build_instance(figure_formula, params, mode=MODE_SIMULATOR)
    oracle = SatOracle(sim, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = oracle.initial_state()
        while not s.is_terminal:
            a = int(rng.integers(0, 3))
            nxt = transition(sim, s, a)
            if nxt.is_terminal and nxt.terminal_kind == LAST_LEVEL:
                assert oracle.sample_reward_batch(s, a, 1) == 0
            s = nxt


def test_simulator_pays_zero_at_gap_satisfied_terminals(figure_formula):
    # greedy toward a satisfying assignment the simulator is never told: every
    # episode ends gap-satisfied, where the full MDP pays and the simulator not
    from satmdp.agents import greedy_policy
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    start = (-1, 1, -1, -1, -1)
    wstar = brute_force_sat(figure_formula)
    sim = build_instance(figure_formula, params, mode=MODE_SIMULATOR, start=start)
    full = build_instance(figure_formula, params, start=start)
    assert sim.wstar is None
    policy = greedy_policy(sim, wstar)
    oracle = SatOracle(sim, seed=17)
    ones = 0
    for _ in range(300):
        s = oracle.initial_state()
        while not s.is_terminal:
            prev, a = s, policy(s)
            s, r = oracle.step(prev, a)
            ones += r
        assert s.terminal_kind == GAP_SATISFIED
        assert reward_mean(sim, s) == 0.0 < reward_mean(full, s)
        assert oracle.sample_reward_batch(prev, a, 1000) == 0
    assert ones == 0


def test_simulator_prices_gap_terminal_at_v30_zero():
    # v over the exhaustive limit and no wstar: transitions and features
    # work, and the threshold terminal is priced 0 without any solve
    f, planted = regular_planted_formula(30, seed=3)
    params = params_for_rounds(v=30, h=2, p=2, q=2, epsilon=1 / 16, b=6)
    sim = build_instance(f, params, mode=MODE_SIMULATOR)
    assert sim.wstar is None
    from satmdp.agents import greedy_policy
    s = initial_state(sim)
    assert not s.is_terminal
    while not s.is_terminal:
        prev, act = s, greedy_policy(sim, planted)(s)
        s = transition(sim, s, act)
    assert s.terminal_kind == GAP_SATISFIED
    assert reward_mean(sim, s) == 0.0
    oracle = SatOracle(sim, seed=0)
    assert oracle.sample_reward_batch(prev, act, 1000) == 0
    assert oracle.step(prev, act)[1] == 0


def test_terminal_means_are_valid_probabilities():
    for seed, p in ((61, 2), (67, 3)):
        inst, _, _ = random_satisfiable_instance(seed, v=5, h=2, p=p, q=2,
                                                 epsilon=0.125)
        states, _ = enumerate_reachable(inst, budget=20_000)
        for s in states:
            if s.is_terminal:
                assert 0.0 <= reward_mean(inst, s) <= 1.0


def test_simulator_matches_full_transitions_and_features(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    full = build_instance(figure_formula, params)
    sim = build_instance(figure_formula, params, mode=MODE_SIMULATOR)
    states_f, children_f = enumerate_reachable(full, budget=50_000)
    states_s, children_s = enumerate_reachable(sim, budget=50_000)
    assert [encode_state(full, s) for s in states_f] == \
        [encode_state(sim, s) for s in states_s]
    assert children_f == children_s
    for sf, ss in zip(states_f[:200], states_s[:200]):
        assert features_state(full, sf).tobytes() == \
            features_state(sim, ss).tobytes()


def test_oracle_features_sa_is_successor_features(figure_start_instance):
    inst = figure_start_instance
    oracle = SatOracle(inst, seed=0)
    s = initial_state(inst)
    for a in range(3):
        assert oracle.features_sa(s, a).tobytes() == \
            features_state(inst, transition(inst, s, a)).tobytes()
    # terminal states get the zero feature vector
    t = s
    while not t.is_terminal:
        t = transition(inst, t, 1)
    assert not features_state(inst, t).any()


def test_stage_one_floor(figure_instance):
    # eps*m/b = 0.25 * 5 / 6 -> ceil = 1
    assert stage_one_floor(figure_instance, round_start=2) == 1
    with pytest.raises(ParameterError):
        stage_one_floor(figure_instance, round_start=5)


def test_stage_one_length_respects_floor():
    inst, _, _ = random_satisfiable_instance(31, v=6, h=2, epsilon=0.125)
    floor = stage_one_floor(inst, round_start=0)
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(200):
        s = initial_state(inst)
        stage_one_run = 0
        round_start_sat = s.sat_count
        while not s.is_terminal:
            in_stage_one = s.stage == STAGE_ONE
            s = transition(inst, s, int(rng.integers(0, 3)))
            if in_stage_one:
                stage_one_run += 1
            boundary = s.is_terminal or s.step % inst.formula.v == 0
            if boundary and s.step >= inst.formula.v and not s.is_terminal:
                # completed round: stage one must have lasted >= the floor
                assert stage_one_run >= stage_one_floor(inst, round_start_sat)
                checked += 1
                stage_one_run = 0
                round_start_sat = s.sat_count
    assert checked > 0


def test_query_counters_count_interface_calls(figure_instance):
    oracle = SatOracle(figure_instance, seed=0)
    s = oracle.initial_state()
    oracle.transition(s, 0)
    oracle.transition(s, 1)
    oracle.sample_reward_batch(s, 0, 1)
    oracle.features_sa(s, 1)
    oracle.features_sa(s, 2)
    assert oracle.counters == {"transition": 3, "reward": 1, "feature": 2}
