import hashlib

import numpy as np
import pytest
from conftest import POOL_COMBOS

from satmdp import instances, mdp
from satmdp.agents import SatOracle
from satmdp.cli import LINEARITY_CASES
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
    MODE_SIMULATOR,
    STAGE_ONE,
    STAGE_TWO,
    MdpState,
    build_instance,
    clause_tables,
    encode_state,
    enumerate_reachable,
    features_state,
    initial_state,
    reward_mean,
    stage_one_floor,
    state_digest,
    summary_tree,
    transition,
)
from satmdp.instances import random_satisfiable_instance, regular_planted_formula
from satmdp.reward import params_for_rounds


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


def test_round_summary_is_every_field_but_step_and_chain(figure_instance,
                                                         two_round_game):
    """`summary_tree` keys a level on `_summary`, which must cover every field
    `transition` may read, the stored terminal flag among them."""
    kept = [name for name in MdpState._fields if name not in ("step", "chain")]
    states, _ = enumerate_reachable(figure_instance)
    rng = np.random.default_rng(0)
    s = initial_state(two_round_game)
    states.append(s)
    while not s.is_terminal and s.step < two_round_game.params.H:
        s = transition(two_round_game, s, int(rng.integers(0, 3)))
        states.append(s)
    assert s.is_terminal
    for s in states:
        assert mdp._summary(s) == tuple(getattr(s, name) for name in kept)


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
    for i, kids in enumerate(children):
        for j in kids:
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


def _size(tree):
    """The state count of a `summary_tree` answer, None where it refused."""
    return None if tree is None else sum(tree[2])


def _gate_attempts(monkeypatch, draw):
    """(instance, budget, summary_tree's state count) of every size-gate
    attempt the sampler makes while `draw` runs."""
    attempts, real = [], instances.summary_tree

    def spy(inst, budget):
        tree = real(inst, budget)
        attempts.append((inst, budget, _size(tree)))
        return tree

    monkeypatch.setattr(instances, "summary_tree", spy)
    draw()
    return attempts


def _enumerated_size(inst, budget):
    """The state count `enumerate_reachable` gives at `budget`, None where it refuses."""
    try:
        return len(enumerate_reachable(inst, budget=budget)[0])
    except ResourceLimitError:
        return None


def _criterion_1_draws():
    for k in range(50):
        v, h, eps = POOL_COMBOS[k % len(POOL_COMBOS)]
        random_satisfiable_instance(1000 + k, v=v, h=h, p=2, q=4, epsilon=eps,
                                    tree_budget=20_000)


def _linearity_draws():
    for seed in range(8):
        for i, (v, h) in enumerate(LINEARITY_CASES):
            random_satisfiable_instance(seed + i, v=v, h=h, tree_budget=8_000)


# (draws, gate attempts, attempts over budget)
@pytest.mark.parametrize("draw, n_attempts, n_refused", [
    (_criterion_1_draws, 54, 4), (_linearity_draws, 16, 0)])
def test_summary_tree_agrees_with_enumeration_on_every_gate_attempt(
        monkeypatch, draw, n_attempts, n_refused):
    attempts = _gate_attempts(monkeypatch, draw)
    for inst, budget, size in attempts:
        assert size == _enumerated_size(inst, budget)
    assert len(attempts) == n_attempts
    assert sum(size is None for _, _, size in attempts) == n_refused


def test_summary_tree_budget_is_the_state_count(criterion_1_pool):
    pool, _seconds = criterion_1_pool
    for inst, states, _children in pool:
        n = len(states)
        assert _size(summary_tree(inst, n)) == n
        assert _size(summary_tree(inst, 20_000)) == n
        assert summary_tree(inst, n - 1) is None
    # the smallest tree, a root and its three terminal children, is in the pool
    assert min(len(states) for _, states, _ in pool) == 4


def test_summary_tree_work_is_bounded_by_its_budget(monkeypatch):
    # a v=768 tree far over budget: the walk stops within one expansion of
    # passing the budget, however deep the tree goes
    f, planted = regular_planted_formula(768, seed=7)
    inst = build_instance(
        f, params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6),
        wstar=planted)
    real, transitions = mdp.transition, [0]

    def counting_transition(inst, s, a):
        transitions[0] += 1
        return real(inst, s, a)

    monkeypatch.setattr(mdp, "transition", counting_transition)
    assert summary_tree(inst, 3_000) is None
    assert transitions[0] <= 3_000 + 2


def test_summary_tree_matches_enumeration_at_the_edges(figure_formula,
                                                       figure_instance):
    # a start that meets the threshold: enumeration lists the terminal root
    # at any budget, since it checks the budget only when it adds a child
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    done = build_instance(figure_formula, params,
                          start=figure_instance.wstar_assignment())
    assert initial_state(done).is_terminal
    for budget in range(4):
        assert summary_tree(done, budget) == ([initial_state(done)], [[]], [1])
        assert _enumerated_size(done, budget) == 1
    n = len(enumerate_reachable(figure_instance)[0])
    for budget in (n, n - 1, 4):
        assert _size(summary_tree(figure_instance, budget)) == \
            _enumerated_size(figure_instance, budget)
    assert summary_tree(figure_instance, n - 1) is None


def test_summary_tree_nodes_are_distinct_and_children_come_later(pool_trees):
    """The bottom-up DPs over the DAG read each node after all its children,
    and a node stands for one summary: every child index exceeds its
    parent's, node summaries are distinct, and children[i] are node i's
    moves in action order, mapped through `_summary`."""
    pool, sweep = pool_trees
    for inst, _states, _children in pool + sweep:
        nodes, children, mult = summary_tree(inst, 20_000)
        keys = [mdp._summary(s) for s in nodes]
        assert len(set(keys)) == len(keys)
        assert len(children) == len(mult) == len(nodes) and min(mult) >= 1
        for i, (s, kids) in enumerate(zip(nodes, children)):
            assert all(j > i for j in kids)
            moves = (() if s.is_terminal
                     else (0, 1, 2) if s.stage == STAGE_ONE else (0, 1))
            assert [keys[j] for j in kids] == [
                mdp._summary(transition(inst, s, a)) for a in moves]


def test_equal_round_summaries_root_equal_subtrees(criterion_1_pool):
    """The facts summary_tree rests on: states with equal round summaries
    (every field but `step` and `chain`) have equal clause counts, eligible
    masks, subtree sizes, steps and terminal flags, so one level of the walk
    holds all of a summary's states."""
    pool, _seconds = criterion_1_pool
    shared = 0
    for _inst, states, children in pool:
        sizes = [1] * len(states)
        for i in reversed(range(len(states))):
            sizes[i] += sum(sizes[j] for j in children[i])
        seen = {}
        for s, size in zip(states, sizes):
            n, stage, cursor, w, w_round, free, round_dists, *_ = s
            key = (n, stage, cursor, w, w_round, free, round_dists)
            facts = (s.sat_count, s.eligible, size, s.step, s.is_terminal)
            assert seen.setdefault(key, facts) == facts
        shared += len(states) - len(seen)
    assert shared > 0


@pytest.mark.parametrize("budget", [-1, 0, 1, 2, 3])
def test_sampler_refuses_a_budget_no_tree_can_meet(monkeypatch, budget):
    drawn = []
    monkeypatch.setattr(instances, "random_strict_formula",
                        lambda *args: drawn.append(args))
    with pytest.raises(ParameterError, match="tree_budget"):
        random_satisfiable_instance(1, v=5, h=2, tree_budget=budget)
    assert drawn == []


# sha256 over every state's encode_state bytes and repr(children), tree by
# tree, of the criterion-1 pool and the tree_sweep instances
POOL_TREES_SHA256 = "c50114fd83976f209a77a7f2d05fefd8e68bf4b782b1b218e159bc799448dd85"
SWEEP_TREES_SHA256 = "dec13e49f679de6acd0f396e318c1cbb0f2b93e038d2b06f3a0c31e04aeed458"


def test_pool_trees_golden_and_edge_shape(pool_trees):
    pool, sweep = pool_trees
    digests = []
    for trees in (pool, sweep):
        h = hashlib.sha256()
        for inst, states, children in trees:
            for s in states:
                h.update(encode_state(inst, s))
            h.update(repr(children).encode())
            for s, kids in zip(states, children):
                moves = 0 if s.is_terminal else 3 if s.stage == STAGE_ONE else 2
                assert len(set(kids)) == len(kids) == moves
                assert all(type(j) is int for j in kids)
        digests.append(h.hexdigest())
    assert digests == [POOL_TREES_SHA256, SWEEP_TREES_SHA256]
    # the children are the engine's moves, and a stage-two node's keep-alias
    # 2 lands on action 0's child
    for inst, states, children in sweep:
        for s, kids in zip(states, children):
            for a, j in enumerate(kids):
                assert states[j] == transition(inst, s, a)
            if s.stage == STAGE_TWO:
                assert transition(inst, s, 2) == states[kids[0]]


# sha256 over features_state(...).tobytes() at every state, tree by tree, of
# the criterion-1 pool and then the tree_sweep instances
POOL_FEATURES_SHA256 = "bf640b67dabc01f0ffc1f6e54c2bee9bb566f8bc2b535e9dcd9cddc166f51589"


def test_pool_features_golden(pool_trees):
    pool, sweep = pool_trees
    h = hashlib.sha256()
    for inst, states, _children in pool + sweep:
        for s in states:
            h.update(features_state(inst, s).tobytes())
    assert h.hexdigest() == POOL_FEATURES_SHA256


def test_states_at_different_steps_are_distinct():
    inst, _, _ = random_satisfiable_instance(29, v=4, h=2, epsilon=0.125)
    states, _ = enumerate_reachable(inst, budget=20_000)
    by_encoding = {}
    for s in states:
        key = encode_state(inst, s)
        assert key not in by_encoding
        by_encoding[key] = s


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


def unsat_by_scan(f, w):
    """Independent oracle: the mask of the clauses of f that w leaves
    unsatisfied, from a scan of f.lits."""
    value = np.array([(w >> i) & 1 for i in range(f.v)])
    lit_true = (value[np.abs(f.lits) - 1] == 1) == (f.lits > 0)
    return sum(1 << int(c) for c in np.flatnonzero(~lit_true.any(axis=1)))


def test_unsat_mask_matches_a_clause_scan_at_v768():
    """The eligible mask `_unsat_mask` rebuilds at the root and at a round
    rollover, where every variable is free, is the unsatisfied-clause mask."""
    f, planted = regular_planted_formula(768, seed=7)
    params = params_for_rounds(v=768, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    assert mdp._unsat_mask(inst, inst.wstar) == unsat_by_scan(f, inst.wstar) == 0
    rng = np.random.default_rng(19)
    for _ in range(3):
        start = tuple(int(x) for x in rng.choice((-1, 1), size=f.v))
        inst = build_instance(f, params, wstar=planted, start=start)
        s = initial_state(inst)
        assert mdp._unsat_mask(inst, s.w) == s.eligible == unsat_by_scan(f, s.w)
        assert s.stage == STAGE_ONE and s.eligible.bit_count() > f.m // 16
        while s.n == 1:
            s = transition(inst, s, int(rng.integers(0, 3)))
        assert s.stage == STAGE_ONE and s.free == inst.all_mask
        assert s.w != inst.start
        assert s.eligible == unsat_by_scan(f, s.w)


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
