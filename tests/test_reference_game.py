"""The round game written from its rules and the clause literals alone, and
the checks that the engine matches it in every `MdpState` field:
- eligible clauses are the unsatisfied ones whose three variables are free;
- stage one offers the lowest eligible clause, and action a flips its a-th
  smallest variable; with none, stage two offers the lowest free variable,
  and only action 1 flips it; a played variable stays used for the round;
- the game ends GAP_SATISFIED once ⌊(1−ε)m⌋+1 clauses are satisfied, the root
  included; with no free variable left it ends LAST_LEVEL after round h, or
  rolls over to a round with every variable free;
- the chain is blake2b(parent chain + (2·var + flip) as 4 big-endian bytes,
  digest_size=16), zeros at the root.
Each state is rebuilt from one scan of `formula.lits`: no incremental table.

Then the payout and tree values, exact, which the float ones must match.
Only entering a terminal pays, and only with w*: in round n it pays
Π_(i≤n+1) T_p(−x_i/S_i), T_p(z) = Σ_(j≤p) z^j/j!, S_i = v^(q−1)(3 − i/h), with
x_i round i's distance for i < n, the flips so far plus the free variables
off w* for i = n, and the used variables off w* for i = n+1: a `Fraction`.
The greedy rule flips the offered clause's lowest variable off w*, or the
offered free variable iff it is off w*. Backward induction, in integers over
the payouts' common denominator, gives V* and V_greedy; the paper's two
claims are V* = V_greedy and V_greedy(s) = ⟨φ(s), θ(w*)⟩, with θ(w*) the
products Π_(i∈S) w*_i over `itertools.combinations`. `check_tree_values`
asserts both at every summary-DAG node of three tree sets: the criterion-1
pool (p=2, q=4), 48 trees at p=4, q=2, and one tree of 1,177,009 states.
"""
import hashlib
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import POOL_COMBOS
from satmdp.agents import tree_greedy_values, tree_optimal_values
from satmdp.cnf import assignment_from_mask, brute_force_sat, mask_from_assignment
from satmdp.instances import random_satisfiable_instance, regular_planted_formula
from satmdp.mdp import (GAP_SATISFIED, LAST_LEVEL, MODE_SIMULATOR, STAGE_ONE,
                        STAGE_TWO, MdpState, _summary, build_instance,
                        features_state, initial_state, reward_mean,
                        summary_tree, transition)
from satmdp.reward import params_for_rounds

RefState = namedtuple("RefState", "n stage cursor w w_round free round_dists "
                                  "step chain sat_count eligible is_terminal")


def _bits(x, v):
    """The low v bits of x as booleans, bit i at index i."""
    raw = np.frombuffer(x.to_bytes((v + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")[:v].astype(bool)


def _mask(bits):
    """The int whose bit i is bits[i]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=None)
def factor(p, q, v, h, i, x):
    """T_p(−x/S_i), with S_i = v^(q−1)(3 − i/h) = v^(q−1)(3h − i)/h."""
    z = Fraction(-x * h, v ** (q - 1) * (3 * h - i))
    return sum(z ** j / math.factorial(j) for j in range(p + 1))


@lru_cache(maxsize=None)
def mean(pqvh, xs):
    """Π_i T_p(−x_i/S_i) over xs = (x_1, x_2, ...)."""
    return math.prod(factor(*pqvh, i, x) for i, x in enumerate(xs, start=1))


class RoundGame:
    """The round game of one formula and params from a start, toward w*."""

    def __init__(self, formula, params, start, wstar):
        self.v, self.h, self.start, self.all = formula.v, params.h, start, (1 << formula.v) - 1
        self.var = np.abs(formula.lits) - 1
        self.positive = formula.lits > 0
        self.threshold = math.floor((1 - Fraction(params.epsilon)) * formula.m) + 1
        self.pqvh, self.wstar = (params.p, params.q, self.v, self.h), wstar

    def root(self):
        return self._settle(1, self.start, self.start, self.all, (), 0, bytes(16))

    def step(self, s, a):
        if s.stage == STAGE_ONE:
            var, flip = sorted(self.var[s.cursor].tolist())[a], True
        else:
            var, flip = s.cursor, a == 1
        chain = hashlib.blake2b(s.chain + (2 * var + flip).to_bytes(4, "big"),
                                digest_size=16).digest()
        return self._settle(s.n, s.w ^ (flip << var), s.w_round,
                            s.free & ~(1 << var), s.round_dists, s.step + 1, chain)

    def _settle(self, n, w, w_round, free, round_dists, step, chain):
        """The state after a move to (w, free): an end, a rollover or a stage."""
        satisfied = (_bits(w, self.v)[self.var] == self.positive).any(axis=1)
        sat = int(satisfied.sum())
        end = (GAP_SATISFIED if sat >= self.threshold
               else LAST_LEVEL if not free and n == self.h else None)
        if end:
            return RefState(n, end, None, w, w_round, free, round_dists, step,
                            chain, sat, 0, True)
        if not free:
            round_dists += ((w ^ w_round).bit_count(),)
            n, w_round, free = n + 1, w, self.all
        free_bits = _bits(free, self.v)
        eligible = ~satisfied & free_bits[self.var].all(axis=1)
        stage = STAGE_ONE if eligible.any() else STAGE_TWO
        cursor = int(np.argmax(eligible if stage == STAGE_ONE else free_bits))
        return RefState(n, stage, cursor, w, w_round, free, round_dists, step,
                        chain, sat, _mask(eligible), False)

    def payout(self, s):
        """The mean paid on entering s: 0 off the ends."""
        if not s.is_terminal:
            return 0
        off = s.w ^ self.wstar
        xs = (*s.round_dists, (s.w ^ s.w_round).bit_count() + (off & s.free).bit_count(),
              (off & ~s.free).bit_count())
        return mean(self.pqvh, xs)

    def greedy(self, s):
        """The action of the greedy rule toward w*."""
        off = s.w ^ self.wstar
        if s.stage == STAGE_ONE:
            clause = sorted(self.var[s.cursor].tolist())
            return [off >> var & 1 for var in clause].index(1)
        return off >> s.cursor & 1


def make(formula, h, epsilon, start, wstar):
    """The engine's instance and the reference game, both toward the mask wstar."""
    params = params_for_rounds(v=formula.v, h=h, epsilon=epsilon)
    inst = build_instance(formula, params, wstar=assignment_from_mask(wstar, formula.v),
                          start=assignment_from_mask(start, formula.v))
    return inst, RoundGame(formula, params, start, wstar)


def assert_close(floats, exact, den=1):
    """Each float within 1e-12 relative of its exact value over den, 0.0
    where it is 0."""
    exact = np.array([float(e / den) for e in exact])
    assert (np.abs(np.array(floats) - exact) <= 1e-12 * exact).all()


def exact_values(game, nodes, children):
    """Payout, V* and V_greedy at every node of a summary DAG, exactly: as
    integers over one common denominator, which comes last."""
    pay = [game.payout(s) for s in nodes]
    den = math.lcm(*{x.denominator for x in pay})
    pay = [x.numerator * (den // x.denominator) for x in pay]
    best, greedy = [0] * len(nodes), [0] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        if kids := children[i]:
            best[i] = max(pay[j] + best[j] for j in kids)
            j = kids[game.greedy(nodes[i])]
            greedy[i] = pay[j] + greedy[j]
    return pay, best, greedy, den


def assert_same(s, ref):
    assert type(s) is MdpState and tuple(s) == ref
    assert s.terminal_kind == (ref.stage if ref.is_terminal else None)


def play(inst, game, actions, every=1):
    """Play `actions`, cycled, on the engine and the reference to the end,
    comparing every `every`-th state, any ended state and the end's payout.
    Returns the reference's (state, action) path and its last state."""
    s, ref, path = initial_state(inst), game.root(), []
    for a in itertools.cycle(actions):
        if s.is_terminal or ref.is_terminal or ref.step % every == 0:
            assert_same(s, ref)
        if ref.is_terminal:
            assert_close([reward_mean(inst, s)], [game.payout(ref)])
            return path, ref
        path.append((ref, a))
        s, ref = transition(inst, s, a), game.step(ref, a)


def test_engine_matches_the_reference_on_every_pool_dag_node(criterion_1_pool):
    """Each summary-DAG node in full, rebuilt along the edge that created it;
    every other edge by its round summary."""
    pool, _seconds = criterion_1_pool
    kinds = set()
    for inst, _states, _children in pool:
        game = RoundGame(inst.formula, inst.params, inst.start, inst.wstar)
        nodes, children, _mult = summary_tree(inst, 20_000)
        refs = [game.root()]
        # refs grows as the walk appends, one node ahead of it
        for s, kids, ref in zip(nodes, children, refs):
            assert_same(s, ref)
            kinds.add(s.terminal_kind)
            for a, j in enumerate(kids):
                child = game.step(ref, a)
                if j == len(refs):
                    refs.append(child)
                else:
                    assert _summary(nodes[j]) == _summary(child)
        assert len(refs) == len(nodes)
    assert kinds == {None, LAST_LEVEL, GAP_SATISFIED}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_matches_the_reference_on_random_episodes(data):
    v = 3 * data.draw(st.integers(1, 32))
    f, planted = regular_planted_formula(v, seed=data.draw(st.integers(0, 2**16)))
    play(*make(f, data.draw(st.integers(1, 3)),
               data.draw(st.sampled_from((1 / 64, 1 / 16, 1 / 8))),
               data.draw(st.integers(0, 2**v - 1)), mask_from_assignment(planted)),
         data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=16)))


def test_engine_matches_the_reference_on_pinned_figure_cases(figure_formula):
    """A root that already meets the threshold, one flip that reaches the
    threshold count exactly, and stage two played with its keep alias 2."""
    wstar = mask_from_assignment(brute_force_sat(figure_formula))
    path, end = play(*make(figure_formula, 2, 0.25, wstar, wstar), [0])
    assert path == [] and end.stage == GAP_SATISFIED
    inst, game = make(figure_formula, 2, 0.25, 0, wstar)
    path, end = play(inst, game, [0])
    assert [len(path), end.stage, end.sat_count] == [1, GAP_SATISFIED, game.threshold]
    path, _end = play(*make(figure_formula, 2, 0.25, 0b00010, wstar), [2])
    assert (STAGE_TWO, 2) in [(s.stage, a) for s, a in path]


@pytest.mark.parametrize("v, seed, h, every", [(69, 5, 3, 1), (768, 7, 2, 64)])
def test_engine_matches_the_reference_across_rollovers_to_the_last_level(
        v, seed, h, every):
    """Masks of several machine words, a start with bits above 64 and
    negated literals; at v=768 every 64th state and the terminal."""
    f, planted = regular_planted_formula(v, seed=seed)
    rng = np.random.default_rng(v)
    start = _mask(rng.integers(0, 2, size=v).astype(bool))
    assert start >> 64 and (f.lits < 0).any()
    path, end = play(*make(f, h, 1 / 64, start, mask_from_assignment(planted)),
                     rng.integers(0, 3, size=h * v).tolist(), every)
    assert end.stage == LAST_LEVEL and end.n == h and len(path) == h * v


def theta(wstar, v, p):
    """θ(w*): Π_(i∈S) w*_i, −1 per variable of S off the mask wstar, over the
    subsets S of size ≤ 2p, size ascending and lexicographic within a size."""
    return np.array([(-1.0) ** sum(~wstar >> i & 1 for i in S)
                     for size in range(min(2 * p, v) + 1)
                     for S in itertools.combinations(range(v), size)])


def check_tree_values(insts, budget, counts):
    """Both claims on the summary DAGs of insts within budget, once their
    (nodes, states) totals are pinned to counts, so a wrong walk fails
    before the exact work: V* == V_greedy exactly at every node; the float
    tree values, `reward_mean` and `features_state @ θ(w*)` within 1e-12
    relative of the exact ones; and all 0.0 on the w*-less twin."""
    dags = [summary_tree(inst, budget) for inst in insts]
    assert (sum(len(nodes) for nodes, _children, _mult in dags),
            sum(sum(mult) for _nodes, _children, mult in dags)) == counts
    for inst, (nodes, children, _mult) in zip(insts, dags):
        pay, best, greedy, den = exact_values(
            RoundGame(inst.formula, inst.params, inst.start, inst.wstar), nodes, children)
        assert best == greedy
        assert_close(tree_optimal_values(inst, nodes, children), best, den)
        assert_close(tree_greedy_values(inst, nodes, children), greedy, den)
        assert_close([reward_mean(inst, s) for s in nodes], pay, den)
        th = theta(inst.wstar, inst.formula.v, inst.params.p)
        assert_close([features_state(inst, s) @ th for s in nodes], greedy, den)
        sim = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR,
                             start=assignment_from_mask(inst.start, inst.formula.v))
        assert {*tree_optimal_values(sim, nodes, children),
                *tree_greedy_values(sim, nodes, children),
                *(reward_mean(sim, s) for s in nodes)} == {0.0}


def test_greedy_is_exactly_optimal_on_every_pool_dag_node(criterion_1_pool):
    """The first parameterization, p=2 and q=4: the 50 trees of the pool."""
    pool, _seconds = criterion_1_pool
    check_tree_values([inst for inst, _states, _children in pool], 20_000,
                      (33_351, 75_991))


def test_greedy_is_exactly_optimal_on_the_p4_q2_trees():
    """The second, q=2 and p=log_degree(v)=4: 48 trees of the pool's
    (v, h, eps) cycle, seeds 1000+k. Here 2p >= v, so the features span
    every function of x; this is the only whole-tree linearity check whose
    feature cells are uint16."""
    check_tree_values(
        [random_satisfiable_instance(1000 + k, v=v, h=h, p=4, q=2, epsilon=eps,
                                     tree_budget=20_000)[0]
         for k, (v, h, eps) in zip(range(48), itertools.cycle(POOL_COMBOS))],
        20_000, (33_283, 75_902))


def test_greedy_is_exactly_optimal_on_a_tree_of_over_a_million_states():
    """One whole tree, v=9, h=3, p=2, q=4, eps=1/8, read as its summary
    DAG: where 2p < v, so the features do not span every function of x."""
    inst, _wstar, _attempts = random_satisfiable_instance(
        5010, v=9, h=3, p=2, q=4, epsilon=0.125, tree_budget=2_500_000)
    check_tree_values([inst], 2_500_000, (136_776, 1_177_009))


def test_pinned_figure_payouts(figure_instance):
    """All-false start, v=5, h=2, p=2, q=2: every child of the root ends
    GAP_SATISFIED, paid more than 0 by the instance and 0 by its twin, and
    V*(root) is the one factor T_2(−dist/S_1), S_1 = 5(3 − 1/2)."""
    inst = figure_instance
    sim = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR)
    nodes, children, _mult = summary_tree(inst, 20_000)
    _pay, best, _greedy, den = exact_values(
        RoundGame(inst.formula, inst.params, inst.start, inst.wstar), nodes, children)
    z = -Fraction((inst.start ^ inst.wstar).bit_count()) / (5 * Fraction(5, 2))
    assert inst.start == 0 and Fraction(best[0], den) == 1 + z + z * z / 2
    for end in (nodes[j] for j in children[0]):
        assert end.terminal_kind == GAP_SATISFIED
        assert reward_mean(inst, end) > 0.0 == reward_mean(sim, end)
