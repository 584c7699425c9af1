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
"""
import hashlib
import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satmdp.cnf import assignment_from_mask, brute_force_sat
from satmdp.instances import regular_planted_formula
from satmdp.mdp import (GAP_SATISFIED, LAST_LEVEL, MODE_SIMULATOR, STAGE_ONE,
                        STAGE_TWO, MdpState, _summary, build_instance,
                        initial_state, summary_tree, transition)
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


class RoundGame:
    """The round game of one formula, round count h, ε and start mask."""

    def __init__(self, formula, h, epsilon, start=0):
        self.v, self.h, self.start, self.all = formula.v, h, start, (1 << formula.v) - 1
        self.var = np.abs(formula.lits) - 1
        self.positive = formula.lits > 0
        self.threshold = math.floor((1 - Fraction(epsilon)) * formula.m) + 1

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


def make(formula, h, epsilon, start=0):
    """The engine's instance and the reference game of one setting."""
    params = params_for_rounds(v=formula.v, h=h, epsilon=epsilon)
    inst = build_instance(formula, params, mode=MODE_SIMULATOR,
                          start=assignment_from_mask(start, formula.v))
    return inst, RoundGame(formula, h, epsilon, start)


def assert_same(s, ref):
    assert type(s) is MdpState and tuple(s) == ref
    assert s.terminal_kind == (ref.stage if ref.is_terminal else None)


def play(inst, game, actions, every=1):
    """Play `actions`, cycled, on the engine and the reference side by side to
    the end, comparing every `every`-th state and any state where a side has
    ended. Returns the reference's (state, action) path and its last state."""
    s, ref, path = initial_state(inst), game.root(), []
    for a in itertools.cycle(actions):
        if s.is_terminal or ref.is_terminal or ref.step % every == 0:
            assert_same(s, ref)
        if ref.is_terminal:
            return path, ref
        path.append((ref, a))
        s, ref = transition(inst, s, a), game.step(ref, a)


def test_engine_matches_the_reference_on_every_pool_dag_node(criterion_1_pool):
    """Each summary-DAG node in full, rebuilt along the edge that created it;
    every other edge by its round summary."""
    pool, _seconds = criterion_1_pool
    kinds = set()
    for inst, _states, _children in pool:
        game = RoundGame(inst.formula, inst.params.h, inst.params.epsilon, inst.start)
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
    f, _ = regular_planted_formula(v, seed=data.draw(st.integers(0, 2**16)))
    play(*make(f, data.draw(st.integers(1, 3)),
               data.draw(st.sampled_from((1 / 64, 1 / 16, 1 / 8))),
               data.draw(st.integers(0, 2**v - 1))),
         data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=16)))


def test_engine_matches_the_reference_on_pinned_figure_cases(figure_formula):
    """A root that already meets the threshold, one flip that reaches the
    threshold count exactly, and stage two played with its keep alias 2."""
    wstar = _mask(np.array(brute_force_sat(figure_formula)) == 1)
    path, end = play(*make(figure_formula, 2, 0.25, wstar), [0])
    assert path == [] and end.stage == GAP_SATISFIED
    inst, game = make(figure_formula, 2, 0.25)
    path, end = play(inst, game, [0])
    assert [len(path), end.stage, end.sat_count] == [1, GAP_SATISFIED, game.threshold]
    path, _end = play(*make(figure_formula, 2, 0.25, start=0b00010), [2])
    assert (STAGE_TWO, 2) in [(s.stage, a) for s, a in path]


@pytest.mark.parametrize("v, seed, h, every", [(69, 5, 3, 1), (768, 7, 2, 64)])
def test_engine_matches_the_reference_across_rollovers_to_the_last_level(
        v, seed, h, every):
    """Masks of several machine words, a start with bits above 64 and
    negated literals; at v=768 every 64th state and the terminal."""
    f, _ = regular_planted_formula(v, seed=seed)
    rng = np.random.default_rng(v)
    start = _mask(rng.integers(0, 2, size=v).astype(bool))
    assert start >> 64 and (f.lits < 0).any()
    path, end = play(*make(f, h, 1 / 64, start),
                     rng.integers(0, 3, size=h * v).tolist(), every)
    assert end.stage == LAST_LEVEL and end.n == h and len(path) == h * v
