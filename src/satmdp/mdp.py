"""The SAT-parameterized hard-instance MDP: deterministic two-stage round
mechanics, termination, Bernoulli terminal rewards, and state features.

States carry assignments as int bitmasks (bit i set = variable i true) plus an
eligible-clause bitmask maintained incrementally: marking a variable used only
ever removes its clauses from eligibility within a round, and a flip changes
the satisfied count only through clauses whose other two literals are false,
so each step costs O(b) over per-variable clause tables. At the root and at
each round rollover every variable is free again, so the eligible mask is the
unsatisfied-clause mask, rebuilt in O(v) by OR-ing one per-variable mask per
variable. The tables depend on the formula alone: `clause_tables` builds them
once per distinct formula, keyed by its content, and its instances share them.
Rewards are paid on the transition that terminates; terminal states
themselves have zero features and zero continuation value.

The value layer's caches belong to their owners, which document their keys
and bounds: the terminal mean behind `reward_mean` is
`reward.expected_reward`'s, and the greedy coefficient table and the cell
index behind `features_state` are `polyfeat.greedy_value_poly`'s and
`polyfeat.to_feature_vector`'s.

At stage two actions 0 and 2 both keep the offered variable; only
`transition` knows it, and the tree walks list each move once.

`transition` reads neither `step` nor `chain` when it decides a move: it only
increments the one and hashes the other onward. So the subtree below a state,
and its size, depend only on the state's round summary, every field but
those two. Every round is v steps, so a summary also fixes the state's depth.
`summary_tree` walks a tree level by level, merging each summary's states
into one node that counts them; the sampler and whole-tree checks read it.

The instance's satisfying assignment w* is the only state a reward reads. An
instance without one pays 0 on every transition: that is the MDP of a formula
with no satisfying assignment, and so also the zero-reward simulator of the
RL-to-SAT reduction, which `build_instance` never gives a w*.

A state is one immutable record, built once per step. Its `stage` is
STAGE_ONE, STAGE_TWO or, at a terminal, the terminal kind (LAST_LEVEL or
GAP_SATISFIED). Its identity is a fixed-size summary of the round plus a
16-byte move-chain digest: each transition hashes its parent's chain with the
move it makes, so encoding a state costs the same at every step. The chain is
blake2b(parent chain + move as 4 big-endian bytes, digest_size=16), hashed on
a copy of one pre-built empty blake2b state, which gives the same bytes as a
fresh hasher without building one per step; the move's bytes are read from
`move_bytes(v)`, a table of 2v entries.
"""
from __future__ import annotations

import hashlib
import math
import struct
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cnf import (
    EXHAUSTIVE_LIMIT,
    Formula,
    assignment_from_mask,
    brute_force_sat,
    gap_threshold_count,
    hamming,
    mask_from_assignment,
    occurrence_bound,
)
from .errors import (
    FormulaError,
    InvariantViolation,
    ParameterError,
    ResourceLimitError,
)
from .polyfeat import feature_dim, greedy_value_poly, to_feature_vector
from .reward import RewardParams, expected_reward

STAGE_ONE = "one"
STAGE_TWO = "two"
LAST_LEVEL = "last_level"
GAP_SATISFIED = "gap_satisfied"

MODE_FULL = "full"
MODE_SIMULATOR = "simulator"

_STAGE_TAGS = {STAGE_ONE: 1, STAGE_TWO: 2, LAST_LEVEL: 3, GAP_SATISFIED: 4}
# encode_state's fixed header: n, stage tag, cursor (0xFFFFFFFF at a terminal)
_HEADER = struct.Struct(">IBI")
# copied, never updated: a copy hashes as a fresh blake2b(digest_size=16)
_EMPTY_CHAIN = hashlib.blake2b(digest_size=16)
# builds a record from a field tuple without MdpState.__new__'s Python frame
_new_state = tuple.__new__


class MdpState(NamedTuple):
    """One node of the transition tree; uniquely identified by its canonical
    byte encoding (n, stage, cursor, assignment, free set, round-start
    assignment, inter-round distances, move-chain digest). `sat_count` and
    `eligible` are functions of (w, free) kept to make a step O(b); the
    stored `is_terminal` is one of `stage`, set where the state is built (in
    `initial_state` and `transition`), so no reader compares stages.

    Distinct flip orders can reach the same assignment summary, so identity
    includes `chain`, a 16-byte blake2b digest of the parent's chain and the
    move (variable, flipped) that led here, keeping the transition structure a
    genuine tree. Stage-two keep-actions 0 and 2 hash the same move and
    therefore still land on the same state.
    """

    n: int
    stage: str                  # STAGE_ONE, STAGE_TWO or the terminal kind
    cursor: int | None          # clause index (stage one) / variable (stage two)
    w: int                      # current assignment bitmask
    w_round: int                # assignment at the start of round n
    free: int                   # free-variable bitmask
    round_dists: tuple
    step: int
    chain: bytes                # move-chain digest; zeros at the root
    sat_count: int              # clauses satisfied by w
    eligible: int               # eligible-clause bitmask; 0 at terminals
    is_terminal: bool           # stage is LAST_LEVEL or GAP_SATISFIED

    @property
    def terminal_kind(self) -> str | None:
        return self.stage if self.is_terminal else None


class ClauseTables(NamedTuple):
    """The engine's per-variable clause tables of one strict formula:

    - `clause_vars_sorted[c]`: clause c's three variables, ascending (the
      stage-one actions 0, 1, 2);
    - `true_bits[x]`: the clauses x's literal satisfies when x is false, and
      when x is true (a pair of clause bitmasks);
    - `occ_clause_bits[x]`: the clauses containing x (the OR of the pair);
    - `recount[x]`: per clause containing x, its other two literals as
      (1 << y, w & (1 << y) at which y's literal is false) and likewise for
      z, then +1 if x occurs positively and -1 if negated.
    """

    clause_vars_sorted: tuple
    true_bits: tuple
    occ_clause_bits: tuple
    recount: tuple


# a run plays one formula; the bound keeps a sweep over many from holding
# every formula's tables alive
@lru_cache(maxsize=8)
def clause_tables(formula: Formula) -> ClauseTables:
    """The clause tables of a strict formula, built in one pass over its
    clauses and shared by every instance of a content-equal formula (a
    `Formula` hashes and compares by content, so a copy parsed again from the
    same file hits the cache). Call it only on a formula `build_instance` has
    validated: the pass assumes 3 distinct variables per clause."""
    var_bits = [1 << x for x in range(formula.v)]
    true_bits = [[0, 0] for _ in range(formula.v)]
    recount = [[] for _ in range(formula.v)]
    clause_vars = np.abs(formula.lits) - 1
    for ci, (x, y, z), (nx, ny, nz) in zip(
            range(formula.m), clause_vars.tolist(), (formula.lits < 0).tolist()):
        cbit = 1 << ci
        xb, yb, zb = var_bits[x], var_bits[y], var_bits[z]
        xf, yf, zf = xb if nx else 0, yb if ny else 0, zb if nz else 0
        true_bits[x][not nx] |= cbit
        true_bits[y][not ny] |= cbit
        true_bits[z][not nz] |= cbit
        recount[x].append((yb, yf, zb, zf, -1 if nx else 1))
        recount[y].append((xb, xf, zb, zf, -1 if ny else 1))
        recount[z].append((xb, xf, yb, yf, -1 if nz else 1))
    return ClauseTables(
        clause_vars_sorted=tuple(map(tuple, np.sort(clause_vars, axis=1).tolist())),
        true_bits=tuple(tuple(pair) for pair in true_bits),
        occ_clause_bits=tuple(f | t for f, t in true_bits),
        recount=tuple(map(tuple, recount)))


@lru_cache(maxsize=8)
def move_bytes(v: int) -> tuple:
    """The 2v moves (variable, flipped) of a v-variable instance as the 4
    big-endian bytes of 2 * variable + flipped, built once per v and shared
    by its instances: `transition` hashes one into each chain."""
    return tuple(k.to_bytes(4, "big") for k in range(2 * v))


class MdpInstance:
    """Immutable bundle of formula, parameters, optional satisfying assignment
    `wstar` (a bitmask; None pays 0 everywhere), start assignment and the
    formula's `ClauseTables`, whose four tables it carries as attributes of
    the same names. The tables are built once per distinct formula and shared
    by all its instances; `d` and `gap_threshold_count` follow the params.
    `move_bytes[2 * var + flip]` is the move that `transition` hashes into
    the chain (`move_bytes(v)`, shared likewise).
    """

    __slots__ = ("formula", "params", "wstar", "d", "start", "all_mask",
                 "all_clauses", "clause_vars_sorted", "true_bits",
                 "occ_clause_bits", "recount", "gap_threshold_count",
                 "move_bytes")

    def __init__(self, formula: Formula, params: RewardParams,
                 wstar: int | None, start: int):
        self.formula = formula
        self.params = params
        self.wstar = wstar
        self.d = feature_dim(formula.v, params.p)
        self.start = start
        self.all_mask = (1 << formula.v) - 1
        self.all_clauses = (1 << formula.m) - 1
        (self.clause_vars_sorted, self.true_bits, self.occ_clause_bits,
         self.recount) = clause_tables(formula)
        self.gap_threshold_count = gap_threshold_count(formula.m, params.epsilon)
        self.move_bytes = move_bytes(formula.v)

    def wstar_assignment(self):
        if self.wstar is None:
            return None
        return assignment_from_mask(self.wstar, self.formula.v)


def build_instance(f: Formula, params: RewardParams, wstar=None,
                   mode: str = MODE_FULL, start=None) -> MdpInstance:
    """Validate the formula against the construction's requirements and fix
    the instance's w*. Full mode takes a supplied w*, brute-forces one at
    v <= EXHAUSTIVE_LIMIT (None if the formula is unsatisfiable) or refuses
    past that. Simulator mode never resolves w* and refuses a supplied one,
    so the simulator pays 0 everywhere and knows nothing of a solution."""
    if mode not in (MODE_FULL, MODE_SIMULATOR):
        raise ParameterError(f"unknown mode {mode!r}")
    if not f.strict:
        raise FormulaError("MDP construction requires strict 3-distinct-variable clauses")
    if f.m < f.v:
        raise FormulaError(
            f"construction requires at least as many clauses as variables "
            f"(m={f.m} < v={f.v}); padding is not attempted")
    if params.v != f.v:
        raise ParameterError(f"params.v={params.v} does not match formula v={f.v}")
    bound = occurrence_bound(f)
    if bound > params.b:
        raise FormulaError(f"occurrence bound {bound} exceeds b={params.b}")

    if mode == MODE_SIMULATOR:
        if wstar is not None:
            raise ParameterError("the simulator takes no wstar: it pays 0 everywhere")
        wstar_mask = None
    elif wstar is not None:
        wstar = tuple(wstar)
        if len(wstar) != f.v:
            raise ParameterError("wstar has wrong length")
        wstar_mask = mask_from_assignment(wstar)
    elif f.v <= EXHAUSTIVE_LIMIT:
        sol = brute_force_sat(f)
        wstar_mask = None if sol is None else mask_from_assignment(sol)
    else:
        raise ResourceLimitError(
            f"cannot define rewards: no wstar given and v={f.v} exceeds the "
            f"exhaustive limit {EXHAUSTIVE_LIMIT}")

    if start is None:
        start_mask = 0
    else:
        start = tuple(start)
        if len(start) != f.v:
            raise ParameterError("start assignment has wrong length")
        start_mask = mask_from_assignment(start)
    inst = MdpInstance(f, params, wstar_mask, start_mask)
    if wstar is not None and _unsat_mask(inst, wstar_mask):
        raise ParameterError("supplied wstar does not satisfy the formula")
    return inst


def _unsat_mask(inst: MdpInstance, w: int) -> int:
    """Bitmask of the clauses w leaves unsatisfied: O(v) ORs, one
    per-variable mask per variable."""
    sat = 0
    for pair, bit in zip(inst.true_bits, f"{w:0{inst.formula.v}b}"[::-1]):
        sat |= pair[bit == "1"]
    return inst.all_clauses ^ sat


def _stage_fields(eligible: int, free: int):
    if eligible:
        return STAGE_ONE, (eligible & -eligible).bit_length() - 1
    return STAGE_TWO, (free & -free).bit_length() - 1


def initial_state(inst: MdpInstance) -> MdpState:
    """Round 1 with every variable free; terminates immediately if the start
    assignment already satisfies more than a (1-eps) fraction."""
    w = inst.start
    free = inst.all_mask
    # every variable is free, so the eligible clauses are the unsatisfied ones
    eligible = _unsat_mask(inst, w)
    sat = inst.formula.m - eligible.bit_count()
    terminal = sat >= inst.gap_threshold_count
    if terminal:
        stage, cursor, eligible = GAP_SATISFIED, None, 0
    else:
        stage, cursor = _stage_fields(eligible, free)
    return MdpState(n=1, stage=stage, cursor=cursor, w=w, w_round=w, free=free,
                    round_dists=(), step=0, chain=bytes(16), sat_count=sat,
                    eligible=eligible, is_terminal=terminal)


def transition(inst: MdpInstance, s: MdpState, a: int) -> MdpState:
    """Apply one action: stage one flips the chosen clause variable, stage two
    flips the offered variable iff a == 1 (actions 0 and 2 both keep)."""
    n, stage, cursor, w, w_round, free, round_dists, step, chain, sat, eligible, terminal = s
    if terminal:
        raise ParameterError("cannot act on a terminal state")
    if a not in (0, 1, 2):
        raise ParameterError(f"action {a} outside {{0,1,2}}")
    if stage == STAGE_ONE:
        var = inst.clause_vars_sorted[cursor][a]
        flip = True
    else:
        var = cursor
        flip = a == 1

    bit = 1 << var
    # x ^= x & mask clears mask's bits without a negative ~mask
    free ^= free & bit
    if flip:
        w ^= bit
        # a clause's count moves only when its other two literals are false:
        # +1 if var's literal became true, -1 if it became false
        gain = 0
        for yb, yf, zb, zf, sign in inst.recount[var]:
            if w & yb == yf and w & zb == zf:
                gain += sign
        sat += gain if w & bit else -gain
    hasher = _EMPTY_CHAIN.copy()
    hasher.update(chain)
    hasher.update(inst.move_bytes[2 * var + flip])
    chain = hasher.digest()

    if sat >= inst.gap_threshold_count:
        stage, cursor, eligible, terminal = GAP_SATISFIED, None, 0, True
    elif free:
        # marking var used removes exactly its clauses from eligibility
        eligible ^= eligible & inst.occ_clause_bits[var]
        stage, cursor = _stage_fields(eligible, free)
    elif n == inst.params.h:
        stage, cursor, eligible, terminal = LAST_LEVEL, None, 0, True
    else:
        round_dists += (hamming(w_round, w),)
        n, w_round, free = n + 1, w, inst.all_mask
        eligible = _unsat_mask(inst, w)
        stage, cursor = _stage_fields(eligible, free)
    return _new_state(MdpState, (n, stage, cursor, w, w_round, free, round_dists,
                                 step + 1, chain, sat, eligible, terminal))


def reward_mean(inst: MdpInstance, nxt: MdpState) -> float:
    """Bernoulli mean paid on the transition into nxt, the engine's only
    reward: 0 when nxt is non-terminal or the instance has no w*, else the
    terminal mean with nxt's free coordinates corrected to w*."""
    if not nxt.is_terminal or inst.wstar is None:
        return 0.0
    diff = nxt.w ^ inst.wstar
    free_d = (diff & nxt.free).bit_count()
    used_d = (diff & ~nxt.free).bit_count()
    return expected_reward(nxt.round_dists, nxt.n, hamming(nxt.w_round, nxt.w),
                           free_d, used_d, inst.params)


# the old name, still read by perfbench/test_perfbench.py; it goes with the
# next benchmark change
exact_expected_reward = reward_mean


def features_state(inst: MdpInstance, s: MdpState) -> np.ndarray:
    """Coefficient vector of the greedy value polynomial; zero at terminals."""
    if s.is_terminal:
        return np.zeros(inst.d)
    return to_feature_vector(greedy_value_poly(s, inst.params), inst.formula.v)


def stage_one_floor(inst: MdpInstance, round_start: int) -> int:
    """Guaranteed stage-one length for a round whose start assignment
    satisfies `round_start` clauses: each used variable disqualifies at most b
    eligible clauses, and an alive round leaves at least an eps fraction
    unsatisfied."""
    if round_start >= inst.gap_threshold_count:
        raise ParameterError(
            "round start already exceeds the satisfaction threshold; the MDP "
            "would have terminated")
    p = inst.params
    return math.ceil(Fraction(p.epsilon) * inst.formula.m / p.b)


def encode_state(inst: MdpInstance, s: MdpState) -> bytes:
    """Fixed-order canonical byte encoding; equal bytes iff equal states."""
    nb = (inst.formula.v + 7) // 8
    n, stage, cursor, w, w_round, free, round_dists, _, chain, _, _, _ = s
    parts = [
        _HEADER.pack(n, _STAGE_TAGS[stage], 0xFFFFFFFF if cursor is None else cursor),
        w.to_bytes(nb, "big"),
        free.to_bytes(nb, "big"),
        w_round.to_bytes(nb, "big"),
        len(round_dists).to_bytes(2, "big"),
    ]
    for d in round_dists:
        parts.append(d.to_bytes(4, "big"))
    parts.append(chain)
    return b"".join(parts)


def state_digest(inst: MdpInstance, s: MdpState) -> str:
    return encode_state(inst, s).hex()


def enumerate_reachable(inst: MdpInstance, budget: int = 500_000):
    """Breadth-first enumeration of the whole tree (tiny instances only).

    Returns (states, children) where children[i] lists node i's distinct
    child indices in action order: three for a stage-one node, two (keep,
    flip) for a stage-two node, whose keep-alias 2 only `transition` knows,
    none for a terminal. Raises InvariantViolation if any state is reachable
    from two different parents, which would contradict the tree structure.
    """
    root = initial_state(inst)
    states = [root]
    seen = {encode_state(inst, root)}
    children: list[list[int]] = []
    for s in states:  # grows as the walk appends: breadth-first order
        kids = []
        if not s.is_terminal:
            for a in ((0, 1, 2) if s.stage == STAGE_ONE else (0, 1)):
                nxt = transition(inst, s, a)
                key = encode_state(inst, nxt)
                if key in seen:
                    raise InvariantViolation(
                        "state reached from two different parents; transition "
                        "structure is not a tree")
                if len(states) >= budget:
                    raise ResourceLimitError(
                        f"reachable-state enumeration exceeded budget {budget}")
                seen.add(key)
                kids.append(len(states))
                states.append(nxt)
        children.append(kids)
    return states, children


def summary_tree(inst: MdpInstance, budget: int):
    """The tree `enumerate_reachable(inst, budget)` would list, walked one
    level at a time with each round summary's states merged into one node,
    or None where it would raise ResourceLimitError. Returns (nodes,
    children, mult): `nodes[i]` is one state of its summary, expanded once;
    `children[i]` its distinct child nodes in action order, each above i;
    `mult[i]` the number of tree states sharing it, so `sum(mult)` is the
    state count. The walk stops once that count passes `budget`, within
    budget + 2 transitions; the tree check stays in `enumerate_reachable`.
    """
    nodes, children, mult = [initial_state(inst)], [], [1]
    counted, level_end, below = 1, 1, {}
    for i, s in enumerate(nodes):  # grows as the walk appends: level order
        # a level's nodes are all listed once its first is reached: key the
        # next level in a fresh dict, so finished levels' keys are freed
        if i == level_end:
            level_end, below = len(nodes), {}
        kids = []
        for child in [] if s.is_terminal else _children(inst, s):
            j = below.setdefault(_summary(child), len(nodes))
            if j == len(nodes):
                nodes.append(child)
                mult.append(0)
            mult[j] += mult[i]
            kids.append(j)
        children.append(kids)
        counted += len(kids) * mult[i]
        # enumerate_reachable checks the budget only when it adds a child, so
        # a terminal root counts 1 at any budget
        if kids and counted > budget:
            return None
    return nodes, children, mult


def _summary(s: MdpState) -> tuple:
    """Every field of s but `step` and `chain`, which `transition` does not
    read to decide a move."""
    return s[:7] + s[9:]


def _children(inst: MdpInstance, s: MdpState) -> list:
    """A non-terminal state's distinct children, in action order."""
    return [transition(inst, s, a)
            for a in ((0, 1, 2) if s.stage == STAGE_ONE else (0, 1))]
