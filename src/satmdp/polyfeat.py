"""The greedy policy's value at a state as a polynomial in the unknown
satisfying assignment x, and the feature / theta vectors that write it as an
inner product with x's monomial vector.

Let w be the current assignment, z_i = -w_i x_i (1 where they disagree), F the
free and U the used variables, and s_X = sum_{i in X} z_i. The greedy value is
scalar * g_n(offset + (|F| + s_F)/2) * g_{n+1}((|U| + s_U)/2): the past rounds'
factors, the current round's at the flips so far plus the free disagreements,
and the next round's at the used disagreements. Each factor is symmetric in
its z's, so with z_i^2 = 1 it equals sum_{j<=p} a_j e_j(z_X) over elementary
symmetric polynomials (O'Donnell, Analysis of Boolean Functions, 2014). The a_j
come from reward.taylor_exp's Horner scheme run in that basis, where
s * e_j = (j+1) e_{j+1} + (n-j+1) e_{j-1} for n = |X|. As z_S equals
prod_{i in S}(-w_i) x_S, the coefficient of x_S is
scalar * a_{|S&F|} * b_{|S&U|} * (-1)^{|S&T|}, T the variables true in w, of
degree at most 2p.

`MultilinearPoly` holds that closed form: coef[j, k] = scalar * a_j * b_k
(zero for j > p or k > p), the signed table (coef, then 0.0 - coef, flat),
the free mask and w. Features follow the canonical subset order (size
ascending, lexicographic within a size), of dimension d = sum_{i<=2p} C(v, i).
Each subset is a column of ceil(v/64) uint64 words, and |S&F| and |S&T| are
popcounts against one word of the mask at a time, summed over the words; the
feature of S is the signed table's cell (|S&T| mod 2, |S&F|, |S&U|), one
`take` with an index built in the smallest unsigned type that holds the
table's 2(2p+1)^2 cells (uint16 from p = 6 on). `terms` is a range of length
sum C(|F|, j) * C(|U|, k) over the non-zero cells: the non-zero monomial count
a traced benchmark run reports.

`_subset_masks(v, 2p+1)` builds the table of subset columns once per
(v, 2p+1), layer by layer in numpy: the size-s subsets whose smallest element
is i are variable i's bit OR-ed onto the last C(v-1-i, s-1) columns of the
size-(s-1) layer, so each block is one `bitwise_or` written in place, about
2p v calls in all (under 2 ms at v=48, p=2, d=213,053, on a 2-CPU box). A
table over MASK_TABLE_BYTES (256 MiB) raises `ResourceLimitError` before
anything is allocated: `theta_vector(w, 48, 8)` would take 30 TiB.
`feature_dim` builds no table and answers at any v.

The tables and `terms` depend on the state only through its round summary
(params, n, round_dists, hamming(w_round, w), |F|), which many states of a
game tree share, and which do not depend on the formula, so trees of the same
params share them too: `_coefficient_table` builds them once per summary, in
an `lru_cache` bounded at 4096 entries, which holds the distinct summaries of
a whole sweep of trees, and every state of that summary reads the same
read-only `coef` and signed table. The cell index depends on the state
only through (v, 2p+1, w, free): `_cell_index_cache(v, 2p+1)` is an
`lru_cache` keyed on (w, free) that builds each read-only index once, from the
two popcounts, and holds at most INDEX_CACHE_BYTES (1 MiB) of them per
(v, 2p+1). It hits where states repeat a (w, free) pair, as in whole small
trees: the 16 tree_sweep trees hold 15,015 non-terminal states but only
1,639 distinct pairs, counted tree by tree. It never hits on single states at
large v: at v=48 it holds 4 indexes of 213,053 cells. A state pays for the
lookup of its index and one `take`, which returns a fresh vector.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cnf import hamming, mask_from_assignment
from .errors import ParameterError, ResourceLimitError
from .reward import RewardParams, g

_WORD = 0xFFFF_FFFF_FFFF_FFFF


class MultilinearPoly(NamedTuple):
    """The greedy value polynomial in closed form: the coefficient of x_S is
    coef[|S&free|, |S&~free|], negated when |S&w| is odd. `signed` is the
    flat read-only table of both signs, coef then 0.0 - coef."""

    coef: np.ndarray
    signed: np.ndarray
    free: int
    w: int
    terms: range


def _symmetric_coefficients(params: RewardParams, i: int, offset: int,
                            n: int) -> list:
    """a_0..a_p with g(i, offset + (n + s)/2) = sum_j a_j e_j(z) for z in
    {-1,+1}^n and s = sum(z). It runs only when `_coefficient_table` builds
    a table, twice per build, so its O(p^2) flops need no cache of their own."""
    p = params.p
    c = -1.0 / params.scale(i)
    x0, x1 = c * (offset + n / 2.0), c / 2.0  # g's argument is x0 + x1 * s
    acc = [1.0] + [0.0] * p
    for k in range(p, 0, -1):
        pad = [0.0] + acc + [0.0]
        acc = [float(j == 0)
               + (x0 * acc[j] + x1 * (j * pad[j] + (n - j) * pad[j + 2])) / k
               for j in range(p + 1)]
    return acc


def greedy_value_poly(state, params: RewardParams) -> MultilinearPoly:
    """The greedy policy's value at a state as a polynomial of degree <= 2p in
    the unknown satisfying assignment, in the closed form of the module
    docstring. Never reads the instance's satisfying assignment.
    """
    coef, signed, terms = _coefficient_table(
        params, state.n, state.round_dists, hamming(state.w_round, state.w),
        state.free.bit_count())
    return MultilinearPoly(coef, signed, state.free, state.w, terms)


# summaries do not depend on the formula, so a sweep over many trees of the
# same params reuses them; the bound holds the whole sweep's, since an LRU
# cycled over more keys than it holds never hits: the 16 tree_sweep trees
# have 1,076 distinct summaries and the 50 criterion-1 trees 1,834. An entry
# holds about 1 KB at p=2 (a tree_sweep pass, 1 MB), growing as (2p+1)^2
# (about 4.5 KB at p=6)
@lru_cache(maxsize=4096)
def _coefficient_table(params: RewardParams, n: int, round_dists: tuple,
                       flips: int, n_free: int) -> tuple:
    """The read-only coef and signed tables and the terms range of every
    state in round n after round_dists, with `flips` flips so far and n_free
    free variables."""
    p = params.p
    scalar = 1.0
    for i, d in enumerate(round_dists, start=1):
        scalar *= g(i, d, params)
    n_used = params.v - n_free
    a = _symmetric_coefficients(params, n, flips, n_free)
    b = _symmetric_coefficients(params, n + 1, 0, n_used)
    cells = [[scalar * aj * bk for bk in b] for aj in a]
    terms = sum(math.comb(n_free, j) * math.comb(n_used, k)
                for j, row in enumerate(cells) for k, c in enumerate(row)
                if c != 0.0)
    coef = np.zeros((2 * p + 1, 2 * p + 1))
    coef[:p + 1, :p + 1] = cells
    # 0.0 - c keeps the zero cells +0.0
    signed = np.concatenate((coef, 0.0 - coef), axis=None)
    coef.flags.writeable = signed.flags.writeable = False
    return coef, signed, range(terms)


@lru_cache(maxsize=None)
def _subset_masks(v: int, k: int) -> tuple:
    """The canonical subsets of size < k (and <= v) as a read-only uint64
    array of shape (ceil(v/64), d), word i holding variables 64i..64i+63,
    with the layout of a flat signed (2, k, k) table: the subsets' read-only
    sizes and the k - 1 and k^2 multipliers, all in the smallest unsigned
    type that holds 2k^2, the table's length.

    The size-s subsets with smallest element i are {i} joined to each
    (s-1)-subset above i, and those are the last C(v-1-i, s-1) of the size
    s-1 subsets, in order. So the size-s layer is built block by block for
    i = 0, 1, ...: one OR of variable i's bit onto that tail of the layer
    before, written in place. A table over MASK_TABLE_BYTES raises
    `ResourceLimitError` before anything is allocated."""
    counts = [math.comb(v, size) for size in range(min(k - 1, v) + 1)]
    words = -(-v // 64)
    nbytes = words * sum(counts) * 8
    if nbytes > MASK_TABLE_BYTES:
        raise ResourceLimitError(
            f"subset masks at v={v}, 2p+1={k}: {nbytes:,} bytes is over "
            f"MASK_TABLE_BYTES={MASK_TABLE_BYTES:,}")
    cell = np.min_scalar_type(2 * k * k).type
    sizes = np.repeat(np.arange(len(counts), dtype=cell), counts)
    masks = np.zeros((words, len(sizes)), dtype=np.uint64)
    # bits[:, i] is variable i's bit, in its word
    bits = np.zeros((words, v), dtype=np.uint64)
    var = np.arange(v)
    bits[var // 64, var] = np.uint64(1) << (var % 64).astype(np.uint64)
    end = 1  # the end of the layer before, the empty set's
    for size in range(1, len(counts)):
        block = end
        for i in range(v - size + 1):
            n = math.comb(v - 1 - i, size - 1)
            np.bitwise_or(masks[:, end - n:end], bits[:, i:i + 1],
                          out=masks[:, block:block + n])
            block += n
        end = block
    masks.flags.writeable = sizes.flags.writeable = False
    return masks, sizes, cell(k - 1), cell(k * k)


def _popcount(masks: np.ndarray, m: int) -> np.ndarray:
    """|S & m| for every subset S of `masks`, as uint8, one word at a time."""
    count = np.bitwise_count(masks[0] & np.uint64(m & _WORD))
    for word in masks[1:]:
        m >>= 64
        count += np.bitwise_count(word & np.uint64(m & _WORD))
    return count


def feature_dim(v: int, p: int) -> int:
    """sum_{i=0}^{2p} C(v, i); at most 2 v^(2p) for v >= 2."""
    return sum(math.comb(v, i) for i in range(min(2 * p, v) + 1))


# bytes of cell index held per (v, 2p+1): at least 10,000 indexes at d <= 99,
# 16 at v=15, p=6 (d=32,647, uint16) and 4 at v=48, p=2 (d=213,053)
INDEX_CACHE_BYTES = 1 << 20

# bytes of one subset mask table, ceil(v/64) * d * 8: 256 MiB admits d up
# to 33.5M at one word (v=48 up to p=3, 108 MiB), v=128 at p=2 (168 MiB) and
# v=768 at p=1 (27 MiB), and refuses v=130 at p=2 (268.4 MiB) and v=48 at
# p=8 (30 TiB). A feature vector holds d floats, as large as a one-word table
MASK_TABLE_BYTES = 1 << 28


# one entry per (v, 2p+1), as _subset_masks, whose masks each entry holds
@lru_cache(maxsize=None)
def _cell_index_cache(v: int, k: int):
    """The cell-index function of subsets of size < k of v variables, in an
    `lru_cache` holding at most INDEX_CACHE_BYTES of indexes."""
    masks, sizes, free_step, sign_step = _subset_masks(v, k)

    @lru_cache(maxsize=max(1, INDEX_CACHE_BYTES // sizes.nbytes))
    def cell_index(w: int, free: int) -> np.ndarray:
        """The read-only flat cell (|S&w| mod 2) k^2 + |S&free| (k - 1) + |S|
        of the signed table, which is (parity, |S&F|, |S&U|), for every
        subset S, built in the cell type: in place on the uint8 popcounts it
        would wrap past 255 from p = 6 on."""
        index = (_popcount(masks, w) & 1) * sign_step
        index += _popcount(masks, free) * free_step
        index += sizes
        index.flags.writeable = False
        return index

    return cell_index


def to_feature_vector(poly: MultilinearPoly, v: int) -> np.ndarray:
    """Dense coefficient vector under the canonical subset enumeration."""
    cell_index = _cell_index_cache(v, len(poly.coef))
    return poly.signed.take(cell_index(poly.w, poly.free))


def theta_vector(wstar, v: int, p: int) -> np.ndarray:
    """Monomial evaluations prod_{i in S} wstar_i, one per canonical subset."""
    if len(wstar) != v:
        raise ParameterError(f"assignment length {len(wstar)} != v={v}")
    neg_mask = ((1 << v) - 1) ^ mask_from_assignment(wstar)
    masks = _subset_masks(v, 2 * p + 1)[0]
    return 1.0 - 2.0 * (_popcount(masks, neg_mask) & 1)
