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
(zero for j > p or k > p), the flat signed table, the free mask and w.
Features follow the canonical subset order (size ascending, lexicographic
within a size), of dimension d = sum_{i<=2p} C(v, i). With k = 2p + 1 and 2^b
the smallest power of two >= k^2, the signed table holds coef at [0, k^2) and
0.0 - coef at [2^b, 2^b + k^2); the feature of S is its cell
(|S&T| mod 2) 2^b + |S&F| k + |S&U|, a sum over S of
delta_i = [i in T] 2^b + [i in F] k + [i in U] masked to the low b + 1 bits
(|S&F| k + |S&U| < k^2 never carries into bit b), built in the smallest
unsigned type that holds the sums (uint8 up to p = 2, uint16 at p = 3..15).
`terms` is a range of length sum C(|F|, j) * C(|U|, k) over the non-zero
cells: the non-zero monomial count a traced benchmark run reports.

The sums are built layer by layer: the size-s subsets whose smallest element
is i are {i} joined to the last C(v-1-i, s-1) subsets of the size-(s-1)
layer, so each block is one in-place `add` of delta_i onto that tail, about
2p v calls (about 0.2 ms at v=48, p=2, d=213,053, on a 2-CPU box), listed
once per (v, 2p+1) by `_subset_layout`. theta is the same sums' parity at
delta_i = [w*_i = -1]. A dense vector over DENSE_VECTOR_BYTES (256 MiB) raises
`ResourceLimitError` before anything is built (`theta_vector(w, 48, 8)` would
take 30 TiB); `feature_dim` builds nothing and answers at any v.

The tables and `terms` depend on the state only through its round summary
(params, n, round_dists, hamming(w_round, w), |F|), which many states of a
game tree share, and which do not depend on the formula, so trees of the same
params share them too: `_coefficient_table` builds them once per summary, in
an `lru_cache` bounded at 4096 entries, which holds the distinct summaries of
a whole sweep of trees, and every state of that summary reads the same
read-only `coef` and signed table. The cell index depends on the state
only through (v, 2p+1, w, free): `_cell_index_cache(v, 2p+1)` is an
`lru_cache` keyed on (w, free) that builds each read-only index once, from its
subset sums, and holds at most INDEX_CACHE_BYTES (1 MiB) of them per
(v, 2p+1). It hits where states repeat a (w, free) pair, as in whole small
trees (the 16 tree_sweep trees hold 15,015 non-terminal states but 1,639
distinct pairs, counted tree by tree), and never on single states at large v
(at v=48 it holds 4 indexes of 213,053 cells). A state pays for the lookup of
its index and one `take`, which returns a fresh vector.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cnf import TRUE
from .errors import ParameterError, ResourceLimitError
from .reward import RewardParams, g


class MultilinearPoly(NamedTuple):
    """The greedy value polynomial in closed form: the coefficient of x_S is
    coef[|S&free|, |S&~free|], negated when |S&w| is odd. `signed` is the
    flat read-only table of both signs (see the module docstring)."""

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
        params, state.n, state.round_dists, (state.w_round ^ state.w).bit_count(),
        state.free.bit_count())
    return tuple.__new__(MultilinearPoly, (coef, signed, state.free, state.w, terms))


# summaries do not depend on the formula, so a sweep over many trees of the
# same params reuses them; the bound holds the whole sweep's, since an LRU
# cycled over more keys than it holds never hits: the 16 tree_sweep trees
# have 1,076 distinct summaries and the 50 criterion-1 trees 1,834. An entry
# holds about 1 KB at p=2 (a tree_sweep pass, 1 MB), growing as (2p+1)^2
# (about 6 KB at p=6)
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
    coef.flags.writeable = False
    return coef, _signed_table(coef), range(terms)


def _cell_layout(k: int) -> tuple:
    """2^b, the smallest power of two >= k^2, and the cell type, the smallest
    unsigned type that holds (k - 1)(2^b + k), the largest unmasked sum."""
    sign = 1 << (k * k - 1).bit_length()
    return sign, np.min_scalar_type((k - 1) * (sign + k)).type


def _signed_table(coef: np.ndarray) -> np.ndarray:
    """The flat read-only signed table of a (k, k) coef, 2^(b+1) cells:
    coef at [0, k^2), 0.0 - coef (zero cells stay +0.0) at [2^b, 2^b + k^2)."""
    sign = _cell_layout(len(coef))[0]
    signed = np.zeros(2 * sign)
    signed[:coef.size] = coef.flat
    signed[sign:sign + coef.size] = 0.0 - coef.ravel()
    signed.flags.writeable = False
    return signed


def feature_dim(v: int, p: int) -> int:
    """sum_{i=0}^{2p} C(v, i); at most 2 v^(2p) for v >= 2."""
    return sum(math.comb(v, i) for i in range(min(2 * p, v) + 1))


# bytes of one dense feature or theta vector, d * 8: admits v=48 up to p=3
# (108 MiB), v=130 at p=2 (93.8 MB) and refuses v=48 at p=8 (30 TiB)
DENSE_VECTOR_BYTES = 1 << 28


# one entry per (v, 2p+1), each about 2p v blocks
@lru_cache(maxsize=None)
def _subset_layout(v: int, k: int) -> tuple:
    """(d, blocks) of the canonical subsets of size < k (and <= v): block
    (i, src, dst) puts at dst the size-s subsets with smallest element i,
    {i} joined to the tail src, the last C(v-1-i, s-1) of the size-(s-1)
    layer. A dense vector over DENSE_VECTOR_BYTES raises before any block."""
    counts = [math.comb(v, size) for size in range(min(k - 1, v) + 1)]
    d = sum(counts)
    if d * 8 > DENSE_VECTOR_BYTES:
        raise ResourceLimitError(
            f"dense vector at v={v}, 2p+1={k}: {d * 8:,} bytes is over "
            f"DENSE_VECTOR_BYTES={DENSE_VECTOR_BYTES:,}")
    blocks = []
    end = 1  # the end of the layer before, the empty set's
    for size in range(1, len(counts)):
        block = end
        for i in range(v - size + 1):
            n = math.comb(v - 1 - i, size - 1)
            blocks.append((i, slice(end - n, end), slice(block, block + n)))
            block += n
        end = block
    return d, tuple(blocks)


def _subset_sums(delta: np.ndarray, k: int) -> np.ndarray:
    """delta's sum over each canonical subset of size < k, in its dtype."""
    d, blocks = _subset_layout(len(delta), k)
    sums = np.zeros(d, delta.dtype)
    for i, src, dst in blocks:
        np.add(sums[src], delta[i], out=sums[dst])
    return sums


# bytes of cell index held per (v, 2p+1): at least 10,000 indexes at d <= 99,
# 16 at v=15, p=6 (d=32,647, uint16) and 4 at v=48, p=2 (d=213,053)
INDEX_CACHE_BYTES = 1 << 20


# one entry per (v, 2p+1), as _subset_layout
@lru_cache(maxsize=None)
def _cell_index_cache(v: int, k: int):
    """The cell-index function of subsets of size < k of v variables, in an
    `lru_cache` holding at most INDEX_CACHE_BYTES of indexes."""
    sign, cell = _cell_layout(k)
    nbytes = _subset_layout(v, k)[0] * np.dtype(cell).itemsize

    @lru_cache(maxsize=max(1, INDEX_CACHE_BYTES // nbytes))
    def cell_index(w: int, free: int) -> np.ndarray:
        """The read-only cell (|S&w| mod 2) 2^b + |S&free| k + |S&~free| of
        every subset S: its sum of delta_i, masked to the low b + 1 bits."""
        t, f = (np.unpackbits(np.frombuffer(m.to_bytes(v // 8 + 1, "little"),
                                            "u1"), count=v, bitorder="little")
                for m in (w, free))
        delta = t * cell(sign) + f * cell(k - 1) + cell(1)
        index = _subset_sums(delta, k)
        index &= cell(2 * sign - 1)
        index.flags.writeable = False
        return index

    return cell_index


def to_feature_vector(poly: MultilinearPoly, v: int) -> np.ndarray:
    """Dense coefficient vector under the canonical subset enumeration."""
    cell_index = _cell_index_cache(v, len(poly.coef))
    return poly.signed.take(cell_index(poly.w, poly.free))


def theta_vector(wstar, v: int, p: int) -> np.ndarray:
    """Monomial evaluations prod_{i in S} wstar_i, one per canonical subset:
    the parity of its sum of [wstar_i != TRUE], which uint8's wrap keeps."""
    if len(wstar) != v:
        raise ParameterError(f"assignment length {len(wstar)} != v={v}")
    neg = np.not_equal(wstar, TRUE).view(np.uint8)
    return 1.0 - 2.0 * (_subset_sums(neg, 2 * p + 1) & 1)
