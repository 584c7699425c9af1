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
(zero for j > p or k > p), the free mask and w. Features follow the canonical
subset order (size ascending, lexicographic within a size), of dimension
d = sum_{i<=2p} C(v, i). Each subset is a row of ceil(v/64) uint64 words, so
two popcount passes, |S&F| and the parity of |S&T|, read every feature off
the table. `terms` is a range of length sum C(|F|, j) * C(|U|, k) over the
non-zero cells: the non-zero monomial count a traced benchmark run reports.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .cnf import hamming, mask_from_assignment
from .errors import ParameterError
from .reward import RewardParams, g


class MultilinearPoly(NamedTuple):
    """The greedy value polynomial in closed form: the coefficient of x_S is
    coef[|S&free|, |S&~free|], negated when |S&w| is odd."""

    coef: np.ndarray
    free: int
    w: int
    terms: range


@lru_cache(maxsize=4096)
def _symmetric_coefficients(params: RewardParams, i: int, offset: int,
                            n: int) -> tuple:
    """a_0..a_p with g(i, offset + (n + s)/2) = sum_j a_j e_j(z) for z in
    {-1,+1}^n and s = sum(z). Cached: the states of one game tree share few
    (i, offset, n), and 98% of a tree sweep's calls repeat one."""
    p = params.p
    c = -1.0 / params.scale(i)
    x0, x1 = c * (offset + n / 2.0), c / 2.0  # g's argument is x0 + x1 * s
    acc = [1.0] + [0.0] * p
    for k in range(p, 0, -1):
        pad = [0.0] + acc + [0.0]
        acc = [float(j == 0)
               + (x0 * acc[j] + x1 * (j * pad[j] + (n - j) * pad[j + 2])) / k
               for j in range(p + 1)]
    return tuple(acc)


def greedy_value_poly(state, params: RewardParams) -> MultilinearPoly:
    """The greedy policy's value at a state as a polynomial of degree <= 2p in
    the unknown satisfying assignment, in the closed form of the module
    docstring. Never reads the instance's satisfying assignment.
    """
    n, p = state.n, params.p
    scalar = 1.0
    for i, d in enumerate(state.round_dists, start=1):
        scalar *= g(i, d, params)
    n_free = state.free.bit_count()
    n_used = params.v - n_free
    a = _symmetric_coefficients(params, n, hamming(state.w_round, state.w),
                                n_free)
    b = _symmetric_coefficients(params, n + 1, 0, n_used)
    cells = [[scalar * aj * bk for bk in b] for aj in a]
    terms = sum(math.comb(n_free, j) * math.comb(n_used, k)
                for j, row in enumerate(cells) for k, c in enumerate(row)
                if c != 0.0)
    coef = np.zeros((2 * p + 1, 2 * p + 1))
    coef[:p + 1, :p + 1] = cells
    return MultilinearPoly(coef, state.free, state.w, range(terms))


@lru_cache(maxsize=None)
def _subset_masks(v: int, max_size: int) -> tuple:
    """The canonical subsets of size <= max_size as a read-only uint64 array
    of shape (ceil(v/64), d), word k holding variables 64k..64k+63, and their
    read-only uint8 sizes."""
    counts = [math.comb(v, size) for size in range(max_size + 1)]
    sizes = np.repeat(np.arange(max_size + 1, dtype=np.uint8), counts)
    masks = np.zeros((-(-v // 64), len(sizes)), dtype=np.uint64)
    start = 0
    for size, count in enumerate(counts):
        combos = np.fromiter(chain.from_iterable(combinations(range(v), size)),
                             dtype=np.intp, count=size * count)
        cols = np.arange(start, start + count)
        for var in combos.reshape(count, size).T:  # one variable of each subset
            masks[var // 64, cols] |= np.uint64(1) << (var % 64).astype(np.uint64)
        start += count
    masks.flags.writeable = sizes.flags.writeable = False
    return masks, sizes


def _popcounts(masks: np.ndarray, *ms: int) -> np.ndarray:
    """|S & m| for every mask m and every subset S of `masks`, summed over
    the words; shape (len(ms), d)."""
    words = np.array([[[(m >> (64 * k)) & 0xFFFF_FFFF_FFFF_FFFF]
                       for k in range(len(masks))] for m in ms], dtype=np.uint64)
    return np.bitwise_count(masks & words).sum(axis=1, dtype=np.uint8)


def feature_dim(v: int, p: int) -> int:
    """sum_{i=0}^{2p} C(v, i); at most 2 v^(2p) for v >= 2."""
    return sum(math.comb(v, i) for i in range(min(2 * p, v) + 1))


def to_feature_vector(poly: MultilinearPoly, v: int) -> np.ndarray:
    """Dense coefficient vector under the canonical subset enumeration."""
    k = len(poly.coef)  # 2p + 1
    masks, sizes = _subset_masks(v, min(k - 1, v))
    n_free, n_true = _popcounts(masks, poly.free, poly.w)
    # cell (parity, j, k) of the signed table, flat, in the smallest integer
    # type that holds it; 0.0 - c keeps the zero cells +0.0
    cell = np.min_scalar_type(2 * k * k).type
    signed = np.concatenate((poly.coef, 0.0 - poly.coef), axis=None)
    return signed.take((n_true & 1) * cell(k * k) + n_free * cell(k - 1) + sizes)


def theta_vector(wstar, v: int, p: int) -> np.ndarray:
    """Monomial evaluations prod_{i in S} wstar_i, one per canonical subset."""
    if len(wstar) != v:
        raise ParameterError(f"assignment length {len(wstar)} != v={v}")
    neg_mask = ((1 << v) - 1) ^ mask_from_assignment(wstar)
    masks, _sizes = _subset_masks(v, min(2 * p, v))
    return 1.0 - 2.0 * (_popcounts(masks, neg_mask)[0] & 1)
