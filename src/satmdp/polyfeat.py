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
scalar * a_{|S&F|} * b_{|S&U|} * prod_{i in S}(-w_i), of degree at most 2p.

Monomials are variable subsets stored as int bitmasks. `MultilinearPoly` only
holds the sparse coefficients: `to_feature_vector` lays them out densely in the
canonical subset order (size ascending, lexicographic within a size), of
dimension sum_{i<=2p} C(v, i), and their count is the polynomial size that a
traced benchmark run reports.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cnf import hamming, mask_from_assignment
from .errors import ParameterError
from .reward import RewardParams, g


class MultilinearPoly:
    """Coefficients {monomial bitmask: coefficient}, zeros omitted."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms


def _symmetric_coefficients(params: RewardParams, i: int, offset: int,
                            n: int) -> list:
    """a_0..a_p with g(i, offset + (n + s)/2) = sum_j a_j e_j(z) for z in
    {-1,+1}^n and s = sum(z)."""
    p = params.p
    c = -1.0 / params.scale(i)
    x0, x1 = c * (offset + n / 2.0), c / 2.0  # g's argument is x0 + x1 * s
    acc = [1.0] + [0.0] * p
    for k in range(p, 0, -1):
        pad = [0.0] + acc + [0.0]
        s_acc = [j * pad[j] + (n - j) * pad[j + 2] for j in range(p + 1)]
        acc = [float(j == 0) + (x0 * acc[j] + x1 * s_acc[j]) / k
               for j in range(p + 1)]
    return acc


def _signed_subsets(mask: int, w: int, p: int) -> list:
    """For each size j <= p, [(S, prod_{i in S} -w_i)] over the subsets S of
    `mask` of that size."""
    by_size = [[(0, 1.0)]] + [[] for _ in range(p)]
    rest = mask
    while rest:
        low = rest & -rest
        sign = -1.0 if w & low else 1.0
        for j in range(p, 0, -1):  # descending, so each subset takes low once
            by_size[j] += [(sub | low, sub_sign * sign)
                           for sub, sub_sign in by_size[j - 1]]
        rest ^= low
    return by_size


def greedy_value_poly(state, params: RewardParams) -> MultilinearPoly:
    """The greedy policy's value at a state as a polynomial of degree <= 2p in
    the unknown satisfying assignment, in the closed form of the module
    docstring. Never reads the instance's satisfying assignment.
    """
    n, p = state.n, params.p
    scalar = 1.0
    for i, d in enumerate(state.round_dists, start=1):
        scalar *= g(i, d, params)
    free = state.free
    used = ((1 << params.v) - 1) ^ free
    a = _symmetric_coefficients(params, n, hamming(state.w_round, state.w),
                                free.bit_count())
    b = _symmetric_coefficients(params, n + 1, 0, used.bit_count())
    used_by_size = _signed_subsets(used, state.w, p)
    terms = {}
    for j, free_subsets in enumerate(_signed_subsets(free, state.w, p)):
        for k, used_subsets in enumerate(used_by_size):
            c = scalar * a[j] * b[k]
            if c != 0.0:
                terms.update({sf | su: c * sign_f * sign_u
                              for sf, sign_f in free_subsets
                              for su, sign_u in used_subsets})
    return MultilinearPoly(terms)


@lru_cache(maxsize=None)
def _subset_masks(v: int, max_size: int) -> tuple:
    masks = []
    for size in range(max_size + 1):
        for combo in combinations(range(v), size):
            m = 0
            for i in combo:
                m |= 1 << i
            masks.append(m)
    return tuple(masks)


@lru_cache(maxsize=None)
def _subset_index(v: int, max_size: int) -> dict:
    return {m: k for k, m in enumerate(_subset_masks(v, max_size))}


def feature_dim(v: int, p: int) -> int:
    """sum_{i=0}^{2p} C(v, i); at most 2 v^(2p) for v >= 2."""
    return sum(math.comb(v, i) for i in range(min(2 * p, v) + 1))


def to_feature_vector(poly: MultilinearPoly, v: int, p: int) -> np.ndarray:
    """Dense coefficient vector under the canonical subset enumeration."""
    index = _subset_index(v, min(2 * p, v))
    vec = np.zeros(len(index))
    for m, c in poly.terms.items():
        k = index.get(m)
        if k is None:
            raise ParameterError(
                f"monomial of degree {m.bit_count()} does not fit dimension for p={p}")
        vec[k] = c
    return vec


def theta_vector(wstar, v: int, p: int) -> np.ndarray:
    """Monomial evaluations prod_{i in S} wstar_i, one per canonical subset."""
    if len(wstar) != v:
        raise ParameterError(f"assignment length {len(wstar)} != v={v}")
    neg_mask = ((1 << v) - 1) ^ mask_from_assignment(wstar)
    masks = _subset_masks(v, min(2 * p, v))
    out = np.empty(len(masks))
    for k, m in enumerate(masks):
        out[k] = -1.0 if (m & neg_mask).bit_count() & 1 else 1.0
    return out


def inner_product(features: np.ndarray, theta: np.ndarray) -> float:
    if features.shape != theta.shape:
        raise ParameterError(
            f"dimension mismatch: {features.shape} vs {theta.shape}")
    return float(np.dot(features, theta))

