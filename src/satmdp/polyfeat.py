"""Sparse multilinear polynomials over {-1,+1}-valued unknowns, and the feature
/ coefficient-vector machinery that writes the greedy policy's value as an
inner product with the monomial vector of the planted satisfying assignment.

Monomials are variable subsets stored as int bitmasks; since the unknowns take
values in {-1,+1}, squares collapse and products combine by symmetric
difference, so only squarefree monomials ever appear. The coefficient vector of
a state's value polynomial has dimension sum_{i<=2p} C(v, i) under the
canonical subset order (size ascending, lexicographic within a size).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cnf import TRUE, hamming
from .errors import ParameterError
from .reward import RewardParams, g


class MultilinearPoly:
    """Immutable-by-convention map from monomial bitmask to coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0.0}

    @classmethod
    def constant(cls, c: float) -> "MultilinearPoly":
        return cls({0: float(c)})

    @classmethod
    def variable(cls, i: int) -> "MultilinearPoly":
        return cls({1 << i: 1.0})

    def degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def coefficient(self, variables) -> float:
        mask = 0
        for i in variables:
            mask |= 1 << i
        return self.terms.get(mask, 0.0)

    def evaluate(self, assignment) -> float:
        """Value at a {-1,+1} point (tuple indexed by variable)."""
        neg_mask = 0
        for i, val in enumerate(assignment):
            if val != TRUE:
                neg_mask |= 1 << i
        total = 0.0
        for m, c in self.terms.items():
            total += -c if (m & neg_mask).bit_count() & 1 else c
        return total

    def subsets(self) -> dict:
        """Monomials keyed by sorted variable tuples, for display/serialization."""
        out = {}
        for m, c in self.terms.items():
            out[_mask_to_tuple(m)] = c
        return out

    def __eq__(self, other):
        return isinstance(other, MultilinearPoly) and self.terms == other.terms

    def __repr__(self):
        return f"MultilinearPoly({self.subsets()!r})"


def _mask_to_tuple(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def poly_add(a: MultilinearPoly, b: MultilinearPoly) -> MultilinearPoly:
    terms = dict(a.terms)
    for m, c in b.terms.items():
        terms[m] = terms.get(m, 0.0) + c
    return MultilinearPoly(terms)


def poly_scale(a: MultilinearPoly, c: float) -> MultilinearPoly:
    if c == 0.0:
        return MultilinearPoly()
    return MultilinearPoly({m: coef * c for m, coef in a.terms.items()})


def poly_mul(a: MultilinearPoly, b: MultilinearPoly,
             degree_cap: int) -> MultilinearPoly:
    """Product with x_i^2 -> 1, i.e. monomials combine by symmetric difference.

    Any product monomial above the cap raises: in this package every product is
    degree-bounded by construction, so an overflow indicates misuse.
    """
    terms: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = ma ^ mb
            if m.bit_count() > degree_cap:
                raise ParameterError(
                    f"product monomial degree {m.bit_count()} exceeds cap {degree_cap}")
            terms[m] = terms.get(m, 0.0) + ca * cb
    return MultilinearPoly(terms)


def _selection_mask(selection, v: int) -> int:
    mask = 0
    for i in selection:
        if not 0 <= i < v:
            raise ParameterError(f"variable {i} outside [0, {v})")
        mask |= 1 << i
    return mask


def _dist_poly_from_masks(w_mask: int, sel_mask: int) -> MultilinearPoly:
    # (|sel| - sum_{i in sel} w_i x_i) / 2, with x_i standing for the unknown
    # assignment's i-th coordinate.
    terms = {0: sel_mask.bit_count() / 2.0}
    m = sel_mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        w_i = 1.0 if (w_mask >> i) & 1 else -1.0
        terms[low] = -w_i / 2.0
        m ^= low
    return MultilinearPoly(terms)


def dist_free_poly(w, selection) -> MultilinearPoly:
    """Hamming distance to the unknown assignment restricted to the selected
    (free) variables, as a linear polynomial in the unknown's coordinates."""
    from .cnf import mask_from_assignment
    return _dist_poly_from_masks(mask_from_assignment(w),
                                 _selection_mask(selection, len(w)))


def dist_used_poly(w, selection) -> MultilinearPoly:
    """Same distance polynomial over the complement of the selection."""
    from .cnf import mask_from_assignment
    v = len(w)
    complement = ((1 << v) - 1) ^ _selection_mask(selection, v)
    return _dist_poly_from_masks(mask_from_assignment(w), complement)


def _g_composed_with_linear(params: RewardParams, i: int, offset: int,
                            lin: MultilinearPoly, cap: int) -> MultilinearPoly:
    """Round-i factor evaluated at (offset + lin), expanded as a multilinear
    polynomial: sum_j u_j (offset + t)^j regrouped into powers of the linear form."""
    s = 1.0 / params.scale(i)
    p = params.p
    u = [(-s) ** j / math.factorial(j) for j in range(p + 1)]
    beta = [
        sum(u[j] * math.comb(j, k) * float(offset) ** (j - k)
            for j in range(k, p + 1))
        for k in range(p + 1)
    ]
    result = MultilinearPoly.constant(beta[0])
    power = MultilinearPoly.constant(1.0)
    for k in range(1, p + 1):
        power = poly_mul(power, lin, cap)
        result = poly_add(result, poly_scale(power, beta[k]))
    return result


def greedy_value_poly(state, params: RewardParams) -> MultilinearPoly:
    """The greedy policy's value at a state as a polynomial of degree <= 2p in
    the unknown satisfying assignment.

    Past rounds contribute a scalar; the current-round factor is composed with
    (flips so far + free-disagreement form) and the next-round factor with the
    used-disagreement form. Never reads the instance's satisfying assignment.
    """
    n = state.n
    scalar = 1.0
    for i, d in enumerate(state.round_dists, start=1):
        scalar *= g(i, d, params)
    offset = hamming(state.w_round, state.w)
    all_mask = (1 << params.v) - 1
    free_mask = state.free
    cap = 2 * params.p
    current = _g_composed_with_linear(
        params, n, offset, _dist_poly_from_masks(state.w, free_mask), cap)
    nxt = _g_composed_with_linear(
        params, n + 1, 0, _dist_poly_from_masks(state.w, all_mask ^ free_mask), cap)
    return poly_scale(poly_mul(current, nxt, cap), scalar)


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
    neg_mask = 0
    for i, val in enumerate(wstar):
        if val != TRUE:
            neg_mask |= 1 << i
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

