"""Converse: upper-bound the covert rate by a minimum KL over maximal couplings.

A coupling assigns each true output y a conditional law v[x, y] over surrogate
outputs yhat, but mass may flow from y to yhat only if input x attains the
maximum of q(x', yhat) / q(x', y) over x'.  Subject to that support rule the
Y-marginal stays pinned to the channel, and the bound is

    t * min over couplings of D(m1 || m0),    m_x = sum_y W(y|x) v[x, y].

The diagonal coupling (yhat = y) is always admissible, so the minimum never
exceeds D(P1 || P0).  The minimum is found by Frank-Wolfe over the product of
per-(x, y) simplices, run on a smoothed objective D(m1 || (1-eps) m0 + eps u)
for a decreasing eps schedule with warm starts; a composition-lattice search
provides an independent certification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    TIE_TOL,
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ProbVector,
    ResourceLimitError,
    kl_divergence,
    require_valid,
    weight_parameter,
)

_TINY = 1e-300        # clamp inside logs; never influences a finite optimum
_NEG_CLAMP = -1e18    # stands in for log(0) in the grid oracle, excludes the point
_ORACLE_BLOCK = 1 << 18  # entries of one cross-term block in the grid oracle
_MAX_PAIRS = 1 << 30  # most (m1, m0) raw lattice pairs the grid oracle scores
_EPS_SCHEDULE = (1e-3, 1e-5, 1e-7)  # smoothing weights of the converse's warm-started stages


@dataclass(frozen=True)
class MaximalSetTable:
    """For every (y, yhat), which inputs x attain max_x q(x, yhat) / q(x, y).

    ``allowed[x, y, yhat]`` is True when x is an argmax (ties within TIE_TOL in
    the log domain count for both).  The diagonal yhat = y is always allowed
    for both inputs since both ratios are 1.
    """

    allowed: np.ndarray

    def allowed_targets(self, x: int, y: int) -> np.ndarray:
        """Indices yhat that may receive mass from y under input x."""
        return np.flatnonzero(self.allowed[x, y])


def maximal_sets(q: DecodingMetric) -> MaximalSetTable:
    """Compute the argmax table S_q in the log domain with TIE_TOL ties."""
    lq = np.log(q.q)                      # (2, Y)
    d = lq[:, None, :] - lq[:, :, None]   # d[x, y, yhat] = log q(x,yhat) - log q(x,y)
    dmax = d.max(axis=0)
    allowed = d >= dmax[None, :, :] - TIE_TOL
    allowed.setflags(write=False)
    return MaximalSetTable(allowed=allowed)


@dataclass(frozen=True)
class JointConditional:
    """A maximal coupling: per-(x, y) conditional laws over allowed targets.

    ``v[x, y, :]`` must be a distribution, with exactly zero mass outside the
    table's allowed set.  The Y-marginal of the implied joint is W by
    construction, so it is never stored.
    """

    wy: Bdmc
    table: MaximalSetTable
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        ny = self.wy.num_outputs
        if v.shape != (2, ny, ny):
            raise DimensionError(f"coupling must have shape (2, {ny}, {ny}), got {v.shape}")
        if np.any(v < 0.0) or np.any(np.abs(v.sum(axis=2) - 1.0) > 1e-12):
            raise DomainError("coupling rows must be probability distributions")
        if np.any(v[~self.table.allowed] != 0.0):
            raise DomainError("coupling places mass outside the allowed maximal sets")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate-output laws (m0, m1), one per channel input."""
        m = np.einsum("xy,xyz->xz", self.wy.w, self.v)
        return m[0], m[1]


def verify_maximal(jc: JointConditional, table: MaximalSetTable, wy: Bdmc) -> bool:
    """Check a coupling against an externally supplied argmax table and channel.

    True iff the implied joint W(y|x) * v[x, y](yhat) is zero outside
    ``table``'s allowed set and its Y-marginal equals ``wy`` within 1e-10.
    The table argument matters: a coupling built against a permissive table
    can place mass a stricter metric forbids.
    """
    v = jc.v
    if v.shape != (2, wy.num_outputs, wy.num_outputs):
        return False
    joint = jc.wy.w[:, :, None] * v
    if np.any(joint[~table.allowed] != 0.0):
        return False
    y_marginal = jc.wy.w * v.sum(axis=2)
    return bool(np.all(np.abs(y_marginal - wy.w) <= 1e-10))


def diagonal_coupling(wy: Bdmc, table: MaximalSetTable) -> JointConditional:
    """The identity coupling yhat = y; always feasible."""
    ny = wy.num_outputs
    v = np.zeros((2, ny, ny))
    v[:, np.arange(ny), np.arange(ny)] = 1.0
    return JointConditional(wy=wy, table=table, v=v)


def objective_kl(jc: JointConditional) -> float:
    """D(m1 || m0) between the coupling's surrogate marginals; +inf if undominated."""
    m0, m1 = jc.marginals()
    mask = m1 > 0.0
    if np.any(m0[mask] <= 0.0):
        return float("inf")
    return float(np.sum(m1[mask] * (np.log(m1[mask]) - np.log(m0[mask]))))


def _lmo_targets(grad: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    # the linear oracle: per (x, y) all mass on the allowed yhat with the
    # smallest gradient coordinate, smallest index on exact ties
    return np.argmin(np.where(allowed, grad, np.inf), axis=2)


@dataclass(frozen=True)
class UpperBoundResult:
    """Converse bound t * kl_value with the coupling that achieves it.

    ``converged`` is False when some eps stage stopped on ``max_iters`` or on
    a zero line-search step with the duality gap still at or above ``tol``;
    ``fw_gap`` is the gap where the last stage stopped.
    """

    value: float
    kl_value: float
    minimizer: JointConditional
    fw_gap: float
    t_delta: float
    converged: bool


def _line_search(m1, d1, m0t, d0, eps: float, gmax: float = 1.0) -> float:
    """Exact minimization over gamma in [0, gmax] along a FW segment.

    The objective restricted to the segment is convex; 30 bisection steps on
    its derivative locate the minimum to ~1e-9 of the interval.  They run as
    six rounds of five levels: a round sets the 31 midpoints of its subtree,
    each 0.5 * (lo + hi) of its enclosing interval, evaluates the derivative
    at all of them in one call and walks down, so the result is the one
    step-by-step bisection returns, bit for bit.
    """

    def dphi(g: np.ndarray) -> np.ndarray:
        g = g[:, None]
        a1 = m1 + g * d1
        a0 = m0t + g * (1.0 - eps) * d0
        term1 = d1 * (np.log(np.maximum(a1, _TINY)) - np.log(a0) + 1.0)
        term2 = (1.0 - eps) * (a1 / a0) * d0
        return term1.sum(axis=1) - term2.sum(axis=1)

    at_ends = dphi(np.array([0.0, gmax]))
    if at_ends[0] >= 0.0:
        return 0.0
    if at_ends[1] <= 0.0:
        return gmax
    halves = (16, 8, 4, 2, 1)
    grid = np.empty(33)
    lo, hi = 0.0, gmax
    for _ in range(6):
        grid[0], grid[32] = lo, hi
        for half in halves:
            grid[half :: 2 * half] = 0.5 * (grid[: -1 : 2 * half] + grid[2 * half :: 2 * half])
        below = dphi(grid[1:-1]) < 0.0
        k = 0
        for half in halves:
            if below[k + half - 1]:
                k += half
        lo, hi = float(grid[k]), float(grid[k + 1])
    return 0.5 * (lo + hi)


def upper_bound(inst: CovertInstance, tol: float = 1e-8, max_iters: int = 20000) -> UpperBoundResult:
    """Minimize D(m1 || m0) over maximal couplings; returns t * minimum.

    Pairwise Frank-Wolfe with exact line search on the smoothed objective
    D(m1 || (1-eps) m0 + eps uniform), run once per eps in _EPS_SCHEDULE
    (warm-started), each stage stopping at duality gap < ``tol`` or
    ``max_iters``.  Each step moves mass from the worst vertex of the current
    convex decomposition onto the linear-oracle vertex, which avoids the
    zig-zag stall of plain conditional gradients when the optimum sits on a
    face.  The decomposition is kept as arrays: row i of ``active`` holds
    the flat indices into the gradient of one one-hot vertex, in the order
    the vertices entered, and ``wts[i]`` its weight; the away vertex is the
    first row with the largest gradient sum.  The reported kl_value is the
    raw (unsmoothed) objective at the final iterate, or at the diagonal
    coupling if that is better; the diagonal guarantee caps kl_value at
    D(P1 || P0).  ``converged`` says whether every stage reached ``tol``.
    """
    require_valid(inst)
    wp = weight_parameter(inst.delta, inst.q0, inst.q1)
    table = maximal_sets(inst.q)
    w = inst.wy.w
    ny = inst.wy.num_outputs
    allowed = table.allowed
    uniform = 1.0 / ny
    cell_base = np.arange(2 * ny) * ny  # flat index of v[x, y, 0], cells in (x, y) order

    # current point and its convex decomposition over one-hot vertices
    diag_row = cell_base + np.tile(np.arange(ny), 2)
    v = np.zeros(2 * ny * ny)
    v[diag_row] = 1.0
    v = v.reshape(2, ny, ny)
    active = diag_row[None, :]
    wts = np.ones(1)

    gap = math.inf
    converged = True
    for eps in _EPS_SCHEDULE:
        for _ in range(max_iters):
            m = np.einsum("xy,xyz->xz", w, v)
            m0, m1 = m[0], m[1]
            m0t = (1.0 - eps) * m0 + eps * uniform
            logterm = np.log(np.maximum(m1, _TINY)) - np.log(m0t)
            g1 = w[1][:, None] * (logterm + 1.0)[None, :]
            g0 = -(1.0 - eps) * w[0][:, None] * (m1 / m0t)[None, :]
            grad = np.stack([g0, g1])
            to_row = cell_base + _lmo_targets(grad, allowed).ravel()
            gap = float(np.sum(grad * v) - grad.ravel()[to_row].sum())
            if gap < tol:
                break
            # away vertex: the active one the gradient most wants to leave
            away = int(np.argmax(grad.ravel()[active].sum(axis=1)))
            gmax = float(wts[away])
            direction = np.zeros(2 * ny * ny)
            direction[to_row] = 1.0
            direction[active[away]] -= 1.0
            direction = direction.reshape(2, ny, ny)
            dm = np.einsum("xy,xyz->xz", w, direction)
            gamma = _line_search(m1, dm[1], m0t, dm[0], eps, gmax)
            if gamma <= 0.0:
                converged = False
                break
            v = v + gamma * direction
            hit = np.flatnonzero((active == to_row).all(axis=1))
            if hit.size:
                wts[hit[0]] += gamma
            else:
                active = np.vstack([active, to_row])
                wts = np.append(wts, gamma)
            left = gmax - gamma
            if left <= 1e-15:
                active = np.delete(active, away, axis=0)
                wts = np.delete(wts, away)
                np.maximum(v, 0.0, out=v)  # scrub the dropped vertex's float dust
            else:
                wts[away] = left
        else:
            converged = False

    # exact renormalization before wrapping; off-allowed entries are exact zeros
    v = v / v.sum(axis=2, keepdims=True)
    iterate = JointConditional(wy=inst.wy, table=table, v=v)
    kl_iter = objective_kl(iterate)

    diag = diagonal_coupling(inst.wy, table)
    kl_diag = objective_kl(diag)  # = D(P1 || P0), always finite under A3
    if kl_iter <= kl_diag:
        best, kl_best = iterate, kl_iter
    else:
        best, kl_best = diag, kl_diag

    return UpperBoundResult(
        value=wp.t * kl_best,
        kl_value=kl_best,
        minimizer=best,
        fw_gap=gap,
        t_delta=wp.t,
        converged=converged,
    )


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def _lattice_marginals(w_row: np.ndarray, allowed_x: np.ndarray, grid_g: int) -> np.ndarray:
    """The distinct marginals m_x reachable when every v[x, y] lies on the 1/grid_g lattice.

    Only bit-distinct rows are kept after each cell; rows equal after one cell
    stay equal after every later one, so this is full enumeration's row set.
    """
    ny = w_row.size
    m = np.zeros((1, ny))
    for y in np.flatnonzero(w_row):  # a cell with zero weight cannot move any mass
        targets = np.flatnonzero(allowed_x[y])
        comps = np.array(_compositions(grid_g, targets.size), dtype=float) / grid_g
        cell = np.zeros((comps.shape[0], ny))
        cell[:, targets] = w_row[y] * comps
        m = np.unique((m[:, None, :] + cell[None, :, :]).reshape(-1, ny), axis=0)
    return m


def upper_bound_grid_oracle(
    inst: CovertInstance, grid_g: int, max_points: int = 5_000_000
) -> float:
    """Certification oracle: exact minimum of D(m1 || m0) over the composition lattice.

    Every conditional row is restricted to coordinates that are multiples of
    1/grid_g; the true minimum is at most the returned value.  Enumeration is
    factored through the two families of distinct marginals, so the cost is
    (#distinct m1) x (#distinct m0) inner products, taken in blocks with a row
    max.  Raises ResourceLimitError, before enumerating, when either input's
    raw lattice (duplicates included) would exceed ``max_points`` points, or
    the two raw lattices together would make more than _MAX_PAIRS pairs.
    """
    if grid_g < 1:
        raise DomainError(f"grid_g must be a positive integer, got {grid_g!r}")
    require_valid(inst)
    table = maximal_sets(inst.q)
    w = inst.wy.w
    cell_targets = [table.allowed[x][w[x] != 0.0].sum(axis=1).tolist() for x in range(2)]
    raw = [math.prod(math.comb(grid_g + k - 1, k - 1) for k in ks) for ks in cell_targets]
    if max(raw) > max_points:
        raise ResourceLimitError(
            f"grid oracle lattice exceeds {max_points} points per input; "
            f"lower grid_g or raise max_points"
        )
    if raw[0] * raw[1] > _MAX_PAIRS:
        raise ResourceLimitError(
            f"grid oracle lattice pairs {raw[0]} x {raw[1]} exceed {_MAX_PAIRS}; lower grid_g"
        )
    m0s = _lattice_marginals(w[0], table.allowed[0], grid_g)
    m1s = _lattice_marginals(w[1], table.allowed[1], grid_g)

    log_m0 = np.where(m0s > 0.0, np.log(np.maximum(m0s, _TINY)), _NEG_CLAMP)
    self_term = np.sum(np.where(m1s > 0.0, m1s * np.log(np.maximum(m1s, _TINY)), 0.0), axis=1)

    best = math.inf
    chunk = max(1, _ORACLE_BLOCK // m0s.shape[0])
    for start in range(0, m1s.shape[0], chunk):
        cross = m1s[start : start + chunk] @ log_m0.T  # exact zeros kill clamped entries
        # fl(s - c) falls as c grows, so a row's least s - c is s minus its largest c
        best = min(best, float(np.min(self_term[start : start + chunk] - cross.max(axis=1))))
    return max(best, 0.0)
