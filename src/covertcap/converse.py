"""Converse: upper-bound the covert rate by a minimum KL over maximal couplings.

A coupling assigns each true output y a conditional law v[x, y] over surrogate
outputs yhat, but mass may flow from y to yhat only if input x attains the
maximum of q(x', yhat) / q(x', y) over x'.  Subject to that support rule the
Y-marginal stays pinned to the channel, and the bound is

    t * min over couplings of D(m1 || m0),    m_x = sum_y W(y|x) v[x, y].

The diagonal coupling (yhat = y) is always admissible, so the minimum never
exceeds D(P1 || P0).  The minimum is found by Frank-Wolfe over the product of
per-(x, y) simplices, run on a smoothed objective D(m1 || (1-eps) m0 + eps u)
for a decreasing eps schedule with warm starts, each line search by the lower
bound's safeguarded Newton; a composition-lattice search provides an
independent certification oracle.

The minimum depends on the metric q only through its argmax table S_q
(``maximal_sets(q)``), so ``upper_bound`` keeps its last solve, keyed
by the channel, the table and the stopping rule.  One entry is enough: every
entry of S_q is a step function of any one metric entry, so along a sweep
equal tables come in consecutive runs.  A larger memo would also carry solves
between unrelated calls in one process, which separate processes never share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TIE_TOL,
    Bdmc,
    CovertInstance,
    DecodingMetric,
    DimensionError,
    DomainError,
    ResourceLimitError,
    _kl,
    _type_blocks,
    _valid_weight,
    require_valid,
)
from .lower_bound import _newton_max

_TINY = 1e-300        # clamp inside logs; never influences a finite optimum
_NEG_CLAMP = -1e18    # stands in for log(0) in the grid oracle, excludes the point
_ORACLE_BLOCK = 1 << 18  # entries of one cross-term block in the grid oracle
_MAX_POINTS = 5_000_000  # most raw lattice points per input the grid oracle enumerates
_MAX_PAIRS = 1 << 30  # most (m1, m0) raw lattice pairs the grid oracle scores
_MAX_ITERS = 20000  # Frank-Wolfe steps per eps stage of the converse
_EPS_SCHEDULE = (1e-3, 1e-5, 1e-7)  # smoothing weights of the converse's warm-started stages
_GAMMA_TOL = 2.0**-44  # line-search Newton stops on a step of at most this share of gmax


def maximal_sets(q: DecodingMetric) -> np.ndarray:
    """The argmax table S_q: for every (y, yhat), which inputs x attain max_x q(x, yhat) / q(x, y).

    Entry [x, y, yhat] of the read-only (2, Y, Y) bool array is True when x is
    an argmax, computed in the log domain (ties within TIE_TOL count for both).
    The diagonal yhat = y is always allowed for both inputs since both ratios are 1.
    """
    lq = np.log(q.q)                      # (2, Y)
    d = lq[:, None, :] - lq[:, :, None]   # d[x, y, yhat] = log q(x,yhat) - log q(x,y)
    dmax = d.max(axis=0)
    allowed = d >= dmax[None, :, :] - TIE_TOL
    allowed.setflags(write=False)
    return allowed


@dataclass(frozen=True)
class JointConditional:
    """A maximal coupling: per-(x, y) conditional laws over allowed targets.

    ``v[x, y, :]`` must be a distribution, with exactly zero mass outside the
    argmax table ``table`` (a ``maximal_sets`` array).  The Y-marginal of the
    implied joint is W by construction, so it is never stored.
    """

    wy: Bdmc
    table: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        ny = self.wy.num_outputs
        if v.shape != (2, ny, ny):
            raise DimensionError(f"coupling must have shape (2, {ny}, {ny}), got {v.shape}")
        if np.any(v < 0.0) or np.any(np.abs(v.sum(axis=2) - 1.0) > 1e-12):
            raise DomainError("coupling rows must be probability distributions")
        if np.any(v[~self.table] != 0.0):
            raise DomainError("coupling places mass outside the allowed maximal sets")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


def _marginal_kl(w: np.ndarray, v: np.ndarray) -> float:
    # D(m1 || m0) between the surrogate marginals m_x = sum_y w[x, y] v[x, y]; +inf if undominated
    m0, m1 = np.einsum("xy,xyz->xz", w, v)
    return _kl(m1, m0)


def _lmo_targets(grad: np.ndarray, allowed: np.ndarray, masked: np.ndarray) -> np.ndarray:
    # the linear oracle: per (x, y) all mass on the allowed yhat with the smallest gradient
    # coordinate, smallest index on exact ties; ``masked`` is a buffer kept inf off ``allowed``
    np.copyto(masked, grad, where=allowed)
    return masked.argmin(axis=2)


@dataclass(frozen=True)
class UpperBoundResult:
    """Converse bound t * kl_value with the coupling that achieves it.

    ``converged`` is False when some eps stage stopped on _MAX_ITERS or on
    a zero line-search step with the duality gap still at or above ``tol``;
    ``fw_gap`` is the gap where the last stage stopped.
    """

    kl_value: float
    minimizer: JointConditional
    fw_gap: float
    t_delta: float
    converged: bool

    @property
    def value(self) -> float:
        return self.t_delta * self.kl_value


def _line_search(m1, d1, m0t, d0, eps: float, gmax: float, slope0: float) -> float:
    """Exact minimization over gamma in [0, gmax] along a FW segment.

    phi(gamma) = D(a1 || a0), a1 = m1 + gamma d1, a0 = m0t + gamma (1-eps) d0,
    is convex, and ``slope0`` is phi'(0), the caller's <grad, direction>.  The
    result is 0 if slope0 >= 0, gmax if phi'(gmax) <= 0, and otherwise the root
    of phi' by safeguarded Newton (``_newton_max`` on -phi) to _GAMMA_TOL * gmax.
    Outputs the step leaves fixed add nothing to either of

        phi'  = sum d1 (log a1 - log a0 + 1) - (1-eps) sum (a1/a0) d0,
        phi'' = sum (d1 - (1-eps) (a1/a0) d0)^2 / a1,

    so one pass over the outputs the step moves ((1-eps) d0 is 0 only where d0
    is) gives both, in scalar Python: ``np.log`` and ``np.sum`` round otherwise.
    Each moved output adds the same floats, in the same order, as the full
    formula would, by one of three forms.  Where d1 is 0, a1 is the clamped m1
    at every gamma and d1 (log rho + 1) is exactly 0.0, so no log is taken;
    where d0 is 0, a0 is m0t, so rho is a1 / m0t.
    """
    if slope0 >= 0.0:
        return 0.0
    terms = [
        (p1 if e1 or p1 >= _TINY else _TINY, e1, p0, e0)
        for p1, e1, p0, e0 in zip(m1.tolist(), d1.tolist(), m0t.tolist(), ((1.0 - eps) * d0).tolist())
        if e1 or e0
    ]
    log = math.log

    def falling(g: float) -> tuple[float, float]:
        # (-phi'(g), -phi''(g)): the slope and curvature of the concave -phi
        slope = curv = 0.0
        for p1, e1, p0, e0 in terms:
            if not e1:  # e1 (log rho + 1) is exactly 0.0, and u = -rho e0
                t = p1 / (p0 + g * e0) * e0
                slope += t
                curv -= t * t / p1
                continue
            a1 = p1 + g * e1
            a1 = _TINY if _TINY > a1 else a1  # max(a1, _TINY) without the call
            if e0:
                rho = a1 / (p0 + g * e0)
                t = rho * e0
                u = e1 - t
                slope += t - e1 * (log(rho) + 1.0)
                curv -= u * u / a1
            else:  # rho e0 is a signed zero, and u = e1
                slope -= e1 * (log(a1 / p0) + 1.0)
                curv -= e1 * e1 / a1
        return slope, curv

    if falling(gmax)[0] >= 0.0:
        return gmax
    return _newton_max(falling, 0.0, gmax, _GAMMA_TOL * gmax)


def upper_bound(inst: CovertInstance, tol: float = 1e-8) -> UpperBoundResult:
    """Minimize D(m1 || m0) over maximal couplings; returns t * minimum.

    Pairwise Frank-Wolfe with exact line search (``_line_search``) on the
    smoothed objective D(m1 || (1-eps) m0 + eps uniform), run once per eps in
    _EPS_SCHEDULE (warm-started), each stage stopping at duality gap < ``tol``
    or after _MAX_ITERS steps.  Each step moves mass from the worst vertex of
    the current convex decomposition onto the linear-oracle vertex, which
    avoids the zig-zag stall of plain conditional gradients when the optimum
    sits on a face.  The decomposition is kept in row buffers: row i < count
    of ``active`` holds the flat indices into the gradient of one one-hot
    vertex, in the order the vertices entered, and ``wts[i]`` its weight; the
    away vertex is the first row with the largest gradient sum; the oracle
    vertex's sum minus it is the step's slope at 0.  A dict from a row's bytes
    to its index finds the oracle vertex among the active ones; a new vertex is
    written after the last row (the buffers double when full), and a dropped
    one is closed up by shifting the later rows down, which keeps the order
    and renumbers the dict from there.  Each step overwrites the gradient, its
    intermediate vectors, the oracle's masked copy and the direction, made once
    per solve.  The reported kl_value is the
    raw (unsmoothed) objective at the final iterate (``_drop_undominated``
    first if it is infinite), or at the diagonal coupling if that is better,
    clamped at 0: where the minimum is 0 the raw objective is float dust of
    either sign, and a divergence is never negative.  The diagonal guarantee
    caps kl_value at D(P1 || P0).  ``converged`` says whether every stage
    reached ``tol``, which must be finite and positive.

    The loop reads only W_Y, the table S_q and ``tol``, so the solve is
    memoized on those (one entry, see the module docstring): a call whose
    metric has the previous call's table returns the previous coupling, gap
    and flag, scaled by its own t_delta; the coupling, checked once when
    solved, carries that solve's channel and table, equal to the hit's own.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")
    wp = _valid_weight(inst)
    table = maximal_sets(inst.q)
    w = inst.wy.w
    minimizer, kl_value, gap, converged = _solve(w.tobytes(), w.shape, table.tobytes(), tol)
    return UpperBoundResult(kl_value=kl_value, minimizer=minimizer, fw_gap=gap, t_delta=wp.t, converged=converged)


@functools.lru_cache(maxsize=1)
def _solve(
    w_bytes: bytes, shape: tuple[int, int], allowed_bytes: bytes, tol: float
) -> tuple[JointConditional, float, float, bool]:
    """upper_bound's (minimizer, kl_value, fw_gap, converged) from the bytes of W_Y and S_q."""
    w = np.frombuffer(w_bytes).reshape(shape)
    ny = shape[1]
    allowed = np.frombuffer(allowed_bytes, dtype=bool).reshape(2, ny, ny)
    uniform = 1.0 / ny
    cell_base = np.arange(2 * ny) * ny  # flat index of v[x, y, 0], cells in (x, y) order

    # current point and its convex decomposition over one-hot vertices (rows
    # below ``count`` of the buffers), and each active row's index by its bytes
    diag_row = cell_base + np.tile(np.arange(ny), 2)
    diag = np.broadcast_to(np.eye(ny), (2, ny, ny))
    v = diag.copy()
    active = np.empty((64, 2 * ny), dtype=diag_row.dtype)
    wts = np.empty(64)
    active[0], wts[0], count = diag_row, 1.0, 1
    rows = {diag_row.tobytes(): 0}
    grad, direction, masked = np.empty((2, ny, ny)), np.zeros((2, ny, ny)), np.full((2, ny, ny), np.inf)
    flat_direction = direction.reshape(-1)
    m0t, logterm, log_m0t, ratio = (np.empty(ny) for _ in range(4))
    grad_v = np.empty((2, ny, ny))

    gap = math.inf
    converged = True
    for eps in _EPS_SCHEDULE:
        keep, spread = 1.0 - eps, eps * uniform
        scale0 = -keep * w[0][:, None]
        for _ in range(_MAX_ITERS):
            m0, m1 = np.einsum("xy,xyz->xz", w, v)
            np.multiply(m0, keep, out=m0t)
            m0t += spread
            np.maximum(m1, _TINY, out=logterm)
            np.log(logterm, out=logterm)
            logterm -= np.log(m0t, out=log_m0t)
            np.divide(m1, m0t, out=ratio)
            np.multiply(scale0, ratio, out=grad[0])
            logterm += 1.0
            np.multiply(w[1][:, None], logterm, out=grad[1])
            to_row = cell_base + _lmo_targets(grad, allowed, masked).ravel()
            to_sum = grad.take(to_row).sum()
            gap = float(np.multiply(grad, v, out=grad_v).sum() - to_sum)
            if gap < tol:
                break
            # away vertex: the active one the gradient most wants to leave
            away_sums = grad.take(active[:count]).sum(axis=1)
            away = int(away_sums.argmax())
            gmax = float(wts[away])
            direction.fill(0.0)
            flat_direction[to_row] = 1.0
            flat_direction[active[away]] -= 1.0
            dm = np.einsum("xy,xyz->xz", w, direction)
            gamma = _line_search(m1, dm[1], m0t, dm[0], eps, gmax, float(to_sum - away_sums[away]))
            if gamma <= 0.0:
                converged = False
                break
            v += gamma * direction
            key = to_row.tobytes()
            hit = rows.get(key)
            if hit is not None:
                wts[hit] += gamma
            else:
                if count == wts.size:
                    active = np.concatenate([active, np.empty_like(active)])
                    wts = np.concatenate([wts, np.empty_like(wts)])
                active[count], wts[count] = to_row, gamma
                rows[key] = count
                count += 1
            left = gmax - gamma
            if left <= 1e-15:
                # drop the away row, shifting the later rows down: the order is the argmax's tie-break
                del rows[active[away].tobytes()]
                count -= 1
                active[away:count] = active[away + 1 : count + 1]
                wts[away:count] = wts[away + 1 : count + 1]
                for i in range(away, count):
                    rows[active[i].tobytes()] = i
                np.maximum(v, 0.0, out=v)  # scrub the dropped vertex's float dust
            else:
                wts[away] = left
        else:
            converged = False

    # exact renormalization before wrapping; off-allowed entries are exact zeros
    v = v / v.sum(axis=2, keepdims=True)
    kl_iter = _marginal_kl(w, v)
    if kl_iter == math.inf:
        v = _drop_undominated(w, v)
        kl_iter = _marginal_kl(w, v)

    kl_diag = _marginal_kl(w, diag)  # = D(P1 || P0), always finite under A3
    if kl_iter > kl_diag:
        v, kl_iter = diag, kl_diag
    return JointConditional(wy=Bdmc(w), table=allowed, v=v), max(kl_iter, 0.0), gap, converged


def _drop_undominated(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The coupling without input 1's mass on outputs where m0 is 0, rows renormalized.

    The smoothed objective leaves about eps of input-1 mass on an output that
    input 0 never reaches, which makes the raw D infinite.  Dropping it keeps
    every row on its allowed set, so the result is still a feasible coupling.
    ``v`` is returned as it is if some sending row would lose all its mass.
    """
    m0, m1 = np.einsum("xy,xyz->xz", w, v)
    rows = np.flatnonzero(w[1] > 0.0)
    kept = v[1][rows] * ((m0 > 0.0) | (m1 <= 0.0))
    sums = kept.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        return v
    v = v.copy()
    v[1, rows] = kept / sums
    return v


def _lattice_marginals(w_row: np.ndarray, allowed_x: np.ndarray, grid_g: int) -> np.ndarray:
    """The distinct marginals m_x reachable when every v[x, y] lies on the 1/grid_g lattice.

    Only bit-distinct rows are kept after each cell; rows equal after one cell
    stay equal after every later one, so this is full enumeration's row set.
    """
    ny = w_row.size
    m = np.zeros((1, ny))
    for y in np.flatnonzero(w_row):  # a cell with zero weight cannot move any mass
        targets = np.flatnonzero(allowed_x[y])
        comps = np.concatenate(list(_type_blocks(targets.size, grid_g, _ORACLE_BLOCK))) / grid_g
        cell = np.zeros((comps.shape[0], ny))
        cell[:, targets] = w_row[y] * comps
        m = _distinct_rows((m[:, None, :] + cell[None, :, :]).reshape(-1, ny))
    return m


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """``np.unique(a, axis=0)`` for a C-contiguous float array with no negative entry.

    Such floats sort as their uint64 bit patterns do, so one lexsort on the
    bits (first column most significant) gives np.unique's order.
    """
    a = a[np.lexsort(a.view(np.uint64).T[::-1])]
    keep = np.ones(a.shape[0], dtype=bool)
    np.any(a[1:] != a[:-1], axis=1, out=keep[1:])
    return a[keep]


def upper_bound_grid_oracle(inst: CovertInstance, grid_g: int) -> float:
    """Certification oracle: exact minimum of D(m1 || m0) over the composition lattice.

    Every conditional row is restricted to coordinates that are multiples of
    1/grid_g; the true minimum is at most the returned value.  Enumeration is
    factored through the two families of distinct marginals, so the cost is
    (#distinct m1) x (#distinct m0) inner products, taken in blocks with a row
    max.  Raises ResourceLimitError, before enumerating, when either input's
    raw lattice (duplicates included) would exceed _MAX_POINTS points, or
    the two raw lattices together would make more than _MAX_PAIRS pairs.
    """
    if grid_g < 1:
        raise DomainError(f"grid_g must be a positive integer, got {grid_g!r}")
    require_valid(inst)
    table = maximal_sets(inst.q)
    w = inst.wy.w
    cell_targets = [table[x][w[x] != 0.0].sum(axis=1).tolist() for x in range(2)]
    raw = [math.prod(math.comb(grid_g + k - 1, k - 1) for k in ks) for ks in cell_targets]
    if max(raw) > _MAX_POINTS:
        raise ResourceLimitError(f"grid oracle lattice exceeds {_MAX_POINTS} points per input; lower grid_g")
    if raw[0] * raw[1] > _MAX_PAIRS:
        raise ResourceLimitError(
            f"grid oracle lattice pairs {raw[0]} x {raw[1]} exceed {_MAX_PAIRS}; lower grid_g"
        )
    m0s = _lattice_marginals(w[0], table[0], grid_g)
    m1s = _lattice_marginals(w[1], table[1], grid_g)

    log_m0 = np.where(m0s > 0.0, np.log(np.maximum(m0s, _TINY)), _NEG_CLAMP)
    self_term = np.sum(np.where(m1s > 0.0, m1s * np.log(np.maximum(m1s, _TINY)), 0.0), axis=1)

    best = math.inf
    chunk = max(1, _ORACLE_BLOCK // m0s.shape[0])
    for start in range(0, m1s.shape[0], chunk):
        cross = m1s[start : start + chunk] @ log_m0.T  # exact zeros kill clamped entries
        # fl(s - c) falls as c grows, so a row's least s - c is s minus its largest c
        best = min(best, float(np.min(self_term[start : start + chunk] - cross.max(axis=1))))
    return max(best, 0.0)
