"""Monte Carlo engine for regime-switching SDEs with optional reflection.

The integrator is Euler-Maruyama with per-step switching: regime i jumps to j
with probability q_ij(x) dt, rates taken at the pre-step position, under the
precondition q_i(x) dt <= 0.1.  Recurrence evidence is horizon-censored by
construction; a path counts as returned only if it reaches the target ball
before the horizon, so reports corroborate the analytic verdicts rather than
prove them.

One step of a whole batch is a fixed handful of numpy operations
(``_Kernel``): the model's drift, sigma and, for state-dependent switching,
``rate_fn`` are each called once on every active path with its regime array;
a constant generator instead gathers a per-ensemble table of cumulative
rates, whose step bound is checked once, before any path is seeded.  Either
way a step switches regimes by one rule over the candidates' cumulative
rows.

Reproducibility contract: path k draws from exactly numpy's PCG64 stream
seeded with ``SeedSequence(seed, spawn_key=(k,))``, consuming one block of
normals and one block of uniforms per BLOCK steps.  The states of all paths
are derived in one vectorised pass (``_path_states``, checked against numpy
in the tests) and one generator is switched between them.  Results are
therefore bitwise identical for a given (seed, config) no matter how paths
are chunked; aggregation is ordered by path index.

Every uniform is drawn, but only those below the kernel's switching bound
(``_Kernel.bound``: the largest q_i dt of a constant generator, else the
0.1 guard that every step enforces) are kept.  A uniform at or above the
bound is at or above every switching probability a step lets through, so
it cannot switch a regime: dropping it changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import StepTooLarge
from .markov import (
    QMatrix,
    StateDependentRates,
    TailHomogeneousChain,
    _check_diagonal,
    _raise_bad_rate,
    validate_qmatrix,
)

BLOCK = 8192  # below 2**15: the store of kept uniforms sorts steps as int16
MAX_STEPS = 10**8  # per path; 200 times the 5e5 of the longest run in the tests
# paths drawn into one contiguous scratch before a single copy into the
# step-major normals and the store of kept uniforms
_FILL_GROUP = 32
# largest admissible switching probability q_i(x) dt of one step
_MAX_SWITCH_PROB = 0.1 + 1e-12

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True, eq=False)
class SdeModel:
    """Dynamics specification for the pair (X_t, regime_t).

    ``drift(x, lam)`` and ``sigma(x, lam)`` are called once per step with the
    whole active batch: positions ``x`` of shape (k, d) and the regime of each
    path, an integer array ``lam`` of shape (k,).  drift returns (k, d).
    sigma returns per-axis noise scales, as a scalar or of shape (d,), (k, 1)
    or (k, d).  Per-regime coefficients are gathered by regime,
    ``coef[lam][:, None]``, as ``power_drift`` and ``regime_sigma`` do;
    callables that ignore the regime work unchanged.  ``rates`` is either a
    constant generator or 1-d ``StateDependentRates``, whose
    ``rate_fn(x, lam)`` takes the same batch (positions as shape (k,)) and
    returns the (n, k) table of rates out of each path's regime;
    ``n_regimes`` is its ``n``.  ``boundary="reflect"`` keeps d = 1 paths on
    the half-line by reflecting at zero.
    """

    dim: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    rates: Union[QMatrix, StateDependentRates]
    boundary: str = "none"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.boundary not in ("none", "reflect"):
            raise ValueError("boundary must be 'none' or 'reflect'")
        if self.boundary == "reflect" and self.dim != 1:
            raise ValueError("reflection at zero is a half-line (d = 1) feature")
        if not isinstance(self.rates, (QMatrix, StateDependentRates)):
            raise ValueError("rates must be a QMatrix or StateDependentRates "
                             "(truncate infinite chains first)")
        if isinstance(self.rates, StateDependentRates) and self.dim != 1:
            raise ValueError("state-dependent rates are supported on 1-d state spaces")

    @property
    def n_regimes(self) -> int:
        return self.rates.n


def power_drift(b, delta: float = 1.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Drift ``b[lam] * sign(x) * |x|**delta``, one slope per regime
    (``b[lam] * x`` for delta = 1)."""
    slopes = np.asarray(b, dtype=float)
    if delta == 1.0:
        def drift(x, lam):
            return slopes[lam][:, None] * x
    else:
        def drift(x, lam):
            return slopes[lam][:, None] * np.sign(x) * np.abs(x) ** delta
    return drift


def regime_sigma(s) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Noise scale ``s[lam]`` from a scalar or one value per regime."""
    scales = np.asarray(s, dtype=float).reshape(-1)
    if (scales == scales[0]).all():
        level = scales[0]

        def sigma(x, lam):
            return level
    else:
        def sigma(x, lam):
            return scales[lam][:, None]
    return sigma


@dataclass(frozen=True)
class SimulationReport:
    """Ensemble summary: hitting statistics, escape fraction, growth estimate.

    ``return_fraction`` counts paths with hitting time <= T (95% normal CI
    half-width attached); ``escape_fraction`` counts non-returned paths whose
    final radius exceeds ``escape_radius``; ``censored`` paths did neither.
    """

    trials: int
    t_horizon: float
    dt: float
    seed: int
    x0: tuple
    i0: int
    r0: float
    escape_radius: float
    returned: int
    return_fraction: float
    return_ci95: float
    mean_hitting_time: Optional[float]
    escape_count: int
    escape_fraction: float
    censored: int
    growth_exponent: Optional[float]


class _Kernel:
    """One Euler-Maruyama step plus thinned switching for a batch of paths.

    Built once per ensemble.  For a constant generator it holds the
    cumulative off-diagonal rows ``cumsum(q_ij dt)`` and raises StepTooLarge
    at once if any regime's total (the last column) breaks the thinning
    bound; for state-dependent rates it sums the (n, k) table of one
    ``rate_fn(x, lam)`` call down its columns instead, and checks the bound
    at each step, since it depends on x.  ``bound`` is at least every total
    a step lets through, so only paths whose uniform lies below it need one:
    a step takes the positions of those candidates and their uniforms.  Each
    candidate gets one cumulative row, gathered by regime from the table or
    taken from the step's column; it switches when its uniform falls below
    the row's total and moves to the first regime whose cumulative entry
    exceeds it.  The model's callables are read from ``model`` at every step,
    so a copy of the model with other callables is honoured.
    """

    def __init__(self, model: SdeModel, dt: float):
        self.model = model
        self.dt = dt
        self.sqrt_dt = np.sqrt(dt)
        if isinstance(model.rates, QMatrix):
            off = np.array(model.rates.entries, dtype=float)
            np.fill_diagonal(off, 0.0)
            self.table = np.cumsum(off * dt, axis=1)
            total = self.table[:, -1]
            too_fast = (total > _MAX_SWITCH_PROB).nonzero()[0]
            if too_fast.size:
                reg = int(too_fast[0])
                raise StepTooLarge(f"dt * q = {total[reg]:.3g} > 0.1 in regime {reg}; "
                                   f"shrink dt")
            self.bound = float(total.max())
        else:
            self.table = None
            self.bound = _MAX_SWITCH_PROB  # what _rate_cumsum enforces

    def advance(self, x: np.ndarray, lam: np.ndarray, z: np.ndarray,
                cand: np.ndarray, u: np.ndarray) -> tuple:
        """One step of the batch ``x``, ``lam`` with normals ``z``.  ``cand``
        holds the distinct positions, in any order, of the paths that may
        switch, ``u`` their uniforms; every other path's uniform is at least
        ``bound``."""
        model = self.model
        k, d = x.shape
        drift = np.asarray(model.drift(x, lam), dtype=float)
        if drift.shape != (k, d):
            raise ValueError(f"drift(x, lam) must return the batch shape (k, d) = {(k, d)}, "
                             f"got {drift.shape}; gather per-regime coefficients "
                             f"as coef[lam][:, None]")
        sig = np.asarray(model.sigma(x, lam), dtype=float)
        if sig.shape not in ((), (d,), (k, 1), (k, d)):
            raise ValueError(f"sigma(x, lam) must return a scalar or shape (d,), (k, 1) "
                             f"or (k, d) with (k, d) = {(k, d)}, got {sig.shape}")
        x_new = x + drift * self.dt + sig * z * self.sqrt_dt
        if model.boundary == "reflect":
            np.abs(x_new, out=x_new)
        if self.table is None:
            rows = self._rate_cumsum(x, lam).take(cand, axis=1).T
        else:
            rows = self.table.take(lam.take(cand), axis=0)
        hit = (u < rows[:, -1]).nonzero()[0]
        if hit.size == 0:
            return x_new, lam
        lam_new = lam.copy()
        lam_new[cand.take(hit)] = (u.take(hit)[:, None] < rows.take(hit, axis=0)).argmax(axis=1)
        return x_new, lam_new

    def _rate_cumsum(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Cumulative switching probabilities, (n, k): row j sums q_{lam,l}(x) dt
        over l <= j, from one ``rate_fn(x, lam)`` call on the whole batch."""
        xs = x[:, 0]
        q = self.model.rates.evaluate(xs, lam)
        # row-by-row running sum: np.cumsum along the short axis is slower,
        # and adds in the same order
        cum = q * self.dt
        for j in range(1, len(cum)):
            np.add(cum[j - 1], cum[j], out=cum[j])
        top = cum[-1].max()
        if not top <= _MAX_SWITCH_PROB:
            if not np.isfinite(top):
                _raise_bad_rate(q, xs, lam)
            p = int(cum[-1].argmax())
            _check_diagonal(q, xs, lam, p)
            raise StepTooLarge(f"dt * q = {top:.3g} > 0.1 in regime {lam[p]}; shrink dt")
        return cum


def _hashmix(value: np.ndarray, h: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's ``hashmix`` of a uint32 array; returns it with the
    advanced hash constant."""
    value = value ^ np.uint32(h)
    h = (h * mult) & _MASK32
    value *= np.uint32(h)
    value ^= value >> 16
    return value, h


def _path_states(seed: int, path_ids: np.ndarray) -> list:
    """PCG64 state of ``SeedSequence(seed, spawn_key=(k,))`` for every path id k.

    The same states numpy derives one path at a time, in one pass vectorised
    over the paths.  A one-word spawn key enters the entropy last, so it is
    mixed into the parent's pool by four more ``hashmix`` rounds, whose hash
    constant has advanced 16 + 4 max(0, words - 4) steps past INIT_A while
    the parent's ``words`` entropy words were mixed.
    ``generate_state(4, uint64)`` then hashes the pool into the LCG's initial
    state and stream, and PCG64's ``srandom`` steps it twice.  Returns one
    ``bit_generator.state`` dict per path.
    """
    ids = np.asarray(path_ids)
    if ids.size and not (ids.min() >= 0 and ids.max() <= _MASK32):
        # numpy spreads a larger key over two words
        raise ValueError("path ids must lie in [0, 2**32)")
    pool = np.random.SeedSequence(entropy=seed).pool.tolist()
    words = max(1, -(-int(seed).bit_length() // 32))
    h = _INIT_A
    for _ in range(16 + 4 * max(0, words - 4)):
        h = (h * _MULT_A) & _MASK32
    key = ids.astype(np.uint32)
    mixer = []
    for word in pool:
        mixed, h = _hashmix(key, h)
        m = np.uint32((_MIX_L * word) & _MASK32) - np.uint32(_MIX_R) * mixed
        m ^= m >> 16
        mixer.append(m)
    h = _INIT_B
    halves = []
    for i in range(8):
        value, h = _hashmix(mixer[i % 4], h, _MULT_B)
        halves.append(value.astype(np.uint64))
    # little-endian pairs of words: the high and low halves of the initial
    # state, then of the stream selector
    s_hi, s_lo, q_hi, q_lo = ((halves[2 * j] | halves[2 * j + 1] << np.uint64(32)).tolist()
                              for j in range(4))
    states = []
    for a, b, c, e in zip(s_hi, s_lo, q_hi, q_lo):
        inc = (((c << 64) | e) << 1 | 1) & _MASK128
        state = ((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _simulate_paths(model: SdeModel, path_ids: np.ndarray, x0: np.ndarray, i0: int,
                    r0: float, n_steps: int, dt: float, seed: int) -> tuple:
    """Run a block of paths to min(hitting time, horizon).

    The active paths' positions, regimes and indices stay compacted, in path
    order; a step where some path hits removes it.  Each block's normals sit
    in a step-major buffer, one column per active path at the start of the
    block, so a step reads a contiguous row until the first path of the
    block retires.  Its uniforms are kept only below ``kernel.bound``
    (``_live_uniforms``); from the first retirement a column-to-position
    array, -1 once retired, turns a step's columns into batch positions.
    One generator serves every path: it is set to a path's state, draws
    that path's block into a contiguous group scratch, and the group is
    copied into the buffers at once.  Returns each path's hitting time and
    its radius at the horizon: nan for the radius of a returned path, and
    for the hitting time of one still out.
    """
    k = path_ids.size
    d = model.dim
    kernel = _Kernel(model, dt)
    states = _path_states(seed, path_ids)
    gen = np.random.Generator(np.random.PCG64())
    bitgen = gen.bit_generator
    hit_time = np.full(k, np.nan)
    ids = np.arange(k)
    x = np.tile(x0, (k, 1))
    lam = np.full(k, i0, dtype=np.intp)

    rows = min(BLOCK, n_steps)
    z_buf = np.empty((rows, k, d))
    group = min(_FILL_GROUP, k)
    z_grp = np.empty((group, rows, d))
    u_grp = np.empty(group * rows)
    done_steps = 0
    while done_steps < n_steps and ids.size:
        span = min(BLOCK, n_steps - done_steps)
        more = done_steps + span < n_steps
        active = ids.tolist()
        cand_cols = cand_u = None  # the last block's store goes before this one is built
        live, live_u = [], []
        for c0 in range(0, len(active), group):
            members = active[c0:c0 + group]
            # the members' uniforms, contiguous, one row per path
            u_mem = u_grp[:len(members) * span].reshape(len(members), span)
            for g, j in enumerate(members):
                bitgen.state = states[j]
                gen.standard_normal(out=z_grp[g, :span])
                gen.random(out=u_mem[g])
                if more:
                    states[j] = bitgen.state
            c1 = c0 + len(members)
            z_buf[:span, c0:c1] = z_grp[:len(members), :span].swapaxes(0, 1)
            at = np.flatnonzero(u_mem < kernel.bound)
            live_u.append(u_mem.ravel().take(at))
            at += c0 * span
            live.append(at)
        cand_cols, cand_u = _live_uniforms(live, live_u, span)
        width = ids.size
        cols = None  # buffer columns of the active paths once one has retired
        for s in range(span):
            if cols is None:
                x, lam = kernel.advance(x, lam, z_buf[s, :width], cand_cols[s], cand_u[s])
            else:
                pos = col_pos.take(cand_cols[s])
                alive = pos >= 0
                x, lam = kernel.advance(x, lam, z_buf[s, cols], pos[alive], cand_u[s][alive])
            hit = _norm(x) <= r0
            hits = hit.nonzero()[0]
            if hits.size:
                hit_time[ids[hits]] = (done_steps + s + 1) * dt
                keep = ~hit
                ids, x, lam = ids[keep], x[keep], lam[keep]
                if ids.size == 0:
                    break
                if cols is None:
                    cols = np.arange(width)
                    col_pos = np.empty(width, dtype=np.intp)
                col_pos[cols[hits]] = -1
                cols = cols[keep]
                col_pos[cols] = np.arange(cols.size)
        done_steps += span
    radius = np.full(k, np.nan)
    radius[ids] = _norm(x)
    return hit_time, radius


def _live_uniforms(live: list, live_u: list, span: int) -> tuple:
    """Per-step store of one block's kept uniforms; empties both lists.

    ``live`` holds, group by group, the flat indices ``column * span + step``
    of the kept uniforms in path-major order, and ``live_u`` their values.
    Returns, for each step, the buffer columns of its kept uniforms,
    ascending, and their values: views into one index array and one float64
    array, 16 bytes per kept uniform.
    """
    at = np.concatenate(live)
    live.clear()
    vals = np.concatenate(live_u)
    live_u.clear()
    steps = (at % span).astype(np.int16)  # span <= BLOCK < 2**15
    ends = np.cumsum(np.bincount(steps, minlength=span)).tolist()
    # numpy's stable sort of 16-bit keys is a radix sort; it keeps the
    # path-major order within a step, so the columns of a step ascend
    order = np.argsort(steps, kind="stable")
    vals = vals.take(order)
    cols = np.floor_divide(at, span, out=at).take(order)
    starts = [0] + ends[:-1]
    return ([cols[a:b] for a, b in zip(starts, ends)],
            [vals[a:b] for a, b in zip(starts, ends)])


def _norm(x: np.ndarray) -> np.ndarray:
    # plain |x| on the half-line models; the squared form overflows past
    # about 1.3e154, so only the rows where it does take the hypot form,
    # and every radius in range keeps the squared form's bits
    if x.shape[1] == 1:
        return np.abs(x[:, 0])
    with np.errstate(over="ignore"):
        r = np.sqrt((x * x).sum(axis=1))
    big = np.isinf(r).nonzero()[0]
    if big.size:
        r[big] = np.hypot.reduce(x[big], axis=1)
    return r


def run_ensemble(model: SdeModel, x0, i0: int, r0: float, T: float, dt: float,
                 trials: int, seed: int, escape_radius: float = 50.0) -> SimulationReport:
    """Simulate ``trials`` independent paths and aggregate hitting statistics.

    Paths run until they enter the ball of radius r0 > 0 or the horizon T
    ends; one still out at T has escaped if beyond ``escape_radius > r0``.
    """
    for name, v in (("seed", seed), ("trials", trials), ("i0", i0)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    seed, trials, i0 = int(seed), int(trials), int(i0)
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0v.shape != (model.dim,):
        raise ValueError("x0 must match the model dimension")
    r0, T, dt, escape_radius = float(r0), float(T), float(dt), float(escape_radius)
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    for name, v in (("x0", x0v), ("r0", r0), ("T", T), ("dt", dt),
                    ("escape_radius", escape_radius), ("T / dt", T / dt)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if escape_radius <= r0:
        raise ValueError("escape_radius must exceed r0")
    if trials < 100:
        raise ValueError("trials must be at least 100 for the CI normal approximation")
    start_radius = float(_norm(x0v[None, :])[0])
    if start_radius <= r0:
        raise ValueError("|x0| must exceed the return radius r0")
    if not 0 <= i0 < model.n_regimes:
        raise ValueError("i0 out of range")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    if n_steps > MAX_STEPS:
        raise ValueError(f"T / dt = {T / dt:g} steps exceeds the cap of {MAX_STEPS:g} "
                         f"steps per path")

    hit_time, radius = _simulate_paths(
        model, np.arange(trials), x0v, i0, r0, n_steps, dt, seed)
    survived = np.isnan(hit_time)

    returned = trials - int(survived.sum())
    p_ret = returned / trials
    ci = 1.96 * np.sqrt(p_ret * (1.0 - p_ret) / trials)
    n_esc = int((radius > escape_radius).sum())  # a returned path's NaN compares False
    p_esc = n_esc / trials
    mean_hit = float(np.nanmean(hit_time)) if returned else None
    if returned < trials:
        growth = float(np.mean(np.log(radius[survived] / start_radius)) / (n_steps * dt))
    else:
        growth = None
    return SimulationReport(
        trials=trials, t_horizon=n_steps * dt, dt=dt, seed=seed,
        x0=tuple(float(v) for v in x0v), i0=i0, r0=r0, escape_radius=escape_radius,
        returned=returned, return_fraction=p_ret, return_ci95=float(ci),
        mean_hitting_time=mean_hit, escape_count=n_esc, escape_fraction=p_esc,
        censored=trials - returned - n_esc, growth_exponent=growth)


def truncate_chain(chain: TailHomogeneousChain, K: int) -> QMatrix:
    """Finite generator on {1..K} with a reflecting top (no upward rate at K).

    The usual finite-window stand-in for simulating the infinite chain; mass
    that would sit above the window is the caller's censoring caveat.
    """
    if K < 2:
        raise ValueError("truncation needs K >= 2")
    a = np.zeros((K, K))
    for s in range(1, K + 1):
        if s < K:
            a[s - 1, s] = chain.up(s)
        if s > 1:
            a[s - 1, s - 2] = chain.down(s)
    np.fill_diagonal(a, -a.sum(axis=1))
    return validate_qmatrix(a)
