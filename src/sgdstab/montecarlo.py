"""Stochastic simulation of the linearized dynamics and empirical thresholds.

Replicates evolve the offset x = theta - theta* under

    x <- x - (eta/B) * sum_{i in batch} (H_i x + g_i),

with a fresh uniform size-B batch (without replacement) each step, or
under the mixture process that takes SGD's single-sample step with
probability p and its full-batch step otherwise (both from _steps).

Every random draw is a pure function of (seed, domain, replicate, step,
slot): a hash of those coordinates by instances._splitmix64 on uint64
arrays.  The hashes are computed on tiles of at most _DRAW_BLOCK_LANES
(replicate, step) lanes, so their temporaries stay in cache, and
written into one array per chunk.
Batches come from Floyd's subset sampler on bounded integers (Lemire's
multiply-high with rejection, so draws are exactly uniform); mixture
coins compare the top 53 bits of a word with p.  Draws are independent
of chunking and tiling, and a rerun is bit-reproducible; another
chunking moves results only by roundoff.  Each step's Hessian drift
groups the (slot, replicate) pairs by sample and applies every drawn H_i
once, as one GEMM over the replicates that drew it.  The step's moment
sums come from one d x d Gram matrix of the offsets.  Aggregation keeps
all replicates; a replicate whose squared norm crosses
divergence_factor * (1 + initial) is flagged and frozen at its last
state so the aggregate arrays stay finite.

Empirical threshold estimation bisects on an instability classifier.
Crossing a fixed factor alone cannot witness mean-square divergence for
step sizes between the mean-square and almost-sure thresholds (the
ensemble average is then carried by exponentially rare trajectories), so
the classifier also uses the growth slope of the ensemble second moment
over an early window in which the replicate average still concentrates.
The bisection evaluates each step size with a verdict-only run, which
returns the classifier's answer and stops once that answer is certain to
be "unstable": when a replicate crosses, or when the growth rule holds at
the end of the window in the last chunk.  A stable answer needs every
step, so each verdict is the full run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .instances import _MASK64, Hyperparams, ProblemInstance, _fmt, _splitmix64, check_step_size, require_valid, stream
from .linalg import null_projectors, sym_eig

_CHUNK_ENTRY_BUDGET = 4_000_000
# Draws are hashed on tiles of at most this many (replicate, step) lanes:
# 256 KiB per uint64 temporary, so the splitmix passes stay in cache.
_DRAW_BLOCK_LANES = 32_768


@dataclass(frozen=True)
class SimConfig:
    steps: int
    replicates: int
    seed: int
    divergence_factor: float = 1e6
    init_offset: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        if self.steps < 1 or self.replicates < 1:
            raise ValueError("steps and replicates must be >= 1")
        if not (math.isfinite(self.divergence_factor) and self.divergence_factor > 1):
            raise ValueError("divergence_factor must be finite and exceed 1")
        if not np.all(np.isfinite(self.init_offset)):
            raise ValueError("init_offset must be finite")


@dataclass(frozen=True)
class EmpiricalMoments:
    replicates: int
    mean_offset: np.ndarray  # (T+1, d)
    mean_sq_par: np.ndarray  # (T+1,)
    mean_sq_perp: np.ndarray
    mean_quad: np.ndarray  # (T+1,) mean of x' Hbar x
    diverged: bool
    divergence_step: int | None
    diverged_count: int


def initial_offset(inst: ProblemInstance, cfg: SimConfig) -> np.ndarray:
    if isinstance(cfg.init_offset, np.ndarray):
        x0 = np.asarray(cfg.init_offset, dtype=float)
        if x0.shape != (inst.d,):
            raise ValueError(f"init_offset must have shape ({inst.d},), got {x0.shape}")
        return x0.copy()
    scale = float(cfg.init_offset)
    _, p_range = null_projectors(inst.mean_hessian())
    rng = stream(cfg.seed, 0)
    for _ in range(64):
        z = p_range @ rng.standard_normal(inst.d)
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            return (scale / nz) * z
    raise ValueError("could not draw an initial offset in the range of the mean Hessian")


def _fisher_yates_batches(rng: np.random.Generator, n: int, batch: int, steps: int) -> np.ndarray:
    """(steps, batch) uniform without-replacement batches; O(B) draws per step."""
    draws = np.empty((steps, batch), dtype=np.int64)
    for i in range(batch):
        draws[:, i] = rng.integers(i, n, size=steps)
    perm = np.tile(np.arange(n, dtype=np.int64), (steps, 1))
    rows = np.arange(steps)
    for i in range(batch):
        j = draws[:, i]
        tmp = perm[rows, i].copy()
        perm[rows, i] = perm[rows, j]
        perm[rows, j] = tmp
    return perm[:, :batch]


# Counter-based draws.  With sm = instances._splitmix64 (mod 2**64), the word
# for (seed, domain, replicate r, step t, slot s, attempt a) is
#
#     sm(lane ^ (s | a << 32)),  lane = sm(sm(k ^ r) ^ t),  k = sm(seed ^ sm(domain)).
#
# The attempt counter only moves for lanes that the bounded map rejects.
_INDEX_DOMAIN = 1
_COIN_DOMAIN = 2
_MASK32 = 0xFFFF_FFFF


def _lane_keys(seed: int, domain: int, replicates: range, steps: int, first_step: int = 0) -> np.ndarray:
    """(replicates, steps) uint64 lane keys of one draw domain, for steps first_step onwards."""
    k = _splitmix64(np.uint64(int(seed) & _MASK64) ^ _splitmix64(np.uint64(domain)))
    per_replicate = _splitmix64(np.arange(replicates.start, replicates.stop, dtype=np.uint64) ^ k)
    return _splitmix64(per_replicate[:, None] ^ np.arange(first_step, first_step + steps, dtype=np.uint64))


def _key_tiles(seed: int, domain: int, replicates: range, steps: int):
    """Lane keys of one draw domain on tiles of at most _DRAW_BLOCK_LANES lanes.

    Yields (index, keys): index selects the tile's (replicate, step) block
    of a (replicates, steps, ...) array and keys are its lane keys.
    """
    rows = max(1, _DRAW_BLOCK_LANES // steps)
    cols = min(steps, _DRAW_BLOCK_LANES)
    for r in range(0, len(replicates), rows):
        for t in range(0, steps, cols):
            width = min(cols, steps - t)
            yield (slice(r, r + rows), slice(t, t + width)), _lane_keys(seed, domain, replicates[r : r + rows], width, t)


def _words(keys: np.ndarray, slot: int, attempt: int = 0) -> np.ndarray:
    return _splitmix64(keys ^ np.uint64(slot | attempt << 32))


def _bounded(keys: np.ndarray, slot: int, bound: int) -> np.ndarray:
    """Uniform integers in [0, bound), bound <= 2**32, one per lane key.

    Lemire's multiply-high on the top 32 bits of each word; a lane whose
    low product falls below 2**32 mod bound is redrawn from its next
    attempt counter, so every value is exactly equally likely.
    """
    threshold = (1 << 32) % bound
    flat = keys.reshape(-1)
    m = (_words(flat, slot) >> np.uint64(32)) * np.uint64(bound)
    out = (m >> np.uint64(32)).astype(np.int64)
    redo = np.flatnonzero((m & np.uint64(_MASK32)) < threshold)
    attempt = 1
    while redo.size:
        m = (_words(flat[redo], slot, attempt) >> np.uint64(32)) * np.uint64(bound)
        ok = (m & np.uint64(_MASK32)) >= threshold
        out[redo[ok]] = (m[ok] >> np.uint64(32)).astype(np.int64)
        redo = redo[~ok]
        attempt += 1
    return out.reshape(keys.shape)


def _batches(seed: int, replicates: range, steps: int, n: int, batch: int) -> np.ndarray:
    """(replicates, steps, batch) uniform size-`batch` subsets of range(n).

    Floyd's sampler: slot s draws u uniform in [0, top], top = n - batch + s,
    and takes top instead when u is already in the batch.  At batch 1 this
    is a single bounded draw on slot 0.
    """
    out = np.empty((len(replicates), steps, batch), dtype=np.int64)
    for index, keys in _key_tiles(seed, _INDEX_DOMAIN, replicates, steps):
        tile = out[index]
        for s in range(batch):
            top = n - batch + s
            u = _bounded(keys, s, top + 1)
            if s:
                taken = tile[..., 0] == u
                for prev in range(1, s):
                    taken |= tile[..., prev] == u
                np.putmask(u, taken, top)
            tile[..., s] = u
    return out


def _coins(seed: int, replicates: range, steps: int, p: float) -> np.ndarray:
    """(replicates, steps) booleans, each True with probability p."""
    out = np.empty((len(replicates), steps), dtype=bool)
    for index, keys in _key_tiles(seed, _COIN_DOMAIN, replicates, steps):
        u = _words(keys, 0) >> np.uint64(11)
        np.less(u.astype(np.float64) * 2.0**-53, p, out=out[index])
    return out


def _hessian_drift(hessians: np.ndarray, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows sum_s H[idx[c, s]] x[c] for idx (chunk, B) and x (chunk, d).

    The chunk * B (slot, replicate) pairs, flattened slot-major, are grouped
    by sample index with one stable radix argsort; each sample's rows of x
    then go through one GEMM with its Hessian, and the B slot blocks are
    summed in slot order.  That is chunk * B * d^2 flops and B * chunk * d
    floats of rows; no (chunk, d, d) Hessian gather is formed.
    """
    chunk, b = idx.shape
    n = hessians.shape[0]
    flat = idx.T.astype(np.min_scalar_type(n), order="C").reshape(-1)
    order = np.argsort(flat, kind="stable")  # a radix sort while n <= 2**16
    counts = np.bincount(flat, minlength=n)
    bounds = [0] + np.cumsum(counts).tolist()
    rows = np.take(x, order % chunk, axis=0)
    out = np.empty_like(rows)
    for i in np.flatnonzero(counts).tolist():
        lo, hi = bounds[i], bounds[i + 1]
        np.matmul(rows[lo:hi], hessians[i].T, out=out[lo:hi])
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    return np.take(out, back, axis=0).reshape(b, chunk, -1).sum(axis=0)


class _Accumulator:
    def __init__(self, steps: int, d: int, p_null: np.ndarray, hbar: np.ndarray):
        self.p_null = p_null if np.any(p_null) else None
        self.hbar = hbar
        self.sum_x = np.zeros((steps + 1, d))
        self.sum_sq_par = np.zeros(steps + 1)
        self.sum_sq_perp = np.zeros(steps + 1)
        self.sum_quad = np.zeros(steps + 1)

    def add(self, t: int, x: np.ndarray) -> np.ndarray:
        """Add the chunk's offsets x (chunk, d) at step t; returns each replicate's squared norm.

        sum_quad is <G, Hbar> with G = x^T x the Gram matrix.
        """
        gram = x.T @ x
        # The column sum is a GEMV: numpy's axis-0 reduction of a (chunk, d)
        # array with small d runs an inner loop of length d.
        self.sum_x[t] += np.ones(x.shape[0]) @ x
        self.sum_quad[t] += np.vdot(gram, self.hbar)
        if self.p_null is None:
            # Full-rank mean Hessian: x_par = 0 and x_perp = x - 0 = x exactly.
            sq = np.einsum("ij,ij->i", x, x)
            self.sum_sq_perp[t] += np.trace(gram)
        else:
            # Split explicitly: on the null walk |x_par| >> |x_perp|, and
            # |x|^2 - |x_par|^2 would cancel catastrophically.
            x_par = x @ self.p_null
            x_perp = x - x_par
            sq_par = np.einsum("ij,ij->i", x_par, x_par)
            sq_perp = np.einsum("ij,ij->i", x_perp, x_perp)
            self.sum_sq_par[t] += sq_par.sum()
            self.sum_sq_perp[t] += sq_perp.sum()
            sq = sq_par + sq_perp
        return sq


def _finalize(
    acc: _Accumulator,
    cfg: SimConfig,
    diverged_count: int,
    first_replicate_cross: int | None,
) -> EmpiricalMoments:
    r = cfg.replicates
    mean_x = acc.sum_x / r
    mean_sq_par = acc.sum_sq_par / r
    mean_sq_perp = acc.sum_sq_perp / r
    threshold = cfg.divergence_factor * (1.0 + mean_sq_perp[0])
    crossed = np.nonzero(mean_sq_perp > threshold)[0]
    agg_step = int(crossed[0]) if crossed.size else None
    steps = [s for s in (agg_step, first_replicate_cross) if s is not None]
    divergence_step = min(steps) if steps else None
    return EmpiricalMoments(
        replicates=r,
        mean_offset=mean_x,
        mean_sq_par=mean_sq_par,
        mean_sq_perp=mean_sq_perp,
        mean_quad=acc.sum_quad / r,
        diverged=divergence_step is not None,
        divergence_step=divergence_step,
        diverged_count=diverged_count,
    )


def _run(
    inst: ProblemInstance, cfg: SimConfig, kernel_builder, entries_per_replicate: int, verdict: bool = False
) -> EmpiricalMoments | bool:
    """Run every replicate in chunks; the EmpiricalMoments, or with verdict=True classify_unstable's answer.

    A verdict run stops as soon as its answer is certain to be True: when
    a replicate crosses the divergence threshold, or at step hi of
    growth_window in the last chunk (the sums over steps lo..hi are then
    complete) when _grows already holds.  It never stops early with False,
    so the answer is the full run's.
    """
    require_valid(inst)
    d = inst.d
    t_steps = cfg.steps
    x0 = initial_offset(inst, cfg)
    hbar = inst.mean_hessian()
    p_null, _ = null_projectors(hbar)
    acc = _Accumulator(t_steps, d, p_null, hbar)
    per_replicate_threshold = cfg.divergence_factor * (1.0 + float(x0 @ x0))
    lo, hi = growth_window(cfg) if verdict else (0, 0)

    diverged_count = 0
    first_cross: int | None = None
    chunk_size = max(1, min(cfg.replicates, _CHUNK_ENTRY_BUDGET // max(1, entries_per_replicate)))
    start = 0
    while start < cfg.replicates:
        stop = min(start + chunk_size, cfg.replicates)
        size = stop - start
        last_chunk = stop == cfg.replicates
        kernel = kernel_builder(range(start, stop))
        x = np.tile(x0, (size, 1))
        alive = np.ones(size, dtype=bool)
        crossed = False
        acc.add(0, x)
        for t in range(1, t_steps + 1):
            x_new = kernel(t - 1, x)
            # Until a replicate of the chunk crosses, every one takes its step.
            x = np.where(alive[:, None], x_new, x) if crossed else x_new
            crossing = alive & (acc.add(t, x) > per_replicate_threshold)
            if np.any(crossing):
                if verdict:
                    return True
                crossed = True
                alive &= ~crossing
                first_cross = t if first_cross is None else min(first_cross, t)
            if verdict and last_chunk and t == hi and _grows(acc.sum_sq_perp / cfg.replicates, lo, hi):
                return True
        diverged_count += size - int(np.count_nonzero(alive))
        start = stop
    em = _finalize(acc, cfg, diverged_count, first_cross)
    return classify_unstable(em, cfg) if verdict else em


def _steps(inst: ProblemInstance, eta: float):
    """SGD's two steps at step size eta, on the rows of x (chunk, d): full(x) = x - eta (Hbar x + gbar)
    and batch(x, idx) = x - (eta/B) sum_s (H_{idx_s} x + g_{idx_s}) for sample indices idx (chunk, B)."""
    interpolating = bool(np.all(inst.gradients == 0.0))
    hbar = inst.mean_hessian()
    gbar = inst.gradients.mean(axis=0)

    def full(x: np.ndarray) -> np.ndarray:
        return x - eta * (x @ hbar + gbar)

    def batch(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        drift = _hessian_drift(inst.hessians, idx, x)
        if not interpolating:
            drift += inst.gradients[idx].sum(axis=1)
        return x - (eta / idx.shape[1]) * drift

    return full, batch


def _sgd(inst: ProblemInstance, hp: Hyperparams, cfg: SimConfig, verdict: bool = False) -> EmpiricalMoments | bool:
    """simulate_sgd; with verdict=True a _run verdict instead of the moments."""
    n = inst.n
    b = hp.batch
    if not 1 <= b <= n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    full, batch = _steps(inst, hp.eta)

    def builder(replicate_range):
        if b == n:
            return lambda t, x: full(x)
        batches = _batches(cfg.seed, replicate_range, cfg.steps, n, b)
        return lambda t, x: batch(x, batches[:, t])

    # Per replicate: the (steps, B) batch indices and its B rows of the
    # sample-grouped drift, each of length d.
    return _run(inst, cfg, builder, cfg.steps * b + b * inst.d, verdict)


def simulate_sgd(inst: ProblemInstance, hp: Hyperparams, cfg: SimConfig) -> EmpiricalMoments:
    """Monte-Carlo moments of mini-batch SGD with uniform batches."""
    return _sgd(inst, hp, cfg)


def simulate_mixture(inst: ProblemInstance, eta: float, p: float, cfg: SimConfig) -> EmpiricalMoments:
    """Monte-Carlo moments of the mixture process: one uniform sample with
    probability p, the full batch otherwise.

    Both steps are simulate_sgd's own (_steps).  The sample index is drawn
    every step regardless of the branch, with the same key and map as
    simulate_sgd's batch-one draw, so with matched seeds the paths coincide
    exactly with simulate_sgd at batch size one when p = 1, and at n when
    p = 0.  The coin has its own draw domain.  The full-batch step runs on
    every row (one GEMM; gathering the other rows would cost more), then
    the rows whose coin is set take the B = 1 step, on those rows only.
    """
    check_step_size(eta)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    full, single = _steps(inst, eta)

    def builder(replicate_range):
        idx_all = _batches(cfg.seed, replicate_range, cfg.steps, inst.n, 1)
        single_all = _coins(cfg.seed, replicate_range, cfg.steps, p)

        def kernel(t, x):
            out = full(x)
            rows = np.flatnonzero(single_all[:, t])
            if rows.size:
                out[rows] = single(x[rows], idx_all[rows, t])
            return out

        return kernel

    # Per replicate: the (steps,) sample indices and coins, and one grouped row.
    return _run(inst, cfg, builder, entries_per_replicate=2 * cfg.steps + inst.d)


def growth_window(cfg: SimConfig) -> tuple[int, int]:
    """Window [lo, hi] over which the ensemble average of the squared
    offset still concentrates (hi scales with log2 of the replicates)."""
    hi = min(cfg.steps, max(8, int(math.log2(cfg.replicates)) - 2))
    lo = max(2, hi // 3)
    if hi <= lo:
        raise ValueError(f"the growth window needs steps >= 3, got steps={cfg.steps}")
    return lo, hi


def _grows(mean_sq_perp: np.ndarray, lo: int, hi: int) -> bool:
    """The growth rule: the ensemble perpendicular second moment over steps
    lo..hi has a positive log-linear slope (when some value is not positive,
    its last value exceeds its first)."""
    series = mean_sq_perp[lo : hi + 1]
    if np.any(series <= 0.0):
        return bool(series[-1] > series[0])
    t = np.arange(lo, hi + 1, dtype=float)
    slope = float(np.polyfit(t, np.log(series), 1)[0])
    return slope > 0.0


def classify_unstable(em: EmpiricalMoments, cfg: SimConfig) -> bool:
    """True when the run shows mean-square instability: a divergence flag,
    or positive growth of the ensemble perpendicular second moment over
    the concentration window (_grows).  ValueError for steps < 3."""
    lo, hi = growth_window(cfg)
    return em.diverged or _grows(em.mean_sq_perp, lo, hi)


def empirical_threshold(
    inst: ProblemInstance,
    batch: int,
    cfg: SimConfig,
    eta_lo: float,
    eta_hi: float,
    bisect_tol: float,
) -> float:
    """Bisect the instability classifier between a stable and an unstable
    step size; returns the midpoint of the final bracket.

    When cfg.init_offset is a scalar the shared initial offset is aligned
    with the top eigenvector of the mean Hessian (scaled by that factor),
    which excites the dominant mode immediately and removes most of the
    transient bias from the growth window.

    Each step size gets a verdict-only run (_run): classify_unstable's
    answer for simulate_sgd's run, stopped once it is certain to be True.
    Stable runs take every step, so the value is that of full runs.
    """
    if bisect_tol <= 0:
        raise ValueError("bisect_tol must be positive")
    if not 0 <= eta_lo < eta_hi:
        raise ValueError(f"invalid bracket [{eta_lo}, {eta_hi}]")
    if isinstance(cfg.init_offset, np.ndarray):
        base_cfg = cfg
    else:
        top = sym_eig(inst.mean_hessian()).vectors[:, 0]
        base_cfg = replace(cfg, init_offset=float(cfg.init_offset) * top)

    evaluations = 0

    def unstable_at(eta: float) -> bool:
        nonlocal evaluations
        run_cfg = replace(base_cfg, seed=int(stream(cfg.seed, 10_000 + evaluations).integers(0, 2**63 - 1)))
        evaluations += 1
        return _sgd(inst, Hyperparams(eta=eta, batch=batch), run_cfg, verdict=True)

    if unstable_at(eta_lo):
        raise ValueError(f"bracket invalid: eta_lo={eta_lo} already classifies as unstable")
    if not unstable_at(eta_hi):
        raise ValueError(f"bracket invalid: eta_hi={eta_hi} classifies as stable")
    lo, hi = eta_lo, eta_hi
    while hi - lo >= bisect_tol:
        mid = 0.5 * (lo + hi)
        if unstable_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def write_empirical_csv(path, em: EmpiricalMoments) -> None:
    """CSV columns: t, trace_sigma_perp, trace_sigma_par, mu_norm,
    loss_gap_estimate, replicates, diverged_count."""
    lines = ["t,trace_sigma_perp,trace_sigma_par,mu_norm,loss_gap_estimate,replicates,diverged_count"]
    for t in range(em.mean_sq_perp.size):
        row = (
            str(t),
            _fmt(em.mean_sq_perp[t]),
            _fmt(em.mean_sq_par[t]),
            _fmt(np.linalg.norm(em.mean_offset[t])),
            _fmt(0.5 * em.mean_quad[t]),
            str(em.replicates),
            str(em.diverged_count),
        )
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
