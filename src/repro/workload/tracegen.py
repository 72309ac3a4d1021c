"""Synthetic trace generation.

The paper drives its simulator with four real WWW access logs.  Those logs
are not redistributable, so this module synthesizes request streams whose
*measured* characteristics match the published ones (Table 2): Zipf-like
popularity with the trace's alpha, the trace's file-size moments (via
:func:`repro.workload.filesets.build_fileset`), and optional short-term
temporal locality.

Temporal locality matters for LRU caches: real logs re-reference recently
requested files more than an i.i.d. Zipf stream does.  We expose it as a
``locality`` knob implementing a simple LRU-stack model: with probability
``locality`` the next request is drawn from the most recent distinct
references; otherwise it is an independent Zipf draw.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from .filesets import FileSet, build_fileset
from .traces import Trace

__all__ = [
    "generate_trace",
    "synthesize_trace",
    "poisson_timestamps",
    "diurnal_timestamps",
    "flash_ramp_trace",
    "popularity_churn_trace",
]

#: Requests the locality rewrite copies to lists at a time (bounds memory).
_CHUNK = 1 << 16


def poisson_timestamps(
    num_requests: int,
    rate_per_sec: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Cumulative Poisson arrival times (seconds) at ``rate_per_sec``."""
    if rate_per_sec <= 0:
        raise ValueError("rate_per_sec must be positive")
    if rng is None:
        # A zero-argument default_rng() seeds from OS entropy, so bare
        # calls would yield different arrival times run to run (simlint
        # REP103 traced this into chaos scenario generation).  Fall back
        # to a fixed seed instead; callers wanting variation pass an rng.
        rng = np.random.default_rng(0)
    gaps = rng.exponential(1.0 / rate_per_sec, size=num_requests)
    return np.cumsum(gaps)


def diurnal_timestamps(
    num_requests: int,
    base_rate_per_sec: float,
    amplitude: float = 0.5,
    period_s: float = 60.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Non-stationary Poisson arrivals with sinusoidal rate modulation.

    The instantaneous rate is ``base_rate * (1 + amplitude *
    sin(2*pi*t/period_s))`` — the classic diurnal load curve, compressed
    to whatever ``period_s`` the experiment wants.  Generated by
    thinning (Lewis & Shedler): candidates arrive at the peak rate and
    are accepted with probability ``rate(t) / peak_rate``, so the output
    is an exact draw from the inhomogeneous process, deterministic for a
    given ``rng``.
    """
    if base_rate_per_sec <= 0:
        raise ValueError("base_rate_per_sec must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    if rng is None:
        rng = np.random.default_rng(0)  # same rationale as poisson_timestamps
    peak = base_rate_per_sec * (1.0 + amplitude)
    out = np.empty(num_requests)
    t = 0.0
    k = 0
    while k < num_requests:
        # Vectorized thinning in blocks: candidates + accept draws.
        block = max(64, num_requests - k)
        gaps = rng.exponential(1.0 / peak, size=block)
        cand = t + np.cumsum(gaps)
        rate = base_rate_per_sec * (
            1.0 + amplitude * np.sin(2.0 * np.pi * cand / period_s)
        )
        keep = cand[rng.random(block) < rate / peak]
        take = min(len(keep), num_requests - k)
        out[k:k + take] = keep[:take]
        k += take
        t = cand[-1]
    return out


def _representative_rank(trace: Trace) -> int:
    """A viral-page candidate: popularity rank whose file size is near
    the trace's mean requested size (very popular ranks are small files
    by construction, which would make spike requests cheaper than
    average and mask the hotspot)."""
    num_files = trace.fileset.num_files
    lo, hi = 20, min(500, num_files)
    if hi <= lo:
        return num_files // 2
    sizes = trace.fileset.sizes
    target = trace.mean_request_bytes()
    return int(lo + np.argmin(np.abs(sizes[lo:hi] - target)))


def flash_ramp_trace(
    base: Trace,
    ramp_start: float = 0.3,
    ramp_end: float = 0.7,
    peak_share: float = 0.6,
    hot_rank: Optional[int] = None,
    seed: int = 0,
) -> Trace:
    """A flash crowd that *builds*: the hot share ramps linearly.

    Unlike :func:`repro.experiments.flashcrowd.flash_crowd_trace` (a
    step to ``hot_share`` for the whole window), the probability that a
    request inside ``[ramp_start, ramp_end)`` (fractions of the trace)
    is redirected to ``hot_rank`` grows linearly from 0 at the window
    start to ``peak_share`` at its end — the overload experiments' knob
    for driving a cluster *through* its saturation knee rather than
    teleporting past it.
    """
    if not 0.0 <= ramp_start < 1.0:
        raise ValueError("ramp_start must be in [0, 1)")
    if not ramp_start < ramp_end <= 1.0:
        raise ValueError("ramp_end must be in (ramp_start, 1]")
    if not 0.0 < peak_share <= 1.0:
        raise ValueError("peak_share must be in (0, 1]")
    if hot_rank is None:
        hot_rank = _representative_rank(base)
    if not 0 <= hot_rank < base.fileset.num_files:
        raise IndexError("hot_rank outside the file population")
    n = len(base)
    lo, hi = int(n * ramp_start), int(n * ramp_end)
    rng = np.random.default_rng(seed)
    ids = base.file_ids.copy()
    width = max(1, hi - lo)
    # Per-request redirect probability rises linearly across the window.
    share = peak_share * (np.arange(hi - lo) + 1) / width
    mask = rng.random(hi - lo) < share
    ids[lo:hi] = np.where(mask, hot_rank, ids[lo:hi])
    return Trace(
        f"{base.name}+ramp", base.fileset, ids, timestamps=base.timestamps
    )


def popularity_churn_trace(
    base: Trace,
    churn_start: float = 0.3,
    churn_end: float = 0.7,
    intensity: float = 0.5,
    depth: int = 100,
    seed: int = 0,
) -> Trace:
    """Popularity churn: *which* files are hot changes mid-trace.

    Within ``[churn_start, churn_end)`` (fractions of the trace), each
    request to one of the ``depth`` most popular ranks is remapped
    through a seeded permutation of those ranks with probability
    ``intensity``.  Aggregate load is unchanged — the same Zipf mass
    hits the same number of files — but the working set rotates, which
    is what invalidates locality-based placement (LARD server sets, L2S
    replication) and defeats warm caches.
    """
    if not 0.0 <= churn_start < 1.0:
        raise ValueError("churn_start must be in [0, 1)")
    if not churn_start < churn_end <= 1.0:
        raise ValueError("churn_end must be in (churn_start, 1]")
    if not 0.0 < intensity <= 1.0:
        raise ValueError("intensity must be in (0, 1]")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    depth = min(depth, base.fileset.num_files)
    n = len(base)
    lo, hi = int(n * churn_start), int(n * churn_end)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(depth)
    ids = base.file_ids.copy()
    window = ids[lo:hi]
    hot = window < depth
    churned = rng.random(hi - lo) < intensity
    remap = hot & churned
    window[remap] = perm[window[remap]]
    ids[lo:hi] = window
    return Trace(
        f"{base.name}+churn", base.fileset, ids, timestamps=base.timestamps
    )


def generate_trace(
    fileset: FileSet,
    num_requests: int,
    seed: int = 0,
    locality: float = 0.0,
    locality_depth: int = 64,
    arrival_rate: Optional[float] = None,
    name: Optional[str] = None,
) -> Trace:
    """Generate a request stream over ``fileset``.

    Parameters
    ----------
    fileset:
        The file population (sizes indexed by popularity rank).
    num_requests:
        Number of requests to generate.
    seed:
        RNG seed — a given (fileset, seed) pair always yields the same trace.
    locality:
        Probability in [0, 1) that a request re-references one of the
        ``locality_depth`` most recently touched distinct files instead of
        being an independent Zipf draw.  0 gives an i.i.d. Zipf stream.
    locality_depth:
        Size of the recent-reference stack used by the locality model.
    arrival_rate:
        If given, attach Poisson timestamps at this many requests/second.
    """
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    if not 0.0 <= locality < 1.0:
        raise ValueError("locality must be in [0, 1)")
    if locality_depth <= 0:
        raise ValueError("locality_depth must be positive")

    rng = np.random.default_rng(seed)
    zipf = fileset.popularity()
    base = zipf.sample(num_requests, rng)

    if locality > 0.0 and num_requests > 0:
        # LRU-stack rewrite: replace a fraction of draws with recent refs,
        # on lists a chunk at a time (numpy scalars are slow to loop over).
        take_recent = rng.random(num_requests) < locality
        stack_pick = rng.random(num_requests)  # position within the stack
        recent: "OrderedDict[int, None]" = OrderedDict()
        for at in range(0, num_requests, _CHUNK):
            span = slice(at, at + _CHUNK)
            chunk = (base[span], take_recent[span], stack_pick[span])
            rewritten = []
            for fid, take, pick in zip(*(a.tolist() for a in chunk)):
                if take and recent:
                    keys = list(recent)
                    # Bias towards the top of the stack (most recent first).
                    idx = int(len(keys) * pick ** 2)
                    fid = keys[len(keys) - 1 - min(idx, len(keys) - 1)]
                rewritten.append(fid)
                recent.pop(fid, None)
                recent[fid] = None
                if len(recent) > locality_depth:
                    recent.popitem(last=False)
            base[span] = rewritten

    timestamps = None
    if arrival_rate is not None:
        timestamps = poisson_timestamps(num_requests, arrival_rate, rng)

    return Trace(
        name=name or fileset.name,
        fileset=fileset,
        file_ids=base,
        timestamps=timestamps,
    )


def synthesize_trace(
    num_files: int,
    mean_file_kb: float,
    num_requests: int,
    mean_request_kb: float,
    alpha: float,
    seed: int = 0,
    locality: float = 0.0,
    name: str = "synthetic",
) -> Trace:
    """One-call synthesis from Table-2 style characteristics.

    Builds the file population (matching file count, both size moments and
    alpha) and generates the request stream in one step.
    """
    fileset = build_fileset(
        num_files=num_files,
        mean_file_bytes=mean_file_kb * 1024.0,
        mean_request_bytes=mean_request_kb * 1024.0,
        alpha=alpha,
        seed=seed,
        name=name,
    )
    return generate_trace(
        fileset,
        num_requests=num_requests,
        seed=seed + 1,
        locality=locality,
        name=name,
    )
