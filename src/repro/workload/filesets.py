"""File populations: ids, sizes, and size-popularity correlation.

A :class:`FileSet` is the static content a simulated server stores: ``F``
files indexed by popularity rank (0 = hottest) with a size in bytes each.

Real WWW traces show heavy-tailed file sizes whose *request-weighted* mean
differs from the plain mean (Table 2: Calgary stores 42.9 KB files on
average but the average *requested* size is only 19.7 KB — hot files tend
to be small).  :func:`build_fileset` reproduces both moments: sizes are
drawn from a bounded lognormal matching the per-file mean, then assigned
to popularity ranks with a tilt chosen by bisection so that the
Zipf-weighted mean matches the requested-size target.

Each bisection step ranks every file by its tilted score.  Once the
bracket is narrow, a step starts from the last step's order, which is
nearly sorted already.  Exactly equal scores are ranked in file-index
order, as a stable sort would.  Ties are the rule, not an exception, at
the end of the search: it converges onto the tilt where two scores cross,
and the final bracket holds the two orders on either side of that tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .zipf import ZipfDistribution

__all__ = ["FileSet", "lognormal_sizes", "build_fileset"]

KB = 1024
#: Smallest file we generate (a bare HTTP response still has a body).
MIN_FILE_BYTES = 64


@dataclass(frozen=True)
class FileSet:
    """Static content of a server: per-rank file sizes in bytes.

    ``sizes[r]`` is the size of the file with popularity rank ``r``.
    """

    sizes: np.ndarray
    alpha: float
    name: str = "fileset"

    def __post_init__(self) -> None:
        sizes = np.ascontiguousarray(self.sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("sizes must be a non-empty 1-D array")
        if (sizes <= 0).any():
            raise ValueError("all file sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def num_files(self) -> int:
        return int(self.sizes.size)

    @property
    def total_bytes(self) -> int:
        """Total footprint (the server's working set size)."""
        return int(self.sizes.sum())

    @property
    def mean_file_bytes(self) -> float:
        return float(self.sizes.mean())

    def popularity(self) -> ZipfDistribution:
        """The Zipf popularity distribution over this population."""
        return ZipfDistribution(self.num_files, self.alpha)

    def mean_request_bytes(self) -> float:
        """Expected size of a *requested* file under the Zipf popularity."""
        return self.popularity().expected_mean_of(self.sizes.astype(np.float64))

    def size_of(self, rank: int) -> int:
        return int(self.sizes[rank])


def lognormal_sizes(
    num_files: int,
    mean_bytes: float,
    sigma: float = 1.6,
    rng: Optional[np.random.Generator] = None,
    max_bytes: Optional[float] = None,
) -> np.ndarray:
    """Draw a heavy-tailed (lognormal) file-size population.

    The lognormal ``mu`` is solved from the target ``mean_bytes`` given
    ``sigma`` (``mean = exp(mu + sigma^2/2)``); the sample is then rescaled
    to hit the mean exactly, clipped to ``[MIN_FILE_BYTES, max_bytes]``.

    ``sigma = 1.6`` yields coefficient-of-variation ≈ 3.4, in line with
    published WWW file-size characterizations (Arlitt & Williamson [2]).
    """
    if num_files <= 0:
        raise ValueError(f"num_files must be positive, got {num_files}")
    if mean_bytes <= MIN_FILE_BYTES:
        raise ValueError(f"mean_bytes must exceed {MIN_FILE_BYTES}, got {mean_bytes}")
    if rng is None:
        rng = np.random.default_rng()
    if max_bytes is None:
        # Bound the tail so no single file dwarfs the cache; the paper's
        # traces have multi-MB maxima against ~tens-of-KB means.
        max_bytes = 400.0 * mean_bytes
    mu = np.log(mean_bytes) - 0.5 * sigma * sigma
    sizes = rng.lognormal(mean=mu, sigma=sigma, size=num_files)
    sizes = np.clip(sizes, MIN_FILE_BYTES, max_bytes)
    # Iteratively rescale: clipping biases the mean, a couple of rounds fix it.
    for _ in range(8):
        current = sizes.mean()
        if abs(current - mean_bytes) / mean_bytes < 1e-6:
            break
        sizes = np.clip(sizes * (mean_bytes / current), MIN_FILE_BYTES, max_bytes)
    return np.maximum(1, np.round(sizes)).astype(np.int64)


def _rank(scores: np.ndarray, hint: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.argsort(scores, kind="stable")``, from a warm start if given.

    A plain argsort, or with ``hint`` (the last step's order) a stable
    sort of the nearly sorted ``scores[hint]``, gives that order when all
    scores differ.  An exact tie falls back to the stable sort, which keeps
    tied files in index order: the search's final bracket sits on a tie.
    """
    if hint is None:
        order = np.argsort(scores)
    else:
        order = hint[np.argsort(scores[hint], kind="stable")]
    ranked = scores[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(scores, kind="stable")
    return order


def build_fileset(
    num_files: int,
    mean_file_bytes: float,
    mean_request_bytes: float,
    alpha: float,
    seed: int = 0,
    sigma: float = 1.6,
    name: str = "fileset",
    tolerance: float = 0.02,
) -> FileSet:
    """Build a :class:`FileSet` matching both size moments of a trace.

    Parameters mirror one row of the paper's Table 2: file count, average
    stored-file size, average *requested* size, and Zipf alpha.  The
    size-vs-popularity tilt is found by bisection so the Zipf-weighted mean
    size lands within ``tolerance`` (relative) of ``mean_request_bytes``.
    """
    rng = np.random.default_rng(seed)
    sizes = np.sort(lognormal_sizes(num_files, mean_file_bytes, sigma, rng))
    noise = rng.standard_normal(num_files) * 1.0
    log_sizes = np.log(sizes)
    pmf = ZipfDistribution(num_files, alpha).pmf
    order: Optional[np.ndarray] = None

    def tilted(theta: float) -> np.ndarray:
        # Ascending scores take the hot ranks, so positive theta puts small
        # files hot; in a narrow bracket the last order is nearly sorted.
        nonlocal order
        hint = order if hi - lo < 1e-3 else None
        order = _rank(theta * log_sizes + noise, hint)
        return sizes[order]

    def weighted_mean(theta: float) -> float:
        return float(pmf @ tilted(theta))

    target = float(mean_request_bytes)
    # weighted_mean is monotone non-increasing in theta: positive theta
    # ranks small files hot, pulling the request-weighted mean down.
    lo, hi = -8.0, 8.0
    mlo, mhi = weighted_mean(lo), weighted_mean(hi)
    if not (mhi <= target <= mlo):
        raise ValueError(
            f"mean_request_bytes={target:.0f} unreachable: the achievable "
            f"range for this population is [{mhi:.0f}, {mlo:.0f}]"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if weighted_mean(mid) > target:
            lo = mid
        else:
            hi = mid

    # The permutation search is discrete: the weighted mean jumps at every
    # rank swap, so the bisection brackets the target between two
    # assignments rather than hitting it.  A convex blend of the two
    # bracket assignments interpolates the weighted mean *exactly* while
    # preserving the total byte count (both are permutations of the same
    # multiset) and keeping every size positive.
    r_lo = tilted(lo).astype(np.float64)
    r_hi = tilted(hi).astype(np.float64)
    m_lo, m_hi = float(pmf @ r_lo), float(pmf @ r_hi)
    if abs(m_lo - m_hi) < 1e-12:
        w = 0.0
    else:
        w = min(1.0, max(0.0, (m_lo - target) / (m_lo - m_hi)))
    ranked = (1.0 - w) * r_lo + w * r_hi

    ranked = np.maximum(1, np.round(ranked)).astype(np.int64)
    achieved = float(pmf @ ranked)
    if abs(achieved - target) / target > tolerance:
        raise ValueError(
            f"calibration failed to match mean request size: wanted "
            f"{target:.0f}, achieved {achieved:.0f} (population too small or "
            f"skew too strong for this target)"
        )
    return FileSet(sizes=ranked, alpha=alpha, name=name)
