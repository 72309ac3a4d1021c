"""Tests for file populations and the two-moment size calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import FileSet, build_fileset, filesets, lognormal_sizes
from repro.workload.presets import PRESETS


def test_lognormal_sizes_hits_mean():
    sizes = lognormal_sizes(20_000, 30 * 1024, rng=np.random.default_rng(0))
    assert sizes.mean() == pytest.approx(30 * 1024, rel=0.01)
    assert (sizes > 0).all()


def test_lognormal_sizes_heavy_tail():
    sizes = lognormal_sizes(50_000, 20 * 1024, rng=np.random.default_rng(1))
    # Heavy tail: the max should dwarf the mean, and the median sit below it.
    assert sizes.max() > 20 * sizes.mean()
    assert np.median(sizes) < sizes.mean()


def test_lognormal_sizes_validation():
    with pytest.raises(ValueError):
        lognormal_sizes(0, 1024)
    with pytest.raises(ValueError):
        lognormal_sizes(10, 10)  # below MIN_FILE_BYTES


def test_fileset_basic_properties():
    fs = FileSet(sizes=np.array([100, 200, 300]), alpha=1.0, name="t")
    assert fs.num_files == 3
    assert fs.total_bytes == 600
    assert fs.mean_file_bytes == pytest.approx(200)
    assert fs.size_of(1) == 200


def test_fileset_validation():
    with pytest.raises(ValueError):
        FileSet(sizes=np.array([]), alpha=1.0)
    with pytest.raises(ValueError):
        FileSet(sizes=np.array([10, 0]), alpha=1.0)
    with pytest.raises(ValueError):
        FileSet(sizes=np.array([[1, 2]]), alpha=1.0)


def test_fileset_mean_request_bytes_uniform():
    fs = FileSet(sizes=np.array([100, 200, 300]), alpha=0.0)
    assert fs.mean_request_bytes() == pytest.approx(200.0)


def test_fileset_mean_request_bytes_skewed():
    # With strong skew, the mean request size approaches the hot file's
    # size: z(1, 100, 3) = 1/H_100(3) ≈ 0.832, so the expected requested
    # size is ≈ 0.832*100 + 0.168*10000 ≈ 1764 — far below the 9901-byte
    # per-file mean.
    fs = FileSet(sizes=np.array([100] + [10_000] * 99), alpha=3.0)
    assert fs.mean_request_bytes() == pytest.approx(1764, rel=0.01)
    assert fs.mean_request_bytes() < 0.2 * fs.mean_file_bytes


def test_build_fileset_matches_both_moments():
    fs = build_fileset(
        num_files=8_397,
        mean_file_bytes=42.9 * 1024,
        mean_request_bytes=19.7 * 1024,
        alpha=1.08,
        seed=0,
        name="calgary-like",
    )
    assert fs.num_files == 8_397
    assert fs.mean_file_bytes == pytest.approx(42.9 * 1024, rel=0.02)
    assert fs.mean_request_bytes() == pytest.approx(19.7 * 1024, rel=0.02)


def test_build_fileset_request_mean_above_file_mean():
    # Clarknet-style: requested files slightly larger than average file.
    fs = build_fileset(
        num_files=35_885,
        mean_file_bytes=11.6 * 1024,
        mean_request_bytes=11.9 * 1024,
        alpha=0.78,
        seed=0,
    )
    assert fs.mean_request_bytes() == pytest.approx(11.9 * 1024, rel=0.02)


def test_build_fileset_unreachable_target_raises():
    with pytest.raises(ValueError):
        build_fileset(
            num_files=100,
            mean_file_bytes=10 * 1024,
            mean_request_bytes=10_000 * 1024,  # absurdly large
            alpha=1.0,
            seed=0,
        )


def test_build_fileset_deterministic():
    a = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=5)
    b = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=5)
    assert (a.sizes == b.sizes).all()


def test_build_fileset_seed_changes_population():
    a = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=5)
    b = build_fileset(1000, 20 * 1024, 15 * 1024, 0.9, seed=6)
    assert not (a.sizes == b.sizes).all()


def _tied_scores(rng, n=2_000):
    """Scores with many planted exact ties, at runs and scattered."""
    scores = rng.standard_normal(n)
    scores[rng.integers(0, n, n // 4)] = scores[rng.integers(0, n, n // 4)]
    scores[100:140] = 0.5
    scores[-7:] = scores[0]
    return scores


def _hints(rng, n):
    yield None
    yield np.arange(n)
    yield np.arange(n)[::-1].copy()
    for _ in range(5):
        yield rng.permutation(n)


@pytest.mark.parametrize("seed", range(3))
def test_rank_is_the_stable_argsort_under_planted_ties(seed):
    rng = np.random.default_rng(seed)
    scores = _tied_scores(rng)
    assert len(np.unique(scores)) < len(scores)
    stable = np.argsort(scores, kind="stable")
    for hint in _hints(rng, len(scores)):
        assert np.array_equal(filesets._rank(scores, hint), stable)


def test_rank_is_the_stable_argsort_without_ties():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(5_000)
    stable = np.argsort(scores, kind="stable")
    # A nearly sorted hint, as the tilt search passes once its bracket
    # is narrow, as well as the general ones.
    nearly = np.argsort(scores + 1e-3 * rng.standard_normal(5_000))
    for hint in [nearly, *_hints(rng, len(scores))]:
        assert np.array_equal(filesets._rank(scores, hint), stable)


@pytest.mark.parametrize("name", ["calgary", "clarknet"])
def test_preset_build_reaches_the_tie_fallback(name, monkeypatch):
    """The tilt search converges onto a theta where two scores are exactly
    equal, so a real build needs the stable tie order to pick its final
    bracket, not just planted inputs."""
    rank = filesets._rank
    tied = []

    def spy(scores, hint=None):
        ranked = np.sort(scores)
        if (ranked[1:] == ranked[:-1]).any():
            tied.append(hint is not None)
        order = rank(scores, hint)
        assert np.array_equal(order, np.argsort(scores, kind="stable"))
        return order

    monkeypatch.setattr(filesets, "_rank", spy)
    p = PRESETS[name]
    build_fileset(
        p.num_files, p.avg_file_kb * 1024.0, p.avg_request_kb * 1024.0,
        p.alpha, seed=0,
    )
    assert any(tied), "no exact tie on the warm-started (narrow) path"


@given(
    num_files=st.integers(min_value=200, max_value=3000),
    mean_kb=st.floats(min_value=5.0, max_value=80.0),
    ratio=st.floats(min_value=0.5, max_value=1.3),
    alpha=st.floats(min_value=0.5, max_value=1.2),
)
@settings(max_examples=25, deadline=None)
def test_property_build_fileset_two_moments(num_files, mean_kb, ratio, alpha):
    """Whenever calibration succeeds, both size moments are within 3%."""
    mean_bytes = mean_kb * 1024
    target_req = ratio * mean_bytes
    try:
        fs = build_fileset(num_files, mean_bytes, target_req, alpha, seed=1)
    except ValueError:
        return  # target outside the achievable range: acceptable, documented
    assert fs.mean_file_bytes == pytest.approx(mean_bytes, rel=0.03)
    assert fs.mean_request_bytes() == pytest.approx(target_req, rel=0.03)
