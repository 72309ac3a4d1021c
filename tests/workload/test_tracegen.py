"""Tests for synthetic trace generation and Table-2 presets."""

import numpy as np
import pytest

from repro.workload import (
    PRESETS,
    TRACE_ORDER,
    ZipfDistribution,
    build_fileset,
    fit_zipf_alpha,
    generate_trace,
    poisson_timestamps,
    preset,
    synthesize,
    synthesize_trace,
)


def small_fileset(n=500, alpha=0.9, seed=0):
    return build_fileset(n, 20 * 1024, 16 * 1024, alpha, seed=seed)


def test_generate_trace_deterministic():
    fs = small_fileset()
    a = generate_trace(fs, 5000, seed=3)
    b = generate_trace(fs, 5000, seed=3)
    assert (a.file_ids == b.file_ids).all()


def test_generate_trace_respects_population():
    fs = small_fileset(100)
    t = generate_trace(fs, 10_000, seed=1)
    assert t.file_ids.min() >= 0
    assert t.file_ids.max() < 100


def test_generate_trace_zipf_shape():
    fs = small_fileset(200, alpha=1.0)
    t = generate_trace(fs, 100_000, seed=2)
    counts = np.bincount(t.file_ids, minlength=200).astype(np.float64)
    alpha_hat = fit_zipf_alpha(counts)
    assert alpha_hat == pytest.approx(1.0, abs=0.1)


def test_generate_trace_locality_increases_rereference():
    fs = small_fileset(2000, alpha=0.7)

    def rereference_rate(trace, window=32):
        ids = trace.file_ids
        hits = 0
        recent = []
        for fid in ids:
            if fid in recent:
                hits += 1
                recent.remove(fid)
            recent.append(fid)
            if len(recent) > window:
                recent.pop(0)
        return hits / len(ids)

    iid = generate_trace(fs, 20_000, seed=4, locality=0.0)
    loc = generate_trace(fs, 20_000, seed=4, locality=0.4)
    assert rereference_rate(loc) > rereference_rate(iid) + 0.05


def _locality_reference(fileset, num_requests, seed, locality, depth=64):
    """The per-element locality rewrite, as written before it ran on lists."""
    from collections import OrderedDict

    rng = np.random.default_rng(seed)
    out = fileset.popularity().sample(num_requests, rng)
    take_recent = rng.random(num_requests) < locality
    stack_pick = rng.random(num_requests)
    recent = OrderedDict()
    for k in range(num_requests):
        fid = int(out[k])
        if take_recent[k] and recent:
            keys = list(recent)
            idx = int(len(keys) * stack_pick[k] ** 2)
            fid = keys[len(keys) - 1 - min(idx, len(keys) - 1)]
            out[k] = fid
        recent.pop(fid, None)
        recent[fid] = None
        if len(recent) > depth:
            recent.popitem(last=False)
    return out


@pytest.mark.parametrize("chunk", [None, 1, 97])
def test_locality_rewrite_matches_the_per_element_reference(chunk, monkeypatch):
    # The LRU stack carries across chunk boundaries: small chunks put
    # thousands of boundaries inside one trace.
    from repro.workload import tracegen

    if chunk is not None:
        monkeypatch.setattr(tracegen, "_CHUNK", chunk)
    fs = small_fileset()
    trace = generate_trace(fs, 3000, seed=5, locality=0.4)
    assert trace.file_ids.dtype == np.int64
    assert np.array_equal(trace.file_ids, _locality_reference(fs, 3000, 5, 0.4))


def test_generate_trace_validation():
    fs = small_fileset(10)
    with pytest.raises(ValueError):
        generate_trace(fs, -1)
    with pytest.raises(ValueError):
        generate_trace(fs, 10, locality=1.0)
    with pytest.raises(ValueError):
        generate_trace(fs, 10, locality_depth=0)


def test_generate_trace_with_arrivals():
    fs = small_fileset(10)
    t = generate_trace(fs, 100, seed=0, arrival_rate=50.0)
    assert t.timestamps is not None
    assert (np.diff(t.timestamps) >= 0).all()
    # Mean gap should be about 1/50 s.
    assert np.diff(t.timestamps).mean() == pytest.approx(0.02, rel=0.5)


def test_poisson_timestamps_validation():
    with pytest.raises(ValueError):
        poisson_timestamps(10, 0.0)


def test_synthesize_trace_matches_request_moment():
    t = synthesize_trace(
        num_files=3000,
        mean_file_kb=30.0,
        num_requests=60_000,
        mean_request_kb=24.0,
        alpha=0.9,
        seed=0,
    )
    # Empirical requested-size mean within 10% of target.
    assert t.mean_request_bytes() == pytest.approx(24.0 * 1024, rel=0.10)
    assert t.fileset.mean_file_bytes == pytest.approx(30.0 * 1024, rel=0.03)


def test_presets_match_paper_table2():
    assert set(TRACE_ORDER) == set(PRESETS)
    cal = preset("calgary")
    assert cal.num_files == 8397
    assert cal.avg_file_kb == 42.9
    assert cal.num_requests == 567_895
    assert cal.avg_request_kb == 19.7
    assert cal.alpha == 1.08
    assert preset("Clarknet").alpha == 0.78
    assert preset("NASA").avg_request_kb == 47.0
    assert preset("rutgers").num_files == 24098


def test_preset_footprints_in_paper_range():
    """Paper: working sets span roughly 288-717 MB."""
    for name in TRACE_ORDER:
        mb = preset(name).footprint_mb
        assert 250 <= mb <= 760, f"{name}: {mb:.0f} MB out of expected range"


def test_preset_unknown_name():
    with pytest.raises(KeyError):
        preset("unknown")


def test_synthesize_scaled_default():
    t = synthesize("nasa", num_requests=2000, seed=0)
    assert len(t) == 2000
    assert t.name == "nasa"
    assert t.fileset.num_files == 5500


def test_synthesize_respects_full_traces_env(monkeypatch):
    monkeypatch.setenv("REPRO_FULL_TRACES", "0")
    from repro.workload.presets import _default_requests, DEFAULT_REQUESTS

    assert _default_requests() == DEFAULT_REQUESTS
    monkeypatch.setenv("REPRO_FULL_TRACES", "1")
    assert _default_requests() is None


def test_synthesized_trace_empirical_alpha():
    t = synthesize("clarknet", num_requests=150_000, seed=1, locality=0.0)
    counts = np.bincount(t.file_ids, minlength=t.fileset.num_files)
    alpha_hat = fit_zipf_alpha(counts.astype(np.float64))
    assert alpha_hat == pytest.approx(0.78, abs=0.12)
