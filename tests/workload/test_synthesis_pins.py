"""SHA-256 pins of the synthesized file populations and request streams.

The SimResult goldens pin these only indirectly, through whatever a run
happens to touch.  Here every byte of the Table-2 file populations and of
perfbench's 24,000-request window sets is pinned, so a change to the
synthesis code that is meant to be a pure speed-up must leave them
exactly as they are.  Digests are over little-endian int64 bytes.
"""

import hashlib

import pytest

from repro.workload import build_fileset, synthesize
from repro.workload.presets import PRESETS


def _digest(array) -> str:
    return hashlib.sha256(array.astype("<i8").tobytes()).hexdigest()


PRESET_FILESETS = {
    ("calgary", 0): "86196d32ade81fc67b4f5a115471f62cef081f3d7a50714c49e4cf559f9a1829",
    ("calgary", 1): "214e62ec91a877903d96b37e5455f38abbf238aad159c91c4e094a53ba99937f",
    ("calgary", 2): "5679d713916b93c6d3e417fafe5d663a15e950821e791b1a0a235e6b1103412b",
    ("clarknet", 0): "47e596ce922d529695206bb5ce2b6fa76ada012d603d9000890dbfb81eabe3e0",
    ("clarknet", 1): "1f9a60cd83a55f32ec4daf3e6d6138724744a1296d814d463fdcc22556bd8f9d",
    ("clarknet", 2): "321dfeb045af839e2ea3f251aa33f6e7dbea52d0f6dcf9f753af93514aa60f9d",
    ("nasa", 0): "39e58b2c4d74e79b992e821596dfe87f617210f22058d7aa0fa7f9c003424f06",
    ("nasa", 1): "554c0c88beab480beedb89c55ed660ea336bf555968c31d6c2df9eb3adebe57e",
    ("nasa", 2): "adadda72a7ab640d2280aa495b1363cea2318b2eb17b671103b50ab1ed0f93be",
    ("rutgers", 0): "9f1d68a1e911a39326d6545eea9e53ca7738e10ae1ed6477b6a4a7df6d10a4db",
    ("rutgers", 1): "92739b93d15b23c7e5676a33b26e97d3bc3d8da25fcca85a1c82b01454970a6b",
    ("rutgers", 2): "ee65a7e81e56ecccc456e3d5ab0cae8f78460ee81674a97c37ac22c0105b5cc3",
}

#: The build_fileset calls of tests/test_integration.py:
#: (num_files, mean_file_bytes, mean_request_bytes, alpha, seed).
INTEGRATION_FILESETS = {
    (300, 18 * 1024, 14 * 1024, 0.9, 3): (
        "7764556227e5073a5b52ffeb8bd74eae88f9cee03febe964ddc9a12297d91db0"
    ),
    (600, 18 * 1024, 15 * 1024, 0.8, 9): (
        "56860d4f1b06416e42f89f08296c8a58f0bbddf08e1448fc67a3a8b0dc660f63"
    ),
    (300, 18 * 1024, 14 * 1024, 0.9, 11): (
        "43dc2a5555d502f07382a20fa662cec44beadaf0b8fc7154167619e6683b277a"
    ),
    (300, 18 * 1024, 14 * 1024, 0.9, 12): (
        "f3b975d04d0d9b2d18397be97733a72d2e4b506c0b73261797f960f64fbc8271"
    ),
}

#: ``synthesize(preset, num_requests=24_000, seed=1).file_ids``: the
#: window set perfbench's simulator workloads cut into 24 jobs.
WINDOW_SETS = {
    "calgary": "d075e3e3b9eb3316aedd16c528b90b04be044f512165516dc99242acb3874e6c",
    "clarknet": "785b6924c37d51cf6e71c85c828679618c836f39fcf167e615728959317fc81f",
    "nasa": "eb2b8c3ccafc5087dc82ccbcf4892ff95782f2de52314b1456ec4460e1faa91a",
    "rutgers": "d0d0fdefd3180eba65da3863fd09807f8c781fc907f51ea85afffa0b498759d3",
}


@pytest.mark.parametrize("name,seed", sorted(PRESET_FILESETS))
def test_preset_fileset_bytes_are_pinned(name, seed):
    p = PRESETS[name]
    fs = build_fileset(
        p.num_files, p.avg_file_kb * 1024.0, p.avg_request_kb * 1024.0,
        p.alpha, seed=seed,
    )
    assert _digest(fs.sizes) == PRESET_FILESETS[name, seed]


@pytest.mark.parametrize("args", sorted(INTEGRATION_FILESETS))
def test_integration_fileset_bytes_are_pinned(args):
    *moments, seed = args
    fs = build_fileset(*moments, seed=seed)
    assert _digest(fs.sizes) == INTEGRATION_FILESETS[args]


@pytest.mark.parametrize("name", sorted(WINDOW_SETS))
def test_perfbench_window_set_is_pinned(name):
    trace = synthesize(name, num_requests=24_000, seed=1)
    assert _digest(trace.file_ids) == WINDOW_SETS[name]
