"""Tests for the synthetic trace / file population."""

import math
import random
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.trace import FileSet


def test_uniform_file_size():
    fs = FileSet(n_files=100, file_bytes=2048)
    assert fs.size("f000000") == 2048
    assert fs.size("anything") == 2048
    assert fs.total_bytes == 100 * 2048


def test_sample_returns_valid_names():
    fs = FileSet(n_files=50)
    rng = random.Random(1)
    for _ in range(200):
        name = fs.sample(rng)
        index = int(name[1:])
        assert 0 <= index < 50


def test_zipf_skew_prefers_popular_files():
    fs = FileSet(n_files=1000, zipf_s=0.8)
    rng = random.Random(2)
    samples = fs.sample_many(rng, 5000)
    top_decile = sum(1 for s in samples if int(s[1:]) < 100)
    assert top_decile / 5000 > 0.3  # far above the uniform 10%


def test_sampling_deterministic_under_seed():
    fs = FileSet(n_files=100)
    a = fs.sample_many(random.Random(7), 50)
    b = fs.sample_many(random.Random(7), 50)
    assert a == b


def test_coverage_hit_ratio_monotone():
    fs = FileSet(n_files=1000)
    ratios = [fs.coverage_hit_ratio(n) for n in (0, 10, 100, 500, 1000)]
    assert ratios == sorted(ratios)
    assert ratios[0] == 0.0
    assert ratios[-1] == pytest.approx(1.0)


def test_coverage_clamps_out_of_range():
    fs = FileSet(n_files=10)
    assert fs.coverage_hit_ratio(-5) == 0.0
    assert fs.coverage_hit_ratio(99) == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ValueError):
        FileSet(n_files=0)
    with pytest.raises(ValueError):
        FileSet(file_bytes=0)


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_samples_always_in_population(n_files, zipf_s, seed):
    fs = FileSet(n_files=n_files, zipf_s=zipf_s)
    rng = random.Random(seed)
    for _ in range(20):
        assert 0 <= int(fs.sample(rng)[1:]) < n_files


@settings(max_examples=20)
@given(st.integers(min_value=2, max_value=2000))
def test_property_coverage_is_a_cdf(n_files):
    fs = FileSet(n_files=n_files)
    prev = 0.0
    for n in range(0, n_files + 1, max(1, n_files // 10)):
        cur = fs.coverage_hit_ratio(n)
        assert 0.0 <= cur <= 1.0
        assert cur >= prev
        prev = cur


# ----------------------------------------------------------------------
# numpy is a test-only oracle: the runtime builds the CDF and draws from
# it with the standard library.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


# ----------------------------------------------------------------------
# The pure-Python CDF is the numpy-built one to within 2 ulp
# ----------------------------------------------------------------------


def _numpy_cdf(np, n_files, zipf_s):
    """The oracle: numpy's vectorised power, cumsum and in-place divide."""
    ranks = np.arange(1, n_files + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** (-zipf_s))
    cdf /= cdf[-1]
    return cdf


def _ordinal(x):
    """Position of a non-negative double on the line of doubles."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


@pytest.mark.parametrize("zipf_s", [0.5, 0.8, 1.2])
@pytest.mark.parametrize("n_files", [64, 300, 1000, 3000, 60_000])
def test_cdf_within_two_ulp_of_numpy(np, n_files, zipf_s):
    ours = FileSet(n_files=n_files, zipf_s=zipf_s)._cdf
    theirs = _numpy_cdf(np, n_files, zipf_s).tolist()
    assert len(ours) == len(theirs) == n_files
    worst = max(abs(_ordinal(a) - _ordinal(b)) for a, b in zip(ours, theirs))
    assert worst <= 2


@pytest.mark.parametrize("zipf_s", [0.0, 0.5, 0.8, 1.2, 2.0])
@pytest.mark.parametrize("n_files", [1, 2, 64, 60_000])
def test_cdf_ends_at_exactly_one(n_files, zipf_s):
    assert FileSet(n_files=n_files, zipf_s=zipf_s)._cdf[-1] == 1.0


def _nudged(cdf):
    """``cdf`` with every 20th entry but the last moved by 1 or 2 ulp,
    alternately up and down."""
    out = array("d", cdf)
    for k, i in enumerate(range(0, len(out) - 1, 20)):
        toward = 2.0 if k % 2 else 0.0
        for _ in range(1 + (k // 2) % 2):
            out[i] = math.nextafter(out[i], toward)
    return out


def test_full_scale_draw_stream_matches_numpy_cdf(np):
    """Where two CDFs differ by <= 2 ulp a draw moves only when
    ``rng.random()`` lands exactly on a moved boundary.

    Whether the numpy-built CDF differs from ours at all depends on the
    ``power`` routine numpy dispatches to on the CPU at hand, so the
    stream is also checked against a copy of ours that is nudged by
    1-2 ulp on every host.
    """
    fs = FileSet(n_files=60_000, zipf_s=0.8)
    ours = fs.sample_many(random.Random(7), 200_000)

    def stream(cdf):
        other = FileSet(n_files=60_000, zipf_s=0.8)
        other._cdf = cdf
        return other.sample_many(random.Random(7), 200_000)

    nudged = _nudged(fs._cdf)
    worst = max(abs(_ordinal(a) - _ordinal(b)) for a, b in zip(nudged, fs._cdf))
    assert worst == 2 and nudged[-1] == 1.0
    assert stream(nudged) == ours
    assert stream(array("d", _numpy_cdf(np, 60_000, 0.8).tobytes())) == ours


# ----------------------------------------------------------------------
# The bisect draw picks the index np.searchsorted would
# ----------------------------------------------------------------------


def _searchsorted_name(np, fs, u):
    cdf = np.asarray(fs._cdf)
    return fs.file_name(min(int(np.searchsorted(cdf, u)), fs.n_files - 1))


class _FixedU:
    """A stand-in RNG whose ``random()`` returns a chosen ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_matches_searchsorted_at_every_cdf_entry(np):
    fs = FileSet(n_files=3000, zipf_s=0.8)
    for u in [0.0] + list(fs._cdf):
        assert fs.sample(_FixedU(u)) == _searchsorted_name(np, fs, u)


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.1, max_value=2.0),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50),
)
def test_draw_matches_searchsorted_for_random_u(np, n_files, zipf_s, us):
    fs = FileSet(n_files=n_files, zipf_s=zipf_s)
    for u in us:
        assert fs.sample(_FixedU(u)) == _searchsorted_name(np, fs, u)
