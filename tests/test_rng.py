"""Cross-checks the vectorised SplitMix64 stream against a scalar
pure-integer reference implementation, plus behavioural properties
(determinism, stream continuation, distribution sanity)."""

import math

import numpy as np
import pytest

from pumpwatch.rng import SplitMix64, derive_seed

_M = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix_ref(z: int) -> int:
    """Scalar SplitMix64 finaliser on plain Python ints."""
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return (z ^ (z >> 31)) & _M


def _raw_ref(seed: int, start: int, n: int) -> list:
    """Reference stream: output i is mix(seed + i * GOLDEN)."""
    return [_mix_ref((seed + i * _GOLDEN) & _M) for i in range(start + 1, start + n + 1)]


def _derive_ref(seed: int, *tags) -> int:
    state = seed & _M
    for tag in tags:
        if isinstance(tag, str):
            for b in tag.encode("utf-8"):
                state = _mix_ref(((state + _GOLDEN) & _M) ^ b)
        else:
            state = _mix_ref(((state + _GOLDEN) & _M) ^ (int(tag) & _M))
    return state


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, _M])
def test_raw_matches_scalar_reference(seed):
    rng = SplitMix64(seed)
    got = rng.raw(64)
    want = _raw_ref(seed, 0, 64)
    assert [int(v) for v in got] == want


def test_raw_stream_continuation():
    a = SplitMix64(99)
    first = list(a.raw(5)) + list(a.raw(7))
    b = SplitMix64(99)
    assert first == list(b.raw(12))


def test_uniforms_match_reference_and_range():
    rng = SplitMix64(7)
    u = rng.uniforms(1000)
    want = [(r >> 11) * 2.0**-53 for r in _raw_ref(7, 0, 1000)]
    assert np.array_equal(u, np.asarray(want))
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normals_match_boxmuller_reference():
    rng = SplitMix64(3)
    got = rng.normals(9)  # odd n exercises the trailing-element trim
    raws = _raw_ref(3, 0, 10)
    u1 = [((r >> 11) + 1) * 2.0**-53 for r in raws[:5]]
    u2 = [(r >> 11) * 2.0**-53 for r in raws[5:]]
    want = []
    for a, b in zip(u1, u2):
        want.append(math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b))
    for a, b in zip(u1, u2):
        want.append(math.sqrt(-2.0 * math.log(a)) * math.sin(2.0 * math.pi * b))
    assert np.allclose(got, want[:9], rtol=0, atol=1e-15)


def test_normals_moments():
    z = SplitMix64(11).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_below_bounds():
    rng = SplitMix64(5)
    draws = [rng.below(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    # every residue shows up
    assert sorted(set(draws)) == list(range(7))


def test_shuffle_is_fisher_yates_over_below():
    # replay the same draw sequence by hand
    rng = SplitMix64(21)
    items = list("abcdef")
    rng.shuffle(items)

    ref_rng = SplitMix64(21)
    want = list("abcdef")
    for i in range(5, 0, -1):
        j = ref_rng.below(i + 1)
        want[i], want[j] = want[j], want[i]
    assert items == want


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 576, 4320])
def test_shuffle_equals_per_element_below(n):
    # shuffle draws all n-1 uniforms at once; the spec draws one per swap
    for seed in range(20):
        rng = SplitMix64(seed)
        items = list(range(n))
        rng.shuffle(items)

        ref_rng = SplitMix64(seed)
        want = list(range(n))
        for i in range(n - 1, 0, -1):
            j = ref_rng.below(i + 1)
            want[i], want[j] = want[j], want[i]
        assert items == want
        # both consumed the same n-1 outputs, so the streams continue alike
        assert np.array_equal(rng.raw(2), ref_rng.raw(2))


@pytest.mark.parametrize("seeds", [[5], [0, 1, 2**63, _M, 2**63 + 5, 42, 7]])
def test_block_rows_equal_single_streams(seeds):
    # a block of streams shares one counter; each row must be bit-equal to
    # its seed's own stream over the same call sequence, odd normals included
    calls = [("uniforms", 3), ("normals", 1024), ("normals", 1), ("raw", 5),
             ("normals", 7), ("uniforms", 1)]
    block = SplitMix64(seeds)
    singles = [SplitMix64(s) for s in seeds]
    for name, n in calls:
        rows = getattr(block, name)(n)
        assert rows.shape == (len(seeds), n)
        for row, single in zip(rows, singles):
            want = getattr(single, name)(n)
            assert row.dtype == want.dtype and row.tobytes() == want.tobytes()


def test_permutation_is_valid_and_deterministic():
    p = SplitMix64(2).permutation(50)
    q = SplitMix64(2).permutation(50)
    assert np.array_equal(p, q)
    assert sorted(p.tolist()) == list(range(50))
    assert not np.array_equal(p, np.arange(50))


def test_permutation_roughly_uniform():
    # all 24 orderings of 4 items appear over many seeds
    seen = set()
    for seed in range(600):
        seen.add(tuple(SplitMix64(seed).permutation(4).tolist()))
    assert len(seen) == 24


@pytest.mark.parametrize("tags", [(1,), (0, 1), ("split", 50), ("a", "b"), (2**62, "x"),
                                  (-1,), ("phase", 3, 2), ("tëmp", _M)])
def test_derive_seed_matches_reference(tags):
    assert derive_seed(1234, *tags) == _derive_ref(1234, *tags)


def test_derive_seed_separates_streams():
    base = 77
    seeds = {
        derive_seed(base),
        derive_seed(base, 0),
        derive_seed(base, 1),
        derive_seed(base, "noise", 0),
        derive_seed(base, "noise", 1),
        derive_seed(base, "phase", 0),
        derive_seed(base, 0, "noise"),
    }
    assert len(seeds) == 7


def test_derive_seed_order_sensitive():
    assert derive_seed(5, "a", "b") != derive_seed(5, "b", "a")
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


@pytest.mark.parametrize("seed", [0, 99, 2**63 + 5, _M])
def test_derive_seed_folds_tags_in_sequence(seed):
    # the generator derives each sample's seed from a per-purpose root
    root = derive_seed(seed, "phase")
    assert derive_seed(root, 3, 2) == derive_seed(seed, "phase", 3, 2)
    assert derive_seed(seed + 2**64, "phase") == root
