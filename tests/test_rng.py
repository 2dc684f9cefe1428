"""Tests for repro.core.rng — seeded randomness helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import derive_seed, make_rng, reseed, spawn, spawn_states


def test_make_rng_from_int_is_deterministic():
    a = make_rng(42).random(5)
    b = make_rng(42).random(5)
    assert np.allclose(a, b)


def test_make_rng_passthrough_generator():
    gen = np.random.default_rng(1)
    assert make_rng(gen) is gen


def test_make_rng_none_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)


def test_derive_seed_depends_on_tag():
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_derive_seed_depends_on_seed():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_stable():
    assert derive_seed(123, "featurize") == derive_seed(123, "featurize")


def test_derive_seed_in_range():
    for seed in (0, 1, 2**40):
        for tag in ("x", "y", "a-long-tag"):
            value = derive_seed(seed, tag)
            assert 0 <= value < 2**63


def test_spawn_streams_are_independent():
    a = spawn(5, "alpha").random(4)
    b = spawn(5, "beta").random(4)
    assert not np.allclose(a, b)


def test_spawn_is_reproducible():
    assert np.allclose(spawn(5, "alpha").random(4), spawn(5, "alpha").random(4))


# ----------------------------------------------------------------------
# spawn_states / reseed: batched derivation oracle against spawn
# ----------------------------------------------------------------------
_P = np.array([0.1, 0.2, 0.3, 0.4])


def _draws(gen: np.random.Generator) -> list[bytes]:
    """The first draws of every kind the resources make, in order."""
    return [
        np.asarray(draw).tobytes()
        for draw in (
            gen.random(),
            gen.random(3),
            gen.integers(0, 1000, 4),
            gen.integers(5),
            gen.poisson(2.5, 3),
            gen.normal(0.3, 1.7, 3),
            gen.standard_normal(5),
            gen.choice(4, size=6, p=_P),
            gen.random(),
        )
    ]


def _assert_matches_spawn(seed: int, tags: list[str]) -> None:
    rows = spawn_states(seed, tags)
    assert rows.shape == (len(tags), 4) and rows.dtype == np.uint64
    gen = np.random.default_rng(0)
    for tag, row in zip(tags, rows):
        ref = spawn(seed, tag)
        assert reseed(gen, row).bit_generator.state == ref.bit_generator.state
        assert _draws(gen) == _draws(ref)
    # a reseeded generator starts over: a reused one matches a fresh one
    for tag, row in zip(tags, rows.tolist()):
        assert _draws(reseed(gen, row)) == _draws(spawn(seed, tag))


def _seed_for(derived: int, tag: str) -> int:
    """A parent seed whose ``derive_seed(seed, tag)`` equals ``derived``."""
    crc = derive_seed(0, tag)
    return ((derived - crc) * pow(1_000_003, -1, 2**63)) % (2**63)


@pytest.mark.parametrize(
    "derived",
    [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 7 << 32, 0xDEADBEEF, 12345],
)
def test_spawn_states_edge_derived_seeds(derived):
    """Derived seeds at the SeedSequence word boundaries: zero, one
    word (zero high word), exactly two words, and the largest value."""
    tag = f"feat/{derived % 977}/topics"
    seed = _seed_for(derived, tag)
    assert derive_seed(seed, tag) == derived
    _assert_matches_spawn(seed, [tag])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, -5])
def test_spawn_states_edge_parent_seeds(seed):
    _assert_matches_spawn(seed, [f"feat/{i}/svc{i % 7}" for i in range(40)])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    tags=st.lists(st.text(max_size=24), min_size=1, max_size=6),
)
def test_spawn_states_match_spawn(seed, tags):
    _assert_matches_spawn(seed, tags)


def test_spawn_states_empty():
    rows = spawn_states(3, [])
    assert rows.shape == (0, 4) and rows.dtype == np.uint64
