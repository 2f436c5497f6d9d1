"""Unit and property tests for resource vector algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.resources import (
    N_DIMS,
    RESOURCE_DIMS,
    ResourceVector,
    dominates,
)

vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=N_DIMS,
    max_size=N_DIMS,
)


def test_canonical_dimension_order():
    assert RESOURCE_DIMS == ("cpu", "io", "net", "disk", "mem")


def test_of_requires_all_dims():
    with pytest.raises(ValueError, match="missing"):
        ResourceVector.of(cpu=1, io=2, net=3, disk=4)
    with pytest.raises(ValueError, match="unknown"):
        ResourceVector.of(cpu=1, io=2, net=3, disk=4, mem=5, gpu=6)


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        ResourceVector([1.0, 2.0])


def test_values_are_read_only():
    v = ResourceVector(np.zeros(N_DIMS))
    with pytest.raises(ValueError):
        v.values[0] = 1.0


def test_indexing_by_name_and_position():
    """``of`` places each named component at its canonical position."""
    v = ResourceVector.of(mem=5, disk=4, net=3, io=2, cpu=1)
    assert v.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert v.values.dtype == np.float64


def _key_space(cmax):
    """The protocols' map from a resource vector into the CAN key space."""
    from repro.testing import ProtocolSandbox

    return ProtocolSandbox(n=4, dims=N_DIMS, cmax=np.asarray(cmax, float)).ctx.normalize


def test_clipped_floors_negatives():
    normalize = _key_space(np.ones(N_DIMS))
    assert normalize([1.0, -2.0, 3.0, -4.0, 0.5]).tolist() == [1.0, 0.0, 1.0, 0.0, 0.5]


def test_normalized_maps_to_unit_box():
    normalize = _key_space(ResourceVector.of(cpu=10, io=10, net=10, disk=10, mem=10).values)
    v = ResourceVector.of(cpu=5, io=20, net=0, disk=10, mem=1)
    assert normalize(v.values).tolist() == [0.5, 1.0, 0.0, 1.0, 0.1]  # clipped at 1


@settings(max_examples=50, deadline=None)
@given(vectors)
def test_dominance_is_reflexive(values):
    v = np.asarray(values)
    assert dominates(v, v)


@settings(max_examples=50, deadline=None)
@given(vectors, vectors)
def test_dominance_is_antisymmetric_up_to_equality(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if dominates(a, b) and dominates(b, a):
        assert np.allclose(a, b, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(vectors, vectors, vectors)
def test_dominance_is_transitive(a, b, c):
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    # strict margins so float tolerance cannot break the chain
    if dominates(a, b + 1e-6) and dominates(b, c + 1e-6):
        assert dominates(a, c)


@settings(max_examples=50, deadline=None)
@given(vectors, vectors)
def test_dominates_matches_componentwise_definition(a, b):
    a, b = np.asarray(a), np.asarray(b)
    expected = bool(np.all(a >= b - 1e-9))
    assert dominates(a, b) == expected
