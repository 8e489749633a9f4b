import math

import pytest
from hypothesis import given, strategies as st

from cansurf import SemanticError, area_constant, delta_constant, parse_config, weight_budget
from cansurf.bounds import BoundsConfig


def test_area_constant_genus_two():
    value = area_constant(2, 1.0)
    assert value == pytest.approx(4 * math.pi * 1.01, abs=1e-9)
    assert value > 4 * math.pi


def test_area_constant_torus_term_vanishes():
    assert area_constant(1, 5.0) == pytest.approx(5.05, abs=1e-9)
    assert area_constant(3, 1.0) == pytest.approx(8 * math.pi * 1.01, abs=1e-9)


def test_delta_constant_examples():
    assert delta_constant(8.0, 2.0) == pytest.approx(0.99, abs=1e-12)
    assert delta_constant(0.8, 10.0) == pytest.approx(0.099, abs=1e-12)
    # Tie between the two bounds is a no-op.
    assert delta_constant(8.0, 1.0) == pytest.approx(0.99 * 1.0, abs=1e-12)


def test_weight_budget_examples():
    assert weight_budget(2.0, area_constant(2, 1.0)) == 27
    assert weight_budget(1.5, 1.0) == 3


def test_input_validation():
    with pytest.raises(SemanticError):
        area_constant(0, 1.0)
    with pytest.raises(SemanticError):
        area_constant(2, -1.0)
    with pytest.raises(SemanticError):
        delta_constant(-1.0, 1.0)
    with pytest.raises(SemanticError):
        weight_budget(1.0, 5.0)
    with pytest.raises(SemanticError):
        weight_budget(2.0, -1.0)


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@given(g=st.integers(min_value=1, max_value=50), c=positive,
       m=st.floats(min_value=0.01, max_value=0.99))
def test_area_constant_strict(g, c, m):
    lower = max(c, 2 * math.pi * (2 * g - 2))
    assert area_constant(g, c, m) > lower


@given(d0=positive, d1=positive, m=st.floats(min_value=0.01, max_value=0.99))
def test_delta_constant_strict(d0, d1, m):
    assert delta_constant(d0, d1, m) < min(d1, d0 / 8)


@given(k=st.floats(min_value=1.0001, max_value=100), c=positive, bump=positive)
def test_weight_budget_monotone(k, c, bump):
    assert weight_budget(k, c) <= weight_budget(k, c + bump)
    assert weight_budget(k, c) <= weight_budget(k + bump, c)


def test_config_parsing():
    cfg = parse_config(
        """
        # search constants
        genus = 2
        sweepout_max_area = 1.0
        weight_scale = 2.0
        injectivity_radius = 8.0
        compression_floor = 2.0
        """
    )
    assert cfg == BoundsConfig(2, 1.0, 2.0, 8.0, 2.0)
    assert cfg.weight_budget() == 27
    assert cfg.delta_constant() == pytest.approx(0.99)


def test_config_missing_keys():
    with pytest.raises(SemanticError, match="missing"):
        parse_config("genus = 2\n")


def test_config_validation():
    with pytest.raises(SemanticError, match="weight_scale"):
        BoundsConfig(2, 1.0, 0.5, 8.0, 2.0)
    with pytest.raises(SemanticError, match="margin"):
        BoundsConfig(2, 1.0, 2.0, 8.0, 2.0, margin=1.5)


def test_config_is_a_read_only_record_built_by_keyword():
    by_keyword = BoundsConfig(
        genus=2, sweepout_max_area=1.0, weight_scale=2.0,
        injectivity_radius=8.0, compression_floor=2.0,
    )
    assert by_keyword == BoundsConfig(2, 1.0, 2.0, 8.0, 2.0, 0.99)
    assert hash(by_keyword) == hash(BoundsConfig(2, 1.0, 2.0, 8.0, 2.0))
    assert by_keyword != BoundsConfig(2, 1.0, 2.0, 8.0, 2.0, margin=0.5)
    assert by_keyword.margin == 0.99
    assert by_keyword.weight_budget() == 27
    for field in ("genus", "margin", "extra"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, 3)
    assert by_keyword.genus == 2


@pytest.mark.parametrize("change, message", [
    ({"genus": 0}, "genus must be a positive integer"),
    ({"sweepout_max_area": 0.0}, "sweepout_max_area must be positive"),
    ({"weight_scale": -1.0}, "weight_scale must be positive"),
    ({"injectivity_radius": 0.0}, "injectivity_radius must be positive"),
    ({"compression_floor": -2.0}, "compression_floor must be positive"),
    ({"margin": 0.0}, r"margin must lie in \(0, 1\)"),
    ({"margin": 1.0}, r"margin must lie in \(0, 1\)"),
    ({"weight_scale": 1.0}, "weight_scale must exceed 1"),
])
def test_config_construction_checks(change, message):
    fields = dict(
        genus=2, sweepout_max_area=1.0, weight_scale=2.0,
        injectivity_radius=8.0, compression_floor=2.0,
    )
    with pytest.raises(SemanticError, match="^{}$".format(message)):
        BoundsConfig(**dict(fields, **change))
