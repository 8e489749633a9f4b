"""Numeric constants wiring the geometric inputs to the search budget.

All geometric analysis (sweep-out areas, injectivity radius, compression
disk diameters, and the isotopy-to-weight constant) happens outside this
package; callers supply those numbers and this module combines them:

* ``area_constant``: an area bound strictly above both the largest
  sweep-out leaf area and the curvature term 2*pi*(2g - 2).
* ``delta_constant``: a scale strictly below both the compression
  diameter floor and an eighth of the injectivity radius.
* ``weight_budget``: the integer weight cap floor(K * (C + 1)) used by
  the move-graph search.

Strictness is realized by a configurable margin in (0, 1): the area
constant multiplies its lower bound by 2 - margin, the scale multiplies
its upper bound by margin.
"""

import collections
import math

from .errors import ParseError, SemanticError

DEFAULT_MARGIN = 0.99


class BoundsConfig(collections.namedtuple("BoundsConfig", [
    "genus",
    "sweepout_max_area",
    "weight_scale",          # the constant multiplying (C + 1); > 1
    "injectivity_radius",
    "compression_floor",
    "margin",
], defaults=(DEFAULT_MARGIN,))):
    """The geometric inputs, read-only and checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.genus < 1:
            raise SemanticError("genus must be a positive integer")
        for name in ("sweepout_max_area", "weight_scale", "injectivity_radius",
                     "compression_floor"):
            if getattr(self, name) <= 0:
                raise SemanticError("{} must be positive".format(name))
        if not (0 < self.margin < 1):
            raise SemanticError("margin must lie in (0, 1)")
        if self.weight_scale <= 1:
            raise SemanticError("weight_scale must exceed 1")
        return self

    def area_constant(self):
        return area_constant(self.genus, self.sweepout_max_area, self.margin)

    def delta_constant(self):
        return delta_constant(
            self.injectivity_radius, self.compression_floor, self.margin
        )

    def weight_budget(self):
        return weight_budget(self.weight_scale, self.area_constant())


def area_constant(genus, sweepout_max_area, margin=DEFAULT_MARGIN):
    """Strictly exceeds max(sweepout area, 2*pi*(2*genus - 2))."""
    if genus < 1:
        raise SemanticError("genus must be a positive integer")
    if sweepout_max_area <= 0:
        raise SemanticError("sweepout_max_area must be positive")
    if not (0 < margin < 1):
        raise SemanticError("margin must lie in (0, 1)")
    lower = max(sweepout_max_area, 2.0 * math.pi * (2 * genus - 2))
    return lower * (2.0 - margin)


def delta_constant(injectivity_radius, compression_floor, margin=DEFAULT_MARGIN):
    """Strictly below min(compression_floor, injectivity_radius / 8)."""
    if injectivity_radius <= 0 or compression_floor <= 0:
        raise SemanticError("length inputs must be positive")
    if not (0 < margin < 1):
        raise SemanticError("margin must lie in (0, 1)")
    return margin * min(compression_floor, injectivity_radius / 8.0)


def weight_budget(weight_scale, area):
    """floor(weight_scale * (area + 1)); weights are integers, so the
    floor loses nothing."""
    if weight_scale <= 1:
        raise SemanticError("weight_scale must exceed 1")
    if area <= 0:
        raise SemanticError("area must be positive")
    return int(math.floor(weight_scale * (area + 1.0)))


_CONFIG_KEYS = {
    "genus": int,
    "sweepout_max_area": float,
    "weight_scale": float,
    "injectivity_radius": float,
    "compression_floor": float,
    "margin": float,
}


def parse_config(text):
    """key = value lines mirroring the BoundsConfig fields."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise ParseError("unknown config line '{}'".format(line), line=lineno)
        try:
            values[key] = _CONFIG_KEYS[key](val.strip())
        except ValueError:
            raise ParseError("bad value for {}".format(key), line=lineno)
    missing = [k for k in _CONFIG_KEYS if k != "margin" and k not in values]
    if missing:
        raise SemanticError("config missing keys: {}".format(", ".join(sorted(missing))))
    return BoundsConfig(**values)
