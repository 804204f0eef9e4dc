"""One formula, two evaluation paths: math for floats, numpy for arrays.

A formula that takes its functions from ops(v) runs on the math module at
per-point speed when v is a float, and once over all points when v is an
ndarray.  Powers go through np.float_power on arrays: it calls the C
library's pow, as Python's ** does, so a batched power equals the scalar
one bit for bit, where np.power may take a SIMD path that differs by an
ulp.  The other array functions may differ from math by an ulp.
"""

from __future__ import annotations

import functools
import math
import operator
from types import SimpleNamespace

import numpy as np

SCALAR = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    sqrt=math.sqrt,
    asin=math.asin,
    exp=math.exp,
    tanh=math.tanh,
    floor=math.floor,
    pow=operator.pow,
    max=max,
)

ARRAY = SimpleNamespace(
    sin=np.sin,
    cos=np.cos,
    sqrt=np.sqrt,
    asin=np.arcsin,
    exp=np.exp,
    tanh=np.tanh,
    floor=np.floor,
    pow=np.float_power,
    max=lambda *vs: functools.reduce(np.maximum, vs),
)


_NDARRAY = np.ndarray


def ops(v) -> SimpleNamespace:
    """ARRAY for an ndarray argument, SCALAR for anything else."""
    return ARRAY if isinstance(v, _NDARRAY) else SCALAR
