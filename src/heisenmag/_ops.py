"""One formula, two evaluation paths: math for floats, numpy for arrays.

A formula that takes its functions from ops(v) runs on the math module at
per-point speed when v is a float, and once over all points when v is an
ndarray.  Powers go through np.float_power on arrays: it calls the C
library's pow, as Python's ** does, so a batched power equals the scalar
one bit for bit, where np.power may take a SIMD path that differs by an
ulp.  np.arccos differs from math.acos in the last bit on about one
argument in ten, so acos calls math.acos per element.  min and max keep
Python's rule (the first argument wins unless another compares past it,
so a NaN after the first is dropped).  The other array functions may
differ from math by an ulp.

A formula branches through where(cond, a, b) on two values (tuples of
values are picked member by member), div(a, b, default), which is a / b
or, where b is zero, default, and branch(cond, if_true, if_false, *args)
on two functions of the same arguments.  On a float only the side taken
runs.  On arrays both sides run on every element and cond picks per
element, so the side not taken may divide by zero or take the root of a
negative number: an array caller runs such a formula inside quiet(),
numpy's errstate with every warning off (on floats it does nothing).
any(v) says whether v, a bool or an array of them, holds a True.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from types import SimpleNamespace

import numpy as np


def _where(cond, a, b):
    if isinstance(a, tuple):
        return tuple(_where(cond, u, v) for u, v in zip(a, b))
    return np.where(cond, a, b)


def _div(a, b, default):
    return np.where(b != 0.0, a / b, default)


def _branch(cond, if_true, if_false, *args):
    return _where(cond, if_true(*args), if_false(*args))


def _complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


_acos = np.frompyfunc(math.acos, 1, 1)

SCALAR = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    sqrt=math.sqrt,
    asin=math.asin,
    acos=math.acos,
    exp=math.exp,
    tanh=math.tanh,
    floor=math.floor,
    copysign=math.copysign,
    pow=operator.pow,
    max=max,
    min=min,
    complex=complex,
    any=bool,
    div=lambda a, b, default: a / b if b else default,
    where=lambda cond, a, b: a if cond else b,
    branch=lambda cond, if_true, if_false, *args: if_true(*args) if cond else if_false(*args),
    quiet=contextlib.nullcontext,
)

ARRAY = SimpleNamespace(
    sin=np.sin,
    cos=np.cos,
    sqrt=np.sqrt,
    asin=np.arcsin,
    acos=lambda v: _acos(v).astype(float),
    exp=np.exp,
    tanh=np.tanh,
    floor=np.floor,
    copysign=np.copysign,
    pow=np.float_power,
    max=lambda *vs: functools.reduce(lambda r, v: np.where(v > r, v, r), vs),
    min=lambda *vs: functools.reduce(lambda r, v: np.where(v < r, v, r), vs),
    complex=_complex,
    any=np.any,
    div=_div,
    where=_where,
    branch=_branch,
    quiet=functools.partial(np.errstate, all="ignore"),
)


_NDARRAY = np.ndarray


def ops(v) -> SimpleNamespace:
    """ARRAY for an ndarray argument, SCALAR for anything else."""
    return ARRAY if isinstance(v, _NDARRAY) else SCALAR
