"""One formula, two evaluation paths: math for floats, numpy for arrays.

A formula that takes its functions from ops(v) runs on the math module at
per-point speed when v is a float, and once over all points when v is an
ndarray.  These array functions equal their float ones bit for bit:
arithmetic, comparisons, abs, sqrt, floor, copysign, complex; pow
(np.float_power calls the C library's pow, as Python's ** does, where
np.power may take a SIMD path that differs by an ulp); acos, math.acos per
element (np.arccos differs in the last bit on about one argument in ten);
sort(vs), stable as sorted is (NaN aside); min and max, which keep
Python's rule (the first argument wins unless another compares past it,
so a NaN after the first is dropped) and order tuples as Python does.
sin, cos, asin, exp and tanh may differ from math by an ulp.

A formula branches through where(cond, a, b) on two values (tuples of
values are picked member by member), div(a, b, default), which is a / b
or, where b is zero, default, and select(conds, funcs, *args) on
functions of the same arguments: the function of the first cond that
holds, else the last one.  On a float only the side taken runs.  On
arrays every side runs on every element and the conds pick per element,
so a side not taken may divide by zero or take the root of a negative
number: an array caller runs such a formula inside quiet(), numpy's
errstate with every warning off (on floats it does nothing).
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


def _lt(u, v):  # u < v, for two tuples as Python orders them
    if not isinstance(u, tuple):
        return u < v
    lt = False
    for a, b in reversed(tuple(zip(u, v))):
        lt = (a < b) | ((a == b) & lt)
    return lt


def _div(a, b, default):
    return np.where(b != 0.0, a / b, default)


def _complex(re, im=0.0):
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
    sort=sorted,
    complex=complex,
    any=bool,
    div=lambda a, b, default: a / b if b else default,
    where=lambda cond, a, b: a if cond else b,
    select=lambda conds, funcs, *args: funcs[(*conds, True).index(True)](*args),
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
    max=lambda *vs: functools.reduce(lambda r, v: _where(_lt(r, v), v, r), vs),
    min=lambda *vs: functools.reduce(lambda r, v: _where(_lt(v, r), v, r), vs),
    sort=lambda vs: tuple(np.sort(np.broadcast_arrays(*vs), axis=0, kind="stable")),
    complex=_complex,
    any=np.any,
    div=_div,
    where=_where,
    select=lambda conds, funcs, *args: functools.reduce(  # the first cond's wins
        lambda out, cf: _where(*cf, out), zip(conds[::-1], (f(*args) for f in funcs[-2::-1])),
        funcs[-1](*args)),
    quiet=functools.partial(np.errstate, all="ignore"),
)


_NDARRAY = np.ndarray


def ops(v) -> SimpleNamespace:
    """ARRAY for an ndarray argument (not a subclass), SCALAR for anything else."""
    return ARRAY if type(v) is _NDARRAY else SCALAR
