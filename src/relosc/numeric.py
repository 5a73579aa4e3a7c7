"""Scalar helpers for the two numeric modes.

Exact mode works over ``int``/``fractions.Fraction`` where every sign test
is error-free.  Float mode is binary64.  All sign decisions go through
``classify``, which takes a whole sequence at once: exact entries are
compared exactly, and a float entry x counts as zero iff
``|x| <= TAU_ABS + TAU_REL * scale``, where scale is the largest ``|x|``
over the sequence's float entries (1.0 when that is zero or there are
none).  A float called zero that is not exactly zero lies in the
tolerance band, which callers report or refuse to resolve.  A float entry
that is NaN or infinite has no usable sign and raises ``NonFiniteValue``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import NonFiniteValue

Number = Union[int, Fraction, float]

TAU_ABS = 1e-300
TAU_REL = 1e-12

# Fraction builds 10**exp from a decimal exponent before any range check
# can run, so exponents beyond this magnitude are refused unparsed.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def is_exact(x: Number) -> bool:
    """True for int/Fraction values (error-free comparisons)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def classify(values: Iterable[Number]) -> tuple:
    """(signs, band) of a sequence: signs[n] in {-1, 0, +1}, and band[n]
    true when a float is classified as zero but is not exactly zero.
    Raises NonFiniteValue at the first NaN or infinite float."""
    values = tuple(values)
    m = max((abs(float(v)) for v in values if not is_exact(v)), default=0.0)
    tol = TAU_ABS + TAU_REL * (m if m > 0.0 else 1.0)
    signs, band = [], []
    for x in values:
        if is_exact(x):
            signs.append((x > 0) - (x < 0))
            band.append(False)
        elif not math.isfinite(x):
            raise NonFiniteValue(f"the sign of {x!r} is undefined")
        elif abs(x) <= tol:
            signs.append(0)
            band.append(x != 0.0)
        else:
            signs.append(1 if x > 0 else -1)
            band.append(False)
    return signs, band


def render(x) -> str:
    """repr(x) for an error message.  An int past Python's int-to-str digit
    limit (or a Fraction holding one) is named by its type instead, since
    repr would raise a plain ValueError in place of the error being built."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def parse_scalar(value) -> Number:
    """Parse a JSON/CLI scalar: int and float pass through, strings are
    exact rationals ("p", "p/q" or a decimal).  The value must be finite
    in binary64, because every command also runs the float oracle, and a
    decimal exponent may not exceed MAX_DECIMAL_EXPONENT in magnitude."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"not a scalar: {render(value)}")
    exp = _EXPONENT.search(value) if isinstance(value, str) else None
    if exp and abs(int(exp[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"{value!r} has a decimal exponent beyond ±{MAX_DECIMAL_EXPONENT}")
    x = Fraction(value.strip()) if isinstance(value, str) else value
    try:
        if math.isfinite(x):
            return x
    except OverflowError:  # an int or Fraction beyond binary64
        pass
    raise ValueError(f"{render(value)} is not finite in binary64")


def format_scalar(x: Number):
    """Render for a report: rational string for an exact value, shortest
    round-trip float otherwise."""
    if is_exact(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return float(x)
