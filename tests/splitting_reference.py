"""The zeros of g found in the splitting field of x^n - 1, as the package
found them before every constructed code stated its own: a reference for
the tests, with no caller in the package.

:func:`splitting_degree` walks the powers of q mod n up to
MAX_FIELD_ORDER, and :func:`root_exponents` evaluates g at all n powers of
the canonical primitive n-th root beta of that field.  Passed as a code's
``zeros``, it gives the BCH bound the package computed before.
"""

from __future__ import annotations

import math

from cyclic_lrc.cyclic import CyclicCode
from cyclic_lrc.field import MAX_FIELD_ORDER, _embedding, make_field, primitive_nth_root


def splitting_degree(q: int, n: int) -> int | None:
    """Least m >= 1 with q^m == 1 (mod n), the degree of the extension of
    GF(q) generated by a primitive n-th root of unity, if q^m is at most
    MAX_FIELD_ORDER; None when the splitting field of x^n - 1 is larger.

    The walk over q, q^2, ... stops past MAX_FIELD_ORDER, so it takes at
    most 20 steps and never factors n, however large n is.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) = {math.gcd(n, q)} != 1: no primitive {n}-th root exists")
    power, m = q, 1
    while power <= MAX_FIELD_ORDER:
        if power % n == 1 % n:
            return m
        power, m = power * q, m + 1
    return None


def root_exponents(code: CyclicCode) -> frozenset[int] | None:
    """Exponents e with g(beta**e) = 0, beta the canonical primitive n-th
    root in the splitting field of x**n - 1; None when that field exceeds
    MAX_FIELD_ORDER."""
    n = code.n
    degree = splitting_degree(code.field.q, n)
    if degree is None:
        return None
    ext = make_field(code.field.p, code.field.m * degree)
    add, mul = ext.add, ext.mul
    b = primitive_nth_root(ext, n).index
    powers = [1] * n
    for j in range(1, n):
        powers[j] = mul(powers[j - 1], b)
    fwd, _ = _embedding(code.field, ext)
    terms = [(i, fwd[c]) for i, c in enumerate(code.g.coeffs) if c]
    zeros = []
    for e in range(n):
        acc = 0
        for i, c in terms:
            acc = add(acc, mul(c, powers[i * e % n]))
        if not acc:
            zeros.append(e)
    return frozenset(zeros)


def reference_code(code: CyclicCode) -> CyclicCode:
    """The same code, with its zeros found in the splitting field."""
    return CyclicCode(code.field, code.n, code.g, root_exponents)
