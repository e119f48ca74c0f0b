"""Generator-polynomial constructions of optimal cyclic locally repairable
codes, plus admissible-parameter enumeration.

Each scheme is a set Z of root exponents modulo n.  With beta the canonical
primitive n-th root of unity in the splitting field of x^n - 1, the generator
is g = prod over e in Z of (x - beta^e), and k = n - |Z|.  With s = n/(r+1),
the five schemes, named by the identifiers used on the CLI and in code
files, are:

* ``thm-1.1-i``   distance 3, (r+1) | gcd(n, q-1), r >= 2;
                  Z = {0} + {1 + (r+1)j : j < s}, so g = (x - 1)(x^s - alpha)
                  with alpha = beta^s.
* ``thm-1.1-ii``  distance 4, r >= 3, additionally gcd(s, r+1) | 2;
                  Z = the thm-1.1-i set + {s*a}, so g gains x - gamma with
                  gamma = beta^(s*a) = alpha^a, a*s + b*(r+1) = 2.
* ``ex-3.2``      n | q - 1, any feasible distance d;
                  Z = {0, ..., d-2} + a stride-(r+1) tail; beta is in GF(q).
* ``ex-3.3``      n | q + 1, d = a(r+1) + b with a even and b even, b >= 2;
                  Z = {-(d-2)/2, ..., (d-2)/2} + {(r+1)j : a/2 < j < s - a/2},
                  closed under negation, so g descends to GF(q).
* ``thm-3.4``     n = 2(q - 1), distance 4, (r+1) | q - 1;
                  Z = {0, 2} + the thm-1.1-i grid, with gamma = beta^2.

Every builder validates its arithmetic preconditions up front (raising
ParameterError with a reusable diagnostic) and states its set.  One function
then builds g in the splitting field and re-checks at runtime that the
exponents are distinct, that every coefficient of g and the stored alpha and
gamma lie in GF(q), that g | x^n - 1, and that k matches the scheme's
formula.  All choices inherit the canonical field conventions, so each
scheme is a pure deterministic function of its parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .cyclic import CyclicCode
from .field import (
    MAX_FIELD_ORDER,
    FieldElement,
    FiniteField,
    in_base_subfield,
    make_field,
    primitive_nth_root,
    prime_factors,
    project_to_base,
    splitting_degree,
)
from .poly import Poly
from .repair import repair_plan
from .verify import singleton_bound

SCHEME_D3_UNBOUNDED = "thm-1.1-i"
SCHEME_D4_UNBOUNDED = "thm-1.1-ii"
SCHEME_ANY_D_SUBGROUP = "ex-3.2"
SCHEME_ANY_D_COSET = "ex-3.3"
SCHEME_D4_DOUBLE_LENGTH = "thm-3.4"

ALL_SCHEMES = (
    SCHEME_D3_UNBOUNDED,
    SCHEME_D4_UNBOUNDED,
    SCHEME_ANY_D_SUBGROUP,
    SCHEME_ANY_D_COSET,
    SCHEME_D4_DOUBLE_LENGTH,
)


class ParameterError(ValueError):
    """A scheme precondition failed; the message is the user-facing diagnostic."""


class ConstructionError(RuntimeError):
    """A runtime self-check failed; indicates a bug, not bad parameters."""


@dataclass(frozen=True)
class LrcCode:
    """A cyclic code together with its locality and optimality claim.

    ``beta`` is the primitive n-th root used for the construction (an element
    of the splitting field); ``alpha`` and ``gamma`` are the projected
    base-field quantities, where the scheme uses them.
    """

    base: CyclicCode
    r: int
    d_claimed: int
    scheme: str
    beta: FieldElement
    alpha: FieldElement | None = None
    gamma: FieldElement | None = None

    def __post_init__(self) -> None:
        if self.base.n % (self.r + 1) != 0:
            raise ConstructionError(
                f"(r + 1) = {self.r + 1} must divide n = {self.base.n}"
            )
        rhs = singleton_bound(self.base.n, self.base.k, self.r)
        if self.d_claimed != rhs:
            raise ConstructionError(
                f"claimed distance {self.d_claimed} misses the Singleton-type "
                f"bound {rhs} for [n={self.base.n}, k={self.base.k}], r={self.r}"
            )

    @property
    def field(self) -> FiniteField:
        return self.base.field

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def q(self) -> int:
        return self.base.field.q

    @cached_property
    def repair_plan(self) -> tuple[tuple[tuple[int, FieldElement], ...], ...]:
        """:func:`cyclic_lrc.repair.repair_plan` of this code, built once."""
        return repair_plan(self)


@dataclass(frozen=True)
class CandidateParams:
    """One admissible parameter record from a scheme sweep."""

    scheme: str
    q: int
    n: int
    r: int
    d: int
    k: int
    constructible: bool = True
    diagnostic: str | None = None


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**m or raise ParameterError."""
    if q < 2:
        raise ParameterError(f"field order must be >= 2, got {q}")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ParameterError(f"q = {q} is not a prime power")
    p = factors[0]
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise ParameterError(f"q = {q} is not a prime power")
    return p, m


def base_field(q: int) -> FiniteField:
    p, m = prime_power(q)
    _require(
        q <= MAX_FIELD_ORDER, f"field GF({p}^{m}) exceeds the supported order {MAX_FIELD_ORDER}"
    )
    return make_field(p, m)


def _splitting_fits(q: int, n: int) -> bool:
    """Whether the splitting field of x^n - 1 over GF(q) is within
    MAX_FIELD_ORDER: the one test behind both the construct error and the
    sweep diagnostic ``splitting-field-too-large``."""
    return q ** splitting_degree(q, n) <= MAX_FIELD_ORDER


def _splitting_context(field: FiniteField, n: int) -> FieldElement:
    """The canonical primitive n-th root of unity beta, in the splitting
    field of x^n - 1 over ``field``."""
    degree = splitting_degree(field.q, n)
    _require(
        _splitting_fits(field.q, n),
        f"field GF({field.p}^{field.m * degree}) splitting x^{n} - 1 exceeds the "
        f"supported order {MAX_FIELD_ORDER}",
    )
    ext = field if degree == 1 else make_field(field.p, field.m * degree)
    return primitive_nth_root(ext, n)


def _project(a: FieldElement, field: FiniteField, what: str) -> FieldElement:
    if a.field == field:
        return a
    if not in_base_subfield(a, field.q):
        raise ConstructionError(f"{what} is not fixed by the GF({field.q}) Frobenius")
    return project_to_base(a, field)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _from_zeros(
    scheme: str,
    field: FiniteField,
    n: int,
    r: int,
    d: int,
    k_expected: int,
    zeros: list[int],
    alpha_exponent: int | None = None,
    gamma_exponent: int | None = None,
) -> LrcCode:
    """The one generator path: g = prod over e in zeros of (x - beta^e).

    g is formed in the splitting field and every coefficient is projected to
    GF(q) after a Frobenius check; alpha = beta^alpha_exponent and
    gamma = beta^gamma_exponent are projected the same way where the scheme
    stores them.  CyclicCode.build checks g | x^n - 1, and the dimension is
    checked against the scheme's formula.
    """
    _require(
        len(set(zeros)) == len(zeros),
        f"root exponents collide for d = {d}: {sorted(zeros)}",
    )
    beta = _splitting_context(field, n)
    g_ext = Poly.from_roots([beta**e for e in zeros])
    g = Poly.make(field, [_project(c, field, "generator coefficient") for c in g_ext.coeffs])
    alpha = gamma = None
    if alpha_exponent is not None:
        alpha = _project(beta**alpha_exponent, field, "alpha")
    if gamma_exponent is not None:
        gamma = _project(beta**gamma_exponent, field, "gamma")
    code = CyclicCode.build(field, n, g)
    if code.k != k_expected:
        raise ConstructionError(
            f"{scheme}: derived dimension {code.k} != scheme formula {k_expected}"
        )
    return LrcCode(code, r, d, scheme, beta, alpha, gamma)


def _grid(n: int, r: int) -> list[int]:
    """Exponents of the zeros of x^s - beta^s, s = n/(r+1): 1 + (r+1)j, j < s."""
    return list(range(1, n, r + 1))


# ---------------------------------------------------------------------------
# The five schemes.


def _require_unbounded(q: int, n: int, r: int, r_min: int) -> None:
    _require(n >= 1, f"length must be >= 1, got {n}")
    _require(math.gcd(n, q) == 1, f"gcd(n, q) = {math.gcd(n, q)} != 1")
    _require(r >= r_min, f"locality must be >= {r_min}, got {r}")
    _require(
        math.gcd(n, q - 1) % (r + 1) == 0,
        f"gcd(n, q - 1) = {math.gcd(n, q - 1)} is not divisible by r + 1 = {r + 1}",
    )


def build_d3_unbounded(q: int, n: int, r: int) -> LrcCode:
    """[n, n - 1 - n/(r+1), 3] code with locality r (scheme thm-1.1-i)."""
    field = base_field(q)
    _require_unbounded(q, n, r, 2)
    s = n // (r + 1)
    return _from_zeros(
        SCHEME_D3_UNBOUNDED, field, n, r, 3, n - 1 - s, [0, *_grid(n, r)], alpha_exponent=s
    )


def _bezout_exponent(s: int, r: int) -> int:
    """Smallest a >= 1 with a*s + b*(r+1) = 2 solvable (a = 0 would need
    (r+1) | 2); gcd(s, r+1) must divide 2."""
    old_r, cur_r = s, r + 1
    old_u, cur_u = 1, 0
    while cur_r:
        quotient = old_r // cur_r
        old_r, cur_r = cur_r, old_r - quotient * cur_r
        old_u, cur_u = cur_u, old_u - quotient * cur_u
    g0, u = old_r, old_u
    _require(
        2 % g0 == 0,
        f"gcd(n/(r+1), r + 1) = {g0} does not divide 2",
    )
    return (u * (2 // g0)) % ((r + 1) // g0)


def build_d4_unbounded(q: int, n: int, r: int) -> LrcCode:
    """[n, n - 2 - n/(r+1), 4] code with locality r (scheme thm-1.1-ii)."""
    field = base_field(q)
    _require_unbounded(q, n, r, 3)
    s = n // (r + 1)
    gamma_exponent = s * _bezout_exponent(s, r) % n
    return _from_zeros(
        SCHEME_D4_UNBOUNDED,
        field,
        n,
        r,
        4,
        n - 2 - s,
        [0, gamma_exponent, *_grid(n, r)],
        alpha_exponent=s,
        gamma_exponent=gamma_exponent,
    )


def _subgroup_exponents(n: int, r: int, d: int) -> tuple[list[int], int]:
    """Root exponents and expected dimension for scheme ex-3.2."""
    a, b = divmod(d, r + 1)
    _require(
        b != 1,
        f"distance d = {d} with d mod (r+1) = 1 is unreachable: the root run "
        f"wraps around and forces minimum distance d + 1; request d = {d + 1}",
    )
    s = n // (r + 1)
    head = list(range(d - 1))
    if b >= 2:
        tail = [((r + 1) * j + b - 2) % n for j in range(a + 1, s)]
        k_expected = r * n // (r + 1) - a * r - b + 2
    else:  # b == 0
        tail = [((r + 1) * j + b - 2) % n for j in range(a + 1, s + 1)]
        k_expected = r * n // (r + 1) - a * r - b + 1
    return head + tail, k_expected


def build_any_d_subgroup(q: int, n: int, r: int, d: int) -> LrcCode:
    """[n, k, d] code of any feasible distance for n | q - 1 (scheme ex-3.2)."""
    field = base_field(q)
    _require(n >= 1, f"length must be >= 1, got {n}")
    _require((q - 1) % n == 0, f"n = {n} does not divide q - 1 = {q - 1}")
    _require(r >= 2, f"locality must be >= 2, got {r}")
    _require(n % (r + 1) == 0, f"(r + 1) = {r + 1} does not divide n = {n}")
    _require(1 <= d <= n, f"distance d = {d} out of range 1..{n}")
    exponents, k_expected = _subgroup_exponents(n, r, d)
    return _from_zeros(SCHEME_ANY_D_SUBGROUP, field, n, r, d, k_expected, exponents)


def _coset_b_values(r: int) -> tuple[int, ...]:
    # even remainders 2, 4, ..., 2*ceil((r-1)/2)
    return tuple(range(2, 2 * (r // 2) + 1, 2))


def _coset_exponents(n: int, r: int, d: int) -> tuple[list[int], int]:
    a, b = divmod(d, r + 1)
    _require(
        a % 2 == 0 and b in _coset_b_values(r),
        f"d = {d} = {a}*(r+1) + {b} needs an even multiplier and an even "
        f"remainder in {list(_coset_b_values(r))}",
    )
    half = (d - 2) // 2
    head = [i % n for i in range(-half, half + 1)]
    lo = (a + 2) // 2
    hi = n // (r + 1) - lo
    tail = [((r + 1) * j) % n for j in range(lo, hi + 1)]
    return head + tail, r * n // (r + 1) - a * r - b + 2


def build_any_d_coset(q: int, n: int, r: int, d: int) -> LrcCode:
    """[n, k, d] code for n | q + 1 (scheme ex-3.3); the exponent set is
    closed under negation, so the generator descends to GF(q)."""
    field = base_field(q)
    _require(n >= 1, f"length must be >= 1, got {n}")
    _require((q + 1) % n == 0, f"n = {n} does not divide q + 1 = {q + 1}")
    _require(r >= 2, f"locality must be >= 2, got {r}")
    _require(n % (r + 1) == 0, f"(r + 1) = {r + 1} does not divide n = {n}")
    _require(2 <= d <= n, f"distance d = {d} out of range 2..{n}")
    exponents, k_expected = _coset_exponents(n, r, d)
    return _from_zeros(SCHEME_ANY_D_COSET, field, n, r, d, k_expected, exponents)


def build_d4_double_length(q: int, r: int) -> LrcCode:
    """[2(q-1), n - n/(r+1) - 2, 4] code (scheme thm-3.4).

    The stated hypothesis (r+1) | 2(q-1) does not by itself place
    alpha = beta^s, s = n/(r+1), inside GF(q): beta has order 2(q-1), so
    alpha is fixed by the q-power Frobenius exactly when s is even, that is
    when (r+1) | q - 1.  The other parameter sets are rejected with a
    diagnostic.  Locality r >= 3 is required: for r <= 2 the Singleton-type
    bound exceeds 4 and the construction cannot be optimal.
    """
    field = base_field(q)
    n = 2 * (q - 1)
    _require(
        math.gcd(n, q) == 1,
        f"gcd(n, q) = {math.gcd(n, q)} != 1 for n = 2(q-1) = {n} (q must be odd)",
    )
    _require(
        r >= 3,
        f"locality must be >= 3, got {r}: with locality <= 2 the Singleton-type "
        "bound exceeds the construction's distance 4",
    )
    _require(n % (r + 1) == 0, f"(r + 1) = {r + 1} does not divide 2(q - 1) = {n}")
    s = n // (r + 1)
    # an oversized splitting field is reported first, by _splitting_context
    _require(
        (q - 1) % (r + 1) == 0 or not _splitting_fits(q, n),
        f"alpha = beta^(n/(r+1)) is not in GF({q}): (r + 1) = {r + 1} divides "
        f"2(q - 1) but not q - 1 = {q - 1}, so no generator exists over GF({q})",
    )
    return _from_zeros(
        SCHEME_D4_DOUBLE_LENGTH,
        field,
        n,
        r,
        4,
        n - s - 2,
        [0, 2, *_grid(n, r)],
        alpha_exponent=s,
        gamma_exponent=2,
    )


# ---------------------------------------------------------------------------
# Dispatch and parameter enumeration.


def construct(scheme: str, q: int, n: int | None = None, r: int | None = None, d: int | None = None) -> LrcCode:
    """Build a code by scheme identifier, validating which flags it takes."""
    if scheme not in ALL_SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}; choose from {', '.join(ALL_SCHEMES)}")
    if r is None:
        raise ParameterError("every scheme needs a locality --r")
    if scheme == SCHEME_D4_DOUBLE_LENGTH:
        expected_n = 2 * (q - 1)
        if n is not None and n != expected_n:
            raise ParameterError(f"scheme {scheme} fixes n = 2(q - 1) = {expected_n}, got {n}")
        if d is not None and d != 4:
            raise ParameterError(f"scheme {scheme} fixes d = 4, got {d}")
        return build_d4_double_length(q, r)
    if n is None:
        raise ParameterError(f"scheme {scheme} needs a length --n")
    if scheme == SCHEME_D3_UNBOUNDED:
        if d is not None and d != 3:
            raise ParameterError(f"scheme {scheme} fixes d = 3, got {d}")
        return build_d3_unbounded(q, n, r)
    if scheme == SCHEME_D4_UNBOUNDED:
        if d is not None and d != 4:
            raise ParameterError(f"scheme {scheme} fixes d = 4, got {d}")
        return build_d4_unbounded(q, n, r)
    if d is None:
        raise ParameterError(f"scheme {scheme} needs a distance --d")
    if scheme == SCHEME_ANY_D_SUBGROUP:
        return build_any_d_subgroup(q, n, r, d)
    return build_any_d_coset(q, n, r, d)


def _prime_powers_up_to(q_max: int) -> list[int]:
    out = []
    for q in range(2, q_max + 1):
        try:
            prime_power(q)
        except ParameterError:
            continue
        out.append(q)
    return out


def enumerate_valid_params(scheme: str, q_max: int, n_max: int) -> tuple[CandidateParams, ...]:
    """All parameter sets passing a scheme's preconditions, ascending by
    (q, n, r, d).  Sets that construct cannot build are included with
    constructible=False and a diagnostic: ``splitting-field-too-large`` when
    the splitting field of x^n - 1 exceeds MAX_FIELD_ORDER, and, for thm-3.4,
    ``alpha-membership-failed`` when the stated hypothesis holds but alpha
    lies outside GF(q).
    """
    if scheme not in ALL_SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if q_max < 2 or n_max < 2:
        raise ParameterError("bounds must be >= 2")
    records: list[CandidateParams] = []

    def add(q: int, n: int, r: int, d: int, k: int, diagnostic: str | None = None) -> None:
        # construct reports an oversized splitting field first
        if not _splitting_fits(q, n):
            diagnostic = "splitting-field-too-large"
        records.append(CandidateParams(scheme, q, n, r, d, k, diagnostic is None, diagnostic))

    for q in _prime_powers_up_to(q_max):
        if scheme == SCHEME_D4_DOUBLE_LENGTH:
            n = 2 * (q - 1)
            if n < 2 or n > n_max or math.gcd(n, q) != 1:
                continue
            for r in range(3, n):
                if n % (r + 1) == 0:
                    gap = "alpha-membership-failed" if (q - 1) % (r + 1) else None
                    add(q, n, r, 4, n - n // (r + 1) - 2, gap)
            continue
        for n in range(2, n_max + 1):
            if scheme == SCHEME_D3_UNBOUNDED:
                if math.gcd(n, q) != 1:
                    continue
                for r in range(2, n):
                    if math.gcd(n, q - 1) % (r + 1) == 0:
                        add(q, n, r, 3, n - 1 - n // (r + 1))
            elif scheme == SCHEME_D4_UNBOUNDED:
                if math.gcd(n, q) != 1:
                    continue
                for r in range(3, n):
                    if (
                        math.gcd(n, q - 1) % (r + 1) == 0
                        and 2 % math.gcd(n // (r + 1), r + 1) == 0
                    ):
                        add(q, n, r, 4, n - 2 - n // (r + 1))
            elif scheme == SCHEME_ANY_D_SUBGROUP:
                if (q - 1) % n != 0:
                    continue
                for r in range(2, n):
                    if n % (r + 1) != 0:
                        continue
                    for d in range(2, n + 1):
                        if d % (r + 1) == 1:
                            continue
                        exponents, k_expected = _subgroup_exponents(n, r, d)
                        if len(set(exponents)) == len(exponents):
                            add(q, n, r, d, k_expected)
            else:  # SCHEME_ANY_D_COSET
                if (q + 1) % n != 0:
                    continue
                for r in range(2, n):
                    if n % (r + 1) != 0:
                        continue
                    for d in range(2, n + 1):
                        a, b = divmod(d, r + 1)
                        if a % 2 != 0 or b not in _coset_b_values(r):
                            continue
                        exponents, k_expected = _coset_exponents(n, r, d)
                        if len(set(exponents)) == len(exponents):
                            add(q, n, r, d, k_expected)
    return tuple(records)
