"""Generator-polynomial constructions of optimal cyclic locally repairable
codes, plus admissible-parameter enumeration.

Every scheme builds g = (x^s - rho^grid) * prod over e in zeros of
(x - rho^e), s = n/(r+1), rho a canonical primitive root of unity: the grid
factor vanishes on a whole coset of the index-(r+1) subgroup of the n-th
roots of unity, which gives locality r.  With omega the canonical generator
of GF(q), the five schemes, named by the identifiers used on the CLI and in
code files, are:

* ``thm-1.1-i``   distance 3, (r+1) | gcd(n, q-1), r >= 2; rho = alpha =
                  omega^((q-1)/(r+1)), zeros {0}, grid 1.
* ``thm-1.1-ii``  distance 4, r >= 3, additionally gcd(s, r+1) | 2; zeros
                  {0, a}, gamma = alpha^a, a*s + b*(r+1) = 2.
* ``ex-3.2``      n | q - 1, any feasible distance d; rho = beta in GF(q);
                  zeros {0, ..., d-2} less the coset e = d-2 mod (r+1),
                  grid s*((d-2) mod (r+1)).
* ``ex-3.3``      n | q + 1, d = a(r+1) + b with a even and b even, b >= 2;
                  rho = beta in GF(q^2); zeros {-(d-2)/2, ..., (d-2)/2} less
                  the multiples of r+1, grid 0; both closed under negation.
* ``thm-3.4``     n = 2(q - 1), distance 4, (r+1) | q - 1; rho = gamma =
                  omega, zeros {0, 1}, grid s/2, so alpha = omega^(s/2).

Each code states its zeros Z for a primitive n-th root beta, beta^f = rho:
f*e over zeros plus the grid factor's coset (for ex, the head run plus the
coset), and confirms them on first read in GF(q) or GF(q^2); MAX_LENGTH
bounds n.

Each scheme's preconditions live only in ``_plan``, an integer-only function
of (scheme, q, n, r, d), which raises ParameterError with a reusable
diagnostic or returns a ``_Plan``.  ``construct``, the one way to build a
code, goes from the plan through ``_from_zeros``, on element indices; only
the stored beta, alpha and gamma are elements.  ``enumerate_valid_params``
lists exactly the sets ``_plan`` accepts, so a sweep and construct cannot
disagree.  All choices inherit the canonical field conventions, so each
scheme is a pure deterministic function of its parameters.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, partial, reduce
from itertools import accumulate
from typing import NamedTuple

from . import repair
from .cyclic import CyclicCode
from .field import (
    MAX_FIELD_ORDER,
    MAX_LENGTH,
    FiniteField,
    Immutable,
    _embedding,
    make_field,
    prime_factors,
    primitive_nth_root,
)
from .poly import Poly
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


class LrcCode(Immutable):
    """A cyclic code together with its locality and optimality claim.

    ``beta`` is the primitive n-th root whose powers are the roots of g, a
    FieldElement of GF(q) (ex-3.2) or GF(q^2) (ex-3.3), and None for the thm
    schemes, which use none; ``alpha`` and ``gamma`` are the GF(q) elements
    of g's factors x^(n/(r+1)) - alpha and x - gamma, where the scheme has
    them, else None.
    """

    __slots__ = ("base", "r", "d_claimed", "scheme", "beta", "alpha", "gamma", "__dict__")

    def __init__(self, base: CyclicCode, r: int, d_claimed: int, scheme: str, beta,
                 alpha=None, gamma=None):
        if r < 1:
            raise ConstructionError(f"locality r = {r} must be >= 1")
        if base.n % (r + 1) != 0:
            raise ConstructionError(f"(r + 1) = {r + 1} must divide n = {base.n}")
        rhs = singleton_bound(base.n, base.k, r)
        if d_claimed != rhs:
            raise ConstructionError(
                f"claimed distance {d_claimed} misses the Singleton-type "
                f"bound {rhs} for [n={base.n}, k={base.k}], r={r}"
            )
        super().__init__(base, r, d_claimed, scheme, beta, alpha, gamma)

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
    def grid_constant(self) -> int:
        """The constant c of g's factor x^(n/(r+1)) - c that every repair
        vector is built from, found once; RepairError when g has none."""
        return repair._grid_constant(self.base, self.r)

    @cached_property
    def repair_plan(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """:func:`cyclic_lrc.repair.repair_plan` of this code, built once."""
        return repair.repair_plan(self)


class CandidateParams(NamedTuple):
    """One admissible parameter record from a scheme sweep."""

    scheme: str
    q: int
    n: int
    r: int
    d: int
    k: int
    constructible: bool = True
    diagnostic: str | None = None


@cache  # _plan starts here for every (q, n, r, d) an enumeration tries
def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p**m within MAX_FIELD_ORDER or raise ParameterError.
    The size is checked before q is factored."""
    _require(q >= 2, f"field order must be >= 2, got {q}")
    _require(q <= MAX_FIELD_ORDER, f"field order {q} exceeds the supported order {MAX_FIELD_ORDER}")
    factors = prime_factors(q)
    _require(len(factors) == 1, f"q = {q} is not a prime power")
    p = factors[0]
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return p, m


def base_field(q: int) -> FiniteField:
    return make_field(*prime_power(q))


def _project(a: int, preimage, field: FiniteField, what: str) -> int:
    """The GF(q) index of a, through the embedding's inverse map."""
    try:
        return preimage[a]
    except LookupError:
        raise ConstructionError(f"{what} is not fixed by the GF({field.q}) Frobenius") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


# ---------------------------------------------------------------------------
# The five schemes' preconditions and root-exponent sets.


class _Plan(NamedTuple):
    """What one admissible parameter set determines: g = (x^s - rho^grid)
    times the product of x - rho^e over ``zeros``, s = n/(r+1), rho the
    canonical primitive root of unity of order ``order``; gamma =
    rho^gamma_exponent is stored where not None.  ``gap`` is (sweep
    diagnostic, construct message) for a set that passes every
    precondition but cannot be built."""

    k: int
    order: int
    zeros: list[int]
    grid: int
    gamma_exponent: int | None
    gap: tuple[str, str] | None


def _bezout_exponent(s: int, r: int) -> int:
    """Smallest a >= 1 with a*s + b*(r+1) = 2 solvable (a = 0 would need
    (r+1) | 2); gcd(s, r+1) must divide 2.  Then a = (2/g) / (s/g) mod
    (r+1)/g, g the gcd."""
    g = math.gcd(s, r + 1)
    _require(2 % g == 0, f"gcd(n/(r+1), r + 1) = {g} does not divide 2")
    modulus = (r + 1) // g
    return (2 // g) * pow(s // g, -1, modulus) % modulus


def _subgroup_exponents(n: int, r: int, d: int) -> tuple[list[int], int, int]:
    """Zeros off the grid, grid exponent and dimension for scheme ex-3.2:
    the run 0..d-2 less its coset e = d-2 mod (r+1), which the grid factor
    holds whole."""
    a, b = divmod(d, r + 1)
    _require(
        b != 1,
        f"distance d = {d} with d mod (r+1) = 1 is unreachable: the root run "
        f"wraps around and forces minimum distance d + 1; request d = {d + 1}",
    )
    t = (d - 2) % (r + 1)
    zeros = [e for e in range(d - 1) if e % (r + 1) != t]
    return zeros, n // (r + 1) * t, r * n // (r + 1) - a * r - b + (2 if b else 1)


def _coset_b_values(r: int) -> tuple[int, ...]:
    # even remainders 2, 4, ..., 2*ceil((r-1)/2)
    return tuple(range(2, 2 * (r // 2) + 1, 2))


def _coset_exponents(n: int, r: int, d: int) -> tuple[list[int], int, int]:
    """Zeros off the grid, grid exponent and dimension for scheme ex-3.3:
    the symmetric run less the multiples of r + 1, which the grid factor
    x^s - 1 holds whole."""
    a, b = divmod(d, r + 1)
    _require(
        a % 2 == 0 and b in _coset_b_values(r),
        f"d = {d} = {a}*(r+1) + {b} needs an even multiplier and an even "
        f"remainder in {list(_coset_b_values(r))}",
    )
    half = (d - 2) // 2
    zeros = [e % n for e in range(-half, half + 1) if e % (r + 1)]
    return zeros, 0, r * n // (r + 1) - a * r - b + 2


def _plan(scheme: str, q: int, n: int, r: int, d: int | None) -> _Plan | None:
    """Every precondition of ``scheme`` at (q, n, r, d), on integers only.

    The checks run in a fixed order and the first that fails raises
    ParameterError with its diagnostic.  With d = None only the checks that
    do not involve d run, and None is returned.
    """
    prime_power(q)  # or ParameterError
    _require(n <= MAX_LENGTH, f"length n = {n} exceeds the supported length {MAX_LENGTH}")
    gap = gamma_exponent = None
    if scheme in (SCHEME_ANY_D_SUBGROUP, SCHEME_ANY_D_COSET):
        subgroup = scheme == SCHEME_ANY_D_SUBGROUP
        _require(n >= 1, f"length must be >= 1, got {n}")
        group = q - 1 if subgroup else q + 1
        _require(group % n == 0, f"n = {n} does not divide q {'-' if subgroup else '+'} 1 = {group}")
        _require(r >= 2, f"locality must be >= 2, got {r}")
        _require(n % (r + 1) == 0, f"(r + 1) = {r + 1} does not divide n = {n}")
        if d is None:
            return None
        d_min = 1 if subgroup else 2
        _require(d_min <= d <= n, f"distance d = {d} out of range {d_min}..{n}")
        zeros, grid, k = (_subgroup_exponents if subgroup else _coset_exponents)(n, r, d)
        order = n  # rho = beta, a primitive n-th root
        if not subgroup and q * q > MAX_FIELD_ORDER:  # beta of ex-3.3 lies in GF(q^2)
            message = f"the splitting field of x^{n} - 1 over GF({q}) exceeds the supported order {MAX_FIELD_ORDER}"
            gap = ("splitting-field-too-large", message)
    elif scheme == SCHEME_D4_DOUBLE_LENGTH:
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
        # rho = omega, gamma = omega and alpha = omega^(s/2)
        order, zeros, k, grid, gamma_exponent = q - 1, [0, 1], n - s - 2, s // 2, 1
        # (r+1) | 2(q-1) does not by itself place alpha = beta^s, beta of
        # order 2(q-1), in GF(q): that needs s even, that is (r+1) | q - 1
        if (q - 1) % (r + 1):
            gap = (
                "alpha-membership-failed",
                f"alpha = beta^(n/(r+1)) is not in GF({q}): (r + 1) = {r + 1} divides "
                f"2(q - 1) but not q - 1 = {q - 1}, so no generator exists over GF({q})",
            )
    else:  # thm-1.1-i and thm-1.1-ii
        r_min = 2 if scheme == SCHEME_D3_UNBOUNDED else 3
        _require(n >= 1, f"length must be >= 1, got {n}")
        _require(math.gcd(n, q) == 1, f"gcd(n, q) = {math.gcd(n, q)} != 1")
        _require(r >= r_min, f"locality must be >= {r_min}, got {r}")
        _require(
            math.gcd(n, q - 1) % (r + 1) == 0,
            f"gcd(n, q - 1) = {math.gcd(n, q - 1)} is not divisible by r + 1 = {r + 1}",
        )
        # rho = alpha, a primitive (r+1)-th root
        order, zeros, k, grid = r + 1, [0], n - 1 - n // (r + 1), 1
        if scheme == SCHEME_D4_UNBOUNDED:
            gamma_exponent = _bezout_exponent(n // (r + 1), r)
            zeros, k = [0, gamma_exponent], k - 1
    if d is None:
        return None
    return _Plan(k, order, zeros, grid, gamma_exponent, gap)


def _from_zeros(scheme: str, q: int, n: int, r: int, d: int) -> LrcCode:
    """The one generator path: the product of x - rho^e over the plan's
    zeros, rho in GF(q), or in GF(q^2) where its order does not divide q - 1
    (ex-3.3), projected to GF(q), which fails outside its embedded copy;
    times x^s - c, c = rho^grid projected alike.  ex stores beta = rho, thm
    alpha = c and gamma.  CyclicCode checks g | x^n - 1 and is handed the
    plan's zeros, and k is checked."""
    plan = _plan(scheme, q, n, r, d)
    if plan.gap is not None:
        raise ParameterError(plan.gap[1])
    field, s = base_field(q), n // (r + 1)
    ext = field if (q - 1) % plan.order == 0 else make_field(field.p, 2 * field.m)
    rho = primitive_nth_root(ext, plan.order)
    _, preimage = _embedding(field, ext)
    lifted = Poly.from_roots(ext, [ext.pow(rho.index, e) for e in plan.zeros])
    c = _project(ext.pow(rho.index, plan.grid), preimage, field, "grid constant")
    g = Poly(field, [field.neg(c), *[0] * (s - 1), 1]) * Poly(  # __mul__ skips the left zeros
        field, (_project(a, preimage, field, "generator coefficient") for a in lifted.coeffs))
    code = CyclicCode(field, n, g, partial(_confirmed_zeros, plan, rho, s))
    if code.k != plan.k:
        raise ConstructionError(f"{scheme}: derived dimension {code.k} != scheme formula {plan.k}")
    if scheme in (SCHEME_ANY_D_SUBGROUP, SCHEME_ANY_D_COSET):
        return LrcCode(code, r, d, scheme, rho)
    gamma = None if plan.gamma_exponent is None else field.from_index(field.pow(rho.index, plan.gamma_exponent))
    return LrcCode(code, r, d, scheme, None, field.from_index(c), gamma)


def _confirmed_zeros(plan: _Plan, rho, s: int, code: CyclicCode) -> frozenset[int] | None:
    """The exponents of g's zeros that ``plan`` states, if g has exactly
    those zeros, else None.  They refer to a primitive n-th root beta with
    beta^f = rho, f = n/plan.order, which exists once rho has that order:
    x - rho^e is the zero beta^(f*e), and the grid factor x^s - rho^grid
    has the zeros beta^e, e = f*grid/s mod n/s.  In rho's field, g(rho^e) =
    0 and g's residues modulo the grid factor confirm them; deg g = their
    count makes them all."""
    n, g, order, ext = code.n, code.g, plan.order, rho.field
    f, fwd = n // order, _embedding(code.field, ext)[0]
    zeros = {f * e for e in plan.zeros}.union(range(f * plan.grid // s, n, n // s))
    powers = list(accumulate([rho.index] * order, ext.mul, initial=1))  # rho^0, ..., rho^order
    terms = [(i, fwd[a]) for i, a in enumerate(g.coeffs) if a]
    confirmed = (
        g.degree == len(zeros)
        and powers[-1] == 1 and 1 not in powers[1:-1]
        and not any(reduce(ext.add, (ext.mul(a, powers[i * e % order]) for i, a in terms))
                    for e in plan.zeros)
        and repair._has_grid_factor(ext, [fwd[a] for a in g.coeffs], s, powers[plan.grid % order])
    )
    return frozenset(zeros) if confirmed else None


# ---------------------------------------------------------------------------
# Dispatch and parameter enumeration.

# (n as a function of q, d) where a scheme fixes them
_FIXED = {
    SCHEME_D3_UNBOUNDED: (None, 3),
    SCHEME_D4_UNBOUNDED: (None, 4),
    SCHEME_ANY_D_SUBGROUP: (None, None),
    SCHEME_ANY_D_COSET: (None, None),
    SCHEME_D4_DOUBLE_LENGTH: (lambda q: 2 * (q - 1), 4),
}


def construct(scheme: str, q: int, n: int | None = None, r: int | None = None, d: int | None = None) -> LrcCode:
    """Build a code by scheme identifier, validating which flags it takes."""
    if scheme not in ALL_SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}; choose from {', '.join(ALL_SCHEMES)}")
    if r is None:
        raise ParameterError("every scheme needs a locality --r")
    fixed_n, fixed_d = _FIXED[scheme]
    if fixed_n is not None:
        if n is not None and n != fixed_n(q):
            raise ParameterError(f"scheme {scheme} fixes n = 2(q - 1) = {fixed_n(q)}, got {n}")
        n = fixed_n(q)
    if n is None:
        raise ParameterError(f"scheme {scheme} needs a length --n")
    if fixed_d is not None:
        if d is not None and d != fixed_d:
            raise ParameterError(f"scheme {scheme} fixes d = {fixed_d}, got {d}")
        d = fixed_d
    if d is None:
        raise ParameterError(f"scheme {scheme} needs a distance --d")
    return _from_zeros(scheme, q, n, r, d)


def _prime_powers_up_to(q_max: int) -> list[int]:
    """Prime powers 2..q_max, ascending, from a sieve.  The walk stops at
    MAX_FIELD_ORDER, since ``_plan`` rejects every larger q."""
    limit = min(q_max, MAX_FIELD_ORDER)
    prime = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    primes = [p for p in range(2, limit + 1) if prime[p]]
    powers = (p**e for p in primes if p * p <= limit for e in range(2, limit.bit_length()))
    return sorted(primes + [q for q in powers if q <= limit])


def enumerate_valid_params(scheme: str, q_max: int, n_max: int) -> tuple[CandidateParams, ...]:
    """Every parameter set ``_plan`` accepts, ascending by (q, n, r, d).

    These are the sets construct builds, plus the sets it rejects although
    they pass every precondition, listed with constructible=False and a
    diagnostic: for ex-3.3, ``splitting-field-too-large`` when GF(q^2)
    exceeds MAX_FIELD_ORDER, and, for thm-3.4, ``alpha-membership-failed``
    when the stated hypothesis holds but alpha lies outside GF(q).  The walk
    over lengths stops at MAX_LENGTH, since ``_plan`` rejects every longer n.
    """
    if scheme not in ALL_SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if q_max < 2 or n_max < 2:
        raise ParameterError("bounds must be >= 2")
    fixed_n, fixed_d = _FIXED[scheme]
    records: list[CandidateParams] = []
    for q in _prime_powers_up_to(q_max):
        if fixed_n is None:
            lengths = range(2, min(n_max, MAX_LENGTH) + 1)
        else:
            lengths = [n for n in (fixed_n(q),) if n <= n_max]
        for n in lengths:
            # (r + 1) | n is an LrcCode invariant; checks without d run once per r
            for r in range(1, n):
                if n % (r + 1):
                    continue
                try:
                    _plan(scheme, q, n, r, None)
                except ParameterError:
                    continue
                for d in range(1, n + 1) if fixed_d is None else (fixed_d,):
                    try:
                        plan = _plan(scheme, q, n, r, d)
                    except ParameterError:
                        continue
                    diagnostic = None if plan.gap is None else plan.gap[0]
                    records.append(
                        CandidateParams(scheme, q, n, r, d, plan.k, diagnostic is None, diagnostic)
                    )
    return tuple(records)
