"""Exact arithmetic in finite fields GF(p^m).

Elements of GF(p^m) are represented by their coefficient vector over GF(p)
with respect to the defining modulus: the tuple ``(c_0, ..., c_{m-1})``
stands for ``c_0 + c_1*y + ... + c_{m-1}*y^{m-1}`` where ``y`` is the class
of ``x`` modulo the field's irreducible polynomial.  Prime fields use
``m == 1`` and carry no modulus.

Every choice here is canonical so that results are reproducible run to run:

* the modulus of GF(p^m) is the lexicographically smallest monic irreducible
  polynomial of degree m over GF(p), coefficients compared from the constant
  term upward;
* elements are ordered by the integer value of their digit vector,
  ``index = sum(c_i * p**i)``;
* the multiplicative generator of a field is the first element in that order
  whose order is q - 1.

Each GF(p^m) has exactly one FiniteField instance, so fields compare and
hash by identity.  Fields and elements are immutable values (see
:class:`Immutable`, the base of every value class of the package); all
operations are pure and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

# Fields larger than this are rejected outright: the trial-division factoring
# of q - 1 and the exhaustive oracles downstream only make sense at desk scale.
MAX_FIELD_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for orders below 2**20."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Integer-coefficient polynomial helpers, used only for the modulus search.
# Polynomials are lists of ints mod p, lowest degree first, no trailing zeros.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        _trim(a)
        if not a:
            break
    return a


def _pmulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _pmod(_trim(prod), mod, p)


def _x_power_mod(e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod([0, 1], mod, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by Rabin's test:
    x^(p^m) == x mod f and gcd(x^(p^(m/d)) - x, f) = 1 for every prime
    divisor d of m.
    """
    m = len(coeffs) - 1
    if m <= 0:
        return False
    if coeffs[0] == 0:
        return False  # root at 0; skips the powering for a p-th of all tails
    if _x_power_mod(p**m, coeffs, p) != [0, 1]:
        return False
    for d in prime_factors(m):
        h = _x_power_mod(p ** (m // d), coeffs, p)
        h = _trim([(hi - xi) % p for hi, xi in itertools.zip_longest(h, [0, 1], fillvalue=0)])
        g = _pgcd(coeffs[:], h, p)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


_set = object.__setattr__


class Immutable:
    """Base of the package's immutable values.  A subclass lists its
    constructor arguments, in order, as ``__slots__`` (plus ``"__dict__"``
    where it caches properties), and its ``__init__`` passes them to this
    one; setting or deleting an attribute afterwards raises AttributeError.
    Values compare and hash by their arguments, and copies and unpickled
    values are rebuilt by calling the constructor."""

    __slots__ = ()

    def __init__(self, *args):
        for name, value in zip(self._fields, args):
            _set(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._args = property(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        return self._args == other._args if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._args)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._args

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._args))
        return f"{type(self).__name__}({args})"


class FiniteField(Immutable):
    """Descriptor of GF(p^m) with a fixed defining modulus.

    ``modulus`` is the monic irreducible polynomial as a tuple of m+1
    residues, lowest degree first; it is None exactly when m == 1.  Obtain
    fields from :func:`make_field`, which returns one instance per (p, m);
    equality and hashing are by identity.
    """

    __slots__ = ("p", "m", "modulus")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        super().__init__(p, m, modulus)

    @property
    def q(self) -> int:
        return self.p**self.m

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.m)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def from_index(self, index: int) -> FieldElement:
        """Element whose digit vector has integer value ``index``."""
        if not 0 <= index < self.q:
            raise ValueError(f"element index {index} out of range for GF({self.q})")
        digits = []
        for _ in range(self.m):
            index, d = index // self.p, index % self.p
            digits.append(d)
        return FieldElement(self, tuple(digits))

    def element(self, value: int | tuple[int, ...] | list[int]) -> FieldElement:
        """Build an element from a canonical index or a digit sequence.

        Integer input is a strict index in [0, q); sequences are residues
        that get reduced mod p and zero-padded to length m.
        """
        if isinstance(value, int):
            return self.from_index(value)
        digits = [int(v) % self.p for v in value]
        if len(digits) > self.m:
            raise ValueError(f"too many digits for GF({self.q}) element: {value!r}")
        digits += [0] * (self.m - len(digits))
        return FieldElement(self, tuple(digits))

    def elements(self):
        """All field elements in ascending canonical order."""
        for i in range(self.q):
            yield self.from_index(i)

    def generator(self) -> FieldElement:
        """Canonical generator of the multiplicative group."""
        return _multiplicative_generator(self)

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __reduce__(self):
        # copies and unpickled fields resolve to the one canonical instance
        return make_field, (self.p, self.m)


class FieldElement(Immutable):
    """An element of a FiniteField, held as its canonical digit vector."""

    __slots__ = ("field", "rep")

    def __init__(self, field: FiniteField, rep: tuple[int, ...]):
        # stored directly: arithmetic builds an element per operation
        _set(self, "field", field)
        _set(self, "rep", rep)

    @property
    def index(self) -> int:
        """Integer value of the digit vector; the canonical scalar encoding."""
        value = 0
        for d in reversed(self.rep):
            value = value * self.field.p + d
        return value

    @property
    def is_zero(self) -> bool:
        return not any(self.rep)

    def _same_field(self, other: FieldElement) -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.rep, other.rep)))

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.rep, other.rep)))

    def __neg__(self) -> FieldElement:
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.rep))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        fld = self.field
        if fld.m == 1:
            return FieldElement(fld, ((self.rep[0] * other.rep[0]) % fld.p,))
        return FieldElement(fld, _mul_reduce(self.rep, other.rep, fld.modulus, fld.p, fld.m))

    def inverse(self) -> FieldElement:
        if self.is_zero:
            raise ZeroDivisionError(f"inversion of zero in {self.field}")
        return self ** (self.field.q - 2)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._same_field(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> FieldElement:
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"{self.field}:{self.index}"


def _mul_reduce(
    a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int, m: int
) -> tuple[int, ...]:
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce using x^m == -(modulus minus leading term), repeatedly
    for i in range(2 * m - 2, m - 1, -1):
        ci = prod[i]
        if ci:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - ci * modulus[j]) % p
    return tuple(prod[:m])


def make_field(p: int, m: int = 1) -> FiniteField:
    """Construct GF(p^m) with the canonical modulus.

    Raises ValueError for non-prime p, m < 1, or p**m above MAX_FIELD_ORDER.
    Canonical: equal (p, m) always yield the same instance.
    """
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    # size first: is_prime is trial division, and p**m of a huge m never ends
    if p > 1 and (m >= MAX_FIELD_ORDER.bit_length() or p**m > MAX_FIELD_ORDER):
        raise ValueError(f"field order {p}^{m} exceeds the supported limit {MAX_FIELD_ORDER}")
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    return _canonical_field(p, m)


@functools.lru_cache(maxsize=None)
def _canonical_field(p: int, m: int) -> FiniteField:
    if m == 1:
        return FiniteField(p, 1, None)
    # lexicographic scan over the non-leading coefficients, constant term first
    for tail in itertools.product(range(p), repeat=m):
        coeffs = list(tail) + [1]
        if _is_irreducible(coeffs, p):
            return FiniteField(p, m, tuple(coeffs))
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


@functools.lru_cache(maxsize=None)
def _multiplicative_generator(field: FiniteField) -> FieldElement:
    order = field.q - 1
    factors = prime_factors(order)
    for i in range(1, field.q):
        a = field.from_index(i)
        if all((a ** (order // f)).index != 1 for f in factors):
            return a
    raise AssertionError(f"no generator found in {field}")


def multiplicative_order(a: FieldElement) -> int:
    """Order of a nonzero element in the multiplicative group."""
    if a.is_zero:
        raise ValueError("zero has no multiplicative order")
    order = a.field.q - 1
    for f in prime_factors(order):
        while order % f == 0 and (a ** (order // f)).index == 1:
            order //= f
    return order


def splitting_degree(q: int, n: int) -> int:
    """Least m >= 1 with q^m == 1 (mod n): the degree of the extension of
    GF(q) generated by a primitive n-th root of unity."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if math.gcd(n, q) != 1:
        raise ValueError(f"gcd(n, q) = {math.gcd(n, q)} != 1: no primitive {n}-th root exists")
    m, acc = 1, q % n
    while acc != 1 % n:
        acc = (acc * q) % n
        m += 1
    return m


def primitive_nth_root(field: FiniteField, n: int) -> FieldElement:
    """Canonical primitive n-th root of unity: generator ** ((q-1)/n).

    Requires n | q - 1; deterministic because the generator is canonical.
    """
    if n < 1 or (field.q - 1) % n != 0:
        raise ValueError(f"{n} does not divide q - 1 = {field.q - 1}")
    return field.generator() ** ((field.q - 1) // n)


def splitting_root(field: FiniteField, n: int) -> FieldElement:
    """Canonical primitive n-th root of unity in the splitting field of
    x^n - 1 over ``field``: GF(q^m) for m = splitting_degree(q, n)."""
    degree = splitting_degree(field.q, n)
    return primitive_nth_root(field if degree == 1 else make_field(field.p, field.m * degree), n)


# ---------------------------------------------------------------------------
# Embedding and projection.


@functools.lru_cache(maxsize=None)
def _embedding(sub: FiniteField, ext: FiniteField) -> tuple[tuple[int, ...], dict[int, int]]:
    """Canonical field embedding GF(q) -> GF(q^d) as index tables.

    The defining generator y of the subfield maps to the smallest-index root
    of the subfield modulus inside the extension; this pins one of the d
    conjugate ring embeddings.  Returns (forward indices, inverse map).
    """
    if sub.p != ext.p or ext.m % sub.m != 0:
        raise ValueError(f"{sub} does not embed in {ext}")
    if sub.m == 1 or sub == ext:
        # constants map to constants, and the index of the constant c is c
        fwd = tuple(range(sub.q))
        return fwd, {i: i for i in fwd}
    # all elements of the subfield copy are powers of w (plus zero)
    w = ext.generator() ** ((ext.q - 1) // (sub.q - 1))
    candidates = [ext.one()]
    acc = w
    while acc.index != 1:
        candidates.append(acc)
        acc = acc * w
    image_root = None
    for c in sorted(candidates, key=lambda e: e.index):
        val = ext.zero()
        for coeff in reversed(sub.modulus):
            val = val * c + ext.element((coeff,))
        if val.is_zero:
            image_root = c
            break
    if image_root is None:
        raise AssertionError(f"subfield modulus has no root in {ext}")
    fwd = []
    for i in range(sub.q):
        a = sub.from_index(i)
        img = ext.zero()
        for coeff in reversed(a.rep):
            img = img * image_root + ext.element((coeff,))
        fwd.append(img.index)
    return tuple(fwd), {v: i for i, v in enumerate(fwd)}


def embed(a: FieldElement, ext: FiniteField) -> FieldElement:
    """Image of a under the canonical embedding of its field into ext."""
    fwd, _ = _embedding(a.field, ext)
    return ext.from_index(fwd[a.index])


def project_to_base(a: FieldElement, sub: FiniteField) -> FieldElement:
    """Preimage of a under the canonical embedding of sub into a's field.

    Raises ValueError when a is not in the embedded copy of sub (i.e. not
    fixed by the q-power Frobenius).
    """
    _, inv = _embedding(sub, a.field)
    try:
        return sub.from_index(inv[a.index])
    except KeyError:
        raise ValueError(f"{a!r} is not in the embedded copy of {sub}") from None
