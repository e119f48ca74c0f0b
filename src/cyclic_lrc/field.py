"""Exact arithmetic in finite fields GF(p^m).

An element of GF(p^m) is its coefficient vector over GF(p) with respect to
the defining modulus: the tuple ``(c_0, ..., c_{m-1})`` stands for
``c_0 + c_1*y + ... + c_{m-1}*y^{m-1}`` where ``y`` is the class of ``x``
modulo the field's irreducible polynomial.  Prime fields use ``m == 1`` and
carry no modulus.  The package computes on canonical indices,
``index = sum(c_i * p**i)``, through each field's index arithmetic (``add``,
``sub``, ``neg``, ``mul``, ``inv``, ``pow``), the package's one element
arithmetic.  :class:`FieldElement`, the digit vector with its field, is a
checked value built only at the public edges: its constructor rejects a
digit outside GF(p), and elements whose digits are valid by construction
(``from_index``, the parity symbols of a systematic encode) skip that check
through one private factory.

Every choice here is canonical so that results are reproducible run to run:

* the modulus of GF(p^m) is the lexicographically smallest monic irreducible
  polynomial of degree m over GF(p), coefficients compared from the constant
  term upward;
* elements are ordered by their index;
* the multiplicative generator of a field is the first element in that order
  whose order is q - 1.

Code lengths are bounded apart from fields, by MAX_LENGTH: a code over
GF(q) is built, and its zeros confirmed, with roots of unity in GF(q) or
GF(q^2), so no larger field is formed.  Every number :func:`prime_factors`
sees is at most MAX_FIELD_ORDER, so it is plain trial division.

Each GF(p^m) has exactly one FiniteField instance, so fields compare and
hash by identity.  Fields and elements are immutable values (see
:class:`Immutable`, the base of every value class of the package); all
operations are pure and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import operator

# Fields larger than this are rejected outright: the exhaustive oracles
# downstream only make sense at desk scale.
MAX_FIELD_ORDER = 1 << 20
# Codes longer than this are rejected.  The division check costs (n - deg g)
# products per nonzero term of g, far below n^2 for the sparse thm
# generators; the parity matrix has k(n - k)m^2 GF(p) entries, and encoding
# refuses more than MAX_LENGTH**2 // 4, the most a prime-field code needs.
# At n = 4096 thm-1.1-i over GF(13) builds in 3 ms and its parity matrix of
# 3.15M entries in 0.6 s, within 90 MB; over GF(4096) at n = 4095 it builds
# in 0.03 s, bounds BCH in 0.35 s and cannot encode (2-CPU EPYC VM).
MAX_LENGTH = 1 << 12


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending, by trial division.  Every
    caller passes a number of at most MAX_FIELD_ORDER (a field order, one
    less than it, its characteristic or its degree), so no divisor above
    2^10 is tried."""
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


def _poly_eval(field: FiniteField, coeffs, point: int) -> int:
    """Horner evaluation of a coefficient index sequence at a point of the field."""
    add, mul = field.add, field.mul
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, point), c)
    return acc


def _is_irreducible(field: FiniteField) -> bool:
    """Irreducibility of a candidate modulus, by Rabin's test on the
    arithmetic modulo it, y being the class of x (index p): y^(p^m) == y,
    and gcd(y^(p^(m/d)) - y, modulus) = 1 for every prime divisor d of m.
    Both are tested by powering.  Once y^(p^m) == y, the modulus divides
    x^(p^m) - x, a product of distinct irreducibles of degrees dividing m,
    so the ring is a product of fields GF(p^e) with e | m.  There an element
    z is prime to the modulus exactly when it is a unit: z^(p^m - 1) == 1."""
    p, m, q, y = field.p, field.m, field.q, field.p
    if field.pow(y, q) != y:
        return False
    return all(
        field.pow(field.sub(field.pow(y, p ** (m // d)), y), q - 1) == 1
        for d in prime_factors(m)
    )


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
    """Descriptor of GF(p^m) with a fixed defining modulus, and its element
    arithmetic on canonical indices.

    ``modulus`` is the monic irreducible polynomial as a tuple of m+1
    residues, lowest degree first; it is None exactly when m == 1.  The
    functions ``add``, ``sub``, ``neg`` and ``mul`` and the methods ``inv``
    and ``pow`` take and return indices.  Obtain fields from
    :func:`make_field`, which returns one instance per (p, m); equality and
    hashing are by identity.
    """

    __slots__ = ("p", "m", "modulus", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        super().__init__(p, m, modulus)
        # plain functions, not methods: hot loops call them without binding
        self.__dict__.update(_residue_ops(p) if m == 1 else _packed_ops(p, m, modulus))

    @property
    def q(self) -> int:
        return self.p**self.m

    def digits(self, index: int) -> tuple[int, ...]:
        """The m base-p digits of an index, lowest first."""
        out = []
        for _ in range(self.m):
            index, d = divmod(index, self.p)
            out.append(d)
        return tuple(out)

    def index(self, digits) -> int:
        """The index of a digit sequence, lowest first."""
        value = 0
        for d in reversed(digits):
            value = value * self.p + d
        return value

    def one(self) -> FieldElement:
        # kept for perfbench/selftest.py, which flips a symbol by adding one
        return self.from_index(1)

    def from_index(self, index: int) -> FieldElement:
        """Element whose digit vector has integer value ``index``."""
        if not 0 <= index < self.q:
            raise ValueError(f"element index {index} out of range for GF({self.q})")
        return _element(self, self.digits(index))

    def inv(self, a: int) -> int:
        """Inverse of a nonzero index, a^(q-2), since a^(q-1) == 1."""
        if not a:
            raise ZeroDivisionError(f"inversion of zero in {self}")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; a negative e inverts a first."""
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __reduce__(self):
        # copies and unpickled fields resolve to the one canonical instance
        return make_field, (self.p, self.m)


def _residue_ops(p: int) -> dict:
    """GF(p) arithmetic: native residues mod p."""
    return {
        "add": lambda a, b: (a + b) % p,
        "sub": lambda a, b: (a - b) % p,
        "neg": lambda a: -a % p,
        "mul": lambda a, b: a * b % p,
    }


def _packed_ops(p: int, m: int, modulus: tuple[int, ...]) -> dict:
    """GF(p^m) arithmetic, m >= 2, by one digit-level product.

    An index is packed into one int with digit i in lane i of ``width``
    bits, through a table of the p^ceil(m/2) low halves.  Lanes are wide
    enough that neither sums nor the product of two packed elements carry
    between lanes, so the product of the packed ints is the packed product
    polynomial (Kronecker substitution).  Its lanes m..2m-2 fold onto the
    packed x^j mod modulus, and every lane is reduced mod p once, when the
    result is unpacked to an index.  Sums and differences take the same path.
    """
    width = (2 * m * (p - 1) ** 2).bit_length()  # the largest lane value fits
    lane = (1 << width) - 1
    half = p ** ((m + 1) // 2)
    high = width * ((m + 1) // 2)
    table = [0] * half
    for i in range(1, half):
        table[i] = i % p | table[i // p] << width
    lanes = range(width * (m - 1), -1, -width)
    low = (1 << width * m) - 1
    folds = []  # (lane j, packed x^j mod modulus) for j = m .. 2m-2
    image = [-c % p for c in modulus[:m]]
    for j in range(m, 2 * m - 1):
        folds.append((width * j, sum(c << width * i for i, c in enumerate(image))))
        image = [(c - image[-1] * f) % p for c, f in zip([0, *image[:-1]], modulus)]

    def pack(a: int) -> int:
        return table[a % half] | table[a // half] << high

    def unpack(x: int) -> int:
        value = 0
        for shift in lanes:
            value = value * p + (x >> shift & lane) % p
        return value

    def mul(a: int, b: int) -> int:
        x = pack(a) * pack(b)
        folded = x & low
        for shift, power_image in folds:
            folded += (x >> shift & lane) % p * power_image
        return unpack(folded)

    return {
        "add": lambda a, b: unpack(pack(a) + pack(b)),
        "sub": lambda a, b: unpack(pack(a) + (p - 1) * pack(b)),
        "neg": lambda a: unpack((p - 1) * pack(a)),
        "mul": mul,
    }


class FieldElement(Immutable):
    """An element of a FiniteField, held as its canonical digit vector.
    Arithmetic is the field's, on :attr:`index`; the constructor raises
    ValueError unless ``rep`` holds exactly m digits, each in 0..p-1."""

    __slots__ = ("field", "rep")

    def __init__(self, field: FiniteField, rep: tuple[int, ...]):
        rep = tuple(rep)
        if len(rep) != field.m or not all(type(d) is int and 0 <= d < field.p for d in rep):
            raise ValueError(f"{rep!r} is not {field.m} digits in 0..{field.p - 1}, an element of {field}")
        super().__init__(field, rep)

    @property
    def index(self) -> int:
        """Integer value of the digit vector; the canonical scalar encoding."""
        return self.field.index(self.rep)

    def __add__(self, other: FieldElement) -> FieldElement:
        # kept for perfbench/selftest.py, which flips a symbol by adding one
        if self.field is not other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        return self.field.from_index(self.field.add(self.index, other.index))

    def __repr__(self) -> str:
        return f"{self.field}:{self.index}"


def _element(field: FiniteField, rep: tuple[int, ...]) -> FieldElement:
    """A FieldElement from digits valid by construction, unchecked: the data
    path builds one per symbol."""
    element = object.__new__(FieldElement)
    _set(element, "field", field)
    _set(element, "rep", rep)
    return element


def make_field(p: int, m: int = 1) -> FiniteField:
    """Construct GF(p^m) with the canonical modulus.

    Raises ValueError for non-prime p, m < 1, or p**m above MAX_FIELD_ORDER.
    Canonical: equal (p, m) always yield the same instance.
    """
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    # size first: p**m of a huge m never ends, and a huge p need not be factored
    if p > 1 and (m >= MAX_FIELD_ORDER.bit_length() or p**m > MAX_FIELD_ORDER):
        raise ValueError(f"field order {p}^{m} exceeds the supported limit {MAX_FIELD_ORDER}")
    if prime_factors(p) != (p,):
        raise ValueError(f"characteristic must be prime, got {p}")
    return _canonical_field(p, m)


@functools.lru_cache(maxsize=None)
def _canonical_field(p: int, m: int) -> FiniteField:
    if m == 1:
        return FiniteField(p, 1, None)
    # lexicographic scan over the non-leading coefficients, constant term
    # first; a zero constant term is a root at 0, so the scan starts at 1
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        candidate = FiniteField(p, m, (*tail, 1))
        if _is_irreducible(candidate):
            return candidate
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


@functools.lru_cache(maxsize=None)
def _multiplicative_generator(field: FiniteField) -> int:
    order = field.q - 1
    factors = prime_factors(order)
    for a in range(1, field.q):
        if all(field.pow(a, order // f) != 1 for f in factors):
            return a
    raise AssertionError(f"no generator found in {field}")


def primitive_nth_root(field: FiniteField, n: int) -> FieldElement:
    """Canonical primitive n-th root of unity: generator ** ((q-1)/n).

    Requires n | q - 1; deterministic because the generator is canonical.
    """
    if n < 1 or (field.q - 1) % n != 0:
        raise ValueError(f"{n} does not divide q - 1 = {field.q - 1}")
    return field.from_index(field.pow(_multiplicative_generator(field), (field.q - 1) // n))


# ---------------------------------------------------------------------------
# Embedding and projection.


@functools.lru_cache(maxsize=None)
def _embedding(sub: FiniteField, ext: FiniteField) -> tuple[range | tuple[int, ...], range | dict[int, int]]:
    """Canonical field embedding GF(q) -> GF(q^d) as index tables.

    The defining generator y of the subfield maps to the smallest-index root
    of the subfield modulus inside the extension; this pins one of the d
    conjugate ring embeddings.  Returns (forward indices, inverse map); the
    inverse map is the projection back, holding exactly the elements fixed
    by the q-power Frobenius, and a lookup outside it raises LookupError.
    """
    if sub.p != ext.p or ext.m % sub.m != 0:
        raise ValueError(f"{sub} does not embed in {ext}")
    if sub.m == 1 or sub == ext:
        # constants map to constants, and the index of the constant c is c;
        # a range, not a table of up to 2^20 entries
        return range(sub.q), range(sub.q)
    # all elements of the subfield copy are powers of w (plus zero)
    w = ext.pow(_multiplicative_generator(ext), (ext.q - 1) // (sub.q - 1))
    candidates, acc = [1], w
    while acc != 1:
        candidates.append(acc)
        acc = ext.mul(acc, w)

    # the subfield modulus splits in ext, and its roots are powers of w; a
    # digit vector over GF(p) holds the indices of its constants in ext
    image_root = min(c for c in candidates if _poly_eval(ext, sub.modulus, c) == 0)
    fwd = tuple(_poly_eval(ext, sub.digits(i), image_root) for i in range(sub.q))
    return fwd, {v: i for i, v in enumerate(fwd)}
