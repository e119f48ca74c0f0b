"""The exhaustive scan kernel behind the distance and locality oracles.

Messages are numbered by a counter t: symbol j of message t is the field
element of index ``(t // q**j) % q``.  Because element indices are base-p
digit vectors, the base-p digits of t are exactly the GF(p) coordinates of
the message, symbol by symbol.  Three observations make the scan a few
big-integer operations per block of codewords, in pure Python:

* **Expanded generator.**  Multiplication by a fixed element of GF(p^m) is
  a GF(p)-linear map on digit vectors, so the k x n generator over GF(q) is
  a km x nm matrix E over GF(p), :func:`expand`, and the codeword of
  message t has digits ``digits(t) @ E mod p``.  One path serves prime and
  extension fields of every order, and the systematic encoder uses it too.
* **Projective enumeration.**  Scalar multiples of a message share the
  support of its codeword.  In counter order the smallest member of every
  scalar class is the one whose highest nonzero symbol is ``one`` (index 1),
  i.e. a counter in ``[q**s, 2 * q**s)`` for some s.  Scanning only those
  counters visits (q**k - 1)/(q - 1) messages and still yields the exact
  minimum over any prefix 1..count and the first counter of every support.
  The distance oracle scans such a prefix: the messages below q**(k-L),
  whose codewords m * g include a cyclic shift of every word of minimum
  weight (:func:`cyclic_lrc.cyclic.min_distance_exhaustive`).
* **Bit masks.**  Within ``[q**s, 2 * q**s)`` a counter splits as
  ``base + lo`` with disjoint digits, so its codeword is the sum of theirs.
  The low table, built once per scan, holds for each digit column x and
  value v an int ``eq[x][v]``, bit t set when digit x of the t-th ``lo``
  codeword is v; it takes about ``_BLOCK_BYTES`` bytes.  A symbol of
  ``base + lo`` is zero when its m digits are those of ``-base``, an AND of
  m masks, and the zero counts of all words add up in bit-sliced planes.
"""

from __future__ import annotations

import functools
from operator import and_, mul
from typing import Iterator, Sequence

from .field import FiniteField

_BLOCK_BYTES = 1 << 20

Matrix = Sequence[Sequence[int]]


@functools.lru_cache(maxsize=None)
def op_tables(field: FiniteField) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Products of the power basis, m rows of m: entry [i][a] holds the
    digits of y**i * y**a, y**i being digit i."""
    basis = [field.p**i for i in range(field.m)]
    return tuple(tuple(field.digits(field.mul(y, b)) for b in basis) for y in basis)


def expand(matrix: Matrix, field: FiniteField) -> list[list[int]]:
    """The GF(p) form of an index matrix: entry [j*m + i][c*m + x] holds
    digit x of y**i * matrix[j][c].  A message's digit vector times it, mod
    p, is the digit vector of the codeword."""
    p, table = field.p, op_tables(field)
    blocks = {}
    for e in {e for row in matrix for e in row}:
        digits = field.digits(e)
        # y**i * e is the sum over a of digit a of e times y**i * y**a
        blocks[e] = [[sum(map(mul, digits, column)) % p for column in zip(*products)] for products in table]
    return [[d for e in row for d in blocks[e][i]] for row in matrix for i in range(field.m)]


# ---------------------------------------------------------------------------
# The scan.


def _table(rows: list[list[int]], p: int, width: int) -> list[list[int]]:
    """``eq[x][v]`` for the ``width`` digit columns: bit t set when digit x of
    the t-th GF(p)-combination of the rows, in counter order, equals v."""
    # word t + c * p**i is word t plus c times row i
    shifts = [[c * p**i for c in range(p)] for i in range(len(rows))]
    columns = [tuple(row[x] for row in rows) for x in range(width)]
    built: dict[tuple[int, ...], list[int]] = {}
    for column in set(columns):
        # up to the first nonzero entry every word has digit 0
        lead = next((i for i, e in enumerate(column) if e), len(column))
        masks = [(1 << p**lead) - 1] + [0] * (p - 1)
        for e, level_shifts in zip(column[lead:], shifts[lead:]):
            level = [0] * p
            for u, mask in enumerate(masks):
                if mask:  # only one of them on the first level
                    for shift in level_shifts:
                        level[u] |= mask << shift
                        u = (u + e) % p
            masks = level
        built[column] = masks
    return [built[column] for column in columns]


def _blocks(matrix: Matrix, field: FiniteField, count: int) -> Iterator[tuple[int, int, list[int]]]:
    """(first counter, mask of the block's words, zero mask per symbol) per
    block of the projective messages with counter <= count, in counter order."""
    q, p, m, n = field.q, field.p, field.m, len(matrix[0])
    expanded = expand(matrix, field)
    low = 0  # symbols covered by the table
    while q ** (low + 1) <= min(_BLOCK_BYTES * 8 // (n * m * p), count):
        low += 1
    eq = _table(expanded[: low * m], p, n * m)
    s = 0
    while q**s <= count:
        first, last = q**s, min(2 * q**s - 1, count)
        step = q ** min(s, low)
        rows = expanded[min(s, low) * m : s * m]
        for j, base in enumerate(range(first, last + 1, step)):
            # the codeword of base: row s*m, plus the digits of j on the rows
            # between the table and symbol s; its negated digits pick masks
            word = expanded[s * m]
            for i, row in enumerate(rows):
                word = [(a + j // p**i * b) % p for a, b in zip(word, row)]
            masks = [eq[x][-d % p] for x, d in enumerate(word)]
            full = (1 << min(step, last + 1 - base)) - 1
            yield base, full, [functools.reduce(and_, masks[c * m : c * m + m], full) for c in range(n)]
        s += 1


def _counter_planes(masks: list[int]) -> list[int]:
    """Bit-sliced sum of the masks: bit t of planes[i] is bit i of the number
    of masks that have bit t set."""
    planes = [0] * len(masks).bit_length()
    for carry in masks:
        i = 0
        while carry:
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1
    return planes


def _at_least(planes: list[int], threshold: int, full: int) -> int:
    """Mask of the words whose count is >= threshold, 0 <= threshold < 2**len(planes)."""
    above, equal = 0, full
    for i in reversed(range(len(planes))):
        if threshold >> i & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
    return above | equal


def _check(matrix: Matrix, field: FiniteField, count: int) -> None:
    if not matrix:
        raise ValueError("kernel scans need a nonempty generator matrix")
    if count > field.q ** len(matrix) - 1:
        raise ValueError("count exceeds the number of nonzero messages")


def min_nonzero_weight(matrix: Matrix, field: FiniteField, count: int) -> int:
    """Minimum Hamming weight over the codewords of messages 1..count.

    ``matrix`` holds the generator rows as element indices.  With
    ``count == q**k - 1`` it is the exact minimum distance of the row space;
    for the rows x**i * g of a cyclic code, so it is with the shorter count
    q**(k-L) - 1 that :func:`cyclic_lrc.cyclic.min_distance_exhaustive`
    passes.
    """
    if count < 1:
        raise ValueError("at least one message must be scanned")
    _check(matrix, field, count)
    n = len(matrix[0])
    best = n + 1
    for _, full, zero in _blocks(matrix, field, count):
        planes = _counter_planes(zero)
        # a word of weight below best has more than n - best zero symbols
        while best > 0 and _at_least(planes, n - best + 1, full):
            best -= 1
    return best


def covering_witnesses(matrix: Matrix, field: FiniteField, max_weight: int, count: int) -> list[int]:
    """Per-coordinate witness search over the row space.

    Scans messages 1..count and returns, for every coordinate c, the first
    message counter whose codeword has nonzero weight <= max_weight and is
    nonzero at c (-1 when no such codeword exists in the scanned range).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    _check(matrix, field, count)
    n = len(matrix[0])
    witness = [-1] * n
    for base, full, zero in _blocks(matrix, field, count):
        planes = _counter_planes(zero)
        good = _at_least(planes, max(0, n - max_weight), full) & ~_at_least(planes, n, full)
        for c, mask in enumerate(zero):
            hit = good & ~mask
            if witness[c] < 0 and hit:
                witness[c] = base + (hit & -hit).bit_length() - 1
        if min(witness) >= 0:
            break
    return witness
