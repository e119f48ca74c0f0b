"""The exhaustive scan kernel behind the distance and locality oracles.

Messages are numbered by a counter t: symbol j of message t is the field
element of index ``(t // q**j) % q``.  Because element indices are base-p
digit vectors, the base-p digits of t are exactly the GF(p) coordinates of
the message, symbol by symbol.  Two observations turn a scan over all q**k
messages into a handful of numpy operations per block of codewords:

* **Expanded generator.**  Multiplication by a fixed element of GF(p^m) is
  a GF(p)-linear map on digit vectors, so the k x n generator over GF(q) is
  a km x nm matrix E over GF(p), and the codeword of message t has digits
  ``digits(t) @ E mod p``.  One path serves prime and extension fields.
* **Projective enumeration.**  Scalar multiples of a message share the
  support of its codeword.  In counter order the smallest member of every
  scalar class is the one whose highest nonzero symbol is ``one`` (index 1),
  i.e. a counter in ``[q**s, 2 * q**s)`` for some s.  Scanning only those
  counters visits (q**k - 1)/(q - 1) messages and still yields the exact
  minimum over any prefix 1..count and the first counter of every support.

Within ``[q**s, 2 * q**s)`` a counter splits as ``base + lo`` with the
digits of ``base`` and ``lo`` disjoint, so its codeword is the sum of the
codewords of ``base`` and ``lo``.  The codewords of every ``lo`` below a
block width are built once per scan, one row of E at a time in counter
order, and packed into symbol indices; a symbol of ``base + lo`` is zero
exactly when the ``lo`` symbol equals the matching symbol of ``-base``, so
each block reduces to one comparison and a column sum.  Blocks are sized by
bytes, about ``_BLOCK_BYTES`` each.

numpy is imported by the functions that use it, on first use, so that
construction, encoding and repair run without loading it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterator, Sequence

from .field import FieldElement, FiniteField

if TYPE_CHECKING:
    import numpy as np

TABLE_LIMIT = 1024
_BLOCK_BYTES = 1 << 20


@functools.lru_cache(maxsize=None)
def op_tables(field: FiniteField) -> np.ndarray:
    """Products by the power basis over element indices, m x q int16: row i
    maps the index of b to the index of y**i * b, y**i being digit i."""
    import numpy as np
    q = field.q
    if q > TABLE_LIMIT:
        raise ValueError(
            f"field order {q} exceeds the enumeration table limit {TABLE_LIMIT}"
        )
    elems = [field.from_index(i) for i in range(q)]
    basis = [field.from_index(field.p**i) for i in range(field.m)]
    mul = np.array([[(y * b).index for b in elems] for y in basis], dtype=np.int16)
    mul.setflags(write=False)
    return mul


def matrix_indices(rows: Sequence[Sequence[FieldElement]]) -> np.ndarray:
    """Element rows to an int16 index matrix for the kernels."""
    import numpy as np
    return np.array([[e.index for e in row] for row in rows], dtype=np.int16)


def message_symbols(field: FiniteField, t: int, k: int) -> tuple[FieldElement, ...]:
    """Message with counter t in the enumeration order used by the kernels."""
    q = field.q
    out = []
    for _ in range(k):
        t, d = divmod(t, q)
        out.append(field.from_index(d))
    return tuple(out)


# ---------------------------------------------------------------------------
# The scan.


class _Scan:
    """The expanded generator of one matrix and the blocks of its scan."""

    def __init__(self, matrix: np.ndarray, field: FiniteField):
        import numpy as np
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("kernel scans need a nonempty 2-d generator matrix")
        p, m = field.p, field.m
        k, n = matrix.shape
        # images[i, j, c]: index of y**i * matrix[j, c], y**i being digit i
        images = op_tables(field)[:, matrix.astype(np.intp)]
        digits = images[..., None] // p ** np.arange(m) % p
        # unsigned digits with room for the sum of two
        self.digit_type = np.uint8 if p < 128 else np.uint16
        self.expanded = digits.transpose(1, 0, 2, 3).reshape(k * m, n * m).astype(self.digit_type)
        self.symbol_type = np.uint8 if field.q <= 256 else np.uint16
        self.weight_type = np.min_scalar_type(n)
        self.field, self.n = field, n

    def span(self, rows: np.ndarray) -> np.ndarray:
        """Every GF(p)-combination of the digit rows, in counter order: row t
        of the result takes coefficient ``(t // p**i) % p`` on rows[i]."""
        import numpy as np
        p = self.field.p
        words = np.zeros((1, rows.shape[1]), dtype=self.digit_type)
        for row in rows:
            parts = [words]
            for _ in range(1, p):
                total = parts[-1] + row
                parts.append(np.minimum(total, total - p))  # mod p, wrapping below 0
            words = np.concatenate(parts)
        return words

    def pack(self, words: np.ndarray) -> np.ndarray:
        """Symbol indices of digit rows, transposed to shape (n, len(words))."""
        import numpy as np
        p, m = self.field.p, self.field.m
        digits = words.reshape(len(words), self.n, m).astype(self.symbol_type)
        packed = digits[:, :, m - 1]
        for i in range(m - 2, -1, -1):
            packed = packed * p + digits[:, :, i]
        return np.ascontiguousarray(packed.T)

    def blocks(self, count: int) -> Iterator[tuple[int, np.ndarray]]:
        """(first counter, nonzero mask of shape (n, len)) per block of the
        projective messages with counter <= count, in increasing counter order."""
        q, p, m = self.field.q, self.field.p, self.field.m
        table_rows = max(1, _BLOCK_BYTES // self.expanded[0].nbytes)
        low = 0  # symbols covered by the table
        while q ** (low + 1) <= min(table_rows, count):
            low += 1
        table = self.pack(self.span(self.expanded[: low * m]))
        s = 0
        while q**s <= count:
            first, last = q**s, min(2 * q**s - 1, count)
            step = q ** min(s, low)
            # codewords of the block bases: symbol s is one, the symbols
            # between the table and s take every value, in counter order
            high = self.span(self.expanded[min(s, low) * m : s * m])
            bases = (high[: (last - first) // step + 1] + self.expanded[s * m]) % p
            negated = self.pack((p - bases) % p)
            for i, base in enumerate(range(first, last + 1, step)):
                size = min(step, last + 1 - base)
                yield base, table[:, :size] != negated[:, i, None]
            s += 1


def _check_count(matrix: np.ndarray, field: FiniteField, count: int) -> None:
    if count > field.q ** matrix.shape[0] - 1:
        raise ValueError("count exceeds the number of nonzero messages")


def min_nonzero_weight(matrix: np.ndarray, field: FiniteField, count: int) -> int:
    """Minimum Hamming weight over the codewords of messages 1..count.

    ``matrix`` holds the generator rows as element indices.  With
    ``count == q**k - 1`` it is the exact minimum distance of the row space.
    """
    import numpy as np
    scan = _Scan(matrix, field)
    if count < 1:
        raise ValueError("at least one message must be scanned")
    _check_count(matrix, field, count)
    best = scan.n + 1
    for _, nonzero in scan.blocks(count):
        best = min(best, int(np.add.reduce(nonzero, axis=0, dtype=scan.weight_type).min()))
    return best


def covering_witnesses(
    matrix: np.ndarray, field: FiniteField, max_weight: int, count: int
) -> np.ndarray:
    """Per-coordinate witness search over the row space.

    Scans messages 1..count and returns, for every coordinate c, the first
    message counter whose codeword has nonzero weight <= max_weight and is
    nonzero at c (-1 when no such codeword exists in the scanned range).
    """
    import numpy as np
    scan = _Scan(matrix, field)
    if count < 0:
        raise ValueError("count must be nonnegative")
    witness = np.full(scan.n, -1, dtype=np.int64)
    if count == 0:
        return witness
    _check_count(matrix, field, count)
    for base, nonzero in scan.blocks(count):
        weights = np.add.reduce(nonzero, axis=0, dtype=scan.weight_type)
        rows = np.flatnonzero((weights > 0) & (weights <= max_weight))
        if rows.size == 0:
            continue
        hits = nonzero[:, rows]
        fresh = (witness < 0) & hits.any(axis=1)
        witness[fresh] = base + rows[hits[fresh].argmax(axis=1)]
        if (witness >= 0).all():
            break
    return witness
