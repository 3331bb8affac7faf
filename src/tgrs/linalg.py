"""Exact dense linear algebra over GF(q).

A matrix stores the canonical reps of its entries, the int codes of
``FieldElement.rep`` for every field, so zero is 0 and one is 1.  The public
constructor validates every entry through ``Field.element``; matrices derived
from other matrices (submatrices, products, kernel results) are built from
reps directly and are not re-validated.  Entry reads return ``FieldElement``
values.  All matrices are immutable; operations return new values.

Rank, determinant and kernel all go through one Gaussian elimination,
``_echelon``, with first-nonzero pivoting; in a field the pivot magnitude is
irrelevant, so the scan order alone fixes the result.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ValidationError
from .gf import Field, FieldElement, rep_to_json


class MatGF:
    """Immutable dense matrix over a finite field."""

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        data = tuple(tuple(field.element(x).rep for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValidationError("ragged rows in matrix")
        self._fill(field, data)

    def _fill(self, field: Field, data: tuple) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _from_reps(cls, field: Field, data: tuple) -> "MatGF":
        """Wrap a tuple of equal-length rep tuples without re-validating them."""
        out = object.__new__(cls)
        out._fill(field, data)
        return out

    def __setattr__(self, *_):
        raise AttributeError("MatGF is immutable")

    def __reduce__(self):
        return (MatGF._from_reps, (self.field, self._data))

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return FieldElement(self.field, self._data[i][j])

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, x) for x in self._data[i])

    def row_list(self) -> list[list[FieldElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "MatGF":
        return MatGF._from_reps(self.field, tuple(zip(*self._data)))

    def __matmul__(self, other: "MatGF") -> "MatGF":
        if self.field != other.field:
            raise ValidationError("matrices over different fields")
        if self.cols != other.rows:
            raise ValidationError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        dot, bt = self.field._dot, tuple(zip(*other._data))
        return MatGF._from_reps(self.field, tuple(tuple(dot(arow, bcol) for bcol in bt)
                                                  for arow in self._data))

    def stack(self, other: "MatGF") -> "MatGF":
        if self.field != other.field or self.cols != other.cols:
            raise ValidationError("stack requires equal field and column count")
        return MatGF._from_reps(self.field, self._data + other._data)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MatGF":
        data = self._data
        return MatGF._from_reps(self.field, tuple(tuple(data[i][j] for j in col_idx)
                                                  for i in row_idx))

    def is_zero(self) -> bool:
        return not any(map(any, self._data))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatGF) and self.field == other.field
                and self._data == other._data)

    def __hash__(self) -> int:
        return hash((self.field, self._data))

    def __repr__(self) -> str:
        return f"MatGF({self.rows}x{self.cols} over GF({self.field.q}))"

    def to_lists(self) -> list[list]:
        return [[rep_to_json(self.field, x) for x in r] for r in self._data]

    def pretty(self) -> str:
        """Space-aligned unsigned residues, one row per line."""
        cells = [[str(x) for x in r] for r in self.to_lists()]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


# -- the elimination kernel ----------------------------------------------------
#
# One Gaussian elimination on mutable lists of reps serves every field.  The
# field supplies the arithmetic; its row operation ``Field._eliminate`` is
# the only step of the elimination that tells prime fields from extension
# fields, and it runs in place from the pivot column with one inverse per
# pivot.  The minors walk and the distance search in ``classify`` apply the
# same row operation column by column to the columns they carry, with no
# call into the kernel.  Neither builds a FieldElement.

def _echelon(rows: list[list], field: Field, reduced: bool) -> tuple[list[int], int]:
    """Row-reduce ``rows`` in place; return the pivot columns and the row swap count.

    The pivot of each column is the first nonzero entry at or below the
    current row.  Without ``reduced`` pivots are left as found and only the
    rows below are cleared, so for a square matrix the determinant is
    (-1)^swaps times the diagonal product.  With ``reduced`` each pivot is
    scaled to one and its column cleared above as well: the reduced row
    echelon form.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    inv, mul, eliminate = field._inv, field._mul, field._eliminate
    pivots: list[int] = []
    swaps = 0
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        prow = rows[r]
        pinv = inv(prow[c])
        targets: Iterable[int] = range(r + 1, nr)
        if reduced:
            prow[c:] = [mul(x, pinv) for x in prow[c:]]
            pinv = prow[c]  # one, after the scaling
            targets = [i for i in range(nr) if i != r]
        for i in targets:
            if rows[i][c]:
                eliminate(rows[i], prow, c, pinv)
        pivots.append(c)
    return pivots, swaps


def rank(M: MatGF) -> int:
    """Rank by Gaussian elimination with first-nonzero pivoting."""
    return len(_echelon([list(r) for r in M._data], M.field, False)[0])


def det(M: MatGF) -> FieldElement:
    """Exact determinant of a square matrix."""
    if M.rows != M.cols:
        raise ValidationError(f"determinant of non-square {M.rows}x{M.cols} matrix")
    field = M.field
    rows = [list(r) for r in M._data]
    pivots, swaps = _echelon(rows, field, False)
    if len(pivots) < M.rows:
        return field.zero()
    acc = 1
    for i, row in enumerate(rows):
        acc = field._mul(acc, row[i])
    return FieldElement(field, field._neg(acc) if swaps % 2 else acc)


def null_space(M: MatGF) -> MatGF:
    """Rows form a basis of {x : M x^T = 0}; row count = cols - rank.

    Read off the reduced row echelon form: each free column f gives the
    vector with 1 at f and minus column f of the reduced rows at the pivots.
    """
    field = M.field
    rows = [list(r) for r in M._data]
    pivots, _ = _echelon(rows, field, True)
    basis = []
    for f in (c for c in range(M.cols) if c not in pivots):
        vec = [0] * M.cols
        vec[f] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = field._neg(row[f])
        basis.append(tuple(vec))
    return MatGF._from_reps(field, tuple(basis))
