"""Exact integer linear algebra for the arrangement pipeline.

Smith and Hermite normal forms, integer lattice membership and kernels, and
finitely generated abelian groups presented as quotients of Z^n.  Everything
runs over plain Python ints, so there is no overflow and no floating point
anywhere.

Conventions, used package-wide:

* Row vectors.  A matrix M with a rows and b columns represents the
  homomorphism Z^a -> Z^b sending x to x*M, and a lattice is the span of a
  matrix's rows.
* Sparse rows.  IntMatrix stores rows {column: value} and builds .data on
  each read, so bind it once outside a loop.  The Smith engine and hermite
  consume copies; apart from sign flips, _axpy is the one row operation
  either uses.  A row swap moves one list slot, a column swap a
  permutation entry.  from_entries is the checked way in; the package's
  own producers build through the unchecked _from_rows.
* Hermite in two passes.  _echelon runs Euclid column by column and
  leaves the entries above each pivot as they fall; it finds the rows
  holding a column through a column index that _axpy keeps up to date,
  never by a scan of the remaining rows.  hermite then finishes the rows
  bottom-up, each by the rows below it, which are final already.
* Column log.  The column transform v is never stored.  The engine logs
  each column operation; a row vector is mapped through v (or v^-1) by
  replaying the log forward (or backward), and columns of v (to_smith) by
  replaying it backward.
* Quotients.  Smith serves group quotients and hermite serves lattices.
  quotient_group runs the engine on the relations as given, because
  reduce() and lift() speak its coordinates, and reads the type off the
  same diagonal.  A caller that needs only the type makes an AbelianGroup
  and reads it: that takes _echelon(relations), hermite's first pass, and
  splits it at the unit pivots, so a unit row and its pivot column leave
  the quotient together and the engine runs only on the rows with a
  non-unit pivot, cleared of the unit columns.
* Determinism.  Smith pivots are entries of least |value|, ties to the
  lowest current row, then column, position; hermite's Euclid pivot is the
  row of least |value|, then the shorter row, then the earlier row.
  Identical inputs give bit-identical outputs on every platform.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix stored as rows {column: value} (entries), keys
    ascending, no zeros.  The constructor takes dense rows of __index__ entries
    (a float or a string raises TypeError); from_entries() takes sparse rows."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows_data: Iterable[Sequence[int]], cols: int | None = None):
        data = tuple(tuple(map(operator.index, row)) for row in rows_data)
        cols = cols if cols is None else operator.index(cols)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError(f"declared {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        elif cols < 0:
            raise ValueError(f"a matrix cannot have {cols} columns")
        self._set(tuple({j: x for j, x in enumerate(row) if x} for row in data), cols)

    def _set(self, entries: tuple[dict[int, int], ...], cols: int) -> "IntMatrix":
        """Store rows that already have ascending keys and no zeros."""
        self.entries, self.rows, self.cols = entries, len(entries), cols
        return self

    @classmethod
    def from_entries(cls, rows: Iterable[Iterable[tuple[int, int]]], cols: int) -> "IntMatrix":
        """Row i from the (column, value) pairs of rows[i], in any order; zeros
        dropped.  Columns and values must be __index__ integers (TypeError),
        and a column may appear once in a row (ValueError)."""
        cols = operator.index(cols)
        if cols < 0:
            raise ValueError(f"a matrix cannot have {cols} columns")
        entries = []
        for pairs in rows:
            pairs = sorted([(operator.index(j), operator.index(x)) for j, x in pairs])
            row = {j: x for j, x in pairs if x}  # shorter: zeros, or a column repeats
            if len(row) != len(pairs) and len(dict(pairs)) != len(pairs):
                raise ValueError("a column repeats in one row")
            if pairs and (pairs[0][0] < 0 or pairs[-1][0] >= cols):
                raise ValueError(f"a column index lies outside range({cols})")
            entries.append(row)
        return cls.__new__(cls)._set(tuple(entries), cols)

    @classmethod
    def _from_rows(cls, rows: Iterable[dict[int, int]], cols: int) -> "IntMatrix":
        """Unchecked build for the package's own producers: rows {column:
        int} in any key order, zeros allowed, every column in range(cols).
        from_entries() is the checked entry for everything else."""
        return cls.__new__(cls)._set(
            tuple({j: x for j, x in sorted(row.items()) if x} for row in rows), cols
        )

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_entries([[(i, 1)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0:
            raise ValueError(f"a matrix cannot have {rows} rows")
        return cls.from_entries([()] * rows, cols)

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """Dense rows, built on each read."""
        return tuple(map(tuple, self.to_lists()))

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(_dense(self.entries[i], self.cols))

    def column(self, j: int) -> tuple[int, ...]:
        j = range(self.cols)[j]  # row()'s rules: IndexError out of range, -1 is the last
        return tuple(row.get(j, 0) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):  # i ascends, so every out row's keys do
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix.__new__(IntMatrix)._set(tuple(out), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for row in self.entries:
            acc: dict[int, int] = {}
            for k, x in row.items():
                for j, y in other.entries[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append(acc.items())
        return IntMatrix.from_entries(out, other.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_lists(self) -> list[list[int]]:
        return [_dense(row, self.cols) for row in self.entries]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cols, tuple(tuple(row.items()) for row in self.entries)))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


# ----------------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular u, v and diagonal d with u @ a @ v == d.

    The diagonal of d is nonnegative and each entry divides the next.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def _axpy(dst: dict[int, int], q: int, src: dict[int, int], where=None, at: int = 0) -> None:
    """dst += q * src on sparse rows, dropping entries that cancel; q != 0.
    With a column index where, at (dst's position) is appended to where[k]
    for each column k that dst newly fills."""
    for k, z in src.items():
        y = dst.get(k)
        if y is None:
            dst[k] = q * z
            if where is not None:
                where[k].append(at)
        else:
            y += q * z
            if y:
                dst[k] = y
            else:
                del dst[k]


def _sparse_rows(mat: IntMatrix) -> list[dict[int, int]]:
    return [dict(row) for row in mat.entries]


def _dense(row: dict[int, int], width: int) -> list[int]:
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return out


def _replay(ops, y: list[int]) -> list[int]:
    """y := y @ v in place, v being the column transform that ops logs."""
    for c, steps in ops:
        x = y[c]
        if x:
            for k, q in steps:
                y[k] -= q * x
    return y


def _replay_inverse(ops, w: list[int]) -> list[int]:
    """w := w @ v^-1 in place: each logged step undone, last step first."""
    for c, steps in reversed(ops):
        x = w[c]
        if x:
            for k, q in steps:
                w[k] += q * x
    return w


def _transform_columns(ops, n: int, ids: Sequence[int]) -> list[dict[int, int]]:
    """The n rows of v cut down to the columns with these ids, sparse and
    keyed by index into ids.  v @ e_c applies the last logged step first,
    and a step (c, pairs) maps a column y to y[c] -= sum(q * y[k])."""
    y: list[dict[int, int]] = [{} for _ in range(n)]
    for s, j in enumerate(ids):
        y[j][s] = 1
    for c, steps in reversed(ops):
        for k, q in steps:
            if y[k]:
                _axpy(y[c], -q, y[k])
    return y


def _smith_engine(a: list[dict[int, int]], cols: int, want_u: bool):
    """Shared elimination core on sparse rows {column: value}.

    Consumes a.  Returns (diag, u, ops, col_at): diag lists the
    min(rows, cols) diagonal entries, u collects the row operations as
    sparse rows, ops logs the column operations in order, and col_at[k] is
    the id of the column that ends at position k.  Each ops entry is
    (c, ((k, q), ...)), meaning column k -= q * column c for each pair;
    replaying the log on the identity gives the column transform v.  u is
    None unless requested; only smith() asks for it.

    Rows move by swapping list slots.  Columns never move: pos[c] is the
    current position of column c, so ops speaks of column ids.  Rows at
    positions >= t only hold columns at positions >= t.
    """
    rows = len(a)
    u = [{i: 1} for i in range(rows)] if want_u else None
    ops = []
    pos = list(range(cols))
    col_at = list(range(cols))

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Least |value| at positions >= t: lowest row position, then lowest
        # column position.
        i = -1
        best = 0
        for r in range(t, rows):
            row = a[r]
            if row:
                m = min(map(abs, row.values()))
                if i < 0 or m < best:
                    i, best = r, m
                    if m == 1:
                        break
        if i < 0:
            break
        c = min((k for k, x in a[i].items() if abs(x) == best), key=pos.__getitem__)
        if i != t:
            a[t], a[i] = a[i], a[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        j = pos[c]
        if j != t:
            other = col_at[t]
            col_at[t], col_at[j] = c, other
            pos[c], pos[other] = t, j
        if a[t][c] < 0:
            a[t] = {k: -x for k, x in a[t].items()}
            if u is not None:
                u[t] = {k: -x for k, x in u[t].items()}
        pivot_row = a[t]
        p = pivot_row[c]

        # Clear column c below the pivot with row operations.
        dirty = False
        for r in range(t + 1, rows):
            row = a[r]
            x = row.get(c)
            if x is None:
                continue
            q = x // p
            if q:
                _axpy(row, -q, pivot_row)
                if u is not None:
                    _axpy(u[r], -q, u[t])
            if c in row:
                dirty = True
        if dirty:
            continue  # remainders smaller than the pivot exist; re-pick

        # Column c is clear except for the pivot, so a column operation only
        # changes row t.
        steps = []
        for k, x in list(pivot_row.items()):
            if k == c:
                continue
            q = x // p
            if q:
                x -= q * p
                if x:
                    pivot_row[k] = x
                else:
                    del pivot_row[k]
                steps.append((k, q))
            if x:
                dirty = True
        if steps:
            ops.append((c, tuple(steps)))
        if dirty:
            continue

        # The pivot must divide everything that remains; if not, fold the
        # first offending row in and keep reducing.
        if p != 1:
            bad = next(
                (r for r in range(t + 1, rows) if any(x % p for x in a[r].values())),
                None,
            )
            if bad is not None:
                _axpy(pivot_row, 1, a[bad])
                if u is not None:
                    _axpy(u[t], 1, u[bad])
                continue
        t += 1

    diag = [a[k].get(col_at[k], 0) for k in range(limit)]
    return diag, u, ops, col_at


def smith(mat: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms.

    Returns SmithDecomposition(u, d, v) with u @ mat @ v == d, u and v
    unimodular, the diagonal of d nonnegative and each diagonal entry
    dividing the next.
    """
    rows, cols = mat.rows, mat.cols
    diag, u, ops, col_at = _smith_engine(_sparse_rows(mat), cols, want_u=True)
    v = _transform_columns(ops, cols, col_at)
    d = [[(k, x)] for k, x in enumerate(diag)] + [()] * (rows - len(diag))
    return SmithDecomposition(
        u=IntMatrix.from_entries((r.items() for r in u), rows),
        d=IntMatrix.from_entries(d, cols),
        v=IntMatrix.from_entries((r.items() for r in v), cols),
    )


# ----------------------------------------------------------------------------
# Hermite normal form and lattices
# ----------------------------------------------------------------------------


def _echelon(mat: IntMatrix) -> list[tuple[int, dict[int, int]]]:
    """Row echelon form of mat's rows as (pivot column, row) pairs, pivot
    columns strictly increasing, pivots positive, zero rows dropped.  The
    row span is unchanged; entries above a pivot are left as Euclid left
    them.  Row keys are in no particular order.

    where[k] lists the input positions of the rows that have held column
    k: built once, then _axpy appends a row's position for each column it
    fills.  A position may repeat, and a row may have lost column k since,
    so the holders of column j are the listed rows that still hold it; a
    row that becomes a pivot is retired, and holds nothing from then on.
    """
    rows = _sparse_rows(mat)
    where: list[list[int]] = [[] for _ in range(mat.cols)]
    for i, row in enumerate(rows):
        for k in row:
            where[k].append(i)
    done: list[tuple[int, dict[int, int]]] = []
    for j, held in enumerate(where):
        holders = [i for i in sorted(set(held)) if j in rows[i]]
        if not holders:
            continue
        # Euclid on column j: the row of least |value| reduces the others.
        while len(holders) > 1:
            s = min(holders, key=lambda i: (abs(rows[i][j]), len(rows[i])))
            pivot = rows[s]
            p = pivot[j]
            for i in holders:
                if i != s:
                    row = rows[i]
                    _axpy(row, -(row[j] // p), pivot, where, i)
            holders = [i for i in holders if j in rows[i]]
        (s,) = holders
        pivot, rows[s] = rows[s], {}
        if pivot[j] < 0:
            for k in pivot:
                pivot[k] = -pivot[k]
        done.append((j, pivot))
    return done


def hermite(mat: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, sit on strictly increasing columns, and every entry
    above a pivot is reduced into [0, pivot).  The row span is unchanged, so
    this is the canonical basis of the lattice spanned by mat's rows.

    Two passes: _echelon, then the rows are finished bottom-up, each one by
    the rows below it, which are final already.  A final row is zero at the
    column of every other unit pivot, so a row can pick up new entries only
    at non-unit pivot columns: the columns it must visit are its own keys
    that are pivot columns, plus those.
    """
    pivots = _echelon(mat)
    row_at = dict(pivots)
    non_unit = [j for j, row in pivots if row[j] != 1]
    for j, row in reversed(pivots):
        todo = {k for k in row if k > j and k in row_at}
        todo.update(k for k in non_unit if k > j)
        for k in sorted(todo):
            below = row_at[k]
            q = row.get(k, 0) // below[k]
            if q:
                _axpy(row, -q, below)
    return IntMatrix._from_rows(row_at.values(), mat.cols)


def lattice_members(basis: IntMatrix, vectors: Iterable[Sequence[int]]) -> list[bool]:
    """Membership of many vectors in one lattice.

    The Hermite form of the basis is computed once for the whole batch.
    """
    pivots = [(next(iter(row)), row) for row in hermite(basis).entries]
    out = []
    for x in vectors:
        if len(x) != basis.cols:
            raise ValueError(f"vector of length {len(x)} against {basis.shape} basis")
        r = list(map(operator.index, x))
        member = True
        for j, row in pivots:
            if r[j]:
                q, rem = divmod(r[j], row[j])
                if rem:
                    member = False
                    break
                for k, z in row.items():
                    r[k] -= q * z
        out.append(member and not any(r))
    return out


def lattice_kernel(forms: IntMatrix) -> IntMatrix:
    """Hermite basis of {x in Z^n : f(x) = 0 for every row f of forms}.

    With h = hermite(forms) of rank m, the Hermite rows of [h^T | I] past
    the first m span {(0, x) : h x = 0}; shifted by -m, they are the kernel's
    Hermite basis.  Lattices use hermite; Smith serves group quotients.
    """
    h = hermite(forms)
    m, n = h.rows, h.cols
    aug = ({**col, m + j: 1} for j, col in enumerate(h.transpose().entries))
    echelon = hermite(IntMatrix._from_rows(aug, m + n)).entries
    return IntMatrix._from_rows(({k - m: x for k, x in r.items()} for r in echelon[m:]), n)


# ----------------------------------------------------------------------------
# Finitely generated abelian groups
# ----------------------------------------------------------------------------


class AbelianGroup:
    """Z^n modulo the row span of a relation matrix.

    The coordinate maps come from the Smith engine's column log on the
    relations, with the ids of the columns it retains:

    * reduce() replays the log forward, reads the retained columns and takes
      each torsion coordinate to its canonical residue, so two ambient
      vectors reduce equally iff their difference lies in the relation
      lattice;
    * lift() places coordinates on the retained columns and replays the log
      backward, giving an ambient representative.

    quotient_group() builds the log at once.  A group made directly builds
    nothing until asked: the log on the first reduce(), lift() or to_smith,
    and the invariants (torsion orders, free rank), if read before the log,
    from the cheaper echelon split (_invariants); otherwise they come off
    the log's diagonal.  Torsion coordinates come first, in ascending order
    of their annihilators, then the free coordinates.  reduce() as a
    matrix, to_smith, is n x t before residues, t = len(torsion) +
    free_rank.
    """

    def __init__(self, ambient_rank: int, relations: IntMatrix):
        if relations.cols != ambient_rank:
            raise ValueError(
                f"relations have {relations.cols} columns, ambient rank is {ambient_rank}"
            )
        self.ambient_rank = ambient_rank
        self.relations = relations

    @cached_property
    def _log(self):
        """(ops, retained): the engine's column log on the relations and the
        ids of the columns whose diagonal entry is not 1."""
        n = self.ambient_rank
        diag, _, ops, col_at = _smith_engine(_sparse_rows(self.relations), n, want_u=False)
        diag += [0] * (n - len(diag))
        retained = tuple(col_at[k] for k in range(n) if diag[k] != 1)
        torsion = tuple(x for x in diag if x > 1)
        self.__dict__.setdefault("_type", (torsion, len(retained) - len(torsion)))
        return ops, retained

    @cached_property
    def _type(self) -> tuple[tuple[int, ...], int]:
        return _invariants(self.ambient_rank, self.relations)

    @property
    def torsion(self) -> tuple[int, ...]:
        return self._type[0]

    @property
    def free_rank(self) -> int:
        return self._type[1]

    @property
    def coord_count(self) -> int:
        return len(self.torsion) + self.free_rank

    @cached_property
    def to_smith(self) -> IntMatrix:
        """n x t matrix: ambient row vector -> Smith coordinates."""
        ops, retained = self._log
        rows = _transform_columns(ops, self.ambient_rank, retained)
        return IntMatrix._from_rows(rows, self.coord_count)

    def reduce(self, x: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of the class of x.

        Torsion coordinates are residues in [0, d); free coordinates are
        exact integers.
        """
        if len(x) != self.ambient_rank:
            raise ValueError(f"vector of length {len(x)} against ambient rank {self.ambient_rank}")
        ops, retained = self._log
        y = _replay(ops, list(map(operator.index, x)))
        return self._residues([y[j] for j in retained])

    def lift(self, coords: Sequence[int]) -> list[int]:
        """An ambient representative of the class with these coordinates."""
        ops, retained = self._log
        if len(coords) != len(retained):
            raise ValueError(f"{len(coords)} coordinates against {len(retained)}")
        w = [0] * self.ambient_rank
        for j, x in zip(retained, map(operator.index, coords)):
            w[j] = x
        return _replay_inverse(ops, w)

    def canonical_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        """The canonical form of coordinates of this group: sums and
        differences of reduce()'s outputs come back through here."""
        if len(coords) != self.coord_count:
            raise ValueError(f"expected {self.coord_count} coordinates")
        return self._residues(list(map(operator.index, coords)))

    def _residues(self, out: list[int]) -> tuple[int, ...]:
        """out with each torsion coordinate taken to its residue in [0, d)."""
        for k, d in enumerate(self.torsion):
            out[k] %= d
        return tuple(out)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " ⊕ ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"AbelianGroup({self})"


def _invariants(n: int, relations: IntMatrix) -> tuple[tuple[int, ...], int]:
    """(torsion, free rank) of Z^n / rowspan(relations), read off an echelon
    form split at its unit pivots.

    The rows of _echelon(relations) span the same lattice.  A row whose
    pivot is 1 at column j lets e_j be written through later columns, so
    it and column j leave the quotient together.  Walking the pivots in
    ascending order, each unit-pivot column is cleared from the rows with
    a non-unit pivot (r -= r[j] * row); a unit row has no entry left of
    its pivot, so no column cleared earlier returns.  quotient_group then
    takes only that residual, cut to the columns that no unit row pivots
    on.  The Smith invariants depend on the lattice only, so they are
    those of the relations as given.
    """
    residual: list[dict[int, int]] = []
    unit: set[int] = set()
    for j, row in _echelon(relations):
        if row[j] != 1:
            residual.append(row)
            continue
        unit.add(j)
        for r in residual:
            x = r.get(j)
            if x:
                _axpy(r, -x, row)
    kept = [k for k in range(n) if k not in unit]
    at = {k: s for s, k in enumerate(kept)}
    cut = ({at[k]: x for k, x in r.items()} for r in residual)
    group = quotient_group(len(kept), IntMatrix._from_rows(cut, len(kept)))
    return group.torsion, group.free_rank


def quotient_group(ambient_rank: int, relations: IntMatrix) -> AbelianGroup:
    """The abelian group Z^ambient_rank / rowspan(relations), with its
    coordinate log built: one elimination gives coordinates and type."""
    group = AbelianGroup(ambient_rank, relations)
    group._log
    return group
