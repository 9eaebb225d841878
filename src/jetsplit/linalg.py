"""Exact sparse elimination over a coefficient field: rank and inverse.

A matrix is a list of sparse rows {column: value} without zeros, and a row's
lead is its lowest column.  ``rank`` and ``invert`` take rows of field
elements and eliminate on the field's native values with its route's row
operations (``jet._route``), fraction-free over Q, where ``invert`` divides
into ``Fraction``s once, at the end.  Rank and inverse are unique, so
neither depends on the route or on the order of the steps: over Q
``invert`` returns the ``Fraction``s of dense Gauss-Jordan elimination.
The reducer, ``_Pivots``, also runs the echelon of ``jacobian``.
``identity`` is the dense identity that starts ``quadform``'s transition
matrices, which are printed.
"""

from __future__ import annotations

from .jet import VerificationError, _route


class _Pivots:
    """Normal pivot rows by lead on one route's native values, and the count of
    elimination ``steps``, one per pivot subtracted.  A step that leaves the
    lead in the row (a pivot not normal) raises VerificationError."""

    def __init__(self, route):
        self.route = route
        self.pivots = {}
        self.steps = 0

    def reduce(self, row):
        """Reduce in place until the lead is no pivot lead; that lead, or None at zero."""
        pivots, eliminate = self.pivots, self.route.eliminate
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                return lead
            eliminate(row, pivot, lead)
            if lead in row:
                raise VerificationError("echelon", f"a step left the lead {lead} in the row")
            self.steps += 1
        return None

    def insert(self, row):
        """Reduce the row (consumed) and keep what is left as a new pivot; its lead or None."""
        lead = self.reduce(row)
        if lead is not None:
            self.pivots[lead] = self.route.normalize(row, lead)
        return lead


def identity(field, n: int):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def _reduced(field, rows) -> _Pivots:
    """The pivots of the rows of field elements, made native and inserted in order."""
    reducer = _Pivots(_route(field))
    for row in filter(None, rows):
        reducer.insert(dict(reducer.route.monic(sorted(row.items()))))
    return reducer


def rank(field, rows) -> int:
    """The rank of a matrix of sparse rows {column: field element}."""
    return len(_reduced(field, rows).pivots)


def invert(field, rows):
    """The inverse of a square matrix of n sparse rows over the columns 0..n-1,
    as n sparse rows of field elements; ValueError if it is singular."""
    n = len(rows)
    if any(not 0 <= j < n for row in rows for j in row):
        raise ValueError(f"a row of a {n}x{n} matrix has a column outside 0..{n - 1}")
    # [A | I]: A is invertible exactly when no lead is a column of I
    reducer = _reduced(field, ({**row, n + i: field.one} for i, row in enumerate(rows)))
    pivots, route = reducer.pivots, reducer.route
    if any(lead >= n for lead in pivots):
        raise ValueError("matrix is singular")
    for lead in range(n - 1, -1, -1):  # back-substitution; the later pivots are done
        row = pivots[lead]
        for column in [j for j in row if lead < j < n]:
            route.eliminate(row, pivots[column], column)
        pivots[lead] = route.normalize(row, lead)
    return [route.unscale({j - n: c for j, c in row.items() if j >= n}, row[lead])
            for lead, row in sorted(pivots.items())]
