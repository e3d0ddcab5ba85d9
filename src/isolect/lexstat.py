"""Scalar lexicostatistic formulas and matrix-level transforms.

Distances are measured in swadesh units: one swadesh corresponds to a 1%
mismatch of the basic list, so a coincidence percentage C on (0, 100] maps
to the distance L = 100*ln(100/C) and back via C = 100*exp(-L/100).
Coincidence values are kept as reals on the 0..100 scale throughout;
rounding to whole percent happens only in display code.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, InputFormatError

__all__ = [
    "BorrowingAdjustment",
    "CognacyTable",
    "CoincidenceMatrix",
    "adjust_coincidence_for_borrowings",
    "coincidence_from_cognacy",
    "coincidence_from_distance",
    "distance_from_coincidence",
    "distance_matrix",
]


def _check_coincidence(c: float) -> float:
    if not math.isfinite(c) or c <= 0.0 or c > 100.0:
        raise DomainError(f"coincidence must lie on (0, 100], got {c!r}")
    return c


def _check_length(value: float, what: str) -> float:
    """``value`` as a float, if it is a finite length >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{what} must be finite and >= 0, got {value!r}")
    return value


def _check_positive(value: float, what: str) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{what} must be positive, got {value!r}")


def _check_integer(value, what: str) -> int:
    """``value`` as an int, if it is an integer (a numpy one too) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def distance_from_coincidence(c: float) -> float:
    """Convert a coincidence percentage to a distance in swadesh units."""
    return 100.0 * math.log(100.0 / _check_coincidence(c))


def coincidence_from_distance(l: float) -> float:
    """Convert a swadesh distance back to a coincidence percentage."""
    return 100.0 * math.exp(-_check_length(l, "swadesh distance") / 100.0)


def _check_labels(labels) -> tuple:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise DomainError(f"duplicate language labels: {dupes}")
    if not labels:
        raise DomainError("at least one language label required")
    _check_writable(labels, "language", ",\t")
    # both parsers skip a line that starts with "#", and a language starts its rows
    if any(x.startswith("#") for x in labels):
        bad = next(x for x in labels if x.startswith("#"))
        raise DomainError(f"language label {bad!r} cannot be written to a file: it starts with '#'")
    if min("".join(labels)) < " ":
        bad = next(x for x in labels if min(x) < " ")
        raise DomainError(
            f"language label {bad!r} holds a control character (U+0000-U+001F), "
            "which an SVG drawing cannot carry"
        )
    return labels


# the characters at which ``str.splitlines`` ends a line
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _check_writable(labels: tuple, what: str, separators: str) -> None:
    """Reject a label that the files it is written to could not read back.

    The parsers split lines, split fields at ``separators`` and strip each
    field, and the cognacy parser rejects an empty field. So a label is not
    empty, holds no separator or line break, and does not start or end with
    whitespace. The joined labels are scanned once per forbidden character,
    and each label is stripped in one ``map``; single labels are looked at
    only to name the first bad one.
    """
    forbidden = separators + _LINE_BREAKS
    text = "".join(labels)
    if (
        "" in labels
        or any(c in text for c in forbidden)
        or tuple(map(str.strip, labels)) != labels
    ):
        bad = next(
            x for x in labels if not x or x != x.strip() or any(c in x for c in forbidden)
        )
        raise DomainError(
            f"{what} label {bad!r} cannot be written to a file: it is empty or holds "
            f"{' or '.join(map(repr, separators))}, a line break, or leading or "
            "trailing whitespace"
        )


def _symmetric_array(labels, values) -> np.ndarray:
    """Validated read-only copy of a coincidence matrix, diagonal set to NaN.

    The error names the first bad pair in row-major upper-triangle order;
    asymmetry is reported before a domain violation on the same pair.
    """
    k = len(labels)
    arr = np.array(values, dtype=float)
    if arr.shape != (k, k):
        raise DomainError(f"coincidence matrix must be {k}x{k}, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):
        # np.isclose(arr, arr.T, rtol=0.0, atol=1e-9) with one k x k temporary:
        # equal infinities are close, and NaN is close to nothing
        gap = arr - arr.T
        asymmetric = ~(np.abs(gap, out=gap) <= 1e-9) & (arr != arr.T)
        del gap
        invalid = ~(np.isfinite(arr) & (arr > 0.0) & (arr <= 100.0))
    bad = np.argwhere(np.triu(asymmetric | invalid, 1))
    if bad.size:
        i, j = bad[0]
        a, b = labels[i], labels[j]
        if asymmetric[i, j]:
            raise DomainError(
                f"asymmetric coincidence for pair ({a}, {b}): "
                f"{float(arr[i, j])!r} vs {float(arr[j, i])!r}"
            )
        raise DomainError(
            f"coincidence for pair ({a}, {b}) must lie on (0, 100], got {float(arr[i, j])!r}"
        )
    np.fill_diagonal(arr, np.nan)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoincidenceMatrix:
    """Symmetric matrix of basic-list coincidence percentages.

    The diagonal is meaningless and stored as NaN; ``list_size`` is the
    number of basic-list slots behind the percentages. Equality and hash are
    identity (``eq=False``), since ``==`` on the array field would raise.
    """

    labels: tuple
    values: np.ndarray
    list_size: int = 100
    # the swadesh distances, filled in by the first ``distance_matrix(self)``
    _distances: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", _symmetric_array(labels, self.values))
        size = _check_integer(self.list_size, "list_size")
        if size <= 0:
            raise DomainError(f"list_size must be positive, got {self.list_size!r}")
        object.__setattr__(self, "list_size", size)

    @property
    def k(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown language {label!r}") from None

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.index(a), self.index(b)])

    def pairs(self):
        """Yield (label_a, label_b, value) for all i < j in label order."""
        for i in range(self.k):
            for j in range(i + 1, self.k):
                yield self.labels[i], self.labels[j], float(self.values[i, j])


def distance_matrix(m: CoincidenceMatrix) -> np.ndarray:
    """The k x k swadesh distances of ``m``'s coincidences, in ``m.labels`` order.

    The diagonal is zero, unlike the NaN diagonal of ``m.values``: it is
    each language's distance to itself. Computed once per matrix and kept
    on it, so every call returns the same array, read-only like the
    ``values`` it comes from; look a pair up as
    ``distance_matrix(m)[m.index(a), m.index(b)]``. Every entry comes from
    the scalar formula of ``distance_from_coincidence`` (``np.log`` differs
    from ``math.log`` in the last bit on some inputs), applied once per
    distinct coincidence: a list of n words gives at most n distinct
    percentages. The entries need no domain check: a ``CoincidenceMatrix``
    is validated when it is built.
    """
    out = m._distances
    if out is None:
        rows, cols = np.triu_indices(m.k, 1)
        distinct, inverse = np.unique(m.values[rows, cols], return_inverse=True)
        logs = np.array([100.0 * math.log(100.0 / c) for c in distinct.tolist()])
        out = np.zeros((m.k, m.k))
        out[rows, cols] = logs[inverse]
        out = out + out.T
        out.setflags(write=False)
        object.__setattr__(m, "_distances", out)
    return out


@dataclass(frozen=True, eq=False)
class CognacyTable:
    """Per-language cognate-class assignments over a shared slot universe.

    The table is complete: ``class_ids`` holds a non-negative id for every
    (language, slot), in the integer dtype it was given (other input becomes
    int64), and equal ids in a slot column mean a shared cognate class.
    ``borrowed`` flags loanword entries; a bool array is kept as given, so it
    may be a broadcast view. Labels must be ones the files can carry
    (``_check_labels``, ``_check_writable``). Equality and hash are identity
    (``eq=False``), since ``==`` on the array fields would raise.
    """

    languages: tuple
    slots: tuple
    class_ids: np.ndarray
    borrowed: np.ndarray

    def __post_init__(self):
        languages = _check_labels(self.languages)
        slots = tuple(self.slots)
        if len(set(slots)) != len(slots):
            raise InputFormatError("duplicate slot identifiers in cognacy table")
        _check_writable(slots, "slot", "\t")
        ids = np.asarray(self.class_ids)
        ids = np.ascontiguousarray(ids, dtype=ids.dtype if ids.dtype.kind in "iu" else np.int64)
        flags = np.asarray(self.borrowed, dtype=bool)
        shape = (len(languages), len(slots))
        if ids.shape != shape or flags.shape != shape:
            raise InputFormatError(
                f"cognacy arrays must have shape {shape}, got {ids.shape} and {flags.shape}"
            )
        if ids.dtype.kind == "i" and ids.size and ids.min() < 0:
            i, j = np.argwhere(ids < 0)[0]
            raise DomainError(f"negative class id for language {languages[i]!r}, slot {slots[j]!r}")
        # read-only views: the caller's arrays are shared, not copied, and stay writable
        ids = ids.view()
        flags = flags.view()
        ids.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "borrowed", flags)

    @property
    def list_size(self) -> int:
        return len(self.slots)

    def borrowed_slot_count(self) -> int:
        """Number of distinct slots flagged as borrowed in any language."""
        return int(np.count_nonzero(self.borrowed.any(axis=0)))


def coincidence_from_cognacy(
    table: CognacyTable, exclude_borrowed: bool = False
) -> CoincidenceMatrix:
    """Count shared cognate classes per language pair into a matrix.

    A table is complete, so every slot counts for every pair. With
    ``exclude_borrowed`` every slot flagged as borrowed in any language is
    dropped for all languages, and the effective list size shrinks
    accordingly. Values are real percentages, never rounded. Only equality
    within a slot column counts, in any integer dtype.
    """
    classes = table.class_ids
    if exclude_borrowed:
        classes = classes[:, ~table.borrowed.any(axis=0)]
    counts = _kernels.pair_shared_counts(classes)
    return _coincidence_from_counts(table.languages, counts, classes.shape[1])


def _coincidence_from_counts(languages, counts, n_eff: int) -> CoincidenceMatrix:
    """Coincidence matrix of per-pair shared-class counts over ``n_eff`` slots."""
    if n_eff == 0:
        raise InputFormatError("no slots left after excluding borrowed entries")
    unshared = np.argwhere(np.triu(counts == 0, 1))
    if unshared.size:
        i, j = unshared[0]
        raise DomainError(
            f"pair ({languages[i]}, {languages[j]}) shares no "
            "cognate classes; coincidence of 0 has no finite distance"
        )
    values = 100.0 * counts.astype(float) / n_eff
    return CoincidenceMatrix(languages, values, list_size=n_eff)


@dataclass(frozen=True)
class BorrowingAdjustment:
    """Effect of dropping ``n3`` borrowed slots from an ``n0``-slot list.

    Excluding the same ``n3`` non-coinciding slots everywhere multiplies all
    coincidences by n0/(n0-n3), which subtracts the constant
    ``shift = 100*ln(n0/(n0-n3))`` from every pairwise distance.
    """

    n0: int
    n3: int
    shift: float = field(init=False)

    def __post_init__(self):
        if self.n0 <= 0 or self.n3 < 0 or self.n3 >= self.n0:
            raise DomainError(
                f"need 0 <= n3 < n0 with n0 > 0, got n0={self.n0!r}, n3={self.n3!r}"
            )
        object.__setattr__(
            self, "shift", 100.0 * math.log(self.n0 / (self.n0 - self.n3))
        )


def adjust_coincidence_for_borrowings(c: float, adj: BorrowingAdjustment) -> float:
    """Rescale one coincidence value to the borrowing-excluded list."""
    adjusted = _check_coincidence(c) * adj.n0 / (adj.n0 - adj.n3)
    if adjusted > 100.0:
        raise DomainError(
            f"adjusted coincidence {adjusted:.6f} exceeds 100; "
            f"n3={adj.n3} is inconsistent with c={c!r}"
        )
    return adjusted
