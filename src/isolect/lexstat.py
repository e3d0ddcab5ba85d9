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
    "DistanceMatrix",
    "adjust_coincidence_for_borrowings",
    "adjust_matrix_for_borrowings",
    "coincidence_from_cognacy",
    "coincidence_from_distance",
    "distance_from_coincidence",
    "distance_matrix",
]


def distance_from_coincidence(c: float) -> float:
    """Convert a coincidence percentage to a distance in swadesh units."""
    if not math.isfinite(c) or c <= 0.0 or c > 100.0:
        raise DomainError(f"coincidence must lie on (0, 100], got {c!r}")
    return 100.0 * math.log(100.0 / c)


def coincidence_from_distance(l: float) -> float:
    """Convert a swadesh distance back to a coincidence percentage."""
    if not math.isfinite(l) or l < 0.0:
        raise DomainError(f"swadesh distance must be finite and >= 0, got {l!r}")
    return 100.0 * math.exp(-l / 100.0)


def _check_labels(labels) -> tuple:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise DomainError(f"duplicate language labels: {dupes}")
    if not labels:
        raise DomainError("at least one language label required")
    return labels


# Per matrix kind: the test an off-diagonal entry must pass besides being
# finite, and the rule named when it fails.
_DOMAINS = {
    "coincidence": (lambda a: (a > 0.0) & (a <= 100.0), "must lie on (0, 100]"),
    "distance": (lambda a: a >= 0.0, "must be finite and >= 0"),
}


def _symmetric_array(labels, values, kind: str) -> np.ndarray:
    """Validated read-only copy of a symmetric matrix, diagonal set to NaN.

    The error names the first bad pair in row-major upper-triangle order;
    asymmetry is reported before a domain violation on the same pair.
    """
    k = len(labels)
    arr = np.array(values, dtype=float)
    if arr.shape != (k, k):
        raise DomainError(f"{kind} matrix must be {k}x{k}, got shape {arr.shape}")
    in_domain, rule = _DOMAINS[kind]
    asymmetric = ~np.isclose(arr, arr.T, rtol=0.0, atol=1e-9)
    with np.errstate(invalid="ignore"):
        invalid = ~(np.isfinite(arr) & in_domain(arr))
    bad = np.argwhere(np.triu(asymmetric | invalid, 1))
    if bad.size:
        i, j = bad[0]
        a, b = labels[i], labels[j]
        if asymmetric[i, j]:
            raise DomainError(
                f"asymmetric {kind} for pair ({a}, {b}): "
                f"{float(arr[i, j])!r} vs {float(arr[j, i])!r}"
            )
        raise DomainError(f"{kind} for pair ({a}, {b}) {rule}, got {float(arr[i, j])!r}")
    np.fill_diagonal(arr, np.nan)
    arr.setflags(write=False)
    return arr


class _LabelledMatrix:
    """Label lookup shared by the symmetric matrix types (``labels``, ``values``)."""

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


@dataclass(frozen=True, eq=False)
class CoincidenceMatrix(_LabelledMatrix):
    """Symmetric matrix of basic-list coincidence percentages.

    The diagonal is meaningless and stored as NaN; ``list_size`` is the
    number of basic-list slots behind the percentages. Equality and hash are
    identity (``eq=False``), since ``==`` on the array field would raise.
    """

    labels: tuple
    values: np.ndarray
    list_size: int = 100
    # the swadesh distances, filled in by the first ``_distance_values(self)``
    _distances: np.ndarray = field(default=None, init=False, repr=False)
    # the label pairs in row-major i < j order, filled in by the first ``fit_report``
    _pairs: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "values", _symmetric_array(labels, self.values, "coincidence")
        )
        if int(self.list_size) <= 0:
            raise DomainError(f"list_size must be positive, got {self.list_size!r}")
        object.__setattr__(self, "list_size", int(self.list_size))


@dataclass(frozen=True, eq=False)
class DistanceMatrix(_LabelledMatrix):
    """Symmetric matrix of pairwise swadesh distances (diagonal NaN).

    Equality and hash are identity (``eq=False``), as on ``CoincidenceMatrix``.
    """

    labels: tuple
    values: np.ndarray

    def __post_init__(self):
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "values", _symmetric_array(labels, self.values, "distance")
        )


def _distance_values(m: CoincidenceMatrix) -> np.ndarray:
    """The k x k swadesh distances of ``m``'s coincidences, zero on the diagonal.

    Computed once per matrix and kept on it, read-only like the ``values``
    it comes from. Every entry comes from the scalar formula of
    ``distance_from_coincidence`` (``np.log`` differs from ``math.log`` in
    the last bit on some inputs), applied once per distinct coincidence: a
    list of n words gives at most n distinct percentages. The entries need
    no domain check: a ``CoincidenceMatrix`` is validated when it is built.
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


def distance_matrix(m: CoincidenceMatrix) -> DistanceMatrix:
    """Convert every off-diagonal coincidence entry to a swadesh distance."""
    return DistanceMatrix(m.labels, _distance_values(m))


@dataclass(frozen=True, eq=False)
class CognacyTable:
    """Per-language cognate-class assignments over a shared slot universe.

    ``class_ids`` holds one int per (language, slot); equality within a slot
    column means the two languages carry the same cognate class there. A
    negative id marks a missing entry. ``borrowed`` flags loanword entries.
    Equality and hash are identity (``eq=False``), since ``==`` on the array
    fields would raise.
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
        ids = np.ascontiguousarray(self.class_ids, dtype=np.int64)
        flags = np.ascontiguousarray(self.borrowed, dtype=bool)
        shape = (len(languages), len(slots))
        if ids.shape != shape or flags.shape != shape:
            raise InputFormatError(
                f"cognacy arrays must have shape {shape}, got {ids.shape} and {flags.shape}"
            )
        ids.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "languages", languages)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "class_ids", ids)
        object.__setattr__(self, "borrowed", flags)

    @classmethod
    def from_rows(cls, rows) -> "CognacyTable":
        """Build a table from (language, slot, class_token, borrowed) rows.

        Languages and slots keep first-appearance order; class tokens are
        opaque and compared by equality within each slot.
        """
        languages: list = []
        slots: list = []
        lang_index: dict = {}
        slot_index: dict = {}
        entries: dict = {}
        for language, slot, token, borrowed in rows:
            key = (language, slot)
            if key in entries:
                raise InputFormatError(
                    f"duplicate cognacy row for language {language!r}, slot {slot!r}"
                )
            if language not in lang_index:
                lang_index[language] = len(languages)
                languages.append(language)
            if slot not in slot_index:
                slot_index[slot] = len(slots)
                slots.append(slot)
            entries[key] = (token, bool(borrowed))
        ids = np.full((len(languages), len(slots)), -1, dtype=np.int64)
        flags = np.zeros((len(languages), len(slots)), dtype=bool)
        for j, slot in enumerate(slots):
            token_ids: dict = {}
            for i, language in enumerate(languages):
                entry = entries.get((language, slot))
                if entry is None:
                    continue
                token, borrowed = entry
                if token not in token_ids:
                    token_ids[token] = len(token_ids)
                ids[i, j] = token_ids[token]
                flags[i, j] = borrowed
        return cls(tuple(languages), tuple(slots), ids, flags)

    @property
    def list_size(self) -> int:
        return len(self.slots)

    def borrowed_slot_count(self) -> int:
        """Number of distinct slots flagged as borrowed in any language."""
        return int(np.count_nonzero(self.borrowed.any(axis=0)))

    def iter_rows(self):
        """Yield (language, slot, class_token, borrowed) rows, language-major."""
        for i, language in enumerate(self.languages):
            for j, slot in enumerate(self.slots):
                cid = int(self.class_ids[i, j])
                if cid < 0:
                    continue
                yield language, slot, f"c{cid}", bool(self.borrowed[i, j])


def coincidence_from_cognacy(
    table: CognacyTable, exclude_borrowed: bool = False
) -> CoincidenceMatrix:
    """Count shared cognate classes per language pair into a matrix.

    With ``exclude_borrowed`` every slot flagged as borrowed in any language
    is dropped for all languages, and the effective list size shrinks
    accordingly. Values are real percentages, never rounded.
    """
    missing = np.argwhere(table.class_ids < 0)
    if missing.size:
        per_lang: dict = {}
        for i, j in missing:
            per_lang.setdefault(table.languages[i], []).append(table.slots[j])
        detail = "; ".join(
            f"{lang}: {', '.join(slots[:10])}" + (" ..." if len(slots) > 10 else "")
            for lang, slots in per_lang.items()
        )
        raise InputFormatError(f"languages with missing slots: {detail}")
    classes = table.class_ids
    if exclude_borrowed:
        classes = classes[:, ~table.borrowed.any(axis=0)]
    return _coincidence_from_classes(table.languages, classes)


def _coincidence_from_classes(languages, classes) -> CoincidenceMatrix:
    """Coincidence matrix of a (languages x slots) class matrix with no missing entries.

    Any integer dtype is accepted, and only equality within a slot column
    counts: the simulator's segment tags count like a parsed table's int64
    class ids.
    """
    n_eff = classes.shape[1]
    if n_eff == 0:
        raise InputFormatError("no slots left after excluding borrowed entries")
    counts = _kernels.pair_shared_counts(classes)
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
    if not math.isfinite(c) or c <= 0.0 or c > 100.0:
        raise DomainError(f"coincidence must lie on (0, 100], got {c!r}")
    adjusted = c * adj.n0 / (adj.n0 - adj.n3)
    if adjusted > 100.0:
        raise DomainError(
            f"adjusted coincidence {adjusted:.6f} exceeds 100; "
            f"n3={adj.n3} is inconsistent with c={c!r}"
        )
    return adjusted


def adjust_matrix_for_borrowings(
    m: CoincidenceMatrix, adj: BorrowingAdjustment
) -> CoincidenceMatrix:
    """Apply the borrowing-exclusion rescale to every pair of a matrix."""
    if m.list_size != adj.n0:
        raise DomainError(
            f"matrix list_size {m.list_size} does not match adjustment n0 {adj.n0}"
        )
    k = m.k
    out = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            try:
                out[i, j] = out[j, i] = adjust_coincidence_for_borrowings(
                    float(m.values[i, j]), adj
                )
            except DomainError as exc:
                raise DomainError(f"pair ({m.labels[i]}, {m.labels[j]}): {exc}") from None
    return CoincidenceMatrix(m.labels, out, list_size=adj.n0 - adj.n3)
