"""Ordered linguistic rating scales mapped to interval type-2 values."""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .defuzz import dtrat
from .errors import InputFileError, read_json
from .numbers import IT2TrapFN, it2


class UnknownTermError(KeyError):
    """A rating label that the scale does not define."""

    def __init__(self, label: str, vocabulary: tuple[str, ...], context: str = ""):
        self.label = label
        self.vocabulary = vocabulary
        prefix = f"{context}: " if context else ""
        super().__init__(f"{prefix}unknown term {label!r}; known terms: {', '.join(vocabulary)}")


def _key(label: str) -> str:
    return label.strip().casefold()


class LinguisticScale(namedtuple("LinguisticScale", "terms")):
    """Ordered (label, value) pairs from the weakest to the strongest term."""

    def __init__(self, terms):
        # label key -> value of the first term with that key; derived, so not compared.
        # Each label as the scale spells it maps to its key's value too, so that
        # lookup finds such a cell with one probe (_key(_key(s)) == _key(s)).
        self._by_key: dict[str, IT2TrapFN] = {}
        for label, value in terms:
            self._by_key.setdefault(_key(label), value)
        for label, _ in terms:
            self._by_key.setdefault(label, self._by_key[_key(label)])

    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace builds _by_key

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.terms)

    def __len__(self) -> int:
        return len(self.terms)


# Chen-Lee five-term scale on [0, 1].
_DEFAULT_TERMS = (
    ("Very Low", it2((0.0, 0.0, 0.0, 0.1, 1.0, 1.0), (0.0, 0.0, 0.0, 0.05, 0.9, 0.9))),
    ("Low", it2((0.0, 0.1, 0.1, 0.3, 1.0, 1.0), (0.05, 0.1, 0.1, 0.2, 0.9, 0.9))),
    ("Medium", it2((0.3, 0.5, 0.5, 0.7, 1.0, 1.0), (0.4, 0.5, 0.5, 0.6, 0.9, 0.9))),
    ("High", it2((0.7, 0.9, 0.9, 1.0, 1.0, 1.0), (0.8, 0.9, 0.9, 0.95, 0.9, 0.9))),
    ("Very High", it2((0.9, 1.0, 1.0, 1.0, 1.0, 1.0), (0.95, 1.0, 1.0, 1.0, 0.9, 0.9))),
)


def default_scale() -> LinguisticScale:
    """The built-in five-term scale (Very Low .. Very High)."""
    return LinguisticScale(_DEFAULT_TERMS)


def lookup(scale: LinguisticScale, label: str) -> IT2TrapFN:
    """Resolve a label case-insensitively, ignoring surrounding whitespace.

    No fuzzy matching: anything that is not an exact term raises
    ``UnknownTermError`` listing the legal vocabulary. A label spelled as the
    scale spells it, or already stripped and case-folded, takes one dictionary
    probe; any other spelling is stripped and case-folded first.
    """
    value = scale._by_key.get(label)
    if value is None:
        value = scale._by_key.get(_key(label))
        if value is None:
            raise UnknownTermError(label, scale.labels)
    return value


def value_problems(value: IT2TrapFN) -> list[str]:
    """Why ``value`` cannot be a rating: its violations, or support outside [0, 1].

    The support spans all eight endpoints, the inner ones too, which the order
    check lets stray by ``_ORDER_SLACK``: with all eight in [0, 1], DTraT lies
    in [0, 1], so the value can be placed on the map.
    """
    problems = value.violations()
    ends = value.upper.endpoints + value.lower.endpoints
    if not (0.0 <= min(ends) and max(ends) <= 1.0):
        problems.append("support outside [0, 1]")
    return problems


def validate_scale(scale: LinguisticScale) -> list[str]:
    """Check scale invariants; violations are returned as data, not raised.

    A valid scale has unique labels (case-insensitive), structurally sound
    values with support inside [0, 1], and strictly increasing defuzzified
    values along the term order.
    """
    problems: list[str] = []
    seen: dict[str, str] = {}
    for label, _ in scale.terms:
        key = _key(label)
        if key in seen:
            problems.append(f"duplicate label (case-insensitive): {label!r} vs {seen[key]!r}")
        else:
            seen[key] = label

    for label, value in scale.terms:
        for violation in value_problems(value):
            problems.append(f"term {label!r}: {violation}")

    crisp = [(label, dtrat(value)) for label, value in scale.terms]
    for (prev_label, prev), (label, cur) in zip(crisp, crisp[1:]):
        if cur <= prev:
            problems.append(
                f"defuzzified values not strictly increasing: "
                f"{prev_label!r}={prev:.6f} >= {label!r}={cur:.6f}"
            )
    return problems


def load_scale(path: str | Path) -> LinguisticScale:
    """Load a scale definition (JSON with an ordered ``terms`` list).

    Each term carries a ``label`` and a ``value`` in the canonical textual
    form, both JSON strings. The loaded scale must pass ``validate_scale``.
    """
    doc = read_json(path)
    terms_doc = doc.get("terms") if isinstance(doc, dict) else None
    if not isinstance(terms_doc, list) or not terms_doc:
        raise InputFileError(path, "scale file must contain a non-empty 'terms' list")

    terms = []
    for i, entry in enumerate(terms_doc, start=1):
        if not isinstance(entry, dict) or {type(entry.get("label")), type(entry.get("value"))} != {str}:
            raise InputFileError(path, f"term #{i} must have a string 'label' and 'value'")
        try:
            value = IT2TrapFN.from_text(entry["value"])
        except ValueError as exc:
            raise InputFileError(path, f"term #{i} ({entry['label']!r}): {exc}") from exc
        terms.append((entry["label"], value))

    scale = LinguisticScale(tuple(terms))
    problems = validate_scale(scale)
    if problems:
        raise InputFileError(path, "invalid scale: " + "; ".join(problems))
    return scale
