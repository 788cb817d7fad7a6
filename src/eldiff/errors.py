"""Exception types shared across the toolkit."""

from __future__ import annotations


class EldiffError(Exception):
    """Base class for all toolkit errors."""


class MalformedRecordError(EldiffError):
    """An input line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


class DuplicateIdError(EldiffError):
    """Two corpus records share the same document id."""

    def __init__(self, doc_id: str, line_number: int | None = None):
        self.doc_id = doc_id
        where = f" (line {line_number})" if line_number is not None else ""
        super().__init__(f"duplicate document id {doc_id!r}{where}")


class EmptyVocabularyError(EldiffError):
    """No word survived the min_count filter during embedding training."""


class DivergedTrainingError(EldiffError, ArithmeticError):
    """Skip-gram training produced non-finite vectors."""


class AllMissingError(EldiffError):
    """Mean imputation requested for a column with no observed values."""


class CorruptModelError(EldiffError):
    """A model file failed to parse or is internally inconsistent."""


class UnsupportedVersionError(EldiffError):
    """A model file declares a format version this build cannot read."""
