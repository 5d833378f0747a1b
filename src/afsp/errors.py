"""Exception types shared across the package.

Plain I/O problems (missing files, permissions, disk errors) surface as the
built-in ``OSError`` family; the exceptions below mark contract violations
specific to this package. :func:`check_type` is the type check the config
dataclasses share, :func:`check_seed` the range check of a stored seed and
:func:`check_outputs` the check that an output never overwrites an input.
"""

from __future__ import annotations

import os
from pathlib import Path

_PathArg = str | os.PathLike | None


class AfspError(Exception):
    """Base class for all package-specific errors."""


def check_type(value, name: str, what: str, *kinds: type) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is one of ``kinds``;
    a bool, which Python counts as an int, passes only where ``kinds`` has
    ``bool``."""
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def check_seed(value, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an int in [0, 2**64)."""
    check_type(value, name, "an integer", int)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must be {'>= 0' if value < 0 else '< 2**64'}, got {value}")


def check_outputs(inputs: dict[str, _PathArg], outputs: dict[str, _PathArg]) -> None:
    """Raise ValueError if an output path names the same file as an input
    or another output, however the paths are spelt. ``inputs`` and
    ``outputs`` map each path's name, as the message gives it, to the path,
    or to None or "" for one not given. A caller checks before it opens
    anything for writing, so the file it would overwrite is left as it
    was."""
    named = {Path(path).resolve(): name for name, path in inputs.items() if path}
    for name, path in outputs.items():
        if path:
            other = named.setdefault(Path(path).resolve(), name)
            if other != name:
                raise ValueError(f"{other} and {name} must name different files")


# --- corpus ---------------------------------------------------------------

class MalformedRecord(AfspError):
    """A corpus record could not be parsed or violates a field invariant."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateId(AfspError):
    def __init__(self, pair_id: str):
        super().__init__(f"duplicate pair id {pair_id!r}")
        self.pair_id = pair_id


class MixedLanguagePair(AfspError):
    """Pairs within one corpus disagree on the language pair."""


class EmptyFile(AfspError):
    """Input file contains no records."""


class TestSizeTooLarge(AfspError):
    """Requested test split does not leave at least one demonstration pair."""

    __test__ = False  # keep pytest from collecting this as a test class


class VersionMismatch(AfspError):
    """Binary artifact has an unknown magic/version header or is truncated."""


# --- embedding ------------------------------------------------------------

class EmptyText(AfspError):
    """Text is empty (or yields no tokens) where content is required."""


class ZeroVector(AfspError):
    """A vector with (near-)zero norm cannot be L2-normalized. ``row`` is the
    first such row when the vectors are the rows of a matrix."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


# --- retrieval ------------------------------------------------------------

class DimensionMismatch(AfspError):
    """Operands have incompatible embedding dimensions."""


class FingerprintMismatch(AfspError):
    """Index was built with a different embedding table or projections."""


class EmptyQuery(AfspError):
    """Query text is empty or yields no tokens."""


# --- prompting ------------------------------------------------------------

class EmptyInput(AfspError):
    """Input sentence for prompt rendering is empty."""


class EmptyOutput(AfspError):
    """Nothing remains of a raw model output after extraction."""


# --- degeneration ---------------------------------------------------------

class NoOpPerturbation(AfspError):
    """An operation failed to change the text after the retry budget."""


class MissingTranslator(AfspError):
    """Back-translation requested without a configured translator or mock."""


class MissingEmbeddingTable(AfspError):
    """Token replacement requested without an embedding table or synonym map."""


# --- reranker -------------------------------------------------------------

class DegenerateDataset(AfspError):
    """Training data is too small or has no score variation."""


class NonFiniteLoss(AfspError):
    """Training loss became NaN or infinite."""


class EmptyCandidateList(AfspError):
    """rank() called with no candidates."""


# --- llm client -----------------------------------------------------------

class NetworkFailure(AfspError):
    """Endpoint unreachable or kept failing after the retry budget."""


class RateLimited(AfspError):
    """Endpoint returned 429 and retries were exhausted."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class MalformedResponse(AfspError):
    """Endpoint response is not valid chat-completions JSON."""


class AllCandidatesEmpty(AfspError):
    """Every returned completion was empty after extraction."""


class ScriptMiss(AfspError):
    """Mock client received a prompt it has no scripted answer for."""


# --- metrics --------------------------------------------------------------

class LengthMismatch(AfspError):
    """Hypothesis and reference lists have different lengths."""


class EmptyCorpus(AfspError):
    """Metric called on zero sentence pairs."""


# --- pipeline -------------------------------------------------------------

class StageError(AfspError):
    """Wraps an error from one pipeline stage with its stage label."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


class InputNotUtf8(AfspError, UnicodeDecodeError):
    """An input file is not UTF-8: the caught decode error's fields, and the
    file's path, which the message names."""

    def __init__(self, path, exc: UnicodeDecodeError):
        super().__init__(exc.encoding, exc.object, exc.start, exc.end, exc.reason)
        self.path = path

    def __str__(self) -> str:
        return f"{self.path}: not UTF-8: {super().__str__()}"
