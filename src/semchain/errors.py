"""Exception types shared across the package, the decoders of outside text and
JSON, the encoder of written text, and the check of a decoded triple array."""

import json


class SemchainError(Exception):
    """Base class for every error this package raises deliberately."""


# --- ingest ---------------------------------------------------------------

class FormatError(SemchainError):
    """Raw input is malformed for its declared format."""


class EmptySourceError(SemchainError):
    """A source yielded zero attributes."""


def require_types(obj, names: tuple[str, ...], types) -> None:
    """Raise TypeError unless each named field of `obj` is of `types`; a bool
    is accepted only where `types` is bool, and is never a number."""
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) and types is not bool) or not isinstance(value, types):
            kind = {bool: "true or false", int: "an integer", str: "a string"}.get(types, "a number")
            raise TypeError(f"{name} must be {kind}, got {value!r}")


def decode_text(raw: bytes, what: str) -> str:
    """Decode a file from outside the program as UTF-8 without a leading BOM;
    other bytes are a FormatError naming `what`."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what}: not UTF-8: {exc}") from None


def encode_text(text: str) -> bytes:
    """UTF-8 for every text the program writes or hashes; a lone surrogate is
    written as its own `\\uXXXX` escape, which a JSON string reads back as it was."""
    return text.encode("utf-8", "backslashreplace")


def decode_json(text: str, what: str):
    """Decode JSON from outside the program; any failure is a FormatError naming `what`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{what}: not JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{what}: nested too deeply to parse") from None


def string_triples(entries, field: str) -> list[tuple[str, str, str]]:
    """The entries of a decoded JSON array of 3-element string arrays; any
    other shape is a SchemaError naming `field`."""
    if not isinstance(entries, list):
        raise SchemaError(f"{field!r} must be an array")
    triples = []
    for entry in entries:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(part, str) for part in entry)
        ):
            raise SchemaError(f"{field!r} entry {entry!r} is not a 3-element string array")
        triples.append((entry[0], entry[1], entry[2]))
    return triples


# --- ontology -------------------------------------------------------------

class SchemaError(SemchainError):
    """A JSON document does not match the expected structure."""


class InheritanceCycleError(SemchainError):
    """A class or property inheritance chain is cyclic."""


class DanglingNameError(SemchainError):
    """A class or property name is referenced but never declared."""


# --- semantic models ------------------------------------------------------

class InstanceParseError(SemchainError):
    """A class-instance string could not be parsed into name and index."""


class CyclicModelError(SemchainError):
    """The internal links of a semantic model contain a directed cycle."""


# --- prompting ------------------------------------------------------------

class TemplateError(SemchainError):
    """A prompt template misses a placeholder or carries an unknown one."""


class EmptyExamplesError(SemchainError):
    """A system prompt was requested with no in-context examples."""


class Step1ParseError(SemchainError):
    """A labeling answer does not contain usable semantic labels."""


# --- llm ------------------------------------------------------------------

class NoAnswerError(SemchainError):
    """No machine-readable answer could be extracted from a response."""


class ProviderError(SemchainError):
    """A provider call failed."""


class AuthError(ProviderError):
    """Credentials are missing or were rejected."""


class RateLimitExhaustedError(ProviderError):
    """Rate-limit retries were exhausted."""


class ProviderTimeoutError(ProviderError):
    """The provider did not answer within the configured timeout."""


# --- harness --------------------------------------------------------------

class ShotTooLargeError(SemchainError):
    """The shot setting asks for more known examples than the split has."""
