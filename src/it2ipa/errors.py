"""Shared error type for problems located in an input file, and the readers that raise it."""

from __future__ import annotations

import json
from pathlib import Path


class InputFileError(ValueError):
    """A parse or validation failure tied to a file (and optionally a row)."""

    def __init__(self, file: str, cause: str, row: int | None = None):
        self.file = str(file)
        self.row = row
        self.cause = cause
        where = f"{self.file}:{row}" if row is not None else self.file
        super().__init__(f"{where}: {cause}")


def read_text(path: Path) -> str:
    """An input file's UTF-8 text without a leading byte-order mark.

    A file that cannot be read or is not UTF-8 raises ``InputFileError``; for
    a bad byte it names the line the byte is on.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputFileError(str(path), f"cannot read file: {exc}") from exc
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # ``exc.object`` is the input after the byte-order mark, which holds no newline
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputFileError(str(path), f"not UTF-8 text: {exc}", row=line) from exc


def read_json(path: Path):
    """An input file's JSON document; invalid JSON names the line where it has one."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the int digit limit
        raise InputFileError(
            str(path), f"invalid JSON: {exc}", row=getattr(exc, "lineno", None)
        ) from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's limit
        raise InputFileError(str(path), f"invalid JSON: nested too deeply ({exc})") from exc
