"""Flat ``key = value`` text files used for run configs and noise profiles."""

from __future__ import annotations

from pathlib import Path


def content_lines(text: str, source: str):
    """(``source:lineno``, line, raw line) of each line of ``text`` that is
    not blank once its '#' comment is cut; the line stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield f"{source}:{lineno}", line, raw


def parse_kv_text(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse lines of ``key = value``; '#' starts a comment, blanks skipped."""
    items: dict[str, str] = {}
    for where, line, raw in content_lines(text, source):
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"{where}: empty key")
        if key in items:
            raise ValueError(f"{where}: duplicate key {key!r}")
        items[key] = value
    return items


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    return parse_kv_text(path.read_text(), source=str(path))


def format_kv(items) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items)


def format_value(value) -> str:
    """Text form of one bool, int, float or str value, chosen by its runtime
    type: bools as true/false, floats by ``repr`` (which round-trips
    bit-exactly), the rest by ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(key: str, text: str, kind: type):
    """Read the text form of one value of type ``kind`` (bool, int, float or
    str); ``key`` names it in errors."""
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{key}: expected true or false, got {text!r}")
        return text.lower() == "true"
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, got {text!r}") from None
