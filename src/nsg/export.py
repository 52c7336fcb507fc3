"""Bit-stable writers: JSON with sorted keys, CSV with fixed layout, DOT."""

from __future__ import annotations

import json
from pathlib import Path


def dumps_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json(data, path) -> None:
    Path(path).write_text(dumps_json(data), encoding="utf-8")


def write_csv(rows, path) -> None:
    lines = [",".join(str(value) for value in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dot(text: str, path) -> None:
    Path(path).write_text(text, encoding="utf-8")
