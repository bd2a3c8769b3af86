"""Catalog of named complex models shipped as JSON data files.  The data
directory is listed once per process."""

from __future__ import annotations

from functools import cache
from importlib import resources

from .errors import UnknownName
from .model import BifilteredComplex
from .serialize import complex_from_dict

import json


def _data_dir():
    return resources.files("splicerank") / "data"


@cache
def _names() -> tuple[str, ...]:
    names = [entry.name[: -len(".json")] for entry in _data_dir().iterdir() if entry.name.endswith(".json")]
    return tuple(sorted(names))


def corpus_names() -> list[str]:
    return list(_names())


def corpus(name: str) -> BifilteredComplex:
    """Load a named corpus entry; raises UnknownName for any other name."""
    names = _names()
    if name not in names:
        raise UnknownName(f"no corpus entry {name!r}; known: {', '.join(names)}")
    return complex_from_dict(json.loads((_data_dir() / f"{name}.json").read_text(encoding="utf-8")))
