"""Catalog of named complex models shipped as JSON data files.  The data
directory is listed once per process."""

from __future__ import annotations

import json
import os
from functools import cache

from .errors import UnknownName
from .model import BifilteredComplex
from .serialize import complex_from_dict

# the data files beside this module, named with os.path: importlib.resources
# and pathlib would cost a one-shot command more to import than the listing
_DATA = os.path.join(os.path.dirname(__file__), "data")


@cache
def _names() -> tuple[str, ...]:
    return tuple(sorted(entry[: -len(".json")] for entry in os.listdir(_DATA) if entry.endswith(".json")))


def corpus_names() -> list[str]:
    return list(_names())


def corpus(name: str) -> BifilteredComplex:
    """Load a named corpus entry; raises UnknownName for any other name."""
    names = _names()
    if name not in names:
        raise UnknownName(f"no corpus entry {name!r}; known: {', '.join(names)}")
    with open(os.path.join(_DATA, f"{name}.json"), encoding="utf-8") as f:
        return complex_from_dict(json.load(f))
