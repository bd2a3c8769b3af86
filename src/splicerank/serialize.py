"""Strict JSON input format for complex models, plus matrix (de)serialization.

Format 1 document:

    {
      "format": 1,
      "name": "trefoil_staircase",
      "generators": [{"id": "a", "alexander": -1}, ...],
      "differential": [{"from": "b", "to": "a", "drop_i": 1, "drop_j": 0}, ...],
      "symmetry": [["a", "c"], ["b"]],                 # optional orbit list
      "flip": {"rows": R, "cols": C, "data": [[...]]}, # optional explicit flip
      "tau_override": {"tau0": M, "tau1": M, "tau_inf": M}  # optional
    }

Unknown fields are rejected.  Matrix bases follow the engine's deterministic
conventions: plane bases are ordered by the generator list, total surgery
homology bases by increasing spin-c level with Gaussian cycle representatives.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InputFormatError, require_type
from .gf2 import Gf2Matrix
from .model import Arrow, BifilteredComplex, Generator, TauOverride, is_int

FORMAT_VERSION = 1

_TOP_FIELDS = {"format", "name", "generators", "differential", "symmetry", "flip", "tau_override"}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InputFormatError(path, message)


def _expect_list(value: Any, path: str) -> list:
    _expect(isinstance(value, list), path, "expected an array")
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in obj:
        _expect(key in allowed, f"{path}/{key}", "unknown field")
    for key in required:
        _expect(key in obj, path, f"missing required field {key!r}")


def matrix_from_json(obj: Any, path: str) -> Gf2Matrix:
    _check_keys(obj, {"rows", "cols", "data"}, {"rows", "cols", "data"}, path)
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    _expect(is_int(rows) and rows >= 0, f"{path}/rows", "expected a nonnegative integer")
    _expect(is_int(cols) and cols >= 0, f"{path}/cols", "expected a nonnegative integer")
    _expect(isinstance(data, list) and len(data) == rows, f"{path}/data", f"expected {rows} rows")
    for r, row in enumerate(data):
        _expect(
            isinstance(row, list) and len(row) == cols,
            f"{path}/data/{r}",
            f"expected {cols} entries",
        )
        for c, v in enumerate(row):
            _expect(is_int(v) and v in (0, 1), f"{path}/data/{r}/{c}", "entries must be 0 or 1")
    return Gf2Matrix.from_dense(data, cols)


def matrix_to_json(m: Gf2Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": m.dense()}


def complex_from_dict(doc: Any, path: str = "") -> BifilteredComplex:
    _check_keys(doc, _TOP_FIELDS, {"format", "name", "generators", "differential"}, path or "/")
    _expect(
        is_int(doc["format"]) and doc["format"] == FORMAT_VERSION,
        f"{path}/format",
        f"expected format {FORMAT_VERSION}",
    )
    _expect(isinstance(doc["name"], str), f"{path}/name", "expected a string")

    generators = []
    for k, g in enumerate(_expect_list(doc["generators"], f"{path}/generators")):
        gpath = f"{path}/generators/{k}"
        _check_keys(g, {"id", "alexander"}, {"id", "alexander"}, gpath)
        _expect(isinstance(g["id"], str), f"{gpath}/id", "expected a string")
        _expect(is_int(g["alexander"]), f"{gpath}/alexander", "expected an integer")
        generators.append(Generator(g["id"], g["alexander"]))

    arrows = []
    for k, a in enumerate(_expect_list(doc["differential"], f"{path}/differential")):
        apath = f"{path}/differential/{k}"
        fields = {"from", "to", "drop_i", "drop_j"}
        _check_keys(a, fields, fields, apath)
        for key in ("from", "to"):
            _expect(isinstance(a[key], str), f"{apath}/{key}", "expected a generator id")
        for key in ("drop_i", "drop_j"):
            _expect(is_int(a[key]) and a[key] >= 0, f"{apath}/{key}", "expected a nonnegative integer")
        arrows.append(Arrow(a["from"], a["to"], a["drop_i"], a["drop_j"]))

    symmetry = None
    if "symmetry" in doc:
        symmetry = {}
        for k, orbit in enumerate(_expect_list(doc["symmetry"], f"{path}/symmetry")):
            opath = f"{path}/symmetry/{k}"
            _expect(isinstance(orbit, list) and len(orbit) in (1, 2), opath, "expected a 1- or 2-cycle")
            for x in orbit:
                _expect(isinstance(x, str), opath, "orbit entries must be generator ids")
            if len(orbit) == 1:
                symmetry[orbit[0]] = orbit[0]
            else:
                symmetry[orbit[0]] = orbit[1]
                symmetry[orbit[1]] = orbit[0]

    flip = None
    if "flip" in doc:
        flip = matrix_from_json(doc["flip"], f"{path}/flip")

    tau_override = None
    if "tau_override" in doc:
        tpath = f"{path}/tau_override"
        fields = {"tau0", "tau1", "tau_inf"}
        _check_keys(doc["tau_override"], fields, fields, tpath)
        tau_override = TauOverride(
            matrix_from_json(doc["tau_override"]["tau0"], f"{tpath}/tau0"),
            matrix_from_json(doc["tau_override"]["tau1"], f"{tpath}/tau1"),
            matrix_from_json(doc["tau_override"]["tau_inf"], f"{tpath}/tau_inf"),
        )

    return BifilteredComplex(
        doc["name"], tuple(generators), tuple(arrows), symmetry, flip, tau_override
    )


def complex_to_dict(complex_: BifilteredComplex) -> dict:
    require_type(BifilteredComplex, complex_)
    doc: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "name": complex_.name,
        "generators": [{"id": g.id, "alexander": g.alexander} for g in complex_.generators],
        "differential": [
            {"from": a.src, "to": a.dst, "drop_i": a.drop_i, "drop_j": a.drop_j}
            for a in complex_.arrows
        ],
    }
    if complex_.symmetry is not None:
        seen = set()
        orbits = []
        for g in complex_.generators:
            if g.id in seen:
                continue
            partner = complex_.symmetry[g.id]
            seen.update({g.id, partner})
            orbits.append([g.id] if partner == g.id else [g.id, partner])
        doc["symmetry"] = orbits
    if complex_.flip is not None:
        doc["flip"] = matrix_to_json(complex_.flip)
    if complex_.tau_override is not None:
        doc["tau_override"] = {
            "tau0": matrix_to_json(complex_.tau_override.tau0),
            "tau1": matrix_to_json(complex_.tau_override.tau1),
            "tau_inf": matrix_to_json(complex_.tau_override.tau_inf),
        }
    return doc


def load_complex(path: str) -> BifilteredComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, text that is not UTF-8 (JSON text
            # is) and an integer literal past Python's digit limit;
            # RecursionError a document nested deeper than the parser recurses
            raise InputFormatError("/", f"not valid JSON: {exc}") from exc
    return complex_from_dict(doc)


def dump_complex(complex_: BifilteredComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_dict(complex_), fh, indent=1)
        fh.write("\n")
