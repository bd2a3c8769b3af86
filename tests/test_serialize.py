"""JSON input: every malformed field fails with a pointer; models round-trip."""

from __future__ import annotations

import copy
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splicerank.corpus import corpus
from splicerank.errors import InputFormatError, ShapeMismatch, SpliceRankError
from splicerank.gf2 import Gf2Matrix
from splicerank.model import BifilteredComplex, Generator, random_complex
from splicerank.serialize import complex_from_dict, complex_to_dict, dump_complex, load_complex

TREFOIL = complex_to_dict(corpus("trefoil_staircase"))
WITH_FLIP = complex_to_dict(
    BifilteredComplex("flipped", (Generator("e", 0),), (), None, Gf2Matrix.identity(1))
)


def _set(doc: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "doc, path, value, pointer",
    [
        (TREFOIL, ("generators",), 5, "/generators"),
        (TREFOIL, ("differential",), 7, "/differential"),
        (TREFOIL, ("symmetry",), 3, "/symmetry"),
        (TREFOIL, ("format",), True, "/format"),
        (TREFOIL, ("generators", 0, "alexander"), True, "/generators/0/alexander"),
        (TREFOIL, ("differential", 0, "drop_i"), True, "/differential/0/drop_i"),
        (TREFOIL, ("differential", 0, "drop_j"), False, "/differential/0/drop_j"),
        (TREFOIL, ("differential", 0, "from"), ["a"], "/differential/0/from"),
        (TREFOIL, ("differential", 1, "to"), 3, "/differential/1/to"),
        (WITH_FLIP, ("flip", "rows"), True, "/flip/rows"),
        (WITH_FLIP, ("flip", "cols"), True, "/flip/cols"),
        (WITH_FLIP, ("flip", "data", 0, 0), True, "/flip/data/0/0"),
    ],
)
def test_malformed_field_raises_input_format_error_at_its_pointer(doc, path, value, pointer):
    complex_from_dict(doc)  # the unbroken document parses
    with pytest.raises(InputFormatError) as err:
        complex_from_dict(_set(doc, path, value))
    assert err.value.pointer == pointer


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("generators", 0, "alexander"), 5, "violates grading"),
        (("differential", 0, "to"), "z", "references a missing generator"),
        (("symmetry",), [["a"], ["b"], ["c"]], "does not negate the grading"),
    ],
    ids=["grading", "missing-generator", "symmetry"],
)
def test_a_document_of_an_invalid_complex_raises_shape_mismatch(path, value, message):
    # the document is well formed, so the constructor is what rejects it
    with pytest.raises(ShapeMismatch, match=message) as info:
        complex_from_dict(_set(TREFOIL, path, value))
    assert info.type is ShapeMismatch


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 300))
def test_random_models_round_trip(tmp_path, seed):
    c = random_complex(seed)
    assert complex_from_dict(complex_to_dict(c)) == c
    path = tmp_path / "model.json"
    dump_complex(c, str(path))
    assert load_complex(str(path)) == c


def test_flip_model_round_trips(tmp_path):
    c = complex_from_dict(WITH_FLIP)
    path = tmp_path / "model.json"
    dump_complex(c, str(path))
    assert load_complex(str(path)) == c


@pytest.mark.parametrize(
    "content",
    [b"{not json", b"\xff\xfe{\x00}\x00", b'{"name": "\xe9"}'],
    ids=["bad-json", "utf16-bom", "latin1-byte"],
)
def test_file_that_is_not_utf8_json_raises_input_format_error(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(InputFormatError, match="not valid JSON") as err:
        load_complex(str(path))
    assert err.value.pointer == "/"


@pytest.mark.parametrize(
    "content",
    [
        "[" * 100_000 + "]" * 100_000,
        pytest.param(
            '{"format": ' + "1" * 5000 + "}",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits"),
        ),
    ],
    ids=["nested-too-deep", "int-too-long"],
)
def test_json_the_parser_refuses_raises_input_format_error(tmp_path, content):
    # the parser raises RecursionError on an array nested past its recursion
    # limit, and ValueError on an int literal longer than Python parses
    # (4,300 digits by default): neither may escape untyped
    path = tmp_path / "model.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(InputFormatError, match="not valid JSON") as err:
        load_complex(str(path))
    assert err.value.pointer == "/"


# Any JSON value, and documents shaped like the format in which one field in
# ten is any JSON value instead, so that the fuzz reaches past the first check.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


def _or_any(strategy):
    return st.integers(0, 9).flatmap(lambda k: json_values if k == 0 else strategy)


_ids = _or_any(st.sampled_from(["a", "b", "c"]))
_grading = _or_any(st.integers(-2, 2))
_drop = _or_any(st.integers(0, 2))
_matrix = _or_any(
    st.fixed_dictionaries(
        {
            "rows": _or_any(st.integers(0, 2)),
            "cols": _or_any(st.integers(0, 2)),
            "data": _or_any(st.lists(st.lists(_or_any(st.integers(0, 1)), max_size=3), max_size=3)),
        }
    )
)
documents = st.fixed_dictionaries(
    {
        "format": _or_any(st.just(1)),
        "name": _or_any(st.text(max_size=4)),
        "generators": _or_any(st.lists(_or_any(st.fixed_dictionaries({"id": _ids, "alexander": _grading})), max_size=4)),
        "differential": _or_any(
            st.lists(
                _or_any(st.fixed_dictionaries({"from": _ids, "to": _ids, "drop_i": _drop, "drop_j": _drop})),
                max_size=4,
            )
        ),
    },
    optional={
        "symmetry": _or_any(st.lists(_or_any(st.lists(_ids, max_size=3)), max_size=3)),
        "flip": _matrix,
        "tau_override": _or_any(st.fixed_dictionaries({"tau0": _matrix, "tau1": _matrix, "tau_inf": _matrix})),
    },
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(json_values | documents)
def test_any_json_document_builds_a_complex_or_raises_a_typed_error(doc):
    try:
        out = complex_from_dict(doc)
    except SpliceRankError:
        return
    assert isinstance(out, BifilteredComplex)

