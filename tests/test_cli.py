"""The ``splicerank`` command, run as a user runs it: in a fresh process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splicerank
from splicerank.corpus import corpus, corpus_names
from splicerank.duality import geometric_package
from splicerank.model import random_complex
from splicerank.serialize import dump_complex
from splicerank.splice import splice_rank

SRC = Path(splicerank.__file__).parent.parent
DATA = Path(splicerank.__file__).parent / "data"


def _env() -> dict[str, str]:
    """The environment with the library's source on the path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}


def _run(*args: str) -> subprocess.CompletedProcess:
    """``python -m splicerank args`` with the library's source on the path."""
    return subprocess.run(
        [sys.executable, "-m", "splicerank", *args], env=_env(), capture_output=True, text=True, timeout=120
    )


def _h(first: str, second: str) -> int:
    return splice_rank(geometric_package(corpus(first)), geometric_package(corpus(second))).h


def test_rank_of_a_corpus_pair_through_python_m():
    done = _run("rank", str(DATA / "t34_staircase.json"), str(DATA / "fig8_box.json"))
    assert (done.returncode, done.stderr) == (0, "")
    rank = splice_rank(geometric_package(corpus("t34_staircase")), geometric_package(corpus("fig8_box")))
    assert done.stdout == f"h={rank.h} ker={rank.ker} coker={rank.coker}\n"


def test_rank_prints_one_json_object():
    done = _run("rank", str(DATA / "trefoil_staircase.json"), str(DATA / "trefoil_staircase_mirror.json"), "--json")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["knots"] == ["trefoil_staircase", "trefoil_staircase_mirror"]
    assert out["h"] == _h("trefoil_staircase", "trefoil_staircase_mirror") == out["ker"] + out["coker"]


def test_rank_reads_a_file_the_library_wrote(tmp_path):
    c = random_complex(3)
    path = tmp_path / "random-3.json"
    dump_complex(c, str(path))
    done = _run("rank", str(path), str(DATA / "unknot.json"), "--json")
    assert json.loads(done.stdout)["h"] == splice_rank(geometric_package(c), geometric_package(corpus("unknot"))).h


def test_corpus_lists_the_shipped_knots():
    done = _run("corpus")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split("\n") == [*corpus_names(), ""]


@pytest.mark.parametrize(
    "content, error",
    [
        (None, "FileNotFoundError"),
        ('{"format": 1}', "InputFormatError"),
        ("not json", "InputFormatError"),
        (b"\xff\xfe", "InputFormatError"),
        ("[" * 100_000 + "]" * 100_000, "InputFormatError"),
    ],
    ids=["missing", "schema", "not-json", "not-utf8", "nested-too-deep"],
)
def test_a_bad_input_exits_1_with_one_line(tmp_path, content, error):
    path = tmp_path / "knot.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content, encoding="utf-8")
    done = _run("rank", str(path), str(DATA / "unknot.json"))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"splicerank: error: {path}: {error}: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "doc, error",
    [
        (
            {"format": 1, "name": "bad", "differential": []},
            "InputFormatError: /: missing required field 'generators'",
        ),
        (
            {
                "format": 1,
                "name": "loop",
                "generators": [{"id": "a", "alexander": 0}, {"id": "b", "alexander": 0}],
                "differential": [{"from": "a", "to": "b", "drop_i": 1, "drop_j": 0}],
            },
            "ShapeMismatch: invalid complex 'loop': arrow a->b violates grading",
        ),
        (
            {"format": 1, "name": "plain", "generators": [{"id": "e", "alexander": 0}], "differential": []},
            "NoFlipData: complex 'plain' has neither symmetry nor flip",
        ),
    ],
    ids=["no-generators", "invalid-complex", "no-flip-data"],
)
def test_an_error_names_the_file_it_came_from(tmp_path, doc, error):
    # the bad knot is the second: the message names its file, not the first
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    done = _run("rank", str(DATA / "unknot.json"), str(bad))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"splicerank: error: {bad}: {error}")
    assert done.stderr.count("\n") == 1 and str(DATA / "unknot.json") not in done.stderr


def test_bad_usage_exits_2():
    for args in ((), ("rank", str(DATA / "unknot.json")), ("check",)):
        done = _run(*args)
        assert (done.returncode, done.stdout) == (2, ""), args
        assert "usage: splicerank" in done.stderr


def test_a_reader_that_closes_the_pipe_first_gets_no_traceback():
    # the read end is closed before the command starts, so its first write
    # fails every time
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "splicerank", "corpus"], env=_env(), stdout=write, stderr=subprocess.PIPE, timeout=120
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
