"""The ``splicerank`` command.

    splicerank rank A.json B.json [--json]   h of the splice of two knots
    splicerank corpus                        the names of the shipped knots

``rank`` reads each knot from a JSON file in the input format of
``serialize`` and prints h = dim Ker D + dim Coker D, the rank of hat-HF of
the spliced manifold, with its two terms; ``--json`` prints them as one
JSON object with the two knots' names.  ``python -m splicerank`` runs the
same command.  An input the library refuses (a ``SpliceRankError``) or a
file that cannot be read exits with status 1 and a one-line message on
standard error, which starts with the file's path when the error came
from reading that file or building its knot; bad usage exits with status 2.
A reader that closes standard output before the command has written it
(``splicerank corpus | head -1``) ends the command with status 1 and
nothing on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .corpus import corpus_names
from .duality import geometric_package
from .errors import SpliceRankError
from .serialize import load_complex
from .splice import splice_rank


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splicerank", description="Rank of hat-HF of spliced knot complements."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    rank = commands.add_parser("rank", help="h of the splice of two knots given as JSON files")
    rank.add_argument("first", help="the first knot's JSON file")
    rank.add_argument("second", help="the second knot's JSON file")
    rank.add_argument("--json", action="store_true", help="print the result as one JSON object")
    commands.add_parser("corpus", help="list the names of the shipped knots")
    return parser


def _rank(knots: list, packages: list, as_json: bool) -> str:
    result = splice_rank(*packages)
    if as_json:
        return json.dumps({"knots": [k.name for k in knots], **asdict(result)})
    return f"h={result.h} ker={result.ker} coker={result.coker}"


def main(argv: list[str] | None = None) -> int:
    """Run the command on argv (the process's arguments by default) and
    return its exit status."""
    args = _parser().parse_args(argv)
    source = None  # the file whose knot is being read and built, if any
    try:
        if args.command == "rank":
            knots, packages = [], []
            for source in (args.first, args.second):
                knots.append(load_complex(source))
                packages.append(geometric_package(knots[-1]))
            source = None
            out = _rank(knots, packages, args.json)
        else:
            out = "\n".join(corpus_names())
    except (SpliceRankError, OSError) as exc:
        message = " ".join(str(exc).split())
        where = "" if source is None else f"{source}: "
        print(f"splicerank: error: {where}{type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # as the signal module's docs advise for SIGPIPE: standard output now
        # writes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0
