"""Record the reference table of every call's answer with the plain calls.

    python3 bench/record_reference.py

Run only when a workload or call is added, on a commit whose answers are
trusted; a run that disagrees with the table is a failure of the program,
never a reason to record the table again.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as W  # noqa: E402


def main() -> None:
    table: dict[str, dict] = {"rank": {}, "lemmas": {}, "theorem": {}}
    for wl in W.WORKLOADS.values():
        _, models, _ = W.setup(wl)
        for call in wl.calls:
            table[call.kind][call.key] = W.outcome(call, W.plain(call, models))
    W.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
