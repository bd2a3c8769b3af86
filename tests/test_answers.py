"""Every answer the library gives on a fixed set of models, pinned by one digest.

The digest is a SHA-256 over a fixed sequence of answers, in order:

- per knot: its package dims, the ``row_bits`` of its three taus, its
  ``stats`` and the entries of every ``check_all_lemmas`` report;
- per ordered pair of knots: ``splice_rank``, ``kernel_witnesses``,
  ``subspace_bounds`` and ``theorem_check``.

The knots are the corpus, in name order, then ``random_complex(0..5)``.
A change that is meant to keep every answer keeps the digest; one that
changes an answer on purpose updates ``DIGEST`` and says why.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from splicerank.corpus import corpus, corpus_names
from splicerank.duality import geometric_package, stats
from splicerank.filtration import check_all_lemmas
from splicerank.model import random_complex
from splicerank.splice import kernel_witnesses, splice_rank, subspace_bounds, theorem_check

DIGEST = "b79d8f1f7ffc11e26a9b3d4aa0bb625ce0336e5e9c2eb88cd21dd70a252e58ba"


def _answers():
    """The pinned answers, one JSON-ready value each, in digest order."""
    models = [corpus(name) for name in corpus_names()] + [random_complex(seed) for seed in range(6)]
    packages = [geometric_package(c) for c in models]
    for c, p in zip(models, packages):
        yield c.name, p.dims, [list(tau.row_bits) for tau in (p.tau0, p.tau1, p.tau_inf)]
        yield asdict(stats(p))
        yield [[name, [[e.label, e.lhs, e.rhs] for e in report.entries]] for name, report in check_all_lemmas(c).items()]
    for p1 in packages:
        for p2 in packages:
            yield asdict(splice_rank(p1, p2)), asdict(kernel_witnesses(p1, p2))
            yield [asdict(b) for b in subspace_bounds(p1, p2)], asdict(theorem_check(p1, p2))


def answer_digest() -> str:
    h = hashlib.sha256()
    for answer in _answers():
        h.update(json.dumps(answer).encode() + b"\n")
    return h.hexdigest()


def test_every_answer_matches_its_pinned_digest():
    assert answer_digest() == DIGEST
