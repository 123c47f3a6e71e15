"""The word-pair reference of the factorization report.

``invertibility_report`` takes the square-side composites q o d and d o q
on the simple pairs alone, because every exterior product of words is a
direct sum of them.  ``word_report`` is the report that samples the words
instead: q o d and d o q on every exterior product of two words of length
0 .. ``max_word_length`` over the non-unit labels, built by the same
``_square_transforms``; p o b and b o p are the report's.  The naturality
tests compare the two.
"""

import dataclasses
from itertools import product

from tcat import engine as E
from tcat.center import (FactorizationReport, _square_transforms,
                         invertibility_report)
from tcat.engine import ObjectExpr


def word_objects(cat, max_word_length: int) -> list:
    """Every word of length 0 .. max_word_length over the non-unit labels."""
    if max_word_length < 1:
        raise ValueError(f"max_word_length must be at least 1, got "
                         f"{max_word_length}")
    return [ObjectExpr.word(w) for n in range(max_word_length + 1)
            for w in product(range(1, cat.n_labels), repeat=n)]


def word_report(cat, max_word_length: int) -> FactorizationReport:
    """``invertibility_report`` with q o d and d o q taken on every pair of
    ``word_objects`` in place of the simple pairs, and the verdict they
    give."""
    rep = invertibility_report(cat, max_word_length)
    qd = dq = 0.0
    objs = word_objects(cat, max_word_length)
    for X in objs:
        for Y in objs:
            d, q = _square_transforms(cat, X, Y)
            qd = max(qd, E.defect_from_identity(E.compose(q, d)))
            dq = max(dq, E.defect_from_identity(E.compose(d, q)))
    factorizable = max(qd, dq, rep.defect_pb, rep.defect_bp) < cat.tol.eps_identity
    return dataclasses.replace(
        rep, defect_qd=qd, defect_dq=dq, factorizable=factorizable,
        agrees_with_modularity=(factorizable == rep.modular))
