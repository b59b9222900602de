"""The contract of the result records: ``EvalResult``, ``KelvinQuad``,
``OrderDerivQuad`` and ``IdentityReport``.

Each record is a ``typing.NamedTuple``: it is read by attribute, in the field
order below, and through ``_replace``, ``_asdict`` and ``_fields``;
assignment raises AttributeError.  Positional unpacking is not part of the
contract, because later fields may be appended.
"""

import inspect
import math

import pytest

from kelvinfn.hyper import EvalResult
from kelvinfn.kelvin import KelvinQuad, kelvin_all
from kelvinfn.orderderiv import OrderDerivQuad, dkelvin
from kelvinfn.quad import IdentityReport, make_report

FIELDS = {
    EvalResult: ("value", "abs_err_estimate", "terms_used", "converged", "flags",
                 "max_abs_term"),
    KelvinQuad: ("ber", "bei", "ker", "kei", "nu", "x"),
    OrderDerivQuad: ("dber", "dbei", "dker", "dkei", "nu", "x", "method", "err_estimate",
                     "values"),
    IdentityReport: ("name", "nu", "x", "lhs", "rhs", "abs_diff", "tol", "passed"),
}


def _records():
    """One record of each type, with its field values in field order."""
    q = kelvin_all(0.5, 1.0)
    d = dkelvin(0.5, 1.0)
    return [
        (EvalResult(1 + 2j, 1e-16, 3, True), (1 + 2j, 1e-16, 3, True, (), 0.0)),
        (q, (q.ber, q.bei, q.ker, q.kei, 0.5, 1.0)),
        (d, (d.dber, d.dbei, d.dker, d.dkei, 0.5, 1.0, "series", d.err_estimate, q)),
        (make_report("r", 0.5, 1.0, 1.0, 1.5, 1.0), ("r", 0.5, 1.0, 1.0, 1.5, 0.5, 1.0, True)),
    ]


@pytest.mark.parametrize("rec, want", [pytest.param(r, w, id=type(r).__name__)
                                       for r, w in _records()])
def test_fields_in_order_read_by_attribute_and_frozen(rec, want):
    fields = FIELDS[type(rec)]
    assert tuple(inspect.signature(type(rec)).parameters) == fields
    assert tuple(getattr(rec, f) for f in fields) == want
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
    assert rec._fields == fields and tuple(rec._asdict().values()) == want
    changed = rec._replace(**{fields[0]: "new"})
    assert type(changed) is type(rec) and getattr(changed, fields[0]) == "new"
    assert tuple(getattr(changed, f) for f in fields[1:]) == want[1:]


@pytest.mark.parametrize("nu, x", [(0.5, 1.0), (-2.3, 0.1), (3.0, 8.0), (7.3, 20.0)])
def test_dkelvin_carries_kelvin_all(nu, x):
    assert dkelvin(nu, x).values == kelvin_all(nu, x)


def test_repr_is_frozen():
    assert repr(kelvin_all(0.5, 1.0)) == (
        "KelvinQuad(ber=0.18008160584415706, bei=0.7818372947718869, "
        "ker=-0.1911092250400757, kei=-0.5876768989301994, nu=0.5, x=1.0)")


def test_identity_report_csv_row():
    r = make_report("r", 0.5, 1.0, 1.0, math.inf, 1.0)
    assert r.csv_row() == "r,0.5,1,1,inf,inf,1,0"
