"""Work counts: series summed per top-level call.

Every J, I and pFq series goes through ``hyper.sum_series`` (bound in both
``kelvinfn.hyper`` and ``kelvinfn.bessel``).  Counting those calls gives a
deterministic measure of the work one call does; a series is identified by
its first term, its value and its length.
"""

import pytest

import kelvinfn.bessel
import kelvinfn.hyper
from kelvinfn.cli import main
from kelvinfn.kelvin import kelvin_all
from kelvinfn.orderderiv import dkelvin


@pytest.fixture
def series(monkeypatch):
    keys = []
    orig = kelvinfn.hyper.sum_series

    def counted(first_term, ratio, cfg=kelvinfn.hyper.DEFAULT_SERIES):
        res = orig(first_term, ratio, cfg)
        keys.append((complex(first_term), res.value, res.terms_used))
        return res

    monkeypatch.setattr(kelvinfn.hyper, "sum_series", counted)
    monkeypatch.setattr(kelvinfn.bessel, "sum_series", counted)
    return keys


def table_row(nu):
    def run():
        assert main(["table", "--nu", repr(nu), "--x", "2"]) == 0
    return run


# (call, most series it may sum); the comment gives the count before each
# (nu, x) point was evaluated once, then before the order derivatives became
# term-wise and K at integer order exact
@pytest.mark.parametrize("call, most", [
    pytest.param(lambda: dkelvin(0.3, 2.0), 3, id="dkelvin(0.3,2)"),      # 12, 7
    pytest.param(table_row(0.5), 3, id="table(0.5,2)"),                  # 26, 14
    pytest.param(table_row(-1.5), 3, id="table(-1.5,2)"),                # 45, 14
    pytest.param(table_row(-3.0), 4, id="table(-3,2)"),                  # 45, 21
    pytest.param(lambda: dkelvin(5.0, 2.0), 6, id="dkelvin(5,2)"),       # 54, 50
    pytest.param(lambda: kelvin_all(0.0, 2.0), 1, id="kelvin_all(0,2)"),  # 9, 5
])
def test_series_summed_once(series, capsys, call, most):
    call()
    assert len(series) <= most
    assert len(set(series)) == len(series)


@pytest.mark.parametrize("nu, count", [(0.3, 3), (2.0, 1)])
def test_kelvin_all_counts(series, nu, count):
    kelvin_all(nu, 2.0)
    assert len(series) == count
