"""One order, many arguments: the callers that set an order up once and run
it at many x (the batch of a table order, integrands, ODE stencils) return,
bit for bit, what the single-point calls return.  Each order is walked over
x ascending and then descending with one shared set-up, so that nothing an
order keeps can depend on the argument it was first run at."""

import pytest

from kelvinfn.cli import _fmt, _table_rows
from kelvinfn.kelvin import _eval_ber_bei, _eval_ker_kei, kelvin_ber_bei, kelvin_ker_kei
from kelvinfn.orderderiv import _dkelvin_rows, dkelvin

ORDERS = [-10.0, -3.0, -3.0 - 1e-9, -3.0 + 1e-9, -2.5, -0.3, 0.0, 2e-6, 3.0, 3.0 + 5e-7,
          7.75, 10.0]
XS = [0.1, 2.0, 8.0, 20.0]
WALK = XS + XS[::-1]
_FIELDS = ("dber", "dbei", "dker", "dkei", "nu", "x", "err_estimate")
_VALUES = ("ber", "bei", "ker", "kei", "nu", "x")


def bits(*vals) -> tuple:
    return tuple(float(v).hex() for v in vals)


def deriv_bits(d) -> tuple:
    return (bits(*(getattr(d, f) for f in _FIELDS)) + (d.method,)
            + bits(*(getattr(d.values, f) for f in _VALUES)))


@pytest.mark.parametrize("nu", ORDERS)
def test_table_rows_equal_single_points(nu):
    """Every row of one batch, and every CSV row of one table order, is
    dkelvin at its x, estimates included."""
    points = [dkelvin(nu, x) for x in WALK]
    for x, d, line in zip(WALK, points, _table_rows(nu, WALK), strict=True):
        want = [_fmt(nu), _fmt(x)] + [_fmt(v) for v in (
            d.values.ber, d.values.bei, d.values.ker, d.values.kei,
            d.dber, d.dbei, d.dker, d.dkei)] + [d.method]
        assert line.split(",") == want, x
    for x, d, row in zip(WALK, points, _dkelvin_rows(nu, WALK), strict=True):
        want = bits(d.values.ber, d.values.bei, d.values.ker, d.values.kei,
                    d.dber, d.dbei, d.dker, d.dkei, d.err_estimate)
        *vals, est_j, est_k = row
        assert bits(*vals, est_j + est_k) == want, x


@pytest.mark.parametrize("nu", ORDERS)
def test_integrand_ber_bei_equal_single_points(nu):
    orders: dict = {}
    for x in WALK:
        assert bits(*_eval_ber_bei(nu, x, orders)) == \
            bits(*kelvin_ber_bei(nu, x), _eval_ber_bei(nu, x)[2]), x


@pytest.mark.parametrize("nu", ORDERS)
def test_stencil_ker_kei_equal_single_points(nu):
    for x in WALK:
        assert bits(*_eval_ker_kei(nu, x)) == \
            bits(*kelvin_ker_kei(nu, x), _eval_ker_kei(nu, x)[2]), x


def test_node_table_grows_safely_across_threads(monkeypatch):
    """The K sum's node tables are module-level, one per step; threads that
    find one short extend it at once, and each run still reads whole nodes."""
    import sys
    import threading

    import kelvinfn.bessel

    points = [(nu, x) for nu in (0.3, 2.5, 7.75) for x in (1e-5, 0.01, 0.5, 2.0)]
    want = [deriv_bits(dkelvin(nu, x)) for nu, x in points]
    got, errors = [], []

    def work():
        try:
            got.append([deriv_bits(dkelvin(nu, x)) for nu, x in points])
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(kelvinfn.bessel, "_K_NODES", {})
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert got == [want] * 24
