"""One evaluation per (nu, x): dkelvin's values, the table row and the
series shared between the J and K rays agree bit for bit with the separate
evaluations."""

import math

import pytest

from kelvinfn.cli import _fmt, main
from kelvinfn.hyper import pfq
from kelvinfn.kelvin import (ROT_J, ROT_K, _eval_ber_bei, _eval_ker_kei, kelvin_all,
                             kelvin_ber_bei, kelvin_ker_kei)
from kelvinfn.orderderiv import dkelvin

ORDERS = [0.3, 0.5, 3.0, 3.0 + 1e-10, -0.3, -1.5, -3.0]
XS = [0.5, 2.0, 15.0]
_FIELDS = ("ber", "bei", "ker", "kei", "nu", "x")


def bits(q) -> tuple:
    return tuple(float(getattr(q, f)).hex() for f in _FIELDS)


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("nu", ORDERS)
def test_dkelvin_values_equal_kelvin_all(nu, x):
    got = dkelvin(nu, x).values
    want = kelvin_all(nu, x)
    assert got == want
    assert bits(got) == bits(want)


def test_dkelvin_values_equal_kelvin_all_on_the_table_grid():
    """The psi sums that dkelvin adds to each kernel run leave the plain
    sum, and so the values, bit for bit as kelvin_all sums them."""
    for i in range(81):
        nu = -10.0 + 0.25 * i
        for j in range(40):
            x = 0.5 + 0.5 * j
            assert bits(dkelvin(nu, x).values) == bits(kelvin_all(nu, x)), (nu, x)


def test_kelvin_all_equals_the_one_sided_entries():
    """kelvin_all composes the two kernels itself; its values stay those of
    _eval_ber_bei and _eval_ker_kei bit for bit, across Temme's border at
    x = 1.2 and every step band of the K sum."""
    xs = [0.1 * j for j in range(1, 20)] + [0.5 * j for j in range(1, 41)]
    for i in range(81):
        nu = -10.0 + 0.25 * i
        for x in xs:
            q = kelvin_all(nu, x)
            got = tuple(v.hex() for v in (q.ber, q.bei, q.ker, q.kei))
            want = _eval_ber_bei(nu, x)[:2] + _eval_ker_kei(nu, x)[:2]
            assert got == tuple(v.hex() for v in want), (nu, x)
            assert (q.ber, q.bei) == kelvin_ber_bei(nu, x)
            assert (q.ker, q.kei) == kelvin_ker_kei(nu, x)


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("nu", ORDERS)
def test_table_row_cells(capsys, nu, x):
    assert main(["table", "--nu", repr(nu), "--x", repr(x)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    q = kelvin_all(nu, x)
    d = dkelvin(nu, x)
    want = [_fmt(nu), _fmt(x)] + [_fmt(v) for v in (
        q.ber, q.bei, q.ker, q.kei, d.dber, d.dbei, d.dker, d.dkei)] + [d.method]
    assert row == want


def _table_cells_are_dkelvin(capsys, x_range, xs):
    """Every row of the table over nu = -10:10:0.25 and ``x_range`` (the
    points ``xs``) is the f"{v:.17g}" string of dkelvin(nu, x), cell by cell."""
    assert main(["table", "--nu-range=-10:10:0.25", f"--x-range={x_range}"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    points = [(-10.0 + 0.25 * i, x) for i in range(81) for x in xs]
    assert len(rows) == len(points)
    for row, (nu, x) in zip(rows, points):
        d = dkelvin(nu, x)
        q = d.values
        cells = [f"{v:.17g}" for v in (nu, x, q.ber, q.bei, q.ker, q.kei,
                                       d.dber, d.dbei, d.dker, d.dkei)]
        assert row == ",".join(cells + [d.method]), (nu, x)


def test_table_rows_on_the_whole_grid(capsys):
    """x = 0.5:20:0.5, every K start and step band of the envelope."""
    _table_cells_are_dkelvin(capsys, "0.5:20:0.5", [0.5 + 0.5 * j for j in range(40)])


def test_table_rows_across_the_k_start_border(capsys):
    """x = 0.1:2:0.1, where Temme's dK/dnu start hands over to the contour
    sum (x = 0.5) and then Temme's K start (x = 1.2)."""
    _table_cells_are_dkelvin(capsys, "0.1:2:0.1", [0.1 + 0.1 * j for j in range(20)])


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.7, 7.5, 12.0, 15.0, 20.0])
@pytest.mark.parametrize("nu", [0.1, 0.3, 0.7, 1.3, 2.6, 4.4, 6.9, 9.9])
def test_pfq_equal_on_both_rays(nu, x):
    """-zj^2 and zk^2 differ only in the sign of a zero real part, so the
    2F3/3F4 of dJ/dnu and dK/dnu are one series."""
    zj, zk = ROT_J * x, ROT_K * x
    specs = [((nu, nu + 0.5), (nu + 1.0, nu + 1.0, 2.0 * nu + 1.0)),
             ((1.0, 1.0, 1.5), (2.0, 2.0, 2.0 - nu, 2.0 + nu))]
    for upper, lower in specs:
        a = pfq(upper, lower, -zj * zj)
        b = pfq(upper, lower, zk * zk)
        assert a == b
        assert (math.copysign(1.0, a.value.real), math.copysign(1.0, a.value.imag)) == \
            (math.copysign(1.0, b.value.real), math.copysign(1.0, b.value.imag))
