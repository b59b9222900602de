"""Work counts: series summed and quadrature nodes per top-level call.

Every Kelvin value and the order derivative of ber/bei read their series
from ``bessel._ray_sums``, the real-arithmetic kernel of the Kelvin rays,
which sums J_mu, I_mu and their psi-weighted sums at one order in one pass;
dK/dnu is one trapezoidal sum, ``bessel._ray_dk``.  Counting kernel runs and
nodes gives a deterministic measure of the work one call does; a run is
identified by its order, argument and plain sum.
"""

import pytest

import kelvinfn.bessel
import kelvinfn.hyper
from kelvinfn.cli import main
from kelvinfn.hyper import SeriesConfig
from kelvinfn.kelvin import _point, kelvin_all
from kelvinfn.orderderiv import dkelvin
from kelvinfn.verify import run_suites


@pytest.fixture
def series(monkeypatch):
    keys = []
    orig = kelvinfn.bessel._ray_sums

    def counted(mu, x, cfg, psi):
        res = orig(mu, x, cfg, psi)
        keys.append((mu, x, res[0]))
        return res

    monkeypatch.setattr(kelvinfn.bessel, "_ray_sums", counted)
    return keys


def table_row(nu):
    def run():
        assert main(["table", "--nu", repr(nu), "--x", "2"]) == 0
    return run


# (call, kernel runs); the comment gives the sum_series + _psi_sum loops the
# complex-argument series needed for the same call
@pytest.mark.parametrize("call, count", [
    pytest.param(lambda: dkelvin(0.3, 2.0), 2, id="dkelvin(0.3,2)"),      # 6
    pytest.param(table_row(0.5), 2, id="table(0.5,2)"),                  # 6
    pytest.param(table_row(-1.5), 2, id="table(-1.5,2)"),                # 6
    pytest.param(table_row(-3.0), 2, id="table(-3,2)"),                  # 9
    pytest.param(lambda: dkelvin(-3.0000005, 2.0), 2, id="dkelvin(-3.0000005,2)"),
    pytest.param(lambda: dkelvin(5.0, 2.0), 1, id="dkelvin(5,2)"),       # 13
    pytest.param(lambda: kelvin_all(0.0, 2.0), 1, id="kelvin_all(0,2)"),  # 2
])
def test_series_summed_once(series, capsys, call, count):
    call()
    assert len(series) == count
    assert len(set(series)) == len(series)


@pytest.mark.parametrize("nu, count", [(0.3, 2), (2.0, 1)])  # 3, 2
def test_kelvin_all_counts(series, nu, count):
    kelvin_all(nu, 2.0)
    assert len(series) == count


@pytest.mark.parametrize("call", [lambda: kelvin_all(0.3, 2.0), lambda: kelvin_all(3.0, 2.0),
                                  lambda: dkelvin(-2.5, 7.0), lambda: dkelvin(4.0, 7.0),
                                  lambda: run_suites("theorem5")])
def test_kelvin_path_skips_complex_series(monkeypatch, call):
    def refuse(*args, **kwargs):
        raise AssertionError("complex-argument series reached")

    monkeypatch.setattr(kelvinfn.hyper, "sum_series", refuse)
    monkeypatch.setattr(kelvinfn.bessel, "sum_series", refuse)
    monkeypatch.setattr(kelvinfn.bessel, "_psi_sum", refuse)
    call()


def test_dk_quadrature_nodes(monkeypatch):
    """dkelvin(5, 2) reads dK/dnu from one quadrature of 64 nodes."""
    runs = []
    orig = kelvinfn.bessel._ray_dk

    def counted(nu, x, cfg):
        res = orig(nu, x, cfg)
        runs.append((nu, x, res.terms_used))
        return res

    monkeypatch.setattr(kelvinfn.bessel, "_ray_dk", counted)
    dkelvin(5.0, 2.0)
    assert runs == [(5.0, 2.0, 64)]


def test_term_cap_reported_through_the_ray_path():
    p = _point(0.5, 18.0, SeriesConfig(max_terms=4))
    for res in (p.j(0.5), p.i(0.5), p.i(-0.5)):
        assert not res.converged
        assert "no_convergence" in res.flags
    for res in (p.k(0.5), p.dj(0.5), p.dk(0.5), p.k(2.0)):
        assert not res.converged
