"""Work counts: series summed and quadrature nodes per top-level call.

ber/bei and their order derivatives read their series from
``bessel._ray_sums``, the real-arithmetic kernel of the Kelvin rays, which
sums J_mu, I_mu and their psi-weighted sums at one order and one argument
in one pass, run on an order set up once (``bessel._RayOrder``: Gamma and
psi at the anchor).  ker/kei and their order derivatives are one
trapezoidal sum, ``bessel._ray_k``, which needs no series.  Counting kernel
runs, nodes and Gamma/psi calls gives a deterministic measure of the work
one call does; a series run is identified by its order, argument and plain
sum.
"""

import pytest

import kelvinfn.bessel
import kelvinfn.hyper
from kelvinfn.cli import main
from kelvinfn.hyper import SeriesConfig
from kelvinfn.kelvin import _point, kelvin_all, kelvin_ker_kei
from kelvinfn.orderderiv import dkelvin
from kelvinfn.quad import QuadConfig, theorem5_identities, theorem5_identity
from kelvinfn.verify import run_suites


@pytest.fixture
def series(monkeypatch):
    keys = []
    orig = kelvinfn.bessel._ray_sums

    def counted(o, x, cfg, psi):
        res = orig(o, x, cfg, psi)
        keys.append((o.mu, x, res[0]))
        return res

    monkeypatch.setattr(kelvinfn.bessel, "_ray_sums", counted)
    return keys


@pytest.fixture
def anchors(monkeypatch):
    """Gamma and psi calls of the Kelvin-ray orders, by name."""
    calls = []
    for name in ("gamma_real", "digamma_real"):
        orig = getattr(kelvinfn.bessel, name)

        def counted(a, orig=orig, name=name):
            calls.append(name)
            return orig(a)

        monkeypatch.setattr(kelvinfn.bessel, name, counted)
    return calls


def table_row(nu):
    def run():
        assert main(["table", "--nu", repr(nu), "--x", "2"]) == 0
    return run


@pytest.fixture
def ksums(monkeypatch):
    """The K sums, as (order, argument, dK/dnu asked for)."""
    keys = []
    orig = kelvinfn.bessel._ray_k

    def counted(nu, x, cfg, dk):
        keys.append((nu, x, dk))
        return orig(nu, x, cfg, dk)

    monkeypatch.setattr(kelvinfn.bessel, "_ray_k", counted)
    return keys


# (call, series runs); the comment gives the sum_series + _psi_sum loops the
# complex-argument series needed for the same call.  Every call makes one K
# sum besides, and calls both kernels directly: no series holder
# (``bessel._RayPoint``) between.
@pytest.mark.parametrize("call, count", [
    pytest.param(lambda: dkelvin(0.3, 2.0), 1, id="dkelvin(0.3,2)"),      # 6
    pytest.param(table_row(0.5), 1, id="table(0.5,2)"),                  # 6
    pytest.param(table_row(-1.5), 1, id="table(-1.5,2)"),                # 6
    pytest.param(table_row(-3.0), 1, id="table(-3,2)"),                  # 9
    pytest.param(lambda: dkelvin(-3.0000005, 2.0), 1, id="dkelvin(-3.0000005,2)"),
    pytest.param(lambda: dkelvin(5.0, 2.0), 1, id="dkelvin(5,2)"),       # 13
    pytest.param(lambda: kelvin_all(0.0, 2.0), 1, id="kelvin_all(0,2)"),  # 2
])
def test_series_summed_once(monkeypatch, series, ksums, capsys, call, count):
    def refuse(*args, **kwargs):
        raise AssertionError("a _RayPoint was built")

    monkeypatch.setattr(kelvinfn.bessel._RayPoint, "__init__", refuse)
    call()
    assert len(series) == count
    assert len(set(series)) == len(series)
    assert len(ksums) == 1


@pytest.mark.parametrize("nu, count", [(0.3, 1), (2.0, 1),  # 3, 2
                                       (-3.0, 1)])
def test_kelvin_all_counts(series, ksums, nu, count):
    kelvin_all(nu, 2.0)
    assert len(series) == count
    assert ksums == [(abs(nu), 2.0, False)]


@pytest.mark.parametrize("call", [lambda: kelvin_all(0.3, 2.0), lambda: kelvin_all(3.0, 2.0),
                                  lambda: dkelvin(-2.5, 7.0), lambda: dkelvin(4.0, 7.0),
                                  lambda: run_suites("theorem5"),
                                  lambda: kelvin_all(-3.0, 2.0), lambda: kelvin_all(3.0000005, 8.0),
                                  lambda: kelvin_ker_kei(0.0, 2.0),
                                  lambda: kelvin_ker_kei(-3.000002, 8.0),
                                  lambda: dkelvin(3.000002, 8.0), lambda: dkelvin(-3.0, 0.5),
                                  table_row(2.0), table_row(-0.5)])
def test_kelvin_path_skips_complex_series(monkeypatch, capsys, call):
    """No Kelvin value or order derivative reaches the complex-argument
    series or any of the routes of K at a general z."""
    def refuse(*args, **kwargs):
        raise AssertionError("complex-argument route reached")

    monkeypatch.setattr(kelvinfn.hyper, "sum_series", refuse)
    for name in ("sum_series", "_psi_sum", "_bessel_k", "_k_connection", "_k_integer"):
        monkeypatch.setattr(kelvinfn.bessel, name, refuse)
    call()


def test_dk_quadrature_nodes(monkeypatch):
    """dkelvin(5, 2) reads K and dK/dnu from one quadrature: K stops after
    62 nodes, dK/dnu goes on to 64."""
    runs = []
    orig = kelvinfn.bessel._ray_k

    def counted(nu, x, cfg, dk):
        k, d = orig(nu, x, cfg, dk)
        runs.append((nu, x, k[2], d[2]))  # (value, estimate, nodes, converged)
        return k, d

    monkeypatch.setattr(kelvinfn.bessel, "_ray_k", counted)
    dkelvin(5.0, 2.0)
    assert runs == [(5.0, 2.0, 62, 64)]


def test_term_cap_reported_through_the_ray_path():
    p = _point(0.5, 18.0, SeriesConfig(max_terms=4))
    for res in (p.j(0.5), p.i(0.5), p.i(-0.5)):
        assert not res.converged
        assert "no_convergence" in res.flags
    for res in (p.k(0.5), p.dj(0.5), p.dk(0.5), p.k(2.0)):
        assert not res.converged


def _counts(calls):
    return calls.count("gamma_real"), calls.count("digamma_real")


@pytest.mark.parametrize("xs", ["1:20:1", "1:5:1", "3"])
def test_table_sets_up_each_order_once(anchors, capsys, xs):
    """One Gamma and one psi for the series of 2.3 and its psi sums,
    however many rows share the order; K needs neither."""
    assert main(["table", "--nu", "2.3", "--x-range", xs]) == 0
    assert _counts(anchors) == (1, 1)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_theorem5_sets_up_each_order_once(anchors, tol):
    """The integrand's order 0.5 takes one Gamma for all its nodes; order
    1.5 of the closed form one Gamma and one psi, whatever the node count."""
    cfg = QuadConfig(abs_tol=tol, rel_tol=tol)
    theorem5_identity(0.5, 2.0, "ber", cfg)
    assert _counts(anchors) == (2, 1)


def test_theorem5_pair_in_one_pass(series):
    """Both theorem5 rows at (0.5, 2) come from one adaptive pass over
    ber + i bei: each of its 185 nodes runs the series of order 0.5 once,
    and the closed form runs order 1.5 once, with its psi sums."""
    ber, bei = theorem5_identities(0.5, 2.0)
    assert (ber.name, bei.name) == ("theorem5_ber", "theorem5_bei")
    mus = [mu for mu, _, _ in series]
    assert (mus.count(0.5), mus.count(1.5), len(mus)) == (185, 1, 186)
