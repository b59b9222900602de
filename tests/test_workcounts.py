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
import kelvinfn.quad
from kelvinfn import manifest as M
from kelvinfn.bessel import _RayOrder
from kelvinfn.cli import main
from kelvinfn.hyper import SeriesConfig
from kelvinfn.kelvin import kelvin_all, kelvin_ker_kei
from kelvinfn.orderderiv import _ray_reader, dkelvin
from kelvinfn.quad import (DEFAULT_QUAD, QuadConfig, apelblat_dber_dbei,
                           theorem5_identities, theorem5_identity)
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


# (call, series runs); the comment gives the sum_series + psi-sum loops the
# complex-argument series once needed for the same call.  Every call makes
# one K sum besides, and calls both kernels directly.
@pytest.mark.parametrize("call, count", [
    pytest.param(lambda: dkelvin(0.3, 2.0), 1, id="dkelvin(0.3,2)"),      # 6
    pytest.param(table_row(0.5), 1, id="table(0.5,2)"),                  # 6
    pytest.param(table_row(-1.5), 1, id="table(-1.5,2)"),                # 6
    pytest.param(table_row(-3.0), 1, id="table(-3,2)"),                  # 9
    pytest.param(lambda: dkelvin(-3.0000005, 2.0), 1, id="dkelvin(-3.0000005,2)"),
    pytest.param(lambda: dkelvin(5.0, 2.0), 1, id="dkelvin(5,2)"),       # 13
    pytest.param(lambda: kelvin_all(0.0, 2.0), 1, id="kelvin_all(0,2)"),  # 2
])
def test_series_summed_once(series, ksums, capsys, call, count):
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
    for name in ("sum_series", "_z_sums", "bessel_k", "_k_connection", "_k_limit"):
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
    cfg = SeriesConfig(max_terms=4)
    for res in (_ray_reader(18.0, cfg, -0.25)(0.5), _ray_reader(18.0, cfg, 0.25)(0.5),
                _ray_reader(18.0, cfg, 0.25)(-0.5)):
        assert not res.converged
        assert "no_convergence" in res.flags
    # the psi sums of dJ/dnu, K and dK/dnu at 0.5, and K at 2
    psi = kelvinfn.bessel._ray_sums(_RayOrder(0.5), 18.0, cfg, True)[5]
    k, dk = kelvinfn.bessel._ray_k(0.5, 18.0, cfg, True)
    k2 = kelvinfn.bessel._ray_k(2.0, 18.0, cfg, False)[0]
    assert not (psi[4] or k[3] or dk[3] or k2[3])


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
    ber + i bei, started on the seven panels of ``quad._V_EDGES``: each of
    its 99 nodes runs the series of order 0.5 once (the 6 nodes past
    v ~ 37, where 1 - e^(-v) rounds to 1, run none), and the closed form
    runs order 1.5 once, with its psi sums.  Started on the one panel
    [0, 45] the pass took 185 runs."""
    ber, bei = theorem5_identities(0.5, 2.0)
    assert (ber.name, bei.name) == ("theorem5_ber", "theorem5_bei")
    mus = [mu for mu, _, _ in series]
    assert (mus.count(0.5), mus.count(1.5), len(mus)) == (99, 1, 100)


def test_apelblat_derivatives_in_one_pass(series):
    """apelblat_dber_dbei(0.5, 1) runs the bracket's series of order -0.5
    once at each of the 99 nodes of its seven starting panels, and order 0.5
    once for the values.  Started on [0, 45], with the first series term
    left in the integrand (u = w^4), it took 245 runs."""
    apelblat_dber_dbei(0.5, 1.0)
    mus = [mu for mu, _, _ in series]
    assert (mus.count(-0.5), mus.count(0.5), len(mus)) == (99, 1, 100)


def test_log_weighted_panels(monkeypatch):
    """The GK15 panels of the theorem5 suite and the Apelblat derivative
    grid: 170, against 308 when both e^(-v) integrals started on the one
    panel [0, 45] and the derivative integrand kept its first series term."""
    panels = []
    orig = kelvinfn.quad._gk15

    def counted(f, a, b):
        panels.append((a, b))
        return orig(f, a, b)

    monkeypatch.setattr(kelvinfn.quad, "_gk15", counted)
    run_suites("theorem5")
    for nu in M.APELBLAT_D_NU:
        for x in M.APELBLAT_D_X:
            apelblat_dber_dbei(nu, x)
    assert len(panels) == 170
    assert len(panels) <= 0.65 * 308


@pytest.mark.parametrize("nu", [-0.5, 0.3, 1.0, 5.0, 7.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 8.0])
def test_seeded_start_off_the_grid(monkeypatch, nu, x):
    """Off the manifest grid the e^(-v) integrals started on
    ``quad._V_EDGES`` converge and agree with the one-panel start within
    twice the error target."""
    runs = []
    orig = kelvinfn.quad._integrate_panels

    def recorded(f, edges, cfg):
        res = orig(f, edges, cfg)
        runs.append(res)
        return res

    monkeypatch.setattr(kelvinfn.quad, "_integrate_panels", recorded)

    def integrals():
        runs.clear()
        theorem5_identities(nu, x)
        if nu >= 0.0:
            apelblat_dber_dbei(nu, x)
        return list(runs)

    seeded = integrals()
    monkeypatch.setattr(kelvinfn.quad, "_V_EDGES", (0.0, 45.0))
    single = integrals()
    assert len(seeded) == len(single) == (1 if nu < 0.0 else 2)
    cfg = DEFAULT_QUAD
    for s, o in zip(seeded, single):
        assert s.converged
        assert abs(s.value - o.value) <= 2.0 * max(cfg.abs_tol, cfg.rel_tol * abs(s.value))
