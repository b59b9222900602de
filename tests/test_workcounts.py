"""Work counts: series summed and quadrature nodes per top-level call.

ber/bei and their order derivatives read their series from
``bessel._ray_sums``, the real-arithmetic kernel of the Kelvin rays, which
sums J_mu, I_mu and their psi-weighted sums at one order and one argument
in one pass, run on an order set up once (``bessel._RayOrder``: Gamma and
psi at the anchor).  ker/kei and their order derivatives are one K start
and climb, ``bessel._k_sums``: Temme's series from fixed tables at small
|z|, the trapezoidal sum above, neither with Gamma or psi.  Counting kernel
runs, nodes and Gamma/psi calls gives a deterministic measure of the work
one call does; a series run is identified by its order, argument and plain
sum.  A K sum reads its start (Temme's series or the trapezoidal sum) from
one dict per table or verify suite call, so a call sums fewer starts than
it makes K sums.
"""

import contextlib

import pytest

import kelvinfn.bessel
import kelvinfn.hyper
import kelvinfn.quad
from kelvinfn import manifest as M
from kelvinfn.bessel import _ji, _RayOrder, dj_dnu, dk_dnu
from kelvinfn.cli import main
from kelvinfn.errors import ConvergenceError
from kelvinfn.kelvin import ROT_J, ROT_K, kelvin_all, kelvin_ker_kei
from kelvinfn.orderderiv import _plan_rows, dkelvin, dkelvin_bb_pos, dkelvin_kk_pos
from kelvinfn.quad import apelblat_dber_dbei, theorem5_identities, theorem5_identity
from kelvinfn.verify import run_suites


@pytest.fixture
def series(monkeypatch):
    keys = []
    orig = kelvinfn.bessel._ray_sums

    def counted(o, x, psi):
        res = orig(o, x, psi)
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
    orig = kelvinfn.bessel._k_sums

    def counted(nu, z, dk, starts=None):
        keys.append((nu, z, dk))
        return orig(nu, z, dk, starts)

    monkeypatch.setattr(kelvinfn.bessel, "_k_sums", counted)
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


@pytest.mark.parametrize("nu", [0.3, -1.5, -3.0])
def test_table_order_runs_in_phases(monkeypatch, capsys, nu):
    """The rows of one table order make one series run and one K sum each,
    every series run first and then every K sum, in row order; the row at
    x = 0 makes neither."""
    calls = []
    ray, ks = kelvinfn.bessel._ray_sums, kelvinfn.bessel._k_sums
    monkeypatch.setattr(kelvinfn.bessel, "_ray_sums",
                        lambda o, x, psi: calls.append(("J", x)) or ray(o, x, psi))
    monkeypatch.setattr(kelvinfn.bessel, "_k_sums",
                        lambda m, z, dk, st: calls.append(("K", abs(z))) or ks(m, z, dk, st))
    assert main(["table", "--nu", repr(nu), "--x-range", "0:4:1"]) == 0
    xs = [pytest.approx(x) for x in (1.0, 2.0, 3.0, 4.0)]
    assert calls == [("J", x) for x in xs] + [("K", x) for x in xs]


@pytest.mark.parametrize("nu", [0.3, -1.5, -3.0])
def test_value_batch_runs_in_phases(monkeypatch, nu):
    """A batch of values makes one series run and one K sum per x, every
    series run first and then every K sum, in row order."""
    calls = []
    ray, ks = kelvinfn.bessel._ray_sums, kelvinfn.bessel._k_sums
    monkeypatch.setattr(kelvinfn.bessel, "_ray_sums",
                        lambda o, x, psi: calls.append(("J", x)) or ray(o, x, psi))
    monkeypatch.setattr(kelvinfn.bessel, "_k_sums",
                        lambda m, z, dk, st: calls.append(("K", abs(z))) or ks(m, z, dk, st))
    xs = [1.0, 2.0, 3.0, 4.0]
    assert len(_plan_rows([(nu, False)], xs)[0]) == 4
    assert calls == [("J", x) for x in xs] + [("K", pytest.approx(x)) for x in xs]


@pytest.mark.parametrize("suite", ["fd", "reflection", "integer"])
def test_suites_run_every_series_before_any_k_sum(monkeypatch, suite):
    """fd, reflection and integer run their K sums as one plan
    (``orderderiv._plan_rows``): every series run of the call, integrand nodes
    included, comes before its first K sum."""
    calls = []
    ray, ks = kelvinfn.bessel._ray_sums, kelvinfn.bessel._k_sums
    monkeypatch.setattr(kelvinfn.bessel, "_ray_sums",
                        lambda o, x, psi: calls.append("J") or ray(o, x, psi))
    monkeypatch.setattr(kelvinfn.bessel, "_k_sums",
                        lambda m, z, dk, st: calls.append("K") or ks(m, z, dk, st))
    run_suites(suite)
    first_k = calls.index("K")
    assert "J" in calls[:first_k] and "J" not in calls[first_k:]


@pytest.fixture
def setups(monkeypatch):
    """The orders set up for the series kernels (``bessel._RayOrder``)."""
    mus = []
    init = _RayOrder.__init__

    def counted(self, mu):
        mus.append(mu)
        init(self, mu)

    monkeypatch.setattr(_RayOrder, "__init__", counted)
    return mus


# (suite, order set-ups, series runs, K requests); point by point the suites
# set up 300, 48, 84, 57 and 11 orders for the same kernel runs.  integer
# took 69 set-ups, 84 runs and 84 K requests with a batch of one per finite
# sum's order and x, and 11, 44 and 44 with a value entry at every order
# 0..5 besides its derivative entries.  apelblat made 9 K requests, which
# no row read, when its derivative rows were a plan
@pytest.mark.parametrize("suite, orders, runs, ks", [
    ("fd", 60, 300, 300), ("reflection", 12, 48, 48), ("integer", 6, 24, 24),
    ("apelblat", 27, 421, 0), ("appendix", 7, 11, 0)])
def test_suites_set_up_each_order_once(setups, series, ksums, suite, orders, runs, ks):
    """fd and reflection, and the derivative rows of integer, run each order
    as one batch over its x grid, and integer's finite sums read the values
    at 0..5 from its derivative rows at 0, 1, 2, 3 and 5 and from one value
    batch at 4; apelblat and appendix share one set-up per order, and sum
    no K."""
    run_suites(suite)
    assert (len(setups), len(series), len(ksums)) == (orders, runs, ks)


@pytest.fixture
def kstarts(monkeypatch):
    """The K starts summed, by route (one ``_gamma12`` per start on Temme's
    series, one ``_k_nodes`` per start on the trapezoidal sum), and every
    dict of starts passed to ``_k_sums``, by id."""
    routes, dicts = [], {}
    for name, route in (("_gamma12", "temme"), ("_k_nodes", "sum")):
        orig = getattr(kelvinfn.bessel, name)

        def counted(*args, orig=orig, route=route):
            routes.append(route)
            return orig(*args)

        monkeypatch.setattr(kelvinfn.bessel, name, counted)
    orig_k = kelvinfn.bessel._k_sums

    def recorded(nu, z, dk, starts=None):
        if starts is not None:
            dicts[id(starts)] = starts
        return orig_k(nu, z, dk, starts)

    monkeypatch.setattr(kelvinfn.bessel, "_k_sums", recorded)
    return routes, dicts


def _kept(dicts) -> list:
    """The keys (start order, argument, route) of the starts of every dict
    of starts, less the request results it also keeps (keyed (nu, z, dk))."""
    return [key for d in dicts.values() for key in d if isinstance(key[2], str)]


# (suite, K sums, K starts, distinct (start order, argument)); one start per
# K sum before.  fd and integer ask for dK/dnu at x = 1, between Temme's
# borders, where K starts on Temme's series and dK/dnu on the sum, so a
# fractional part takes two starts there: 6 more in fd (at the same order
# but for 0.75, whose Temme start is at -0.25), 1 in integer
@pytest.mark.parametrize("suite, ks, starts, distinct", [
    ("fd", 300, 156, 151), ("reflection", 48, 4, 4), ("integer", 24, 5, 4),
    ("ode", 60, 45, 45)])
def test_suites_share_k_starts(ksums, kstarts, suite, ks, starts, distinct):
    """One dict of K starts per suite call: fd's -nu rows and finite
    differences read the starts of +nu, reflection and integer one start
    per x, ode one per fractional part and stencil point.  Each start is
    summed once and kept once."""
    run_suites(suite)
    routes, dicts = kstarts
    kept = _kept(dicts)
    assert (len(ksums), len(routes), len(kept), len(dicts)) == (ks, starts, starts, 1)
    assert len({(m, z) for m, z, _ in kept}) == distinct


@pytest.fixture
def kresults(monkeypatch):
    """The result of every K request, kept so that no two share an id."""
    results = []
    orig = kelvinfn.bessel._k_sums

    def recorded(nu, z, dk, starts=None):
        results.append(orig(nu, z, dk, starts))
        return results[-1]

    monkeypatch.setattr(kelvinfn.bessel, "_k_sums", recorded)
    return results


def _summed(results) -> int:
    """The K requests that summed their K: a repeat returns the K of the
    request it repeats, the same tuple."""
    return len({id(k) for k, _ in results})


# (suite, K requests, K requests summed); one summed per request before.
# integer made 44 requests with a value entry at every order 0..5, 20 of
# them repeats of its derivative entries' requests
@pytest.mark.parametrize("suite, requests, summed", [
    ("fd", 300, 150), ("reflection", 48, 24), ("integer", 24, 24), ("ode", 60, 60)])
def test_suites_answer_each_k_request_once(kresults, suite, requests, summed):
    """A K request repeated within one suite call (the same |nu| and x)
    returns the result of the first: fd's -nu rows and finite differences,
    and reflection's -n rows.  integer repeats none: its derivative rows
    give the values at their orders."""
    run_suites(suite)
    assert (len(kresults), _summed(kresults)) == (requests, summed)


def test_table_answers_each_k_request_once(kresults, capsys):
    """The whole-grid table sums K once per |nu| and x: 41 of 81 orders."""
    assert main(["table", "--nu-range=-10:10:0.25", "--x-range=1:20:1"]) == 0
    assert (len(kresults), _summed(kresults)) == (1620, 820)


def test_table_shares_k_starts(ksums, kstarts, capsys):
    """The whole-grid table, 81 orders x 20 values of x: 1620 K sums from
    84 starts, 4 fractional parts x 20 x and the 4 Temme starts of K at
    x = 1, where dK/dnu starts on the sum."""
    assert main(["table", "--nu-range=-10:10:0.25", "--x-range=1:20:1"]) == 0
    routes, dicts = kstarts
    kept = _kept(dicts)
    assert (len(ksums), len(routes), len(kept), len(dicts)) == (1620, 84, 84, 1)
    assert sorted(r for _, z, r in kept if z == ROT_K) == ["sum"] * 4 + ["temme"] * 4


def test_one_order_table_keeps_no_starts(ksums, kstarts, capsys):
    """A table of one order has no start to share, its x being distinct: it
    keeps no dict, and sums one start per K sum and the Temme start of K at
    x = 1."""
    assert main(["table", "--nu", "2.5", "--x-range=1:20:1"]) == 0
    routes, dicts = kstarts
    assert (len(ksums), len(routes), len(dicts)) == (20, 21, 0)


@pytest.mark.parametrize("nu, count", [(0.3, 1), (2.0, 1),  # 3, 2
                                       (-3.0, 1)])
def test_kelvin_all_counts(series, ksums, nu, count):
    kelvin_all(nu, 2.0)
    assert len(series) == count
    assert ksums == [(abs(nu), ROT_K * 2.0, False)]


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
    series, or K at a general z beyond the one K sum."""
    def refuse(*args, **kwargs):
        raise AssertionError("complex-argument route reached")

    monkeypatch.setattr(kelvinfn.hyper, "sum_series", refuse)
    for name in ("sum_series", "_z_sums", "_ji", "bessel_k", "_k"):
        monkeypatch.setattr(kelvinfn.bessel, name, refuse)
    call()


def test_dk_quadrature_nodes(monkeypatch):
    """dkelvin(5, 2) reads K and dK/dnu from one quadrature at mu = 0,
    climbed to the order: K stops after 18 nodes (step 0.225 at |z| = 2 on
    the bent contour), and dK/dnu, whose start sums vanish at mu = 0, with
    it.  On the real t axis the sum took 34 at step 0.12, and the one-order
    sum at 5 took 62 and 64 at step 0.07."""
    runs = []
    orig = kelvinfn.bessel._k_sums

    def counted(nu, z, dk, starts):
        k, d = orig(nu, z, dk, starts)
        runs.append((nu, z, k[2], d[2]))  # (value, estimate, nodes, converged, scale)
        return k, d

    monkeypatch.setattr(kelvinfn.bessel, "_k_sums", counted)
    dkelvin(5.0, 2.0)
    assert runs == [(5.0, ROT_K * 2.0, 18, 18)]


# on the real t axis the sums took 38/40, 36/36, 30/30, 26/28 and 24/24
# nodes (K/dK/dnu)
@pytest.mark.parametrize("x, nodes", [(1.3, 20), (2.0, 18), (5.0, 16), (10.0, 12), (20.0, 12)])
def test_k_sum_nodes_on_the_ray(x, nodes):
    """One K sum, and one K + dK/dnu sum, at order 2.3 on the Kelvin ray
    above Temme's borders: the nodes of the bent contour, about half those
    of the sum on the real t axis.  K stops at the same node, with the same
    bits, with or without dK/dnu."""
    k = kelvinfn.bessel._k_sums(2.3, ROT_K * x, False)[0]
    kd, dk = kelvinfn.bessel._k_sums(2.3, ROT_K * x, True)
    assert (k[2], kd[2], dk[2]) == (nodes, nodes, nodes)
    assert k[0] == kd[0]


_BORDER = kelvinfn.bessel.TEMME_MAX_ARG - 1e-9
_DK_BORDER = kelvinfn.bessel.TEMME_DK_MAX_ARG - 1e-9


@pytest.mark.parametrize("nu, x, terms, dterms", [
    (0.3, 0.1, 6, 6), (2.7, 0.1, 6, 7), (5.0, 0.1, 6, 6),
    (0.3, _DK_BORDER, 9, 9), (2.7, _DK_BORDER, 9, 9), (5.0, _DK_BORDER, 9, 8),
    (0.3, _BORDER, 11, 20), (2.7, _BORDER, 11, 20), (5.0, _BORDER, 11, 20)])
def test_temme_terms(nu, x, terms, dterms):
    """One K start by Temme's series takes 6 terms at x = 0.1, 9 just below
    |z| = 0.5 and 11 just below its border |z| = 1.2, with or without
    dK/dnu, where the trapezoidal sum on the real t axis took 60, 46-48 and
    40 nodes; dK/dnu goes on to its own rule, and above |z| = 0.5 to the
    trapezoidal sum, which takes 20 nodes just below 1.2 (40 on the real t
    axis)."""
    k, dk = kelvinfn.bessel._k_sums(nu, ROT_K * x, True)
    assert (kelvinfn.bessel._k_sums(nu, ROT_K * x, False)[0][2], k[2], dk[2]) == \
        (terms, terms, dterms)


def test_term_cap_reported_through_the_ray_path(monkeypatch):
    monkeypatch.setattr(kelvinfn.hyper, "MAX_TERMS", 4)
    for res in (_ji(0.5, ROT_J * 18.0, -1.0)[0], _ji(0.5, ROT_K * 18.0, 1.0)[0],
                _ji(-0.5, ROT_K * 18.0, 1.0)[0]):
        assert not res.converged
        assert "no_convergence" in res.flags
    # the psi sums of dJ/dnu, K and dK/dnu at 0.5, and K at 2
    psi = kelvinfn.bessel._ray_sums(_RayOrder(0.5), 18.0, True)[5]
    k, dk = kelvinfn.bessel._k_sums(0.5, ROT_K * 18.0, True)
    k2 = kelvinfn.bessel._k_sums(2.0, ROT_K * 18.0, False)[0]
    assert not (psi[4] or k[3] or dk[3] or k2[3])


@pytest.mark.parametrize("call, rays, ks", [
    pytest.param(lambda: dj_dnu(0.3, 2.0 - 1.0j), 0, 0, id="dj_dnu"),
    pytest.param(lambda: dk_dnu(0.3, 2.0 - 1.0j), 0, 0, id="dk_dnu"),
    pytest.param(lambda: dj_dnu(0.3, ROT_J * 2.0), 0, 0, id="dj_dnu-ray"),
    pytest.param(lambda: dkelvin_bb_pos(0.3, 2.0), 1, 0, id="dkelvin_bb_pos"),
    pytest.param(lambda: dkelvin_kk_pos(0.3, 2.0), 0, 1, id="dkelvin_kk_pos"),
])
def test_closed_form_routes(series, ksums, monkeypatch, call, rays, ks):
    """The closed forms read J and I at +-nu from one run of the general-z
    series each (``bessel._z_sums``), on the Kelvin rays as elsewhere;
    ``dkelvin_bb_pos`` takes ber/bei from one run of the ray series and
    ``dkelvin_kk_pos`` ker/kei from one K sum."""
    orders = []
    orig = kelvinfn.bessel._z_sums

    def counted(o, z, sign, psi):
        orders.append(o.mu)
        return orig(o, z, sign, psi)

    monkeypatch.setattr(kelvinfn.bessel, "_z_sums", counted)
    call()
    assert sorted(orders) == [-0.3, 0.3]
    assert (len(series), len(ksums)) == (rays, ks)


def _counts(calls):
    return calls.count("gamma_real"), calls.count("digamma_real")


@pytest.mark.parametrize("xs", ["1:20:1", "1:5:1", "3", "0.1:2:0.1"])
def test_table_sets_up_each_order_once(anchors, capsys, xs):
    """One Gamma and one psi for the series of 2.3 and its psi sums,
    however many rows share the order; K needs neither, on either start."""
    assert main(["table", "--nu", "2.3", "--x-range", xs]) == 0
    assert _counts(anchors) == (1, 1)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_theorem5_sets_up_each_order_once(anchors, monkeypatch, tol):
    """The integrand's order 0.5 takes one Gamma for all its nodes; order
    1.5 of the closed form one Gamma and one psi, whatever the node count."""
    monkeypatch.setattr(kelvinfn.quad, "TOL", tol)
    theorem5_identity(0.5, 2.0, "ber")
    assert _counts(anchors) == (2, 1)


def test_theorem5_pair_in_one_pass(series, integrals):
    """Both theorem5 rows at (0.5, 2) come from one tanh-sinh pass over
    ber + i bei: each of its 41 nodes runs the series of order 0.5 once,
    and the closed form runs order 1.5 once, with its psi sums.  The GK15
    pass on the seven panels of the e^(-v) map took 99 runs."""
    ber, bei = theorem5_identities(0.5, 2.0)
    assert (ber.name, bei.name) == ("theorem5_ber", "theorem5_bei")
    mus = [mu for mu, _, _ in series]
    assert [r.terms_used for r in integrals] == [41]
    assert (mus.count(0.5), mus.count(1.5), len(mus)) == (41, 1, 42)


def test_apelblat_derivatives_in_one_pass(series, integrals):
    """apelblat_dber_dbei(0.5, 1) runs the bracket's series of order -0.5
    once at 44 of the 46 nodes of its pass (at the 2 nodes below y = 1e-8
    the second series term stands in), and order 0.5 once for the values.
    The GK15 pass on the seven panels of the e^(-v) map took 99 runs."""
    apelblat_dber_dbei(0.5, 1.0)
    mus = [mu for mu, _, _ in series]
    assert [r.terms_used for r in integrals] == [46]
    assert (mus.count(-0.5), mus.count(0.5), len(mus)) == (44, 1, 45)


def test_log_weighted_panels(integrals):
    """The integrand evaluations of the theorem5 suite and the Apelblat
    derivative grid, 24 integrals: 965, against 2550 (170 GK15 panels) when
    the log-weighted integrals ran over v = -log(1-u) on dyadic panels."""
    run_suites("theorem5")
    for nu in M.APELBLAT_D_NU:
        for x in M.APELBLAT_D_X:
            apelblat_dber_dbei(nu, x)
    assert len(integrals) == 24 and all(r.converged for r in integrals)
    assert sum(r.terms_used for r in integrals) == 965


@pytest.mark.parametrize("nu", [-0.5, 0.3, 1.0, 5.0, 7.5])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 8.0])
def test_seeded_start_off_the_grid(monkeypatch, integrals, nu, x):
    """Off the manifest grid the log-weighted integrals over [0, 1] (theorem
    5 and the Apelblat order derivatives) converge and agree within twice
    the error target with the deepest level, MAX_DEPTH halvings, that a
    target of 0 runs to."""

    def run():
        integrals.clear()
        theorem5_identities(nu, x)
        if nu >= 0.0:
            with contextlib.suppress(ConvergenceError):
                apelblat_dber_dbei(nu, x)
        return list(integrals)

    first = run()
    tol = kelvinfn.quad.TOL
    monkeypatch.setattr(kelvinfn.quad, "TOL", 0.0)
    deep = run()
    assert len(first) == len(deep) == (1 if nu < 0.0 else 2)
    for s, o in zip(first, deep):
        assert s.converged
        assert abs(s.value - o.value) <= 2.0 * max(tol, tol * abs(s.value))
