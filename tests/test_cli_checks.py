"""The checks of the command line and of the public functions' edges, as one
script that needs only the standard library and kelvinfn:

    PYTHONPATH=src python -S tests/test_cli_checks.py

runs each check, prints what it saw and exits 1 if any fails; pytest
collects the same checks as tests.  Each command runs ``kelvinfn.cli.main``
in process, under a deadline (SIGALRM where it exists, and the clock
everywhere); one ``python -m kelvinfn`` subprocess covers the module entry.
"""

import argparse
import cmath
import contextlib
import hashlib
import importlib
import inspect
import io
import math
import os
import re
import signal
import subprocess
import sys
import time

import kelvinfn
from kelvinfn import cli
from kelvinfn.errors import KelvinError
from kelvinfn.hyper import EvalResult
from kelvinfn.kelvin import KelvinQuad
from kelvinfn.orderderiv import OrderDerivQuad

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_SECONDS = 10.0  # the bound of each command
EDGE_SECONDS = 1.0  # the bound of each call of the edge sweep

# every row of the 8 suites, and each suite alone with its own row count, so
# that a suite whose batches drop or repeat rows fails by name; the suites in
# the order of ``verify --suite all``
SUITE_ROWS = {"all": 603, "fd": 240, "reflection": 96, "ode": 24, "apelblat": 78,
              "theorem5": 30, "appendix": 23, "brychkov": 32, "integer": 80}
# (orders, x, rows): negative integers, half-integers and quarter orders; x
# across |z| = 0.5 and 1.2, where Temme's series hands dK/dnu and then K to
# the trapezoidal sum; x past the envelope to K_MAX_ARG = 30; orders 15 to 40,
# which the K sum reaches by its recurrence
TABLE_GRIDS = [("-10:10:0.25", "1:20:1", 1620), ("-10:10:0.25", "0.1:2:0.1", 1620),
               ("-10:10:0.5", "20:30:0.5", 861), ("15:40:5", "1:20:1", 120)]
_TOO_MANY = f"table: --x-range: more than {cli.MAX_RANGE_POINTS} points"
_TOO_MANY_ROWS = f"table: a grid of 2001000 rows, more than {cli.MAX_RANGE_POINTS}"
# (command, a line its stderr starts with): each exits 2 with a typed error
TYPED_ERRORS = [
    # x/2 underflowing to 0, an argument past the K sum's bound, (x/2)^nu
    # past the double range
    ("eval dber --nu 0 --x 5e-324", "eval: [A-Za-z]+Error: "),
    ("eval ber --nu -2 --x 5e-324", "eval: [A-Za-z]+Error: "),
    ("eval ker --nu 0 --x 5e-324", "eval: [A-Za-z]+Error: "),
    ("eval ker --nu 0 --x 40", "eval: [A-Za-z]+Error: "),
    ("eval ber --nu 1000 --x 20", "eval: [A-Za-z]+Error: "),
    ("eval ker --nu 200 --x 1e-3", "eval: [A-Za-z]+Error: "),
    # K climbed past the double range where (|z|/2)^-nu cannot overflow
    ("eval kei --nu 1e8 --x 5", "eval: SeriesOverflowError: "),
    ("eval kei --nu 1e17 --x 5", "eval: SeriesOverflowError: "),
    # ber past x ~ 127, where the series' estimate exceeds the value
    ("eval ber --nu 0 --x 150", "eval: ConvergenceError: "),
    # K past the K sum's bound, whose start underflows to 0: ker has no bound
    ("eval ker --nu 1e7 --x 1e300", "eval: ConvergenceError: "),
    ("eval ker --nu 1e17 --x 1e300", "eval: ConvergenceError: "),
    # the error of the first failing row, in row order
    ("table --nu 0 --x-range=40:1040:1000", "table: ConvergenceError: "),
    ("table --nu 0 --x-range=-1:1:1", "table: DomainError: "),
    ("table --nu-range=-200:0:200 --x-range=1e-3:1:0.5", "table: PowerOverflowError: "),
    # a range that is not finite, or holds too many points, names its flag
    ("table --nu-range=0:inf:1 --x 1", "table: --nu-range: need finite a, b and step"),
    ("table --nu 0 --x-range=1:2:inf", "table: --x-range: need finite a, b and step"),
    ("table --nu 0 --x-range=nan:2:1", "table: --x-range: need finite a, b and step"),
    ("table --nu 0 --x-range=0:1:1e-300", _TOO_MANY),
    ("table --nu 0 --x-range=1:1e300:1e-300", _TOO_MANY),
    # a grid of more rows than one range may hold points, refused before any
    # kernel runs, though each axis is within the limit
    ("table --nu-range=-10:10:0.01 --x-range=0.02:20:0.02", _TOO_MANY_ROWS),
    # an --out path that is a directory, or in a missing directory: named,
    # and not taken for a failed identity (exit 1)
    *[(f"{command} --out {path}", f"{command.split()[0]}: {error}: ")
      for command in ("eval ber --nu 0 --x 1", "table --nu 0 --x 1", "verify --suite brychkov")
      for path, error in ((".", "(IsADirectory|Permission)Error"),
                          ("kelvinfn-no-such-dir/out.csv", "FileNotFoundError"))],
]
# each subcommand's options, its positional FN included, each as its spellings
# joined by '/': one more fails by name
OPTIONS = {"eval": {"FN", "--nu", "--x", "--format", "--out"},
           "table": {"--nu-range/--nu", "--x-range/--x", "--out"},
           "verify": {"--suite", "--format", "--out"}}
# each public function's parameters, in order: one more fails by name.  The
# optional ones are appendix_ber_bei's variant, whose two values verify
# checks against each other, and indefinite_integral_check's tol, which
# verify sets from the manifest's two values (1e-9 and 1e-10)
SIGNATURES = {
    **dict.fromkeys(["kelvin_all", "kelvin_ber_bei", "kelvin_ker_kei", "dkelvin",
                     "dkelvin_bb_neg", "dkelvin_kk_neg", "apelblat_ber_bei",
                     "apelblat_dber_dbei"], ("nu", "x")),
    **dict.fromkeys(["bessel_j", "bessel_i", "bessel_k", "dj_dnu_any", "dk_dnu_any"],
                    ("nu", "z")),
    **dict.fromkeys(["gamma_real", "digamma_real"], ("x",)),
    "appendix_ber_bei": ("x", "variant"),
    "convolution_identity": ("a", "b", "t"),
    "theorem5_identities": ("nu", "x"),
    "indefinite_integral_check": ("nu", "x", "tol"),
    "theorem5_identity": ("nu", "x", "f"),
    "integrate_finite": ("f", "a", "b"),
    "integrate_semiinf": ("f",),
    "run_suites": ("name",),
}
# the md5 of each command's stdout: a change to any digit of the output
# fails here, and one that is meant updates the pin and says why
OUTPUT_MD5 = {
    "verify --suite all": "24245a249925718ea28b0395d429e7bc",
    "table --nu-range=-10:10:0.25 --x-range=1:20:1": "814800b02056775628e64ea0f80e8e85",
    "table --nu-range=-3:3:0.5 --x-range=0:2:0.25": "38713abd94a8bd5b97c0911909b766ff",
}

# The edge sweep: orders at and next to the integers, past Gamma's range and
# the double range; arguments at the underflow of x/2, where 2/x overflows
# (1e-320, 1e-308), Temme's borders, the envelope, K_MAX_ARG, e^(-x)'s
# underflow and past
EDGE_ORDERS = [0.0, -0.0, 5e-324, -5e-324, 171.6, -171.6, 1e8, 1e17, 1e300, -1e300] + [
    n + d for n in (-3.0, -1.0, 0.0, 1.0, 3.0) for d in (-1e-9, 0.0, 1e-9) if n + d]
EDGE_XS = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e-308, 1e-300, 0.5, 1.2, 20.0, 30.0,
           math.nextafter(30.0, 40.0), 745.0, 1e300, math.inf, -math.inf, math.nan]
_NU_X = [(nu, x) for nu in EDGE_ORDERS for x in EDGE_XS]
_SIDES = [(x, 0.5, 1.2) for x in EDGE_XS] + [(0.5, x, 1.2) for x in EDGE_XS] + [
    (0.5, 1.2, x) for x in EDGE_XS]
# the argument tuples of each public function
EDGE_ARGS = {
    **dict.fromkeys(["kelvin_all", "kelvin_ber_bei", "kelvin_ker_kei", "dkelvin",
                     "dkelvin_bb_neg", "dkelvin_kk_neg", "apelblat_ber_bei", "apelblat_dber_dbei",
                     "theorem5_identities", "indefinite_integral_check"], _NU_X),
    "theorem5_identity": [(nu, x, "bei") for nu, x in _NU_X],
    # the complex API at z = x and z = i x
    **dict.fromkeys(["bessel_j", "bessel_i", "bessel_k", "dj_dnu_any", "dk_dnu_any"],
                    _NU_X + [(nu, complex(0.0, x)) for nu, x in _NU_X]),
    # and far below -184, where Gamma is a signed zero with no reduction chain,
    # and between -184 and -170, where its chain runs scaled
    **dict.fromkeys(["gamma_real", "digamma_real"],
                    [(v,) for v in EDGE_ORDERS + EDGE_XS + [-1e6 - 0.5, -4e15 + 0.5, -180.5,
                                                            -176.00000000000003,
                                                            -179.99999999999997]]),
    "appendix_ber_bei": [(x,) for x in EDGE_XS],
    "convolution_identity": _SIDES,
    "integrate_finite": [(math.cos, 0.0, x) for x in EDGE_XS] + [
        (math.cos, x, 1.2) for x in EDGE_XS],
    # e^(-x t) at every finite x: the integrands of the contract
    "integrate_semiinf": [(lambda t, x=x: math.exp(-x * t),) for x in EDGE_XS if math.isfinite(x)],
}
# run_suites takes a suite name: the identity counts run it
_NOT_SWEPT = {"run_suites"}
_VALUE_FIELDS = ("value", "lhs", "rhs", "ber", "bei", "ker", "kei", "dber", "dbei", "dker",
                 "dkei", "values")


@contextlib.contextmanager
def _deadline(seconds):
    """Stop the block by TimeoutError after ``seconds`` where SIGALRM exists,
    and fail a block that took longer in any case."""
    alarm = hasattr(signal, "SIGALRM")
    if alarm:
        def expire(signum, frame):
            raise TimeoutError(f"stopped after {seconds} s")
        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    t = time.perf_counter()
    try:
        yield
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
    if time.perf_counter() - t > seconds:
        raise TimeoutError(f"took {time.perf_counter() - t:.2f} s, over {seconds} s")


def run_cli(*argv, seconds=CLI_SECONDS):
    """(exit code, stdout, stderr) of ``kelvinfn.cli.main(argv)``, in process."""
    out, err = io.StringIO(), io.StringIO()
    with _deadline(seconds), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _values(res):
    """The numbers a result reports as values, its error estimates left out;
    a record (a tuple with ``_fields``) is read by its value fields."""
    if isinstance(res, (tuple, list)) and not hasattr(res, "_fields"):
        return [v for r in res for v in _values(r)]
    if isinstance(res, (int, float, complex)):
        return [res]
    return [v for f in _VALUE_FIELDS if hasattr(res, f) for v in _values(getattr(res, f))]


def test_no_settings_from_the_environment():
    """Every result is full double precision: no file of the package names
    os.environ or getenv, either of which could change that."""
    root = os.path.dirname(os.path.abspath(kelvinfn.__file__))
    hits = []
    for folder, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(folder, name), "rb") as fh:
                hits += [f"{folder}/{name}:{i}" for i, line in enumerate(fh, 1)
                         if re.search(rb"os\.environ|getenv", line)]
    print(f"{root}: {len(hits)} lines name os.environ or getenv")
    assert not hits, hits


def test_identity_suites():
    """Exit 0 and every row passed, for all suites and for each alone."""
    bad = []
    for suite, rows in SUITE_ROWS.items():
        code, out, _ = run_cli("verify", "--suite", suite, "--format", "plain")
        last = (out.splitlines() or [""])[-1]
        print(f"verify --suite {suite}: exit {code}, {last}")
        if (code, last) != (0, f"{rows}/{rows} identities passed"):
            bad.append(suite)
    assert not bad, bad


def test_all_suites_join_the_single_suites():
    """``verify --suite all`` prints, byte for byte, the CSV of each suite
    run alone, in suite order under one header: no plan, dict of K starts
    or set-up of one suite call reaches another."""
    code, whole, _ = run_cli("verify", "--suite", "all")
    header, parts = whole.splitlines(keepends=True)[:1], []
    for suite in SUITE_ROWS:
        if suite != "all":
            lines = run_cli("verify", "--suite", suite)[1].splitlines(keepends=True)
            parts += lines[1:] if lines[:1] == header else ["<header differs>\n"]
    joined = "".join(header + parts)
    print(f"verify --suite all: exit {code}, {len(whole)} bytes; the 8 suites joined: "
          f"{len(joined)} bytes, {'equal' if joined == whole else 'different'}")
    assert code == 0 and joined == whole


def test_table_sweeps():
    """Exit 0 and a header plus the grid's rows, each of 11 cells: 10 finite
    numbers and the method 'series'."""
    bad = []
    for nus, xs, rows in TABLE_GRIDS:
        code, out, _ = run_cli("table", f"--nu-range={nus}", f"--x-range={xs}")
        cells = [r.split(",") for r in out.splitlines()[1:]]
        good = sum(len(r) == 11 and r[10] == "series" and all(map(_finite_cell, r[:10]))
                   for r in cells)
        print(f"table --nu-range={nus} --x-range={xs}: exit {code}, {len(cells)} rows, "
              f"{good} of 10 finite numbers and series")
        if (code, len(cells), good) != (0, rows, rows):
            bad.append((nus, xs))
    assert not bad, bad


def _finite_cell(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def test_typed_errors():
    """Each command exits 2 and its stderr names the error, within
    CLI_SECONDS (a refusal of too many points or rows within EDGE_SECONDS:
    a grid that is built instead grows by about 1 GB a second): no
    traceback and no endless climb or grid."""
    bad = []
    for command, want in TYPED_ERRORS:
        try:
            seconds = EDGE_SECONDS if want in (_TOO_MANY, _TOO_MANY_ROWS) else CLI_SECONDS
            code, _, err = run_cli(*command.split(), seconds=seconds)
        except Exception as exc:  # a traceback or a timeout
            code, err = None, f"{type(exc).__name__}: {exc}"
        print(f"{command}: exit {code}, {err.strip()}")
        if code != 2 or not re.search("^" + want, err, re.M):
            bad.append(command)
    assert not bad, bad


def test_option_surface():
    """Each subcommand takes the options of OPTIONS and no other: eval's
    function is positional only, table's --nu and --x spell its ranges, and
    verify checks at the manifest tolerances alone."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    seen = {name: {"/".join(a.option_strings) or a.metavar for a in sub._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, sub in subs.items()}
    for name in sorted(seen.keys() | OPTIONS.keys()):
        got, want = seen.get(name, set()), OPTIONS.get(name, set())
        print(f"{name}: {' '.join(sorted(got))}; not listed {sorted(got - want)}, "
              f"missing {sorted(want - got)}")
    assert seen == OPTIONS, seen


def test_signatures():
    """Each public function of kelvinfn.__all__ takes the parameters of
    SIGNATURES and no other."""
    seen = {n: tuple(inspect.signature(getattr(kelvinfn, n)).parameters)
            for n in kelvinfn.__all__
            if callable(getattr(kelvinfn, n)) and not isinstance(getattr(kelvinfn, n), type)}
    for name in sorted(seen.keys() | SIGNATURES.keys()):
        if seen.get(name) != SIGNATURES.get(name):
            print(f"{name}: takes {seen.get(name)}, listed {SIGNATURES.get(name)}")
    print(f"{len(seen)} public functions, {len(SIGNATURES)} listed")
    assert seen == SIGNATURES, seen


def test_output_bytes():
    """Each command of OUTPUT_MD5 exits 0 and prints, byte for byte, the
    output its pin was taken from."""
    bad = []
    for command, want in OUTPUT_MD5.items():
        code, out, _ = run_cli(*command.split())
        got = hashlib.md5(out.encode()).hexdigest()
        print(f"{command}: exit {code}, {len(out)} bytes, md5 {got}")
        if (code, got) != (0, want):
            bad.append(command)
    assert not bad, bad


def test_identities_where_x_over_2_underflows():
    """Each identity, and the engine on an interval whose half-width rounds
    to 0, raises a KelvinError at x = 5e-324."""
    bad = []
    for fn, args in [(kelvinfn.theorem5_identities, (0.0, 5e-324)),
                     (kelvinfn.indefinite_integral_check, (0.0, 5e-324)),
                     (kelvinfn.apelblat_dber_dbei, (0.0, 5e-324)),
                     (kelvinfn.apelblat_dber_dbei, (3.0, 5e-324)),
                     (kelvinfn.integrate_finite, (math.cos, 0.0, 5e-324))]:
        try:
            fn(*args)
            seen, typed = "no error", False
        except Exception as exc:
            seen, typed = f"{type(exc).__name__}: {exc}", isinstance(exc, KelvinError)
        print(f"{fn.__name__}{args[-2:]}: {seen}")
        if not typed:
            bad.append((fn.__name__, args, seen))
    assert not bad, bad


def test_module_entry():
    """``python -m kelvinfn`` passes main's exit code and stderr through."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kelvinfn.__file__)))
    argv = [sys.executable] + ["-S"] * sys.flags.no_site + [
        "-m", "kelvinfn", "eval", "ker", "--nu", "0", "--x", "40"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_SECONDS,
                          env=dict(os.environ, PYTHONPATH=src))
    print(f"python -m kelvinfn eval ker --nu 0 --x 40: exit {proc.returncode}, "
          f"{proc.stderr.strip()}")
    assert proc.returncode == 2 and re.search("^eval: ConvergenceError: ", proc.stderr, re.M), \
        (proc.returncode, proc.stderr)


def test_cold_import_defines_no_dataclass():
    """A fresh ``import kelvinfn.cli`` loads neither dataclasses nor inspect:
    the result records are NamedTuples, which cost a tenth of a frozen
    dataclass to define at import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kelvinfn.__file__)))
    code = ("import kelvinfn.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=CLI_SECONDS, env=dict(os.environ, PYTHONPATH=src))
    print(f"modules loaded by a cold import of kelvinfn.cli: {proc.stdout.strip()}")
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", (proc.stdout, proc.stderr)


def test_edge_sweep_library():
    """Every public function of kelvinfn.__all__ at the edge points returns
    finite values or raises a KelvinError, each call within EDGE_SECONDS."""
    public = {n for n in kelvinfn.__all__
              if callable(getattr(kelvinfn, n)) and not isinstance(getattr(kelvinfn, n), type)}
    assert public == set(EDGE_ARGS) | _NOT_SWEPT, public ^ (set(EDGE_ARGS) | _NOT_SWEPT)
    bad, seen, t = [], {"values": 0, "KelvinError": 0}, time.perf_counter()
    for name, calls in EDGE_ARGS.items():
        fn = getattr(kelvinfn, name)
        for args in calls:
            try:
                with _deadline(EDGE_SECONDS):
                    finite = all(map(cmath.isfinite, _values(fn(*args))))
                seen["values"] += 1
            except KelvinError:
                seen["KelvinError"] += 1
                continue
            except Exception as exc:  # anything else, a timeout included, is a defect
                finite = f"{type(exc).__name__}: {exc}"
            if finite is not True:
                bad.append((name, args, finite or "not finite"))
    print(f"{sum(map(len, EDGE_ARGS.values()))} calls of {len(EDGE_ARGS)} functions in "
          f"{time.perf_counter() - t:.2f} s: {seen}, {len(bad)} defects")
    assert not bad, bad[:20]


def test_edge_sweep_reads_values_not_estimates():
    """The sweep's reader keeps a record's values and leaves out its
    estimates: a NaN value is reported, an infinite estimate is not."""
    nan, inf = math.nan, math.inf
    cases = [(EvalResult(1.0, inf, 1, False), True), (EvalResult(nan, 0.0, 1, True), False),
             (OrderDerivQuad(1.0, 2.0, 3.0, 4.0, 0.5, 1.0, "series", inf,
                             KelvinQuad(1.0, 2.0, 3.0, nan, 0.5, 1.0)), False),
             ((1.0, EvalResult(2.0, inf, 1, False)), True)]
    seen = [all(map(cmath.isfinite, _values(res))) for res, _ in cases]
    print(f"finite values read: {seen}")
    assert seen == [want for _, want in cases], seen


def test_edge_sweep_cli():
    """``eval`` of each function and ``table`` at each edge point exit 0 or
    2, never 1, each within EDGE_SECONDS."""
    codes, bad, t = {}, [], time.perf_counter()
    for nu, x in _NU_X:
        point = (f"--nu={nu!r}", f"--x={x!r}")
        for argv in [("eval", fn) + point for fn in cli._VALUE_FNS + cli._DERIV_FNS] + [
                ("table",) + point]:
            try:
                code = run_cli(*argv, seconds=EDGE_SECONDS)[0]
            except Exception as exc:  # a traceback or a timeout
                code = f"{type(exc).__name__}: {exc}"
            codes[code] = codes.get(code, 0) + 1
            if code not in (0, 2):
                bad.append((argv, code))
    print(f"{sum(codes.values())} commands in {time.perf_counter() - t:.2f} s, "
          f"exit codes {codes}")
    assert not bad, bad[:20]


_MISSING = object()  # the value of an attribute a module does not hold


def _kelvinfn_modules():
    return {k: m for k, m in sys.modules.items()
            if k == "kelvinfn" or k.startswith("kelvinfn.")}


def test_tracer_binds_every_layer():
    """The benchmark's tracer (perfbench/tracing.py, imported and not
    changed) installs on a fresh import of kelvinfn: every name of its
    LAYERS resolves at its home module and is wrapped there, and
    ``uninstall`` puts every module attribute back.  A change that deletes
    or renames a name the tracer looks up fails here, and not only in the
    traced benchmark runs.  The modules imported before are restored."""
    kept, had = _kelvinfn_modules(), {k: sys.modules.get(k) for k in ("tracing", "workloads")}
    bytecode, tracer = sys.dont_write_bytecode, None
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        for k in kept:
            del sys.modules[k]
        importlib.import_module("kelvinfn.cli")
        tracing = importlib.import_module("tracing")
        mods = _kelvinfn_modules()
        before = {k: dict(vars(m)) for k, m in mods.items()}
        suites = dict(mods["kelvinfn.verify"].SUITES)
        tracer = tracing.Tracer()
        tracer.install()
        names = [(f"kelvinfn.{layer}", fn) for layer, fns in tracing.LAYERS.items() for fn in fns]
        unwrapped = [f"{k}.{fn}" for k, fn in names if vars(mods[k])[fn] is before[k][fn]]
        bindings = len(tracer._restore)
        tracer.uninstall()
        moved = [f"{k}.{a}" for k, m in mods.items() for a in set(vars(m)) | set(before[k])
                 if vars(m).get(a, _MISSING) is not before[k].get(a, _MISSING)]
        moved += ["verify.SUITES"] * (mods["kelvinfn.verify"].SUITES != suites)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for k in _kelvinfn_modules():
            del sys.modules[k]
        sys.modules.update(kept)
        for k, m in had.items():
            if m is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = m
        sys.path.remove(os.path.join(ROOT, "perfbench"))
        sys.dont_write_bytecode = bytecode
    print(f"tracer: {len(names)} names of LAYERS, {len(unwrapped)} not wrapped, "
          f"{bindings} bindings; after uninstall {len(moved)} attributes differ")
    assert not unwrapped and not moved, (unwrapped, moved)


def main():
    if not __debug__:
        return "the checks are assert statements, which -O strips: run without -O"
    checks = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = []
    for name, check in checks:
        print(f"== {name}")
        try:
            check()
        except Exception as exc:
            failed.append(name)
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
