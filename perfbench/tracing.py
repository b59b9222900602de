"""Spans around kelvinfn's public functions, and the per-layer metrics.

``Tracer.install`` wraps each function in LAYERS at every name a kelvinfn
module binds it to (``kelvinfn.bessel.sum_series`` as well as
``kelvinfn.hyper.sum_series``), plus the verify suites in ``verify.SUITES``;
``uninstall`` puts the originals back.  The program itself is not changed.
Private names are wrapped only where the CLI calls them directly
(``kelvin._eval_ber_bei``/``_eval_ker_kei``), so that kelvin time does not
land in the CLI's self time.

A span is (name, start, end, parent span, op id).  Spans live in flat arrays
while the run lasts and are written out by ``write`` when it ends.  A layer is
the part of a span name before the first dot; a span's self time is its
duration minus that of its child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

from workloads import VERIFY_ROWS

LAYERS = {
    "scalars": ("gamma_real", "digamma_real"),
    "hyper": ("sum_series", "pfq"),
    "bessel": ("bessel_j", "bessel_i", "bessel_k", "dj_dnu", "dk_dnu",
               "dj_dnu_any", "dk_dnu_any"),
    "kelvin": ("kelvin_all", "kelvin_ber_bei", "kelvin_ker_kei",
               "_eval_ber_bei", "_eval_ker_kei"),
    "orderderiv": ("dkelvin", "dkelvin_integer", "dkelvin_bb_pos", "dkelvin_kk_pos",
                   "dkelvin_bb_neg", "dkelvin_kk_neg", "dkelvin_bb_brychkov",
                   "coef_c", "coef_d"),
    "quad": ("integrate_finite", "integrate_semiinf", "apelblat_ber_bei",
             "apelblat_dber_dbei", "appendix_ber_bei", "convolution_identity",
             "theorem5_identity", "indefinite_integral_check"),
    "verify": ("run_suites", "fd_oracle"),
    "cli": ("main",),
}
ROUTES = ("closed_form", "integer_sum", "extrapolated", "closed_form+extrapolated")
DNU = frozenset(f"bessel.{f}" for f in ("dj_dnu", "dk_dnu", "dj_dnu_any", "dk_dnu_any"))
ENGINE = frozenset(("quad.integrate_finite", "quad.integrate_semiinf"))
INTEGRAND = "quad.integrand"
ROUTED = frozenset(("orderderiv.dkelvin", "orderderiv.dkelvin_integer"))
# spans whose returned value _info reads
READ = ENGINE | ROUTED | {"hyper.sum_series", "bessel.bessel_k"}


def _info(name: str, args, res):
    """What a span keeps of its call: counts read from the returned value."""
    if name == "hyper.sum_series":
        return res.terms_used, res.converged, (complex(args[0]), res.value, res.terms_used)
    if name == "bessel.bessel_k":
        return "near_integer_averaged" in res.flags
    if name in ENGINE:
        return res.converged
    if name in ROUTED:
        return res.method
    if name.startswith("verify.suite."):
        return sum(1 for r in res if not r.passed)
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.info: dict[int, object] = {}
        self.stack = [-1]
        self.op_id = -1
        self._restore: list = []

    def wrap(self, name: str, fn):
        names, start, end, parent, op = self.names, self.start, self.end, self.parent, self.op
        info, stack = self.info, self.stack
        keep = name in READ or name.startswith("verify.suite.")

        def traced(*args, **kwargs):
            idx = len(names)
            up = stack[-1]
            names.append(name)
            parent.append(up)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            if name in ENGINE and (up < 0 or names[up] not in ENGINE):
                # an integral entered from outside the engine: time its integrand
                args = (self.wrap(INTEGRAND, args[0]),) + args[1:]
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if keep:
                info[idx] = _info(name, args, res)
            return res

        return traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "kelvinfn" or k.startswith("kelvinfn."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"kelvinfn.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))
        suites = sys.modules["kelvinfn.verify"].SUITES
        for key, fn in list(suites.items()):
            suites[key] = self.wrap(f"verify.suite.{key}", fn)
            self._restore.append((suites, key, fn))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as CSV, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{self.op[i]}\n")

    def series_key(self, i: int) -> tuple:
        """Identity of the sum_series span i: the function that asked for the
        series (its nearest caller outside hyper), then the series' first
        term, value and length.

        The caller is part of the key because dj_dnu's 2F3/3F4 at -z^2 and
        dk_dnu's at z^2 are the same series on the Kelvin rays; a repeat
        here is a series that one function recomputes.
        """
        up = self.parent[i]
        while up >= 0 and self.names[up].startswith("hyper."):
            up = self.parent[up]
        return (self.names[up] if up >= 0 else None,) + self.info[i][2]

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per op unless named a share."""
        names, parent, info = self.names, self.parent, self.info
        n = len(names)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        layer_of = {s: s.split(".", 1)[0] for s in set(names)}
        layer = [layer_of[s] for s in names]
        count = Counter(names)
        self_s = Counter()
        entries = Counter()
        for i in range(n):
            self_s[layer[i]] += dur[i] - child[i]
            if parent[i] < 0 or layer[parent[i]] != layer[i]:
                entries[layer[i]] += 1

        def routed_top(i: int) -> int:
            """The outermost dkelvin-type span at or above span i, or -1."""
            top = -1
            while i >= 0:
                if names[i] in ROUTED:
                    top = i
                i = parent[i]
            return top

        series: dict[int, list] = {}
        terms = nonconv = averaged = engines = unconverged = rows_failed = 0
        suite_s = Counter()
        for i in sorted(info):
            name = names[i]
            if name == "hyper.sum_series":
                t, conv, _ = info[i]
                terms += t
                nonconv += not conv
                top = routed_top(parent[i])
                if top >= 0:
                    series.setdefault(top, []).append(self.series_key(i))
            elif name == "bessel.bessel_k":
                averaged += info[i]
            elif name in ENGINE and (parent[i] < 0 or names[parent[i]] not in ENGINE):
                engines += 1
                unconverged += not info[i]
            elif name.startswith("verify.suite."):
                suite_s[name[len("verify.suite."):]] += dur[i]
                rows_failed += info[i]
        routed = [i for i in range(n) if names[i] in ROUTED and routed_top(parent[i]) < 0]
        route = Counter(info.get(i) if info.get(i) in ROUTES else "other" for i in routed)
        total_series = sum(len(v) for v in series.values())
        distinct_series = sum(len(set(v)) for v in series.values())

        def share(a, b):
            return a / b if b else 0.0

        m = {
            "scalars.gamma.calls": count["scalars.gamma_real"] / ops,
            "scalars.digamma.calls": count["scalars.digamma_real"] / ops,
            "scalars.self_s": self_s["scalars"] / ops,
            "hyper.sum_series.calls": count["hyper.sum_series"] / ops,
            "hyper.sum_series.terms": terms / ops,
            "hyper.sum_series.nonconverged": nonconv / ops,
            "hyper.pfq.calls": count["hyper.pfq"] / ops,
            "hyper.self_s": self_s["hyper"] / ops,
            "bessel.j.calls": count["bessel.bessel_j"] / ops,
            "bessel.i.calls": count["bessel.bessel_i"] / ops,
            "bessel.k.calls": count["bessel.bessel_k"] / ops,
            "bessel.k.averaged_frac": share(averaged, count["bessel.bessel_k"]),
            "bessel.dnu.calls": sum(1 for i in range(n) if names[i] in DNU and (
                parent[i] < 0 or names[parent[i]] not in DNU)) / ops,
            "bessel.self_s": self_s["bessel"] / ops,
            "kelvin.calls": entries["kelvin"] / ops,
            "kelvin.self_s": self_s["kelvin"] / ops,
            "orderderiv.calls": entries["orderderiv"] / ops,
        }
        for tag in ROUTES + ("other",):
            m[f"orderderiv.route.{tag.replace('+', '-')}"] = share(route[tag], len(routed))
        m.update({
            "orderderiv.series_per_call": share(total_series, len(routed)),
            "orderderiv.distinct_series_frac": share(distinct_series, total_series),
            "orderderiv.self_s": self_s["orderderiv"] / ops,
            "quad.integrals": engines / ops,
            "quad.integrand_evals": count[INTEGRAND] / ops,
            "quad.unconverged": unconverged / ops,
            "quad.self_s": self_s["quad"] / ops,
            "quad.integrand_s": sum(dur[i] for i in range(n) if names[i] == INTEGRAND) / ops,
        })
        for s in VERIFY_ROWS:
            m[f"verify.suite_s.{s}"] = share(suite_s[s], count[f"verify.suite.{s}"])
        m["verify.rows_failed"] = rows_failed / ops
        m["cli.self_s"] = self_s["cli"] / ops
        return m
