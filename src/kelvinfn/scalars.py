"""Real-argument gamma and digamma kernels plus shared constants.

Self-contained on purpose: poles raise :class:`DomainError` rather than
returning infinities, so that a caller evaluated at an order it does not
hold (a closed form outside its order class) cannot go on with the value.

Gamma is computed by argument reduction to a fixed kernel on [1, 2], its
product in double-double arithmetic (at x >= 1 :func:`_two_prod` in each
step; at x < 1 exact divisors by :func:`_two_sum`, which also carries each
step's rounding in digamma's recurrence).  So Gamma(x+1) = x*Gamma(x) holds
to a couple of ulp: both sides reduce to the *same* kernel value and differ
only in the (compensated) product path.
"""

from __future__ import annotations

import math

from .errors import DomainError, GammaOverflowError

PI = math.pi
EULER_GAMMA = 0.5772156649015328606065120900824024
SQRT2 = math.sqrt(2.0)

# Largest x with Gamma(x) finite in double precision.
_GAMMA_OVERFLOW_X = 171.62437695630272
# Below this x, |Gamma(x)| < 1.6e-325 (its largest, at -184.00000000000003) is
# under half the least subnormal, so Gamma(x) rounds to a signed zero
_GAMMA_ZERO_X = -184.0
# Below x = -170 the quotient of the x < 1 chain goes subnormal before its last,
# small divisors: scaled by 2^600 it stays within ~[1e-158, 1e181] to x = -184
_CHAIN_SCALE = 600
# Below this |x|, Gamma(x) = 1/x - gamma + O(x) and psi(x) = -1/x - gamma + O(x)
# are 1/x and -1/x to rounding, and 1/x is past the Veltkamp split's range
_TINY = 1e-300

# Chebyshev coefficients of Gamma(1+w), w in [0, 1], u = 2w - 1.
# Degree 26 interpolant; intrinsic relative error ~4e-21, so the kernel
# is limited only by evaluation rounding.
_GAMMA_CHEB = (
    0.94178559779549466571,
    0.0044153813248410067572,
    0.056850436815993633786,
    -0.0042198353964185605010,
    0.0013268081812124602206,
    -0.00018930245297988804325,
    0.000036069253274412452566,
    -6.0567619044608642185e-6,
    1.0558295463022833447e-6,
    -1.8119673655423840483e-7,
    3.1177249647153222778e-8,
    -5.3542196390196871409e-9,
    9.1932755198595889469e-10,
    -1.5779412802883397618e-10,
    2.7079806229349545432e-11,
    -4.6468186538257301421e-12,
    7.9733501920074195418e-13,
    -1.3680782098309153573e-13,
    2.3473194865637616930e-14,
    -4.0274326149467959334e-15,
    6.9100517472397373668e-16,
    -1.1855844994505216339e-16,
    2.0341484975317334769e-17,
    -3.4900517209861496619e-18,
    5.9878411090784562329e-19,
    -1.0264877807879824168e-19,
    1.7108136694583458466e-20,
)
_GAMMA_CHEB_REV = _GAMMA_CHEB[:0:-1]  # the Clenshaw order, c_26 down to c_1

# psi(x) ~ log x - 1/(2x) - sum c_k x^(-2k); c_k = B_{2k}/(2k).
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split constant


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact sum a+b = s + e with s = fl(a+b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact product a*b = p + e with p = fl(a*b); |a|,|b| < ~6e300."""
    p = a * b
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = b * _SPLITTER
    b_hi = t - (t - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _dd_div_dd(hi: float, lo: float, fh: float, fl: float) -> tuple[float, float]:
    """(hi, lo) / (fh, fl) with one Newton correction step."""
    q = hi / fh
    p, e = _two_prod(q, fh)
    e += q * fl
    r = ((hi - p) - e + lo) / fh
    s = q + r
    return s, r - (s - q)


def _gamma_kernel(t: float) -> float:
    """Gamma(t) for t in [1, 2], Clenshaw recurrence on the Chebyshev fit."""
    u = 2.0 * t - 3.0  # exact: 2t and the difference stay on the grid
    u2 = 2.0 * u
    b1 = b2 = 0.0
    for c in _GAMMA_CHEB_REV:
        b1, b2 = u2 * b1 - b2 + c, b1
    return u * b1 - b2 + _GAMMA_CHEB[0]


def gamma_real(x: float) -> float:
    """Gamma(x) for real x that is not a nonpositive integer.

    Raises
    ------
    DomainError
        If x is not finite, or is a pole: x in {0, -1, -2, ...}.
    GammaOverflowError
        If |Gamma(x)| exceeds the double range (x > ~171.62, or |x| below
        ~5.6e-309, where Gamma(x) ~ 1/x).
    """
    if x >= 1.0:
        if x > _GAMMA_OVERFLOW_X:
            if x == math.inf:
                raise DomainError(f"gamma needs a finite argument, got x = {x}")
            raise GammaOverflowError(f"gamma({x}) overflows double precision")
        # descend to t in [1, 2]; each y - 1 step is exact in doubles,
        # so the ascending factors t + k reproduce the chain bit for bit
        t = x
        n = 0
        while t > 2.0:
            t -= 1.0
            n += 1
        hi, lo = _gamma_kernel(t), 0.0
        for k in range(n):
            f = t + k
            if abs(hi) > 1e250:  # Veltkamp split would overflow; drop compensation
                hi, lo = hi * f + lo * f, 0.0
                continue
            p, e = _two_prod(hi, f)
            e += lo * f
            hi = p + e
            lo = e - (hi - p)
    elif not x > -math.inf:  # -inf or NaN
        raise DomainError(f"gamma needs a finite argument, got x = {x}")
    elif x == math.floor(x):
        raise DomainError(f"gamma pole at x = {x}")
    elif abs(x) < _TINY:
        hi, lo = 1.0 / x, 0.0
    elif x < _GAMMA_ZERO_X:
        hi, lo = 0.0, 0.0  # signed below, with no chain of -x steps
    else:
        # ascend to x + n in [1, 2); the shift and the divisors x + k are
        # held as exact double-double pairs so the chain does not drift
        n = math.ceil(1.0 - x)
        th, tl = _two_sum(x, float(n))
        k0 = _gamma_kernel(th)
        scale = _CHAIN_SCALE if n > 171 else 0
        hi, lo = math.ldexp(k0, scale), math.ldexp(k0 * digamma_real(th) * tl, scale)
        for k in range(n):
            fh, fl = _two_sum(x, float(k))
            hi, lo = _dd_div_dd(hi, lo, fh, fl)
        hi, lo = math.ldexp(hi + lo, -scale), 0.0  # one rounding onto the subnormals
    result = hi + lo
    if math.isinf(result):
        raise GammaOverflowError(f"gamma({x}) overflows double precision")
    if result == 0.0:  # underflowed, at x < -171.6: Gamma's sign, (-1)^(n+1) on (-n-1, -n)
        return -0.0 if math.floor(x) % 2 else 0.0
    return result


def digamma_real(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for real x not a nonpositive integer.

    Recurrence pushes the argument above 10, then the asymptotic tail in
    1/x^2 finishes the job.  Negative arguments go through the reflection
    psi(x) = psi(1-x) - pi*cot(pi*x).  DomainError at a non-finite x or a pole,
    GammaOverflowError where |psi(x)| ~ 1/|x| exceeds the double range (|x|
    below ~5.6e-309).
    """
    if not _TINY <= x < math.inf:
        if not -math.inf < x < math.inf:
            raise DomainError(f"digamma needs a finite argument, got x = {x}")
        if x == math.floor(x):
            raise DomainError(f"digamma pole at x = {x}")
        psi = digamma_real(1.0 - x) - PI / math.tan(PI * x) if x < 0.0 else -1.0 / x
        if math.isinf(psi):
            raise GammaOverflowError(f"digamma({x}) overflows double precision")
        return psi
    # the recurrence terms -1/x, with the rounding of each step carried
    acc = comp = 0.0
    while x < 10.0:
        acc, e = _two_sum(acc, -1.0 / x)
        comp += e
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * inv2
    return math.log(x) - 0.5 / x - tail + acc + comp
