"""
Derivatives with respect to the order
=====================================

``dkelvin`` takes one route for every real order, negative integers
included, and tags it; a Richardson finite difference over the order serves
as the cross-check.
"""

from kelvinfn import dkelvin, kelvin_all


def fd_oracle(nu, x, h=1e-3):
    """Finite-difference order derivatives, Richardson over h and h/2."""
    def central(step):
        hi = kelvin_all(nu + step, x)
        lo = kelvin_all(nu - step, x)
        return [(a - b) / (2 * step) for a, b in
                ((hi.ber, lo.ber), (hi.bei, lo.bei), (hi.ker, lo.ker), (hi.kei, lo.kei))]
    c1 = central(h)
    c2 = central(h / 2)
    return [(4 * b - a) / 3 for a, b in zip(c1, c2)]


x = 2.0
print(f"order derivatives at x = {x}\n")
print("  nu     d ber/d nu     d kei/d nu    method                    |dkelvin - FD|")
for nu in (0.3, 0.5, 2.0, 5.3, -0.75, -2.0):
    q = dkelvin(nu, x)
    fd = fd_oracle(nu, x)
    worst = max(abs(g - w) for g, w in zip((q.dber, q.dbei, q.dker, q.dkei), fd))
    print(f"{nu:+5.2f}  {q.dber:+13.9f}  {q.dkei:+13.9f}   {q.method:24s} {worst:.2e}")

# The one route (tag series), at every real order: the rotation of dJ/dnu,
# the term-wise derivative of the J series at nu, whose weights 1/Gamma and
# psi/Gamma are entire, and of dK/dnu at |nu|, odd in nu, the trapezoidal
# rule on int_0^inf t sinh(nu t) exp(-z cosh t) dt along the Kelvin ray.
print("\nevery value above is checked against the finite difference to ~1e-6")
