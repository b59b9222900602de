"""
Evaluating Kelvin functions of arbitrary real order
====================================================

ber, bei, ker, kei at fractional, integer, and negative orders, plus the
structural identities that tie them together.
"""

from kelvinfn import kelvin_all, kelvin_ber_bei, kelvin_ker_kei

# A single point: all four functions at order 0.5, argument 2
q = kelvin_all(0.5, 2.0)
print(f"nu=0.5, x=2:  ber={q.ber:+.12f}  bei={q.bei:+.12f}")
print(f"              ker={q.ker:+.12f}  kei={q.kei:+.12f}")

# A small table over x at a few orders; ber/bei grow like e^(x/sqrt 2),
# ker/kei decay on the same scale
print("\n   x      ber_1.5(x)        kei_1.5(x)")
for x in [0.5 + 1.5 * k for k in range(6)]:
    ber, _ = kelvin_ber_bei(1.5, x)
    _, kei = kelvin_ker_kei(1.5, x)
    print(f"  {x:4.1f}  {ber:+16.8e}  {kei:+16.8e}")

# Negative integer orders pick up only a sign: f_{-n} = (-1)^n f_n
pos = kelvin_all(3.0, 1.7)
neg = kelvin_all(-3.0, 1.7)
print(f"\nber_3(1.7)  = {pos.ber:+.12f}")
print(f"ber_-3(1.7) = {neg.ber:+.12f}   (= -ber_3)")

# Negative fractional orders come from the same series at the order
# itself; the values are genuinely different
print(f"\nber_0.7(2)  = {kelvin_ber_bei(0.7, 2.0)[0]:+.12f}")
print(f"ber_-0.7(2) = {kelvin_ber_bei(-0.7, 2.0)[0]:+.12f}")

# At the origin only ber/bei exist (ker/kei have a log singularity)
print(f"\nber_0(0) = {kelvin_ber_bei(0.0, 0.0)[0]}, "
      f"ber_2(0) = {kelvin_ber_bei(2.0, 0.0)[0]}")
