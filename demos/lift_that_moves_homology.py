#!/usr/bin/env python
# A lift of the identity whose induced map on H_2 is NOT the identity.
#
# On R = F2[t^6, t^10, t^14, t^15] the lift
#     e1 -> e1 + t^16 e3 + t^15 e4
# fixes every x_i, yet moves a homology class: the difference is the
# product [t^18 e2 + t^14 e3] * [t^16 e3 + t^15 e4], which is nonzero
# in H_2.  In the top degree H_3 nothing can move.

from koszulalg.gring import make_semigroup_ring
from koszulalg.exactalg import GF2
from koszulalg.koszul import KoszulComplex, class_of, differential, wedge
from koszulalg.dgmap import elementary_lift, induced_map

R = make_semigroup_ring(GF2, [6, 10, 14, 15])
K = KoszulComplex(R)

delta = K.element({(2,): R.parse_element("t^16"), (3,): R.parse_element("t^15")})
print("delta =", delta, " is a cycle:", differential(delta).is_zero())

phi = elementary_lift(K, 0, delta)
for i in range(4):
    m = induced_map(phi, i)
    print("H_%d(phi) identity: %s" % (i, m.is_identity))

print()
print("H_2(phi) matrix:")
for row in induced_map(phi, 2).matrix.rows:
    print("  ", [str(c) for c in row])

# realize the moved class and its displacement as a product
zeta = K.element({(1,): R.parse_element("t^18"), (2,): R.parse_element("t^14")})
u = wedge(K.generator_element(0), zeta) + K.element(
    {(1, 2): R.parse_element("t^10")})
assert differential(u).is_zero()

before = class_of(K, 2, u)
after = class_of(K, 2, phi.apply(u))
prod = class_of(K, 2, wedge(zeta, delta))
print()
print("class of u:          ", before)
print("class of phi(u):     ", after)
print("class of zeta^delta: ", prod)
print("displacement equals the product:",
      [K.field.sub(a, b) for a, b in zip(after, before)] == prod)
