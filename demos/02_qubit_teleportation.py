"""Teleporting a vacuum/one-photon superposition through squeezed vacuum.

With gamma1 = gamma2/(1-2*gamma2)^2 the two herald coefficients are equal,
so the conditional output reproduces the input exactly; both amplifiers can
stay in the weak-coupling regime.  The success-probability bookkeeping is
printed in full: the exact single-pattern value and the doubled figure
quoted in the source literature, which the simulator does not reproduce
from the (1,1) herald alone.
"""

import math

from fockherald import InputCoefficients, run_qubit_teleport

alpha, beta = 0.6, 0.8
gamma2 = 0.1
res = run_qubit_teleport(InputCoefficients(alpha, beta), gamma2)

print(f"input: {alpha}|0> + {beta}|1>,  gamma2 = {gamma2}")
print(f"constraint gives gamma1 = {res.gamma1:.6f}")
print(f"fidelity: {res.fidelity:.12f}")
print()
print(f"simulator (1,1)-herald probability : {res.success_probability:.10f}")
print(f"closed form (1-g1)(1-g2)g2 terms   : {res.closed_form_probability:.10f}")
print(f"paper-quoted 2(1-g1)(1-g2)g2       : {res.paper_claimed_probability:.10f}")
print()
# the default cutoff (1) decides only the heralded (1,1) pattern; the other
# patterns need room for more photons
full = run_qubit_teleport(InputCoefficients(alpha, beta), gamma2, cutoff=16)
print("leading herald outcomes over detector modes (1, 2), at cutoff 16:")
total = 0.0
for counts, weight in full.herald_distribution:
    total += weight
    if weight > 1e-4:
        print(f"  detectors read {counts}: probability {weight:.10f}")
print(f"  (sum over all outcomes: {total:.10f})")
print()
print("nothing in the distribution doubles the (1,1) weight, so the factor")
print("of two is recorded as metadata rather than asserted.")
