"""Nonlinear sign gate from two parametric amplifiers.

The circuit squeezes a vacuum ancilla (modes 2, 3), couples the input mode
to it with a second squeezer (modes 1, 2), and keeps only runs where one
photon lands in each detector.  At the solved couplings the surviving mode-3
state is the input with the |2> amplitude negated.
"""

import math

from fockherald import GateParams, InputCoefficients, run_nls, solve_nls_params

params = solve_nls_params()
print("solved couplings:")
print(f"  gamma1 = {params.gamma1:.12f}   (strong coupling)")
print(f"  gamma2 = {params.gamma2:.12f}")
print()

c = 1 / math.sqrt(3)
res = run_nls(InputCoefficients(c, c, c), params)
print("balanced input (|0> + |1> + |2>)/sqrt(3):")
for n in range(3):
    amp = res.output_state.amplitude((n,))
    print(f"  |{n}> amplitude: {amp.real:+.9f}")
print(f"  fidelity against the sign-flipped target: {res.fidelity:.12f}")
print(f"  heralded success probability: {res.success_probability:.6f}"
      f"  (~4.25%)")
print(f"  cutoff {res.output_state.cutoff} (the herald cutoff), exact: {res.exact};"
      f" weight the herald cone pushed past the cutoff: {res.leaked_norm:.2e}")
print()

print("off-solution couplings distort the output instead of failing:")
res = run_nls(InputCoefficients(c, c, c), GateParams(0.2, 0.2), cutoff=24)
for n in range(3):
    print(f"  |{n}> amplitude: {res.output_state.amplitude((n,)).real:+.9f}")
print(f"  fidelity drops to {res.fidelity:.6f}")
