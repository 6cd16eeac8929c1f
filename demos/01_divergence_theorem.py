"""Verify the divergence theorem for gradient fields by Monte Carlo.

For a quadratic bowl f(x) = 0.5 * sum(lam_i * x_i^2) the divergence of the
gradient field is the constant sum(lam_i), so the volume integral over a
ball has a closed form we can compare against.  A Gaussian bump has no such
closed form, so there the two Monte Carlo estimates check each other.
"""

import numpy as np

import fluxgrad as fg
from fluxgrad.neflag import SphereSpec

# --- quadratic bowl: closed form available --------------------------------
lam = [1.0, 2.0, 3.0]
model = fg.quadratic_model(lam)
radius = 0.5
closed_form = sum(lam) * fg.ball_volume(3, radius)
print(f"quadratic bowl, ball radius {radius}")
print(f"  closed-form volume integral : {closed_form:.6f}  (= pi)")

report = fg.divergence_theorem_report(model, SphereSpec(np.zeros(3), radius), 50000, seed=0)
print(f"  MC volume integral (lhs)    : {report.volume_integral:.6f}")
print(f"  MC surface flux    (rhs)    : {report.surface_integral:.6f}")
print(f"  verdict                     : {'PASS' if report.passed else 'FAIL'}")

# --- Gaussian bump: the two estimators cross-check each other -------------
bump = fg.gauss_bump(2)
sphere = SphereSpec(np.zeros(2), 0.75)
lhs = fg.volume_divergence_integral(bump, sphere, 50000, seed=1)
rhs = fg.surface_flux_integral(bump, sphere, 50000, seed=2)
print("\ngaussian bump, disk radius 0.75")
print(f"  volume integral  : {lhs.value:.6f} +- {lhs.standard_error:.6f}")
print(f"  surface flux     : {rhs.value:.6f} +- {rhs.standard_error:.6f}")
gap = abs(lhs.value - rhs.value) / np.hypot(lhs.standard_error, rhs.standard_error)
print(f"  gap              : {gap:.2f} combined standard errors")
