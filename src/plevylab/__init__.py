"""plevylab: a numerical laboratory for nonlocal energies driven by
concentrated p-Levy kernels.

Kernel families with unit (1 ^ |h|^p)-mass are constructed, sampled and
integrated, and so, unsampled, are the fractional rescalings, whose mass
tends to S/p, S/d or S; nonlocal pair energies are estimated by
importance-sampled Monte Carlo with a deterministic one-dimensional oracle;
and concentration sweeps compare the limits against the gradient energy (or
total variation) they recover on extension domains, including the slit
domains where the recovery fails.
"""

from .constants import (Kdp, compute_kdp, kdp_closed, kdp_mc, kdp_mean,
                        sphere_area, unit_ball_volume)
from .functionals import (EnergyEstimate, cross_energy, dirac_pairing,
                          energy, gagliardo, generator, local_measure)
from .fields import (BallIndicator, Gaussian, Linear, SignJump, SmoothBump,
                     Tent, bv_seminorm, grad_lp_norm, sobolev_norm_p)
from .geometry import (Ball, Box, FullSpace, IntervalUnion, SlitBall,
                       interval, slit_interval)
from .kernels import (KernelFamily, RadialKernel, default_families,
                      make_log_limit, make_rescaled, make_smoothed_power,
                      make_stable, make_truncated_power, mass_outside,
                      normalization, weighted_moment)
from .quadrature import QuadratureError
from .sweep import SweepCase, SweepReport, builtin_suite, run_suite, run_sweep

__version__ = "0.1.0"
