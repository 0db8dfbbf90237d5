"""Multiplexing-gain toolkit for Wyner-type linear interference networks
with cognitive transmitters and clustered decoding.

Submodules: netmodel (instances and channel matrices), tridiag (determinant
recursion, exact roots, banded inverses), dofcalc (closed-form values and
bounds), schemes (constructive plans and certification), converse
(genie-aided bounds verified as linear identities), simulator (finite-power
rate sweeps), cli (command-line front end).
"""

from .netmodel import (ASYMMETRIC, SYMMETRIC, ChannelModel, CrossGainAssignment,
                       NetworkParams, build_channel, sample_generic_gains,
                       submatrix)
from .tridiag import (RootAlpha, RootSet, critical_roots, det_h, rank_h,
                      u_is_zero, v_sequence)
from .dofcalc import (DofInterval, asym_mg, asym_mg_per_user, sym_dof_interval,
                      sym_lower_bounds, sym_mg_per_user, sym_mg_symmetric_si,
                      sym_upper_bounds)
from .schemes import (TransmissionPlan, asym_plan, certify_plan,
                      fair_time_sharing_plan, sym_general_plan,
                      sym_symmetric_si_plan)
from .converse import (GeniePartition, build_asym_genie, build_offset_genie,
                       build_sym_genie_ub1, build_sym_genie_ub2,
                       genie_entropy_check, verify_reconstruction)
from .simulator import (offset_experiment, plan_sum_rate,
                        random_gain_rank_trials, slope_estimate)

__version__ = "0.1.0"
