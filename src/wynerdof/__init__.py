"""Multiplexing-gain toolkit for Wyner-type linear interference networks
with cognitive transmitters and clustered decoding.

Submodules: netmodel (instances and channel matrices), tridiag (determinant
recursion, exact roots, banded inverses), dofcalc (closed-form values and
bounds), schemes (constructive plans and certification), converse
(genie-aided bounds verified as linear identities), simulator (finite-power
rate sweeps), cli (command-line front end).  Import the submodule you need
(`from wynerdof import schemes`); the package itself loads none of them, so
the closed-form commands start without numpy.
"""

__version__ = "0.1.0"
