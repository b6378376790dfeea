"""Bypass-network event accounting.

The paper models bypass energy as result-wire drives whose cost is
proportional to the number of FUs on the network (Section V-A2): the IXU
and OXU networks are *separate* (no operand bypassing between them,
Section III-A1), so each network counts its own broadcasts.  The stages
that execute an instruction bump ``broadcasts`` themselves; the energy
model prices a broadcast by the network's FU count, which it reads from
the core configuration.
"""

from __future__ import annotations


class BypassNetwork:
    """Result-wire broadcast counter for one execution unit's network."""

    def __init__(self):
        self.broadcasts = 0
