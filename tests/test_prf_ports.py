"""Tests for the shared PRF read-port arbitration (paper Section II-A)."""

from dataclasses import replace

from repro.core import build_core
from repro.core.presets import big_fx_config, half_fx_config
from repro.isa import DynInst, OpClass, int_reg


def _ready_alu_stream(n):
    return [
        DynInst(seq=i, pc=0x1000 + 4 * (i % 64), op=OpClass.INT_ALU,
                dest=int_reg(i % 20),
                srcs=(int_reg(25 + i % 3), int_reg(28)))
        for i in range(n)
    ]


class TestPRFPortArbitration:
    def test_oxu_priority_tracked(self):
        # Only FXA consumes the ``(cycle, claimed)`` port ledger (its
        # front-end register read competes with the OXU); the OXU claims
        # ports every issue cycle there.  Plain cores never touch the
        # ledger but still count every PRF read for the energy model.
        fxa = build_core(half_fx_config())
        fxa.run(_ready_alu_stream(500))
        cycle, claimed = fxa._prf_ports
        assert cycle > 0 and claimed > 0
        plain = build_core("BIG")
        plain.run(_ready_alu_stream(500))
        assert plain._prf_ports == (-1, 0)
        assert sum(p.reads for p in plain.renamer.prf.values()) > 0

    def test_starved_front_end_captures_less(self):
        """With a single shared read port, the FXA front end almost
        never captures operands and the IXU filter rate collapses."""
        trace = _ready_alu_stream(2000)
        plenty = build_core(half_fx_config()).run(trace)
        starved_config = replace(half_fx_config(), prf_read_ports=1)
        starved = build_core(starved_config).run(trace)
        assert starved.committed == 2000          # still correct
        assert (starved.ixu_category_a
                < 0.7 * max(1, plenty.ixu_category_a))

    def test_default_ports_do_not_throttle_halffx(self):
        """Paper Section III-B: the shared ports do not slow the IXU
        down for the proposed configuration."""
        trace = _ready_alu_stream(2000)
        default = build_core(half_fx_config()).run(trace)
        unlimited_config = replace(half_fx_config(), prf_read_ports=999)
        unlimited = build_core(unlimited_config).run(trace)
        assert default.cycles == unlimited.cycles

    def test_bigfx_arbitration_is_live(self):
        """BIG+FX's 4-wide OXU can genuinely contend for ports."""
        config = replace(big_fx_config(), prf_read_ports=4)
        stats = build_core(config).run(_ready_alu_stream(2000))
        assert stats.committed == 2000
