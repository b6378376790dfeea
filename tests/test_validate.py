"""Unit tests for the differential validation harness.

Covers the golden oracle's canonical value semantics, the checker's
ability to actually catch injected divergences (a checker that never
fires is worse than none), the non-perturbation guarantee (attaching a
validator must not change the simulation), and the fuzzer's
determinism and entry points.
"""

import pytest

from repro.core import build_core
from repro.core.config import CoreConfig, IXUConfig
from repro.core.presets import model_config
from repro.isa import DynInst, OpClass, int_reg
from repro.validate import (
    GoldenOracle,
    ValidationError,
    Validator,
    execute_trace,
    initial_mem_value,
    initial_reg_value,
    mix64,
    validate_core,
    validate_model,
)
from repro.validate import fuzz as fuzz_module
from repro.validate.checker import ValidationReport, Violation
from repro.validate.fuzz import (
    FuzzResult, fuzz, main as fuzz_main, sample_case,
)
from repro.workloads import generate_trace


def _inst(seq, op, dest=None, srcs=(), mem_addr=None):
    return DynInst(seq=seq, pc=0x40_0000 + 4 * seq, op=op, dest=dest,
                   srcs=srcs, mem_addr=mem_addr,
                   mem_size=8 if mem_addr is not None else 0)


# ---------------------------------------------------------------------
# Golden oracle semantics
# ---------------------------------------------------------------------


class TestOracle:
    def test_mix64_deterministic_and_sensitive(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 2, 4)
        assert mix64(1, 2, 3) != mix64(3, 2, 1)
        assert 0 <= mix64(0) < 1 << 64

    def test_initial_state_stable(self):
        assert initial_reg_value(int_reg(3)) == initial_reg_value(
            int_reg(3))
        assert initial_reg_value(int_reg(31)) == 0  # hard-wired zero
        assert initial_mem_value(0x1000) == initial_mem_value(0x1000)
        assert initial_mem_value(0x1000) != initial_mem_value(0x1008)

    def test_mov_copies_source_exactly(self):
        result = execute_trace([
            _inst(0, OpClass.INT_ALU, dest=int_reg(1)),
            _inst(1, OpClass.MOV, dest=int_reg(2), srcs=(int_reg(1),)),
        ])
        assert (result.final_regs[int_reg(2)]
                == result.final_regs[int_reg(1)])

    def test_store_load_roundtrip(self):
        result = execute_trace([
            _inst(0, OpClass.INT_ALU, dest=int_reg(1)),
            _inst(1, OpClass.STORE, srcs=(int_reg(2), int_reg(1)),
                  mem_addr=0x2000),
            _inst(2, OpClass.LOAD, dest=int_reg(3), mem_addr=0x2000),
        ])
        assert (result.final_regs[int_reg(3)]
                == result.final_regs[int_reg(1)])
        assert result.final_mem[0x2000] == result.final_regs[int_reg(1)]

    def test_load_sees_initial_memory(self):
        result = execute_trace([
            _inst(0, OpClass.LOAD, dest=int_reg(4), mem_addr=0x3000),
        ])
        assert (result.final_regs[int_reg(4)]
                == initial_mem_value(0x3000))

    def test_zero_register_writes_discarded(self):
        oracle = GoldenOracle()
        oracle.step(_inst(0, OpClass.INT_ALU, dest=int_reg(31)))
        assert oracle.read_reg(int_reg(31)) == 0

    def test_result_depends_on_operands(self):
        # Same op at the same pc with a different input value must
        # produce a different result — that is what propagates any
        # upstream divergence into every dependent value.
        a = GoldenOracle()
        a.step(_inst(0, OpClass.INT_ALU, dest=int_reg(1),
                     srcs=(int_reg(2),)))
        b = GoldenOracle()
        b.step(_inst(0, OpClass.MOV, dest=int_reg(2),
                     srcs=(int_reg(3),)))
        b.step(_inst(0, OpClass.INT_ALU, dest=int_reg(1),
                     srcs=(int_reg(2),)))
        assert a.read_reg(int_reg(1)) != b.read_reg(int_reg(1))


# ---------------------------------------------------------------------
# Checker: it must catch injected divergences
# ---------------------------------------------------------------------


class TestChecker:
    def test_clean_run_passes(self):
        report = validate_model("BIG", "hmmer", n=400, seed=0)
        assert report.ok, report.describe()
        assert report.committed == 400
        assert report.checked_commits == 400
        assert report.audits > 0

    def test_wrong_trace_reference_is_flagged(self):
        # Inject a divergence: validate against the reference of a
        # *different* trace.  The checker must report instruction
        # mismatches and a final-state divergence, with context.
        trace = generate_trace("hmmer", 300, seed=1)
        other = generate_trace("hmmer", 300, seed=2)
        validator = Validator(other)
        core = build_core(model_config("BIG"), validator=validator)
        core.run(list(trace))
        report = validator.report
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "commit_mismatch" in kinds
        assert any(v.context for v in report.violations)

    def test_strict_mode_raises_on_first_violation(self):
        trace = generate_trace("mcf", 200, seed=1)
        other = generate_trace("mcf", 200, seed=2)
        validator = Validator(other, strict=True)
        core = build_core(model_config("HALF+FX"), validator=validator)
        with pytest.raises(ValidationError):
            core.run(list(trace))

    def test_violation_recording_is_bounded(self):
        trace = generate_trace("lbm", 300, seed=1)
        other = generate_trace("lbm", 300, seed=2)
        validator = Validator(other, max_violations=3)
        core = build_core(model_config("LITTLE"), validator=validator)
        core.run(list(trace))
        report = validator.report
        assert len(report.violations) == 3
        assert report.truncated
        assert "suppressed" in report.describe()

    def test_validator_is_single_use(self):
        trace = generate_trace("hmmer", 50, seed=0)
        validator = Validator(trace)
        build_core(model_config("BIG"), validator=validator)
        with pytest.raises(RuntimeError):
            build_core(model_config("BIG"), validator=validator)

    def test_validator_does_not_perturb_the_simulation(self):
        # Attaching a validator must not change a single stat: the
        # checks observe the pipeline, they never steer it.
        trace = generate_trace("hmmer", 800, seed=4)
        for model in ("LITTLE", "BIG", "HALF+FX", "CA"):
            config = model_config(model)
            plain = build_core(config).run(list(trace))
            validator = Validator(trace)
            checked = build_core(config, validator=validator) \
                .run(list(trace))
            validator_report = validator.report
            assert validator_report.ok, validator_report.describe()
            assert checked.to_dict() == plain.to_dict()

    def test_report_round_trips_to_dict(self):
        report = validate_model("BIG", "hmmer", n=200, seed=0)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["model"] == "BIG"
        assert payload["benchmark"] == "hmmer"
        assert payload["violations"] == []


# ---------------------------------------------------------------------
# Regression: the IXU store/load ordering race the checker found
# ---------------------------------------------------------------------


def _race_trace():
    """Minimal trace reproducing the IXU store/load ordering race.

    A same-address store→load pair behind two fillers: with a single
    FU per IXU stage, the store loses stage-FU arbitration to its own
    fetch cohort while the younger load — one cycle behind, in its own
    cohort, with a free stage FU and memory port — executes first in
    the IXU.  Before the fix, the store then also executed in the IXU,
    and omission 1 (paper Section II-D3) skipped exactly the violation
    search that would have caught the younger executed load.
    """
    addr = 0x1000
    return [
        DynInst(seq=0, pc=0, op=OpClass.INT_ALU, dest=int_reg(1),
                srcs=(int_reg(2), int_reg(3))),
        DynInst(seq=1, pc=4, op=OpClass.INT_ALU, dest=int_reg(4),
                srcs=(int_reg(5), int_reg(6))),
        DynInst(seq=2, pc=8, op=OpClass.STORE,
                srcs=(int_reg(7), int_reg(8)), mem_addr=addr,
                mem_size=8),
        DynInst(seq=3, pc=12, op=OpClass.LOAD, dest=int_reg(9),
                srcs=(int_reg(10),), mem_addr=addr, mem_size=8),
        DynInst(seq=4, pc=16, op=OpClass.INT_ALU, dest=int_reg(11),
                srcs=(int_reg(9),)),
    ]


_RACE_CONFIG = CoreConfig(
    name="ixu-race", core_type="ooo",
    fetch_width=4, rename_width=3, issue_width=2, commit_width=4,
    iq_entries=16, rob_entries=32, fu_int=1, fu_mem=1, fu_fp=1,
    ixu=IXUConfig(stage_fus=(1, 1, 1), bypass_stage_limit=None),
)


class TestIXUStoreLoadRace:
    def test_no_ordering_violation_escapes_the_ixu(self):
        report = validate_core(_RACE_CONFIG, _race_trace())
        assert report.ok, report.describe()

    def test_store_falls_back_to_oxu_and_search_catches_the_load(self):
        # The fix must not hide the race — it must route the store to
        # the OXU, where the violation search runs and recovers.
        core = build_core(_RACE_CONFIG)
        stats = core.run(_race_trace())
        assert stats.committed == 5
        assert core.lsq.stats.violations >= 1
        assert core.lsq.stats.violation_searches >= 1


# ---------------------------------------------------------------------
# Fuzzer
# ---------------------------------------------------------------------


class TestFuzz:
    def test_sample_case_is_pure(self):
        assert sample_case(7, 3) == sample_case(7, 3)
        assert sample_case(7, 3) != sample_case(7, 4)
        assert sample_case(8, 3) != sample_case(7, 3)

    def test_sample_case_covers_all_core_families(self):
        case = sample_case(0, 0)
        types = [
            ("inorder" if c.core_type == "inorder"
             else "fxa" if c.has_ixu
             else "ca" if c.clusters is not None
             else "ooo")
            for c in case.configs
        ]
        assert sorted(types) == ["ca", "fxa", "inorder", "ooo"]

    def test_max_len_caps_trace_length(self):
        case = sample_case(7, 3, max_len=120)
        assert case.length <= 120

    def test_fuzz_sweep_passes(self):
        result = fuzz(2, seed=7)
        assert result.ok, result.reports
        assert len(result.cases) == 2
        assert len(result.reports) == 8  # four configs per case
        assert result.failing_case_indices == []

    def test_fuzz_cli_entry_point(self, capsys, tmp_path):
        report_path = tmp_path / "fuzz.json"
        code = fuzz_main(["--n", "1", "--seed", "7", "--max-len", "200",
                          "--report", str(report_path)])
        assert code == 0
        assert report_path.exists()
        assert "fuzz OK" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--n", "0"], ["--max-len", "0"], ["--max-len", "-3"],
        ["--case", "-1"],
    ])
    def test_fuzz_cli_bounds_exit_2(self, argv, capsys, monkeypatch):
        # Refused by the parser: --max-len 0 used to validate empty
        # traces and print "fuzz OK".
        def never(*args, **kwargs):
            raise AssertionError("fuzz ran")

        monkeypatch.setattr(fuzz_module, "fuzz", never)
        with pytest.raises(SystemExit) as excinfo:
            fuzz_main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert f"argument {argv[0]}: must be >=" in message
        assert "Traceback" not in message

    def test_both_front_ends_print_one_summary(self, capsys, monkeypatch):
        from repro.experiments.cli import main as cli_main

        diverged = ValidationReport(model="fuzz3-ooo", benchmark="mcf")
        diverged.violations.append(Violation(
            kind="commit_value", cycle=12, seq=4,
            message="r3 = 1, oracle says 2"))
        result = FuzzResult(
            seed=9, cases=[sample_case(9, 3)],
            reports=[ValidationReport(model="fuzz3-inorder",
                                      benchmark="mcf"), diverged],
            failing_case_indices=[3])
        monkeypatch.setattr(fuzz_module, "fuzz",
                            lambda *args, **kwargs: result)
        printed = []
        for main, argv in ((fuzz_main, ["--n", "1"]),
                           (cli_main, ["--fuzz", "1"])):
            assert main(argv) == 1
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].splitlines()[-2:] == [
            "fuzz FAILED: 1 of 2 runs across 1 case(s), seed 9",
            "re-run one case with: python -m repro.validate.fuzz "
            "--seed 9 --case 3 -v"]
        assert "r3 = 1, oracle says 2" in printed[0]
