"""Tests for the IQ-size sensitivity ablation."""

from repro.experiments import sensitivity

SMALL = dict(measure=1200, warmup=5000)


class TestSensitivity:
    def test_structure_and_shapes(self):
        results = sensitivity.run(
            benchmarks=["hmmer", "libquantum"],
            sweep=((64, 4), (32, 2), (8, 2)),
            **SMALL,
        )
        without = results["without_ixu"]
        with_ixu = results["with_ixu"]
        # The 64x4 point without an IXU *is* BIG.
        assert without["64x4"]["ipc"] == 1.0
        assert without["64x4"]["iq_energy"] == 1.0
        # The paper's claim: with the IXU, shrinking the IQ costs much
        # less performance than without it.
        loss_without = without["64x4"]["ipc"] - without["8x2"]["ipc"]
        loss_with = with_ixu["64x4"]["ipc"] - with_ixu["8x2"]["ipc"]
        assert loss_with <= loss_without + 0.02
        # And the IXU slashes IQ energy at every point.
        for point in without:
            assert (with_ixu[point]["iq_energy"]
                    < without[point]["iq_energy"])

    def test_format(self):
        results = sensitivity.run(
            benchmarks=["hmmer"], sweep=((64, 4), (32, 2)), **SMALL
        )
        text = sensitivity.format_table(results)
        assert "Sensitivity" in text and "64x4" in text


class TestSensitivityEdgeCases:
    def test_empty_benchmark_selection_falls_back_to_full_suite(self):
        """An explicit empty list means "no filter" (the CLI passes
        [] when --benchmarks is omitted), so the sweep covers the
        whole suite — pin that contract with a single-point sweep."""
        from repro.workloads import ALL_BENCHMARKS
        from repro.experiments import runner

        captured = {}

        def spy(pairs, *args, **kw):
            pairs = list(pairs)
            captured["benchmarks"] = {b for _, b in pairs}
            # Don't actually simulate the full suite; the contract
            # under test is the selection, not the results.
            raise _Sentinel()

        class _Sentinel(Exception):
            pass

        original = runner.prefetch
        try:
            runner.prefetch = spy
            try:
                sensitivity.run(benchmarks=[], sweep=((64, 4),),
                                **SMALL)
            except _Sentinel:
                pass
        finally:
            runner.prefetch = original
        assert captured["benchmarks"] == set(ALL_BENCHMARKS)

    def test_single_point_sweep(self):
        results = sensitivity.run(
            benchmarks=["hmmer"], sweep=((64, 4),), **SMALL)
        assert set(results["without_ixu"]) == {"64x4"}
        assert results["without_ixu"]["64x4"]["ipc"] == 1.0
        assert results["with_ixu"]["64x4"]["ipc"] > 0

    def test_empty_sweep_is_a_clear_error(self):
        import pytest

        with pytest.raises(ValueError, match="at least one"):
            sensitivity.run(benchmarks=["hmmer"], sweep=(), **SMALL)


class TestGeomeanEdgeCases:
    def test_geomean_over_one_run_is_identity(self):
        from repro.experiments.runner import geomean

        assert geomean([3.25]) == 3.25

    def test_geomean_accepts_one_pass_generators(self):
        from repro.experiments.runner import geomean

        assert abs(geomean(float(v) for v in (2, 8)) - 4.0) < 1e-12

    def test_geomean_error_names_offending_entry(self):
        import pytest
        from repro.experiments.runner import geomean

        with pytest.raises(ValueError, match="entry 1"):
            geomean([2.0, -1.0])
