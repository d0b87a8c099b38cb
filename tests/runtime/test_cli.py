"""Tests for the command-line interface."""

import pytest

from repro import ReductionFramework
from repro.cli import main


class TestCli:
    def test_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "pruned: 30" in out
        assert "(p) *" in out

    def test_passes(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "shuffle pass" in out
        assert "shared-atomic pass" in out

    def test_passes_with_unroll(self, capsys):
        assert main(["passes", "--unroll"]) == 0
        assert "unroll pass" in capsys.readouterr().out

    def test_cuda(self, capsys):
        assert main(["cuda", "p"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out
        assert "__shfl_down" in out

    def test_reduce_success(self, capsys):
        assert main(["reduce", "5000", "--version", "m"]) == 0
        out = capsys.readouterr().out
        assert "relative error" in out
        assert "kernel launches: 1" in out

    def test_reduce_with_tunables(self, capsys):
        assert main(["reduce", "5000", "--version", "b", "--block", "128",
                     "--grid", "32"]) == 0

    @pytest.mark.parametrize("tunable", [["--grid", "32"],
                                         ["--block", "128"]])
    def test_reduce_with_one_tunable(self, tunable, capsys):
        """Either tunable alone runs; the other keeps its default."""
        assert main(["reduce", "5000", "--version", "b", *tunable]) == 0
        assert "relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["reduce", "0"],
        ["reduce", "-3"],
        ["reduce", "-n", "0"],
        ["time", "0"],
        ["tune", "0"],
        ["sanitize", "-n", "0"],
        ["explain", "b", "-n", "0"],
        ["tune", "4096", "--version", "b", "--jobs", "0"],
        ["tune", "4096", "--version", "b", "--jobs", "-1"],
        ["reduce", "100", "--block", "0"],
        ["reduce", "100", "--grid", "0"],
        ["reduce", "100", "--block", "48"],
    ], ids="-".join)
    def test_bad_size_or_geometry_is_usage_error(self, argv, capsys):
        """Non-positive sizes, grids and block sizes Tunables rejects
        exit 2 with a usage message, never a traceback or a default."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["reduce", "100", "--version", "zz"],
        ["time", "-n", "4096", "--versions", "zz"],
        ["time", "-n", "4096", "--versions", "a,zz"],
        ["time", "-n", "4096", "--versions", "DT"],
        ["time", "-n", "4096", "--versions", "a,,b"],
        ["tune", "4096", "--version", "zz"],
        ["explain", "zz"],
        ["explain", "--diff", "a", "zz"],
        ["cuda", "zz"],
        ["sanitize", "100", "--versions", "zz"],
        ["sanitize", "100", "--versions", "a,,b"],
    ], ids="-".join)
    def test_unknown_version_is_usage_error(self, argv, capsys):
        """Unknown version labels exit 2 with a usage message naming the
        valid labels, never a KeyError traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p" in err
        assert "Traceback" not in err

    def test_version_identifier_is_accepted(self, capsys):
        identifier = ReductionFramework().resolve("b").identifier
        assert main(["reduce", "1000", "--version", identifier]) == 0
        assert "relative error" in capsys.readouterr().out

    def test_version_list_names_comma_identifiers(self, capsys):
        """A version identifier may contain a comma (``DT,A / V``): the
        list joins pieces until they name a version."""
        assert main(["time", "-n", "4096", "--versions", "DT,A / V,b"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "(DT,A / V)" in header and "(b)" in header

    def test_reduce_max(self, capsys):
        assert main(["reduce", "3000", "--op", "max", "--version", "n"]) == 0

    def test_time(self, capsys):
        assert main(["time", "4096", "--versions", "m,p"]) == 0
        out = capsys.readouterr().out
        assert "kepler" in out and "pascal" in out
        assert "CUB" in out

    def test_tune(self, capsys):
        assert main(["tune", "10000", "--version", "b", "--arch",
                     "maxwell"]) == 0
        out = capsys.readouterr().out
        assert "<- best" in out

    def test_tune_cache_stats_reports_kernel_reuse(self, capsys):
        """An in-process tune builds one kernel per block size and
        reuses it for every grid."""
        import re

        from repro.obs import default_metrics

        metrics = default_metrics()
        before = {
            name: metrics.counter(f"codegen.kernels_{name}")
            for name in ("built", "reused")
        }
        assert main(["tune", "6007", "--version", "b", "--jobs", "1",
                     "--cache-stats"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^\[kernels\] built=(\d+) reused=(\d+)$", out, re.M)
        built = int(match.group(1)) - before["built"]
        reused = int(match.group(2)) - before["reused"]
        assert built <= 4 and built + reused == 20

    def test_tune_cache_stats_reports_suffix_reuse(self, capsys):
        """The block combine of version f reads no block id: its 16
        single-chunk launches simulate it at most once per (chunk block
        count, block size) and replay it otherwise. (Of the 20 sweep
        points, the 4 with ``grid=None`` resolve to grid 1024 at this
        size, the launch of the explicit 1024 point, and are profiled
        with it.)"""
        import re

        from repro.obs import default_metrics

        metrics = default_metrics()
        before = {
            name: metrics.counter(f"exec.suffix.{name}")
            for name in ("simulated", "reused")
        }
        assert main(["tune", "4194304", "--version", "f", "--jobs", "1",
                     "--cache-stats"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^\[suffix\] simulated=(\d+) reused=(\d+)$", out,
                          re.M)
        simulated = int(match.group(1)) - before["simulated"]
        reused = int(match.group(2)) - before["reused"]
        assert simulated <= 4 and simulated + reused == 16

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("verb", ["sweep", "cache"])
    def test_retired_cache_verbs_rejected(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_version_errors(self):
        """The library raises KeyError for an unknown label; the CLI
        rejects it at argparse (test_unknown_version_is_usage_error)."""
        with pytest.raises(KeyError):
            ReductionFramework().resolve("zz")

    @pytest.mark.parametrize(
        "spec",
        ["native", "auto-native", "batched-native", "sequential-native",
         "vector", "batched-vector", "sequential-vector",
         # Execution modes are derived, not set: mode specs are retired.
         "auto", "sequential", "batched-compiled", "sequential-interpreted",
         # ``compiled`` is the only engine: even naming it is an error.
         "compiled"],
    )
    def test_retired_native_engine_rejected(self, spec, capsys):
        """No engine is selectable: ``--engine`` is not an option."""
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "4096", "--engine", spec])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize("engines", ["bogus", "compiled,bogus"])
    def test_sanitize_unknown_engine_is_usage_error(self, engines, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "-n", "4096", "--versions", "b",
                  "--engine", engines])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse reads the stray value as the positional size, so the
        # usage error may name it rather than ``--engine``.
        assert "repro sanitize: error:" in err
        assert "Traceback" not in err
