"""Tests for the stable top-level API facade (``import repro``)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.iclist.evaluate import GROW_THRESHOLD


class TestFacadeExports:
    def test_top_level_names(self):
        for name in ("verify", "Options", "VerificationResult", "METHODS",
                     "Outcome", "Problem", "available_models",
                     "build_model", "MODELS", "Tracer", "NullTracer",
                     "RecordingTracer", "JsonlTracer"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_methods_tuple(self):
        assert repro.METHODS == ("fwd", "bkwd", "fd", "ici", "xici")

    def test_available_models(self):
        names = repro.available_models()
        assert names == tuple(sorted(names))
        assert {"fifo", "network", "movavg", "pipeline", "ring",
                "philosophers", "coherence", "abp"} <= set(names)
        assert set(names) == set(repro.MODELS)

    def test_facade_verify_round_trip(self):
        problem = repro.build_model("fifo", depth=3, width=4)
        result = repro.verify(problem, "xici")
        assert isinstance(result, repro.VerificationResult)
        assert result.verified

    def test_old_import_paths_still_work(self):
        from repro.core import verify as core_verify
        from repro.core.runner import verify as runner_verify
        from repro.core.options import Options as OldOptions
        from repro.models import typed_fifo
        assert core_verify is runner_verify is repro.verify
        assert OldOptions is repro.Options
        assert repro.MODELS["fifo"].builder is typed_fifo


class TestImportFootprint:
    def test_default_verify_loads_neither_numpy_nor_networkx(self):
        # Both are optional: networkx only backs the matching evaluator
        # (the ``cover`` extra), and nothing needs numpy.
        script = (
            "import sys, repro\n"
            "problem = repro.build_model('fifo', depth=3)\n"
            "assert repro.verify(problem, 'xici').verified\n"
            "print(sorted(name for name in ('numpy', 'networkx')\n"
            "             if name in sys.modules))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"


class TestModelRegistry:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            repro.build_model("warp-core")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="no parameter"):
            repro.build_model("fifo", depth=3, width=4, phils=2)

    def test_bug_flag_and_label_kinds(self):
        buggy = repro.build_model("fifo", bug="1", depth=2, width=4)
        result = repro.verify(buggy, "xici")
        assert result.violated
        labeled = repro.build_model("pipeline", bug="no-bypass",
                                    regs=2, bits=1)
        assert labeled.machine is not None


class TestResultSerialization:
    def test_to_dict_to_json_round_trip(self):
        result = repro.verify(repro.build_model("movavg", depth=2,
                                                width=4), "xici")
        payload = json.loads(result.to_json())
        assert payload == result.to_dict()
        for key in ("method", "model", "outcome", "holds", "iterations",
                    "elapsed_seconds", "peak_nodes", "max_iterate_nodes",
                    "max_iterate_profile", "bdd_stats", "trace_summary",
                    "iterate_profiles", "counterexample", "extra"):
            assert key in payload, key
        assert payload["verified"] is True
        assert payload["counterexample"] is None
        assert payload["trace_summary"] is None

    def test_counterexample_serialized(self):
        result = repro.verify(repro.build_model("fifo", bug="1",
                                                depth=2, width=4), "xici")
        payload = result.to_dict()
        assert payload["violated"] is True
        cx = payload["counterexample"]
        assert cx["length"] == len(cx["steps"]) >= 1
        assert isinstance(cx["steps"][0]["state"], dict)

    def test_include_flags(self):
        result = repro.verify(repro.build_model("movavg", depth=2,
                                                width=4), "xici")
        slim = result.to_dict(include_profiles=False,
                              include_counterexample=False)
        assert "iterate_profiles" not in slim
        assert "counterexample" not in slim
        # still JSON-safe
        json.dumps(slim)


class TestOptionsFromArgs:
    def test_empty_namespace_gives_defaults(self):
        options = repro.Options.from_args(argparse.Namespace())
        assert options == repro.Options()
        assert options.grow_threshold == GROW_THRESHOLD

    def test_flag_mapping(self):
        namespace = argparse.Namespace(
            max_nodes=123, time_limit=4.5, grow_threshold=2.0,
            evaluator="matching", simplifier="constrain",
            bounded_and=True, back_image="relational", monotone=True,
            auto_decompose=True)
        options = repro.Options.from_args(namespace)
        assert options.max_nodes == 123
        assert options.time_limit == 4.5
        assert options.grow_threshold == 2.0
        assert options.evaluator == "matching"
        assert options.simplifier == "constrain"
        assert options.use_bounded_and is True
        assert options.back_image_mode == "relational"
        assert options.exploit_monotonicity is True
        assert options.auto_decompose is True

    def test_tracer_threaded_through(self):
        tracer = repro.RecordingTracer()
        options = repro.Options.from_args(argparse.Namespace(),
                                          tracer=tracer)
        assert options.tracer is tracer
        result = repro.verify(repro.build_model("movavg", depth=2,
                                                width=4), "xici", options)
        assert result.trace_summary is not None
