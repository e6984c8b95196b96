"""Public API surface: imports, __all__, and the CLI entry point."""

import subprocess
import sys

import pytest


class TestTopLevelExports:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_names_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.xmltree",
            "repro.synopsis",
            "repro.dtd",
            "repro.generators",
            "repro.routing",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_importable(self, module):
        imported = __import__(module, fromlist=["__all__"])
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"

    def test_quickstart_flow(self):
        """The README quickstart in one test."""
        from repro import (
            METRICS,
            DocumentSynopsis,
            SelectivityEstimator,
            parse_xml,
            parse_xpath,
        )

        synopsis = DocumentSynopsis(mode="hashes", capacity=64, seed=1)
        for doc_id in range(20):
            flavour = "b" if doc_id % 2 else "c"
            synopsis.insert_document(
                parse_xml(f"<a><{flavour}><d/></{flavour}></a>", doc_id=doc_id)
            )
        estimator = SelectivityEstimator(synopsis)
        p = parse_xpath("/a/b/d")
        q = parse_xpath("/a//d")
        assert 0.0 <= estimator.selectivity(p) <= 1.0
        assert 0.0 <= METRICS["M3"](estimator, p, q) <= 1.0


class TestCommandLine:
    def test_cli_tiny_figure(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "summary",
                "--scale",
                "tiny",
                "--dtd",
                "nitf",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "nitf" in result.stdout

    def test_cli_rejects_unknown_target(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "figure99"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0
