"""Guards for the docs/ guide set: the guides exist, README links them, the
markdown link checker passes over everything it will check in CI, and every
example script exposes the --smoke mode the docs CI job executes."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GUIDES = ("architecture.md", "schedule-ir.md", "faults.md")


@pytest.fixture(scope="module")
def check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO / "scripts" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_guides_exist():
    for name in GUIDES:
        assert (REPO / "docs" / name).is_file(), f"docs/{name} missing"


def test_readme_links_every_guide():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for name in GUIDES:
        assert f"docs/{name}" in readme, f"README does not link docs/{name}"


def test_link_check_passes(check_links):
    # The same invocation the CI docs job runs.
    assert check_links.main([str(REPO / "README.md"), str(REPO / "docs")]) == 0


def test_link_checker_catches_breakage(tmp_path, check_links):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](does-not-exist.md)", encoding="utf-8")
    assert check_links.main([str(bad)]) == 1
    good = tmp_path / "good.md"
    good.write_text("# Title\nsee [self](#title)", encoding="utf-8")
    assert check_links.main([str(good)]) == 0


def test_link_checker_checks_anchors(tmp_path, check_links):
    target = tmp_path / "target.md"
    target.write_text("# Real Heading\n", encoding="utf-8")
    src = tmp_path / "src.md"
    src.write_text("[ok](target.md#real-heading) [bad](target.md#nope)",
                   encoding="utf-8")
    assert check_links.main([str(src)]) == 1


def test_every_example_has_smoke_mode():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert examples, "no example scripts found"
    for example in examples:
        content = example.read_text(encoding="utf-8")
        assert re.search(r"--smoke", content), (
            f"{example.name} lacks the --smoke mode the docs CI job runs"
        )


def test_ci_job_ids_are_unique():
    # YAML keeps only the last of two equal mapping keys, so a duplicated
    # job id silently drops the earlier job from CI.
    lines = (REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    ).splitlines()
    start = lines.index("jobs:") + 1
    job_ids = []
    for line in lines[start:]:
        if line and not line[0].isspace() and not line.startswith("#"):
            break  # the next top-level key ends the jobs mapping
        match = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if match:
            job_ids.append(match.group(1))
    assert job_ids, "no jobs found in ci.yml"
    duplicates = sorted({j for j in job_ids if job_ids.count(j) > 1})
    assert not duplicates, f"duplicate CI job ids: {duplicates}"


def test_faults_guide_references_the_example_and_ablation():
    guide = (REPO / "docs" / "faults.md").read_text(encoding="utf-8")
    assert "examples/faults_and_quorum.py" in guide
    assert "ablation-faults" in guide


def test_memory_stages_smoke_reports_every_stage(capsys):
    # docs/performance.md's "Peak memory" tables come from this probe; the
    # docs CI job runs the same --smoke invocation.
    spec = importlib.util.spec_from_file_location(
        "memory_stages", REPO / "scripts" / "memory_stages.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stages = [line.split("VmRSS")[0].strip() for line in lines if "VmRSS" in line]
    assert stages == [
        "start", "import numpy", "import repro", "load_dataset", "cluster build", "fit 1"
    ]
