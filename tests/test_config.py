import csv
import re
from pathlib import Path

import yaml

from factprobe import cli
from factprobe.config import SPEC

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
EXAMPLE = ROOT / "configs" / "example.yaml"


def test_readme_run_config_table_names_every_top_level_key():
    # Defaults live only in the dataclasses; the table is the reference.
    section = README.read_text(encoding="utf-8").split("## Run config", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {key for row in rows for key in re.findall(r"`([a-z_]+)`", row.split("|")[1])}
    assert documented == {name.rstrip("?") for name in SPEC}


def test_the_example_config_runs_every_stage(tmp_path):
    # A key dropped from the spec but left in the example would fail here.
    config = yaml.safe_load(EXAMPLE.read_text(encoding="utf-8"))
    for key in ("entities", "relations", "facts"):
        config[key] = str((EXAMPLE.parent / config[key]).resolve())
    path = tmp_path / "example.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = tmp_path / config["output_dir"]
    for argv in (["build-dataset"], ["evaluate", "--bundle", str(out / "bundle")],
                 ["report", "--records", str(out / "records")]):
        assert cli.main(argv[:1] + ["--config", str(path)] + argv[1:]) == 0, argv
    with open(out / "report" / "cells.csv", encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert cells and all(float(cell["r_at_1"]) == 1.0 for cell in cells)
