import re
from pathlib import Path

from factprobe.config import SPEC

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_run_config_table_names_every_top_level_key():
    # Defaults live only in the dataclasses; the table is the reference.
    section = README.read_text(encoding="utf-8").split("## Run config", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {key for row in rows for key in re.findall(r"`([a-z_]+)`", row.split("|")[1])}
    assert documented == {name.rstrip("?") for name in SPEC}
