"""The README's examples still run against the package.

A removed config key or a changed summary line would otherwise leave the
README stale until a reader tries it.
"""

import re
from pathlib import Path

import pytest

from combadc.cli import main
from combadc.errors import ConfigError
from combadc.scenario import load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(section: str) -> list[str]:
    """Fenced code blocks under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\n(.*?)^```$", body, re.S | re.M)


def test_config_example_parses():
    (example,) = _blocks("Configs")
    assert load_config(example) != load_config("")


def test_noise_term_table_keys_load():
    body = README.split("\n## Configs\n", 1)[1]
    table = body.split("| noise term | off when |", 1)[1].split("\n\n", 1)[0]
    settings = re.findall(r"`([a-z_]+\.[a-z_]+) = ([^`]+)`", table)
    assert len(settings) == 12
    for key, value in settings:
        load_config(f"{key} = {value}")


def _retired_rows() -> list[tuple[str, str | None]]:
    """(retired line, replacement line or None) per row of the table."""
    table = README.split("| retired line | write instead |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \|$", table, re.M)
    return [(line, None if fix.startswith("delete it") else fix.strip("`")) for line, fix in rows]


RETIRED = _retired_rows()


def test_retired_key_table_has_one_row_per_key():
    keys = [line.split(" = ")[0] for line, _ in RETIRED]
    assert len(keys) == 24 == len(set(keys))


@pytest.mark.parametrize(
    "line, fix", RETIRED, ids=[line.split(" = ")[0] for line, _ in RETIRED]
)
def test_retired_key_table_row(line, fix):
    # an older manifest's line fails by name; the row's replacement loads
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"^line 1: unknown key '{re.escape(key)}'$"):
        load_config(line)
    if fix is not None:
        load_config(fix)


def test_validate_prints_the_readme_sample(capsys):
    (session,) = [b for b in _blocks("Command line") if b.startswith("$ combadc validate\n")]
    sample = session.splitlines()[1]
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == sample + "\n"
