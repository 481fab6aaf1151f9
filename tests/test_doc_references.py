"""Commands the docs name must exist.

Every ``aikido-repro <verb>`` (or ``cli <verb>`` shorthand) in README.md,
``docs/*.md`` and the verify skill must be an artifact choice of the CLI
parser or a dispatched verb, and every ``scripts/<name>`` must be a file.
EXPERIMENTS.md is a historical record of past runs and is not checked.
"""

import re
from pathlib import Path

import pytest

from repro.harness.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

#: Verbs ``cli.main`` dispatches before argparse sees them.
DISPATCHED = {"record", "replay"}

#: A command at the start of a code line or inline code span; prose such
#: as "the aikido-repro harness" is not a command.
VERB = re.compile(r"(?:^|`)\s*(?:aikido-repro|cli)\s+([a-z][a-z0-9-]*)",
                  re.MULTILINE)
SCRIPT = re.compile(r"scripts/(?:\{([\w,]+)\}|([\w-]+))(\.\w+)?")


def _verbs():
    action = next(a for a in build_parser()._actions
                  if a.dest == "artifact")
    return set(action.choices) | DISPATCHED


def _scripts(text):
    for match in SCRIPT.finditer(text):
        braced, name, suffix = match.groups()
        for stem in (braced.split(",") if braced else [name]):
            yield stem + (suffix or "")


@pytest.mark.parametrize("doc", [d for d in DOCS if d.exists()],
                         ids=lambda p: str(p.relative_to(REPO)))
def test_named_commands_exist(doc):
    text = doc.read_text()
    verbs = _verbs()
    stale = [f"aikido-repro {verb}" for verb in VERB.findall(text)
             if verb not in verbs]
    stale += [f"scripts/{name}" for name in _scripts(text)
              if not (REPO / "scripts" / name).exists()]
    assert not stale, f"{doc.name} names missing commands: {stale}"
