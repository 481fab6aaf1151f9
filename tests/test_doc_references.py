"""Commands the docs name must exist.

Every ``aikido-repro <verb>`` (or ``cli <verb>`` shorthand) in README.md,
``docs/*.md`` and the verify skill must be an artifact choice of the CLI
parser or a dispatched verb, every ``--option`` on that command must be
one its parser accepts (the main parser's, or the ``record``/``replay``
subparser's), and every ``scripts/<name>`` must be a file. A command
runs to the end of its code line, with backslash continuations, or to
the end of its inline code span. EXPERIMENTS.md is a historical record
of past runs and is not checked.
"""

import re
from pathlib import Path

import pytest

from repro.eventlog import cli as eventlog_cli
from repro.harness.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
        REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

#: Verbs ``cli.main`` dispatches before argparse sees them.
DISPATCHED = {"record", "replay"}

#: A command at the start of a code line or inline code span; prose such
#: as "the aikido-repro harness" is not a command.
VERB = re.compile(r"(^|`)[ \t]*(?:aikido-repro|cli)\s+([a-z][a-z0-9-]*)",
                  re.MULTILINE)
OPTION = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
SCRIPT = re.compile(r"scripts/(?:\{([\w,]+)\}|([\w-]+))(\.\w+)?")


def _options(parser):
    return {opt for action in parser._actions
            for opt in action.option_strings}


def _verb_options():
    """verb -> the option strings its parser accepts."""
    main = build_parser()
    artifact = next(a for a in main._actions if a.dest == "artifact")
    verbs = dict.fromkeys(artifact.choices, _options(main))
    subparsers = next(a for a in eventlog_cli.build_parser()._actions
                      if a.dest == "verb")
    for verb in DISPATCHED:
        verbs[verb] = _options(subparsers.choices[verb])
    return verbs


def _commands(text):
    """``(verb, options)`` per command the text names."""
    for match in VERB.finditer(text):
        opener, verb = match.groups()
        rest = text[match.end():]
        if opener == "`":
            rest = rest.split("`", 1)[0]
        else:
            lines = []
            for line in rest.split("\n"):
                lines.append(line)
                if not line.rstrip().endswith("\\"):
                    break
            rest = "\n".join(lines)
        yield verb, OPTION.findall(rest)


def _scripts(text):
    for match in SCRIPT.finditer(text):
        braced, name, suffix = match.groups()
        for stem in (braced.split(",") if braced else [name]):
            yield stem + (suffix or "")


@pytest.mark.parametrize("doc", [d for d in DOCS if d.exists()],
                         ids=lambda p: str(p.relative_to(REPO)))
def test_named_commands_exist(doc):
    text = doc.read_text()
    verbs = _verb_options()
    stale = []
    for verb, options in _commands(text):
        if verb not in verbs:
            stale.append(f"aikido-repro {verb}")
            continue
        stale += [f"aikido-repro {verb} {opt}" for opt in options
                  if opt not in verbs[verb]]
    stale += [f"scripts/{name}" for name in _scripts(text)
              if not (REPO / "scripts" / name).exists()]
    assert not stale, f"{doc.name} names missing commands: {stale}"
