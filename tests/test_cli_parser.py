"""The CLI's parser surface is pinned: no flag dropped, renamed or
re-defaulted.

``tests/data/cli_parser.json`` records, per subcommand, every argparse
action's ``option_strings``, ``dest``, ``default``, ``choices``,
``nargs``, ``metavar`` and ``help``.  Positionals are compared in order
(their order is the command line); optional flags by option string
(their order is only ``--help`` layout).  Unlike ``--help`` text, the
record does not depend on the Python version.
"""

import argparse
import json
import os

from repro.harness.cli import build_parser

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "cli_parser.json")


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    return {"option_strings": list(action.option_strings),
            "dest": action.dest, "default": action.default,
            "choices": list(choices) if choices is not None else None,
            "nargs": action.nargs, "metavar": action.metavar,
            "help": action.help}


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """``{subcommand: {help, positionals, optionals}}`` for ``parser``."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {}
    for name, p in sub.choices.items():
        actions = [_action(a) for a in p._actions]
        surface[name] = {
            "help": helps.get(name),
            "positionals": [a for a in actions if not a["option_strings"]],
            "optionals": {a["option_strings"][0]: a for a in sorted(
                (a for a in actions if a["option_strings"]),
                key=lambda a: a["option_strings"][0])},
        }
    return surface


def test_parser_matches_the_record():
    with open(RECORD, encoding="utf-8") as fh:
        recorded = json.load(fh)
    current = json.loads(json.dumps(parser_surface(build_parser())))
    assert sorted(current) == sorted(recorded)
    for name in recorded:
        assert current[name] == recorded[name], name
