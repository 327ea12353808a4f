"""The CLI's argument tree, pinned.

``cli_arg_tree.json`` records the top parser's command list and, for each
command, every action's option strings, dest, default, type, choices and
help, in ``--help`` order. Types are recorded by name and defaults as JSON
values, so the pin reads the same on every Python version. A change to how
the tree is declared must leave every entry unchanged.

Regenerate the file only from a commit whose tree is the reference:

    PYTHONPATH=src python tests/test_cli_arg_tree.py
"""
import argparse
import json
from pathlib import Path

from szilard import cli

PIN = Path(__file__).resolve().parent / "cli_arg_tree.json"


def _commands(top: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (subs,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return subs


def _action(action: argparse.Action) -> dict:
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": action.choices,
        "help": action.help,
    }


def arg_tree() -> dict:
    top = cli.build_arg_parser()
    subs = _commands(top)
    return {
        "prog": top.prog,
        "description": top.description,
        "metavar": subs.metavar,
        "commands": list(subs.choices),
        "listed": {a.dest: a.help for a in subs._choices_actions},
        "actions": {
            name: [_action(a) for a in sub._actions] for name, sub in subs.choices.items()
        },
    }


def test_arg_tree_matches_the_pin():
    assert arg_tree() == json.loads(PIN.read_text())


def test_two_main_calls_build_one_arg_tree(monkeypatch, capsys):
    built = []
    init = cli._ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert cli.main(["entropy", "--spec", "det(LL)"]) == 0
    capsys.readouterr()
    # one tree is the top parser and one parser per command
    assert len(built) <= 1 + len(_commands(cli.build_arg_parser()).choices)
    assert cli.build_arg_parser() is cli.build_arg_parser()


if __name__ == "__main__":
    PIN.write_text(json.dumps(arg_tree(), indent=1) + "\n")
