"""The argparse parser of the command line, built from cli.COMMANDS.  cli.py
imports this module only for a command line its own reading refuses: help,
an abbreviation, --opt=value or a usage error.
"""

import argparse

from .errors import USAGE_ERROR


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own error line without the usage block, so that every
        # usage error is one line; subcommand parsers inherit this class
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The parser of the grammar commands, written as cli.COMMANDS is."""
    parser = _Parser(
        prog="genocchi",
        description="Median Genocchi numbers and their q-analogues, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, handler, positional, options) in commands.items():
        p = sub.add_parser(command, help=help_line)
        if positional is not None:
            dest, choices = positional
            p.add_argument(dest, choices=choices)
        for flag, dest, kind, default, option_help in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true")
            elif default is ...:
                p.add_argument(flag, dest=dest, type=kind, required=True)
            else:
                p.add_argument(flag, dest=dest, type=kind, default=default, help=option_help)
        p.set_defaults(fn=handler)
    return parser
