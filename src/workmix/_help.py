"""The ``--help`` text, built from the command table that ``workmix._argv`` reads.

Only ``-h``/``--help`` imports this module, so no other command compiles it.
"""

from __future__ import annotations

import sys


def print_help(commands: dict, command: str | None) -> None:
    """Usage, then one line per command or, for ``command``, per flag."""
    footer = ""
    if command is None:
        usage, title = "<command> [options]", "commands, each with its own --help"
        rows = [(f"{name} <{arg}>" if arg else name, about)
                for name, (arg, about, _) in commands.items()]
        footer = "\nexit codes: 0 success, 1 bad input or usage, 2 failed run, write or verify\n"
    else:
        arg, about, flags = commands[command]
        usage = f"{command} <{arg}> [options]" if arg else f"{command} [options]"
        title = f"{about}\n\noptions"
        metavars = {str: " PATH", int: " N", bool: ""}
        rows = [(flag + (f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else metavars[kind]),
                 text) for flag, (kind, text) in flags.items()]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows)
    lines = "".join(f"  {name:<{width}}  {text}\n" for name, text in rows)
    sys.stdout.write(f"usage: workmix {usage}\n\n{title}:\n{lines}{footer}")
