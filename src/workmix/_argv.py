"""Reading a command line against a command table, as ``argparse`` would.

The table maps each command to ``(positional, help line, flags)``: the name
of its one positional argument, or None, and its flags, each mapped to
``(kind, help line)``.  A kind is ``str``, ``int``, ``bool`` for a switch, or
a tuple of the values the flag may take.  ``read_argv`` accepts what
argparse accepts, with the same meaning, and refuses what it refuses, with
its one-line message.  It imports no argparse, and so no ``gettext`` or
``locale``, which argparse would load in every ``workmix`` process, and no
``re``.  The help text is built in ``workmix._help``.
"""

from __future__ import annotations

import types
from typing import Iterable

from .errors import ValidationError


def _check_choice(name: str, value: str, choices: Iterable[str]) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ValidationError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _flag(word: str, flags: Iterable[str]) -> tuple[str | None, str | None]:
    """The flag a word names (``""`` if none does, None for an argument) and
    the value the word carries; ``-hh`` is ``-h -h``."""
    if word[:1] != "-" or word in ("-", "--"):
        return None, None
    names = ("-h", "--help", *flags)
    name, equals, value = word.partition("=")
    if name not in names and word[1] != "-" and word[:2] == "-h":  # -hVALUE
        name, equals, value = "-h", "=", word[2:]
    if name not in names:
        matches = [known for known in names if name[:2] == "--" and known.startswith(name)]
        if len(matches) > 1:
            raise ValidationError(f"ambiguous option: {word} could match {', '.join(matches)}")
        if not matches:
            return (None, None) if _is_number(word) or " " in word else ("", None)
        name = matches[0]
    if name == "-h" and value:
        value = value.lstrip("h") or None
    return ("--help" if name == "-h" else name), (value if equals else None)


def _is_number(word: str) -> bool:
    r"""argparse's ``^-\d+$|^-\d*\.\d+$`` on a word that starts with ``-``, where
    ``$`` also matches before a final newline and ``\d`` is ``str.isdecimal``."""
    whole, dot, fraction = word[1:].removesuffix("\n").partition(".")
    if dot:
        return fraction.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _print_help(commands: dict, command: str | None, value: str | None) -> None:
    if value is not None:
        raise ValidationError(f"argument -h/--help: ignored explicit argument {value!r}")
    from ._help import print_help  # here: only -h/--help compiles the help text

    print_help(commands, command)


def read_argv(argv: list[str], commands: dict) -> types.SimpleNamespace | None:
    """The command, its argument and its flags; None once help is printed.

    A flag's value is the next word or follows ``=``; a flag may be cut to a
    unique prefix, and the last of a repeated flag wins.  After the command,
    the first ``--`` ends the options.  Flags not given are None.
    """
    extras = []
    for at, word in enumerate(argv):  # the command is the first argument
        flag, value = _flag(word, ())
        if flag == "--help":
            return _print_help(commands, None, value)
        if flag is None and (word != "--" or at + 1 < len(argv)):
            break
        extras.append(word)
    else:
        raise ValidationError("the following arguments are required: command")
    command, words = argv[at], argv[at + 1:]
    _check_choice("command", command, commands)
    positional, _, flags = commands[command]
    cut = words.index("--") if "--" in words else len(words)
    kinds = [_flag(word, flags) for word in words[:cut]] + [(None, None)] * (len(words) - cut)
    args, taken, at = {"command": command, **dict.fromkeys(flag[2:] for flag in flags)}, None, 0
    while at < len(words):
        word, (flag, value), at = words[at], kinds[at], at + 1
        if flag is None and at - 1 == cut:  # argparse drops a "--" touching the positional
            if taken != cut - 1 and not (positional and taken is None and at < len(words)):
                extras.append(word)
        elif flag is None and positional and taken is None:
            taken, args[positional] = at - 1, word
        elif flag == "--help":
            return _print_help(commands, command, value)
        elif not flag:
            extras.append(word)
        else:
            kind = flags[flag][0]
            if kind is bool and value is not None:
                raise ValidationError(f"argument {flag}: ignored explicit argument {value!r}")
            if kind is not bool and value is None:
                if at in (cut, len(words)) or kinds[at][0] is not None:
                    raise ValidationError(f"argument {flag}: expected one argument")
                value, at = words[at], at + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ValidationError(f"argument {flag}: invalid int value: {value!r}") from None
            elif isinstance(kind, tuple):
                _check_choice(flag, value, kind)
            args[flag[2:]] = True if kind is bool else value
    if positional and taken is None:
        raise ValidationError(f"the following arguments are required: {positional}")
    if extras:
        raise ValidationError(f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(**args)
