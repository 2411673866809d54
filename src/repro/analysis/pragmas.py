"""Suppression pragmas: ``# lint: allow=RL002`` / ``allow=RL002,RL004``.

A pragma suppresses the named rules on its own physical line — the line
the diagnostic anchors to, which for multi-line statements is the line
of the offending AST node.  There is deliberately no file-wide or
block-wide form: every suppression sits next to the code it excuses,
with the justification in the surrounding comment or docstring.

Pragmas are read from tokenizer ``COMMENT`` tokens, once per module
(:attr:`~repro.analysis.model.ModuleInfo.allowed`), and both readers
use that one table: the runner's suppression and the PA004 debt count.
The syntax appearing inside a string literal or a docstring therefore
neither suppresses nor counts.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet

_PRAGMA = re.compile(
    r"#\s*lint:\s*allow=([A-Z]{2}[0-9]{3}(?:\s*,\s*[A-Z]{2}[0-9]{3})*)")


def collect_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line."""
    allowed: Dict[int, FrozenSet[str]] = {}
    try:
        for token in tokenize.generate_tokens(
                io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match is not None:
                allowed[token.start[0]] = frozenset(
                    part.strip() for part in match.group(1).split(","))
    except (tokenize.TokenError, IndentationError):
        pass  # keep what was read; the parser reports broken files
    return allowed


def is_allowed(allowed: Dict[int, FrozenSet[str]],
               line: int, rule_id: str) -> bool:
    """True when ``rule_id`` is suppressed on ``line``."""
    return rule_id in allowed.get(line, frozenset())
