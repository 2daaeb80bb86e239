"""Shared infrastructure for the repo's static-analysis passes.

`tools/tlslint.py` is the one driver. It tokenizes every source file
once, builds one program model (tlsa.Program), and runs four pass
families over it: T1..T4 (token-level repo invariants, in tlslint.py),
A1..A4 (whole-program semantic passes, tlsa.py), D1..D4 (determinism
discipline, tlsdet.py) and P1..P4 (object lifetime and recycle
discipline, tlslife.py). This module holds what the families share,
so they cannot drift: the tokenizers, the diagnostic and token shapes,
the source scan, and one suppression grammar:

    // <tool>:allow(<check>): <reason>

where <tool> is the family's prefix (`tlslint`, `tlsa`, `tlsdet` or
`tlslife`) and <check> is a check id of that family. The reason is
mandatory for every prefix: a bare allow is a hard `allow-syntax`
error wherever it is seen, so the tree never accumulates unexplained
exemptions.

Each family only *honours* allows written with its own prefix (a
tlsa:allow cannot silence a T check and vice versa), but every
reasoned allow is *counted*, per check id, into the combined
suppression census that `--json` reports as
`staticanalysis.suppressions_by_check`.

    tools/tlslint.py --require-manifests --json r.json
    tools/check_bench_json.py r.json
"""

import os
import re
import sys

#: The shared allow grammar. `tool` scopes which family the allow is
#: addressed to; `check` is deliberately loose (any word) so that a
#: typoed check id still parses — and then suppresses nothing, which
#: surfaces as the original diagnostic still firing.
ALLOW_RE = re.compile(
    r"(?P<tool>tlslint|tlsa|tlsdet|tlslife):"
    r"\s*allow\(\s*(?P<check>[A-Za-z][\w-]*)"
    r"\s*\)\s*(?::\s*(?P<reason>\S.*))?")

SCAN_DIRS = ("src", "bench", "tools")
SOURCE_EXTS = (".h", ".cc", ".cpp")

# The speculative-state mutator vocabulary, shared by T1 (call sites
# stay inside the audited modules) and A2 (external reachability only
# through the declared audit seam). Paths are repo-relative.
AUDITED_MUTATOR_FILES = {
    "src/core/machine.cc",
    "src/core/specstate.h",
    "src/core/specstate.cc",
    "src/mem/victim.h",
    "src/mem/victim.cc",
    "src/mem/memsys.h",
    "src/mem/memsys.cc",
    "src/mem/l2cache.h",
    "src/mem/l2cache.cc",
}
# Mutator names distinctive enough to flag on any receiver.
DISTINCT_MUTATORS = {
    "recordLoad", "recordLoadExposed", "recordStore", "clearContext",
    "clearThread", "reserveLines", "renameToCommitted",
    "dropOneCommitted",
}
# Generic names: flagged only when the receiver looks like the
# speculative state or the victim cache.
GENERIC_MUTATORS = {"insert", "remove", "reset", "accessLine"}
RECEIVER_HINTS = ("spec", "victim")


class Diagnostic:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def key(self):
        return (self.path, self.line, self.check, self.message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class Token:
    """One lexed token: spelling, 1-based line, and a coarse kind."""

    __slots__ = ("text", "line", "kind")

    def __init__(self, text, line, kind):
        self.text = text
        self.line = line
        self.kind = kind  # 'id', 'punct', 'lit', 'comment'


# --- tokenizers ----------------------------------------------------------

# Raw strings and ordinary string/char literals accept the standard
# encoding prefixes (u8, u, U, L): `LR"(...)"` is one literal, not an
# identifier `LR` followed by garbage — mis-lexing it would feed the
# literal's *contents* to the rule matchers as if it were code.
# Digit separators (`1'000'000`) are consumed only when the apostrophe
# is followed by another digit/hex-digit, so a separator can never
# swallow an adjacent char literal and an unmatched quote can never
# swallow the code after it.
_LEX_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<rawstr>(?:u8|u|U|L)?R"
        (?P<delim>[^\s()\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>(?:u8|u|U|L)?"(?:\\.|[^"\\\n])*")
    | (?P<char>(?:u8|u|U|L)?'(?:\\.|[^'\\\n])*')
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\.?\d(?:[\w.]|'[0-9a-fA-F]|[eEpP][+-])*)
    | (?P<punct>::|->|\+\+|--|<<|>>|[{}()\[\];,<>=!&|^~?:.*/%+-]|\#)
    """,
    re.VERBOSE | re.DOTALL,
)


def lex_tokens(text):
    """Tokenize C++ with a small lexer: identifiers, punctuation,
    literals and comments, each tagged with its starting line."""
    tokens = []
    pos = 0
    line = 1
    for m in _LEX_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        tok = m.group()
        if kind == "comment":
            tokens.append(Token(tok, line, "comment"))
        elif kind in ("rawstr", "str", "char", "num"):
            tokens.append(Token(tok, line, "lit"))
        elif kind == "id":
            tokens.append(Token(tok, line, "id"))
        elif kind == "punct":
            tokens.append(Token(tok, line, "punct"))
        # 'delim' is an internal group of rawstr; never a lastgroup.
    return tokens


def libclang_tokens(path, text):
    """Tokenize with libclang; raises if the bindings are unusable.
    Produces the same Token shape as lex_tokens() so both engines feed
    the same passes."""
    import clang.cindex as ci

    index = ci.Index.create()
    tu = index.parse(
        path, args=["-std=c++20", "-fsyntax-only"],
        unsaved_files=[(path, text)],
        options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    kinds = {
        ci.TokenKind.IDENTIFIER: "id",
        ci.TokenKind.KEYWORD: "id",
        ci.TokenKind.PUNCTUATION: "punct",
        ci.TokenKind.LITERAL: "lit",
        ci.TokenKind.COMMENT: "comment",
    }
    tokens = []
    for tok in tu.cursor.get_tokens():
        kind = kinds.get(tok.kind)
        if kind is None:
            continue
        tokens.append(Token(tok.spelling, tok.location.line, kind))
    return tokens


def make_tokenizer(engine):
    """Resolve the engine choice to (tokenizer, resolved_name)."""
    if engine in ("auto", "libclang"):
        try:
            import clang.cindex as ci
            ci.Index.create()  # verifies libclang itself loads
            return (libclang_tokens, "libclang")
        except Exception as e:  # ImportError, LibclangError, ...
            if engine == "libclang":
                print(f"tlslint: libclang engine unavailable: {e}",
                      file=sys.stderr)
                sys.exit(2)
    return (lambda path, text: lex_tokens(text), "lex")


def find_sources(root):
    """(full path, repo-relative path) of every C++ source under the
    scanned directories, in a stable order."""
    out = []
    for d in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in sorted(files):
                if f.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, f)
                    out.append((full,
                                os.path.relpath(full, root)
                                .replace(os.sep, "/")))
    return out


# --- suppressions --------------------------------------------------------

class Suppressions:
    """Per-file map of `// <tool>:allow(<check>): reason` comments.

    A well-formed allow on line L suppresses (tool, check) on line L
    and — when the comment stands alone — on the next line as well.
    An allow without a reason is itself a diagnostic (and suppresses
    nothing), whichever family it addresses: every exemption in the
    tree must say why it is sound.

    `by_check` is the combined census: reasoned allows for every
    prefix, keyed by check id (the family namespaces are disjoint).
    """

    def __init__(self, path, tokens, lines):
        self.allowed = {}  # line -> {(tool, check), ...}
        self.diags = []
        self.by_check = {}
        for tok in tokens:
            if tok.kind != "comment":
                continue
            for m in ALLOW_RE.finditer(tok.text):
                tool = m.group("tool")
                check = m.group("check")
                reason = m.group("reason")
                if not reason or not reason.strip():
                    self.diags.append(Diagnostic(
                        path, tok.line, "allow-syntax",
                        f"{tool}:allow({check}) without a reason "
                        f"string; write `// {tool}:allow({check}): "
                        "<why this is sound>`"))
                    continue
                self.by_check[check] = self.by_check.get(check, 0) + 1
                span = [tok.line]
                before = lines[tok.line - 1] if tok.line <= len(lines) \
                    else ""
                if before.lstrip().startswith(("//", "/*")):
                    span.append(tok.line + 1)  # standalone comment
                for ln in span:
                    self.allowed.setdefault(ln, set()).add((tool, check))

    def suppresses(self, line, tool, check):
        return (tool, check) in self.allowed.get(line, ())


class Analysis:
    """What every pass family sees: the one program model, each file's
    suppressions, and the root its manifests are resolved against."""

    def __init__(self, prog, supp_of, root, require_manifests):
        self.prog = prog
        self.supp_of = supp_of  # relpath -> Suppressions
        self.root = root
        self.require_manifests = require_manifests
