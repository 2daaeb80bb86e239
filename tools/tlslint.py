#!/usr/bin/env python3
"""tlslint: the repo's static-analysis driver.

Usage: tlslint.py [--root DIR] [--engine auto|libclang|lex]
                  [--check T1,A2,...] [--require-manifests]
                  [--json FILE] [-q]

Every C++ source under src/, bench/ and tools/ is tokenized once and
one whole-program model (tlsa.Program: function definitions, resolved
call graph, lock scopes, member types) is built once. Four pass
families then run over that one model:

  T1..T4  token-level repo invariants (this file; below)
  A1..A4  whole-program semantic passes: static deadlock, audit-seam
          reachability, hot-path allocation, input-taint narrowing
          (tools/tlsa.py)
  D1..D4  determinism discipline: ordered output, environment taint,
          parallel-reduction order, shard-merge commutativity
          (tools/tlsdet.py)
  P1..P4  object lifetime and recycle discipline: generation guards,
          reset completeness, pooled-storage escape, reference
          invalidation (tools/tlslife.py)

Clang's thread-safety analysis (the TLSIM_THREAD_SAFETY build) proves
lock discipline; the T checks enforce the *repo invariants* that no
generic tool knows about:

  T1  spec-metadata mutations stay behind the audited mutators.
      Mutating calls on SpecState (recordLoad/recordStore/clearContext/
      clearThread/recordLoadExposed/reserveLines) and on the victim
      cache (insert/remove/reset/accessLine on a spec*/victim*
      receiver, renameToCommitted, dropOneCommitted) are only allowed
      in the owning modules - core/machine, core/specstate, mem/victim,
      mem/memsys, mem/l2cache - where the AuditSink seam (PR 3)
      observes every mutation. A rogue call site elsewhere would
      mutate speculative state the auditor never sees.

  T2  no direct thread creation outside sim/executor.
      std::thread / std::jthread construction, pthread_create, and
      .detach() anywhere but sim/executor.{h,cc} bypasses the
      per-batch claim loop (and its join-before-return and
      first-exception discipline).

  T3  narrowing casts in the trace decode paths go through
      base/narrow.h. In sim/traceio.* and core/traceindex.*, a
      static_cast to a fixed-width type of <= 32 bits must be spelled
      checkedNarrow<T>() or truncateNarrow<T>(); a raw cast silently
      truncates untrusted file bytes. (Brace-init T{x} is exempt: the
      language already rejects narrowing there.)

  T4  bench binaries use the shared BenchSession prologue.
      A main() under bench/ without BenchSession regresses to the
      hand-rolled argument parsing PR 4 deduplicated.

Suppression: `// <tool>:allow(<check>): reason` on the flagged line
(or alone on the line above), where <tool> is the family's prefix:
tlslint (T), tlsa (A), tlsdet (D), tlslife (P). Each family honours
only its own prefix. The reason is mandatory; a bare allow is itself
a diagnostic (tools/lintsupp.py has the grammar).

Manifests (tools/lockorder.txt, auditseam.txt, detsinks.txt,
detmergers.txt, poolreset.txt) are resolved relative to --root, so
the fixture mini-repos under tests/lint/ carry their own. Without
--require-manifests a missing manifest skips the declaration checks
that need it; the real-tree run (ctest lint_static) requires them.

Engines: with the libclang python bindings installed, files are
tokenized by libclang (`--engine=libclang`); otherwise a built-in
C++ lexer produces the same token stream (`--engine=lex`). Both feed
the same passes; `auto` (default) picks libclang when it is
importable and loadable.

--check runs a subset of passes (e.g. one family's ids). Diagnostics
are sorted and deduplicated on (path, line, check, message).

Exit status: 0 clean, 1 violations, 2 usage error.

--json writes a tlsim-bench-v1 report with one "staticanalysis" block
(engine, checks run, files scanned, violations, the suppression
census, and the poolreset.txt census) plus one results[] entry per
pass; tools/check_bench_json.py requires all 16 passes and a clean
tree.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lintsupp  # noqa: E402  (same-directory pass modules)
import tlsa  # noqa: E402
import tlsdet  # noqa: E402
import tlslife  # noqa: E402
from lintsupp import Diagnostic  # noqa: E402

# ---------------------------------------------------------------------
# T family: per-file token rules
# ---------------------------------------------------------------------

CHECK_IDS = ("T1", "T2", "T3", "T4")

T1_SCOPE_DIRS = ("src/",)

T2_ALLOWED_FILES = {"src/sim/executor.h", "src/sim/executor.cc"}
T2_SCOPE_DIRS = ("src/", "bench/", "tools/")

T3_SCOPE_FILES = {
    "src/sim/traceio.h", "src/sim/traceio.cc",
    "src/core/traceindex.h", "src/core/traceindex.cc",
    # The critical-path oracle re-decodes the same untrusted v4 trace
    # bytes (record ids, line addresses, checkpoint offsets) on its
    # analysis side; narrowing there must go through checkedNarrow<>
    # just like the primary decode path.
    "src/core/critpath/graph.h", "src/core/critpath/graph.cc",
    "src/core/critpath/analyzer.h", "src/core/critpath/analyzer.cc",
    "src/core/critpath/placement.h", "src/core/critpath/placement.cc",
}
T3_NARROW_TYPES = {
    "std::uint8_t", "std::uint16_t", "std::uint32_t",
    "std::int8_t", "std::int16_t", "std::int32_t",
    "uint8_t", "uint16_t", "uint32_t",
    "int8_t", "int16_t", "int32_t",
    "char", "signed char", "unsigned char",
    "short", "unsigned short", "short int", "unsigned short int",
}

T4_SCOPE_DIRS = ("bench/",)

def in_scope(relpath, dirs=None, files=None):
    rel = relpath.replace(os.sep, "/")
    if files is not None:
        return rel in files
    return any(rel.startswith(d) for d in dirs)


def check_t1(relpath, code, report):
    if not in_scope(relpath, dirs=T1_SCOPE_DIRS):
        return
    if in_scope(relpath, files=lintsupp.AUDITED_MUTATOR_FILES):
        return
    for i in range(len(code) - 3):
        recv, dot, meth, paren = code[i:i + 4]
        if dot.text not in (".", "->") or paren.text != "(":
            continue
        if recv.kind != "id" or meth.kind != "id":
            continue
        name = meth.text
        if name in lintsupp.DISTINCT_MUTATORS:
            pass
        elif name in lintsupp.GENERIC_MUTATORS and any(
                h in recv.text.lower() for h in lintsupp.RECEIVER_HINTS):
            pass
        else:
            continue
        report(Diagnostic(
            relpath, meth.line, "T1",
            f"speculative-state mutation `{recv.text}{dot.text}"
            f"{name}(...)` outside the audited mutators "
            "(src/core machine / owning mem module); the AuditSink "
            "seam must observe every SpecState/victim-cache write"))


def check_t2(relpath, code, report):
    if not in_scope(relpath, dirs=T2_SCOPE_DIRS):
        return
    if in_scope(relpath, files=T2_ALLOWED_FILES):
        return
    for i, tok in enumerate(code):
        if tok.text == "pthread_create":
            report(Diagnostic(
                relpath, tok.line, "T2",
                "direct pthread_create outside sim/executor; route "
                "work through SimExecutor"))
            continue
        if (tok.text == "detach" and i >= 1 and
                code[i - 1].text in (".", "->") and
                i + 1 < len(code) and code[i + 1].text == "("):
            report(Diagnostic(
                relpath, tok.line, "T2",
                "detached thread outside sim/executor; detached "
                "threads escape the pool's shutdown and exception "
                "discipline"))
            continue
        if (tok.text in ("thread", "jthread") and i >= 2 and
                code[i - 1].text == "::" and code[i - 2].text == "std"):
            nxt = code[i + 1].text if i + 1 < len(code) else ""
            # Construction or declaration (std::thread t(...), member,
            # vector<std::thread>); std::thread::hardware_concurrency
            # and std::thread::id are reads, not creations.
            if nxt == "::":
                continue
            report(Diagnostic(
                relpath, tok.line, "T2",
                f"direct std::{tok.text} use outside sim/executor; "
                "fan work out through SimExecutor::parallelFor"))


def check_t3(relpath, code, report):
    if not in_scope(relpath, files=T3_SCOPE_FILES):
        return
    for i, tok in enumerate(code):
        if tok.text != "static_cast":
            continue
        if i + 1 >= len(code) or code[i + 1].text != "<":
            continue
        # Collect the target-type spelling up to the matching '>'.
        j = i + 2
        depth = 1
        parts = []
        while j < len(code) and depth:
            t = code[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if not depth:
                    break
            parts.append(t)
            j += 1
        spelling = " ".join(parts).replace(" :: ", "::")
        spelling = spelling.replace("const ", "").strip()
        if spelling in T3_NARROW_TYPES:
            report(Diagnostic(
                relpath, tok.line, "T3",
                f"raw narrowing static_cast<{spelling}> in a trace "
                "decode path; use checkedNarrow<>/truncateNarrow<> "
                "from base/narrow.h so truncation of untrusted bytes "
                "is checked or explicit"))


def check_t4(relpath, code, report):
    if not in_scope(relpath, dirs=T4_SCOPE_DIRS):
        return
    main_line = None
    has_session = False
    for i, tok in enumerate(code):
        if tok.text == "BenchSession":
            has_session = True
        if (tok.text == "main" and i >= 1 and code[i - 1].text == "int"
                and i + 1 < len(code) and code[i + 1].text == "("):
            main_line = tok.line
    if main_line is not None and not has_session:
        report(Diagnostic(
            relpath, main_line, "T4",
            "bench main() without BenchSession; use the shared "
            "prologue/epilogue from bench/benchutil.h (argument "
            "parsing, executor sizing, tlsim-bench-v1 report)"))


CHECKS = {
    "T1": check_t1,
    "T2": check_t2,
    "T3": check_t3,
    "T4": check_t4,
}


def run(an, enabled, report):
    for relpath, fm in an.prog.files.items():
        for check in enabled:
            CHECKS[check](relpath, fm.code, report)



# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

#: (suppression prefix, check ids, run(analysis, enabled, report)).
#: run() may return extra census fields for the staticanalysis block.
FAMILIES = (
    ("tlslint", CHECK_IDS, run),
    ("tlsa", tlsa.CHECK_IDS, tlsa.run),
    ("tlsdet", tlsdet.CHECK_IDS, tlsdet.run),
    ("tlslife", tlslife.CHECK_IDS, tlslife.run),
)
ALL_CHECKS = tuple(c for _, ids, _ in FAMILIES for c in ids)


def write_json(path, block, enabled, per_check, wall):
    doc = {
        "schema": "tlsim-bench-v1",
        "bench": "tlslint",
        "quick": False,
        "jobs": 1,
        "wall_seconds": wall,
        "simulated_cycles": 0,
        "staticanalysis": block,
        "results": [
            {"name": c, "violations": per_check.get(c, 0)}
            for c in sorted(set(enabled) | set(per_check))
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(
        description="the repo's static-analysis passes (T/A/D/P)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--engine", default="auto",
                    choices=("auto", "libclang", "lex"))
    ap.add_argument("--check", default=None,
                    help="comma-separated subset of passes "
                         "(default: all)")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help="write a tlsim-bench-v1 report with a "
                         "'staticanalysis' block")
    ap.add_argument("--require-manifests", action="store_true",
                    help="a missing manifest is an error (the "
                         "real-tree CI configuration)")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args()

    if args.check:
        wanted = {c.strip() for c in args.check.split(",") if c.strip()}
        bad = sorted(wanted - set(ALL_CHECKS))
        if bad:
            print(f"tlslint: unknown check(s): {', '.join(bad)}",
                  file=sys.stderr)
            return 2
        enabled = [c for c in ALL_CHECKS if c in wanted]
    else:
        enabled = list(ALL_CHECKS)

    root = os.path.abspath(args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    sources = lintsupp.find_sources(root)
    if not sources:
        print("tlslint: no sources found", file=sys.stderr)
        return 2

    start = time.monotonic()
    tokenizer, engine = lintsupp.make_tokenizer(args.engine)
    files = {}
    supp_of = {}
    diags = []
    census = {}
    for full, rel in sources:
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            diags.append(Diagnostic(rel, 0, "io", str(e)))
            continue
        tokens = tokenizer(full, text)
        lines = text.splitlines()
        files[rel] = tlsa.build_file_model(rel, tokens, lines)
        supp = lintsupp.Suppressions(rel, tokens, lines)
        supp_of[rel] = supp
        diags.extend(supp.diags)
        for check, n in supp.by_check.items():
            census[check] = census.get(check, 0) + n
    an = lintsupp.Analysis(tlsa.Program(files), supp_of, root,
                           args.require_manifests)

    block = {
        "engine": engine,
        "checks_run": len(enabled),
        "files_scanned": len(sources),
    }
    for tool, ids, family_run in FAMILIES:
        mine = [c for c in enabled if c in ids]
        if not mine:
            continue

        def report(d, tool=tool):
            supp = supp_of.get(d.path)
            if supp is None or not supp.suppresses(d.line, tool, d.check):
                diags.append(d)

        block.update(family_run(an, mine, report) or {})

    uniq = {d.key(): d for d in diags}
    diags = [uniq[k] for k in sorted(uniq)]
    per_check = {}
    for d in diags:
        per_check[d.check] = per_check.get(d.check, 0) + 1
        if not args.quiet:
            print(d)

    suppressions = sum(census.values())
    if args.json:
        block.update({
            "violations": len(diags),
            "suppressions": suppressions,
            "suppressions_by_check": dict(sorted(census.items())),
        })
        write_json(args.json, block, enabled, per_check,
                   time.monotonic() - start)

    if not args.quiet:
        verdict = (f"{len(diags)} violation(s)" if diags else "clean")
        print(f"tlslint[{engine}]: {len(sources)} files, "
              f"{len(an.prog.funcs)} functions, {len(enabled)} passes, "
              f"{suppressions} reasoned suppression(s): {verdict}")
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main())
