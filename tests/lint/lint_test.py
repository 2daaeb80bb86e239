#!/usr/bin/env python3
"""Fixture tests for the static-analysis passes (tools/tlslint.py).

Each pass family has a corpus of miniature repository roots under
tests/lint/: tlslint_fixtures/ (T), tlsa_fixtures/ (A),
tlsdet_fixtures/ (D) and tlslife_fixtures/ (P). A fixture carries its
own src/ (or bench/) plus whatever manifests under tools/ its scenario
needs. Each fixture is analyzed with `--check=<that family's ids>`,
and every known-bad case must produce its exact expected
diagnostics (path, check id, line) and exit code. The suppression
cases show that a reasoned allow silences a check while a bare allow
is itself an error. The passes are clean on the real tree vacuously
if their checks stop firing; this runner is what keeps them honest.

Each fixture runs under the lex engine explicitly, so results are
identical with and without the libclang bindings, and again under
whatever `--engine=auto` resolves to, which must give the same
diagnostics. One case per manifest-driven family also runs with
--require-manifests, which must turn the fixture's missing manifests
into errors.

--family runs one corpus only (T, A, D or P; repeatable); the default
runs all four.

Usage: lint_test.py [--tlslint PATH] [--fixtures DIR] [--family F]...
Exit: 0 all expectations met, 1 otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

DIAG_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): "
                     r"\[(?P<check>[\w-]+)\] ")

# Each table: fixture dir -> (expected [(path, check, line), ...],
#                             exit code, expected suppression count).
# Fixtures run WITHOUT --require-manifests (each declares exactly the
# manifests its scenario needs); the *_REQUIRE_MANIFESTS_* pairs name
# the one case per family that separately proves the flag.

# T: per-file token rules.
T_EXPECTATIONS = {
    "t1_bad": ([("src/sim/rogue.cc", "T1", 12),
                ("src/sim/rogue.cc", "T1", 14)], 1, 0),
    "t2_bad": ([("src/mem/rogue.cc", "T2", 10),
                ("src/mem/rogue.cc", "T2", 12)], 1, 0),
    "t3_bad": ([("src/sim/traceio.cc", "T3", 10),
                ("src/sim/traceio.cc", "T3", 12)], 1, 0),
    "t3_critpath_bad": ([("src/core/critpath/graph.cc", "T3", 12),
                         ("src/core/critpath/graph.cc", "T3", 15)],
                        1, 0),
    "t4_bad": ([("bench/bench_rogue.cc", "T4", 8)], 1, 0),
    "suppressed_ok": ([], 0, 1),
    "suppressed_noreason": ([("src/sim/traceio.cc", "T3", 12),
                             ("src/sim/traceio.cc", "allow-syntax", 12)],
                            1, 0),
    # Lexer regressions: encoding-prefixed raw strings and
    # digit separators must tokenize as single literals — the quoted
    # mutators stay invisible, the real ones keep their line numbers.
    "lexer_rawstr": ([("src/sim/rogue.cc", "T1", 14)], 1, 0),
    "lexer_digitsep": ([("src/sim/rogue.cc", "T1", 7)], 1, 0),
}

# A: whole-program semantic passes.
A_EXPECTATIONS = {
    # Seeded lock-order inversion: the manifest declares
    # `Pool::mtx_ < Registry::mtx_`, the code nests the other way.
    "a1_inversion": ([("src/core/pools.cc", "A1", 9)], 1, 0),
    # Two functions nesting the same pair in opposite orders: a
    # wait-for cycle, reported once per closing edge.
    "a1_cycle": ([("src/core/cycle.cc", "A1", 8),
                  ("src/core/cycle.cc", "A1", 16)], 1, 0),
    # Seeded unaudited mutator: speculative state written from a file
    # the AuditSink seam does not cover.
    "a2_unaudited": ([("src/sim/rogue.cc", "A2", 7)], 1, 0),
    # External call reaching the mutators through an entry point the
    # manifest never declared.
    "a2_undeclared_entry": ([("src/sim/driver.cc", "A2", 6)], 1, 0),
    # Declared (hook-requiring) entry whose body never fires a hook.
    "a2_unhooked_entry": ([("src/core/machine.cc", "A2", 4)], 1, 0),
    # Hot root grows a never-reserved vector; its callee `new`s.
    "a3_alloc": ([("src/core/hot.cc", "A3", 7),
                  ("src/core/hot.cc", "A3", 14)], 1, 0),
    # Node-based container local declared and mutated under TLSIM_HOT.
    "a3_node": ([("src/core/table.cc", "A3", 7),
                 ("src/core/table.cc", "A3", 8)], 1, 0),
    # Hot root calls through a member whose name shares no substring
    # with its class, and flush() is multiply defined: only the
    # declared-member type map resolves the allocating edge.
    "a3_member": ([("src/core/member.cc", "A3", 39)], 1, 0),
    # Hot root in a derived class calls through a member its base
    # declares: the base-chain member lookup must type the receiver
    # past the decoy flush().
    "a3_member_inherit": ([("src/core/inherit.cc", "A3", 43)], 1, 0),
    # Decoded varint indexes a table with no narrowing in between.
    "a4_index": ([("src/sim/traceio.cc", "A4", 10)], 1, 0),
    # Decoded varint used as a shift amount.
    "a4_shift": ([("src/sim/traceio.cc", "A4", 10)], 1, 0),
    # Reasoned allow: quiet, counted in the census.
    "supp_allow_ok": ([], 0, 1),
    # Bare allow: hard error AND the violation still fires.
    "supp_allow_bare": ([("src/core/hot.cc", "A3", 7),
                         ("src/core/hot.cc", "allow-syntax", 7)],
                        1, 0),
}

# The cycle fixture carries neither manifest, so both passes complain.
A_REQUIRE_MANIFESTS_CASE = "a1_cycle"
A_REQUIRE_MANIFESTS_EXTRA = [("tools/auditseam.txt", "A2", 0),
                             ("tools/lockorder.txt", "A1", 0)]

# D: determinism passes.
D_EXPECTATIONS = {
    # Seeded iteration-order nondeterminism: a sink range-fors an
    # unordered_map and grabs .begin(); the off-path copy is silent.
    "d1_iteration": ([("src/core/report.cc", "D1", 9),
                      ("src/core/report.cc", "D1", 11)], 1, 0),
    # Pointer-keyed map declared in a file owning a sink-path
    # function; the pointer-valued map next to it is fine.
    "d1_ptrkey": ([("src/core/report.cc", "D1", 5)], 1, 0),
    # Raw std::sort with a hand-written comparator; the two-argument
    # total-order sort is fine.
    "d1_sort": ([("src/core/report.cc", "D1", 7)], 1, 0),
    # Seeded clock nondeterminism: steady_clock::now() on the sink
    # path; the same read off the path is silent.
    "d2_clock": ([("src/core/report.cc", "D2", 7)], 1, 0),
    # Seeded float-order nondeterminism: double accumulated inside a
    # parallelFor task; declared-commutative integer, per-index slot
    # and task-local accumulator are all silent.
    "d3_float": ([("src/core/report.cc", "D3", 12)], 1, 0),
    # Seeded non-commutative merge: a declared merger appends,
    # -=-folds and float-accumulates (its permutation-test stand-in
    # keeps d4-untested out of the way).
    "d4_merge": ([("src/core/merge.cc", "D4", 10),
                  ("src/core/merge.cc", "D4", 11),
                  ("src/core/merge.cc", "D4", 12)], 1, 0),
    # Structurally clean merger with no permutation property test:
    # the claim is unproven.
    "d4_untested": ([("src/core/merge.cc", "D4", 6)], 1, 0),
    # Reasoned allow: quiet, counted in the census.
    "supp_allow_ok": ([], 0, 1),
    # Bare allow: hard error AND the violation still fires.
    "supp_allow_bare": ([("src/core/report.cc", "allow-syntax", 7),
                         ("src/core/report.cc", "D2", 8)], 1, 0),
}

# The untested-merger case carries only detmergers.txt, so the flag must add the missing-detsinks error.
D_REQUIRE_MANIFESTS_CASE = "d4_untested"
D_REQUIRE_MANIFESTS_EXTRA = [("tools/detsinks.txt", "D1", 0)]

# P: lifetime passes.
P_EXPECTATIONS = {
    # Seeded valid-only read: `.valid` probed with no generation
    # comparison; the blessed live() spelling next door is silent.
    "p1_validonly": ([("src/core/cache.h", "P1", 17)], 1, 0),
    # Seeded wrap hazards: bare ++gen_ on a uint32 counter, and an
    # ordering comparison between stamps; the guarded clear() is
    # silent.
    "p1_wrap": ([("src/core/table.h", "P1", 17),
                 ("src/core/table.h", "P1", 32)], 1, 0),
    # Seeded missed reset: two fields advance during checkout,
    # reset() restores one; the leak reports at the field's
    # declaration.
    "p2_missed_reset": ([("src/core/widget.h", "P2", 27)], 1, 0),
    # Manifest grammar abuse: a pooled line with no reset=, an
    # unknown pooled type, a persist with no reason.
    "p2_manifest": ([("tools/poolreset.txt", "P2", 1),
                       ("tools/poolreset.txt", "P2", 2),
                       ("tools/poolreset.txt", "P2", 3)], 1, 0),
    # Seeded member escape: a borrowed handle parked in an undeclared
    # member; the value copy out of the handle is silent.
    "p3_escape_member": ([("src/core/manager.cc", "P3", 24)], 1, 0),
    # Seeded use-after-release: the handle is read after the declared
    # release call; the pre-release read is silent.
    "p3_use_after_release": ([("src/core/pool.cc", "P3", 28)], 1, 0),
    # Seeded task capture: a pooled borrow rides into a queued
    # executor task; the index-passing variant is silent.
    "p3_task_capture": ([("src/core/runner.cc", "P3", 29)], 1, 0),
    # Seeded reference invalidation: a reference into a growable
    # container used across push_back; the re-taken reference is
    # silent.
    "p4_ref_growth": ([("src/core/log.cc", "P4", 18)], 1, 0),
    # Reasoned allow: quiet, counted in the census.
    "supp_allow_ok": ([], 0, 1),
    # Bare allow: hard error AND the violation still fires.
    "supp_allow_bare": ([("src/core/cache.h", "allow-syntax", 15),
                         ("src/core/cache.h", "P1", 16)], 1, 0),
}

# The valid-only case carries no poolreset.txt, so the flag must add the missing-manifest error.
P_REQUIRE_MANIFESTS_CASE = "p1_validonly"
P_REQUIRE_MANIFESTS_EXTRA = [("tools/poolreset.txt", "P2", 0)]


# family -> (corpus dir, expectations, require-manifests case, the
#            extra diagnostics that case must add)
CORPORA = {
    "T": ("tlslint_fixtures", T_EXPECTATIONS, None, []),
    "A": ("tlsa_fixtures", A_EXPECTATIONS,
          A_REQUIRE_MANIFESTS_CASE, A_REQUIRE_MANIFESTS_EXTRA),
    "D": ("tlsdet_fixtures", D_EXPECTATIONS,
          D_REQUIRE_MANIFESTS_CASE, D_REQUIRE_MANIFESTS_EXTRA),
    "P": ("tlslife_fixtures", P_EXPECTATIONS,
          P_REQUIRE_MANIFESTS_CASE, P_REQUIRE_MANIFESTS_EXTRA),
}


def run_lint(tlslint, root, family, engine, extra=(), json_path=None):
    checks = ",".join(f"{family}{i}" for i in range(1, 5))
    cmd = [sys.executable, tlslint, f"--root={root}",
           f"--engine={engine}", f"--check={checks}", *extra]
    if json_path:
        cmd += ["--json", json_path]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    diags = []
    for line in proc.stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            diags.append((m.group("path"), m.group("check"),
                          int(m.group("line"))))
    return proc, diags


def count_sources(root):
    n = 0
    for d in ("src", "bench", "tools"):
        for _, _, files in os.walk(os.path.join(root, d)):
            n += sum(f.endswith((".h", ".cc", ".cpp")) for f in files)
    return n


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    ap = argparse.ArgumentParser()
    ap.add_argument("--tlslint",
                    default=os.path.join(root, "tools", "tlslint.py"))
    ap.add_argument("--fixtures", default=here,
                    help="directory holding the four corpora")
    ap.add_argument("--family", action="append", choices=list(CORPORA),
                    help="run only this family's corpus (repeatable)")
    args = ap.parse_args()
    families = args.family or list(CORPORA)

    failures = []

    def check(cond, what):
        tag = "ok" if cond else "FAIL"
        print(f"  [{tag}] {what}")
        if not cond:
            failures.append(what)

    total = 0
    for family in families:
        corpus, table, rm_case, rm_extra = CORPORA[family]
        for name, (want, want_rc, want_supp) in sorted(table.items()):
            total += 1
            fixdir = os.path.join(args.fixtures, corpus, name)
            name = f"{family}/{name}"
            print(f"fixture {name}:")
            if not os.path.isdir(fixdir):
                check(False, f"{name}: fixture directory exists")
                continue

            with tempfile.NamedTemporaryFile(suffix=".json",
                                             delete=False) as tf:
                json_path = tf.name
            try:
                proc, diags = run_lint(args.tlslint, fixdir, family,
                                       "lex", json_path=json_path)
                check(sorted(diags) == sorted(want),
                      f"{name}: diagnostics {sorted(diags)} == "
                      f"{sorted(want)}")
                check(proc.returncode == want_rc,
                      f"{name}: exit {proc.returncode} == {want_rc}")
                with open(json_path, encoding="utf-8") as f:
                    doc = json.load(f)
                sa = doc.get("staticanalysis", {})
                check(doc.get("schema") == "tlsim-bench-v1",
                      f"{name}: json schema tag")
                check(sa.get("violations") == len(want),
                      f"{name}: json violations "
                      f"{sa.get('violations')} == {len(want)}")
                check(sa.get("suppressions") == want_supp,
                      f"{name}: json suppressions "
                      f"{sa.get('suppressions')} == {want_supp}")
                census = sa.get("suppressions_by_check")
                check(isinstance(census, dict) and
                      sum(census.values()) == sa.get("suppressions"),
                      f"{name}: json suppression census {census} sums "
                      "to the suppression count")
                check(sa.get("checks_run") == 4 and
                      sa.get("files_scanned") == count_sources(fixdir),
                      f"{name}: json files/checks counts")
                if family == "P":
                    check(all(isinstance(sa.get(k), int) for k in
                              ("pooled_types", "persistent_fields",
                               "views")),
                          f"{name}: json manifest census fields are "
                          "ints")
            finally:
                os.unlink(json_path)

            # Engine parity: auto (libclang when importable, else lex
            # again) must agree exactly.
            _, diags_auto = run_lint(args.tlslint, fixdir, family,
                                     "auto")
            check(sorted(diags_auto) == sorted(want),
                  f"{name}: auto-engine diagnostics match lex")

        if rm_case is None:
            continue
        fixdir = os.path.join(args.fixtures, corpus, rm_case)
        print(f"fixture {family}/{rm_case} (--require-manifests):")
        want = sorted(table[rm_case][0] + rm_extra)
        proc, diags = run_lint(args.tlslint, fixdir, family, "lex",
                               extra=["--require-manifests"])
        check(sorted(diags) == want,
              f"{family} require-manifests: diagnostics "
              f"{sorted(diags)} == {want}")
        check(proc.returncode == 1, f"{family} require-manifests: exit 1")

    if failures:
        print(f"\n{len(failures)} expectation(s) FAILED")
        return 1
    print(f"\nall fixture expectations met ({total} fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
