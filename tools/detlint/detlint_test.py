#!/usr/bin/env python3
"""Unit tests for detlint itself (run as a ctest case).

Two layers:
  * function-level tests of the tricky pieces — comment/string stripping,
    suppression parsing, range-for extraction, unordered-declaration
    harvesting;
  * end-to-end runs over the committed fixtures (pass/ must exit 0,
    fail/ must exit 1 with the expected rule ids).
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import detlint  # noqa: E402


def run_detlint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "detlint.py"), *args],
        capture_output=True,
        text=True,
        check=False,
    )


class StripTest(unittest.TestCase):
    def test_line_comment_blanked(self):
        lines = detlint.strip_comments_and_strings("int x; // rand()\n")
        self.assertEqual(lines[0], "int x; ")

    def test_block_comment_preserves_line_numbers(self):
        src = "a\n/* rand()\n   rand() */\nb\n"
        lines = detlint.strip_comments_and_strings(src)
        self.assertEqual(len(lines), 5)
        self.assertEqual(lines[0], "a")
        self.assertNotIn("rand", "".join(lines))
        self.assertEqual(lines[3], "b")

    def test_string_and_char_literals_blanked(self):
        src = 'auto s = "rand()"; char c = \'"\'; int y = rand();\n'
        lines = detlint.strip_comments_and_strings(src)
        self.assertNotIn('"rand()"', lines[0])
        self.assertIn("rand()", lines[0])  # the real call survives

    def test_raw_string_blanked(self):
        src = 'auto s = R"(getenv("X"))"; int z = 0;\n'
        lines = detlint.strip_comments_and_strings(src)
        self.assertNotIn("getenv", lines[0])
        self.assertIn("int z = 0;", lines[0])

    def test_escaped_quote_in_string(self):
        src = 'auto s = "a\\"b rand() c"; int q = 1;\n'
        lines = detlint.strip_comments_and_strings(src)
        self.assertNotIn("rand", lines[0])
        self.assertIn("int q = 1;", lines[0])


class SuppressionTest(unittest.TestCase):
    def test_parse_rules_and_reason(self):
        sups = detlint.parse_suppressions(
            ["int x;", "// p4u-detlint: allow(wall-clock, raw-rand) why not"]
        )
        self.assertIn(2, sups)
        self.assertEqual(sups[2].rules, ("wall-clock", "raw-rand"))
        self.assertEqual(sups[2].reason, "why not")

    def test_missing_reason_is_empty(self):
        sups = detlint.parse_suppressions(["// p4u-detlint: allow(raw-rand)"])
        self.assertEqual(sups[1].reason, "")

    def test_non_annotation_ignored(self):
        sups = detlint.parse_suppressions(
            ["// detlint allow(raw-rand) not our marker"]
        )
        self.assertEqual(sups, {})


class RangeForTest(unittest.TestCase):
    def test_simple(self):
        got = detlint.range_for_exprs("for (auto x : items) {\n}\n")
        self.assertEqual(got, [(1, "items")])

    def test_single_statement_body(self):
        got = detlint.range_for_exprs("for (const auto& [k, v] : m_) f(k);\n")
        self.assertEqual(got, [(1, "m_")])

    def test_classic_for_skipped(self):
        got = detlint.range_for_exprs("for (int i = 0; i < n; ++i) {}\n")
        self.assertEqual(got, [])

    def test_nested_call_expr(self):
        got = detlint.range_for_exprs("for (auto& e : obj.entries()) {}\n")
        self.assertEqual(got, [(1, "obj.entries()")])

    def test_structured_binding_with_scope_colons(self):
        got = detlint.range_for_exprs(
            "for (std::size_t i : p4u::net::ids(g)) {}\n"
        )
        self.assertEqual(got, [(1, "p4u::net::ids(g)")])

    def test_multiline_head(self):
        got = detlint.range_for_exprs(
            "for (const auto& very_long_name :\n     container_) {\n}\n"
        )
        self.assertEqual(got, [(1, "container_")])


class UnorderedNamesTest(unittest.TestCase):
    def test_member_declaration(self):
        names = detlint.unordered_names(
            "std::unordered_map<int, std::vector<int>> records_;"
        )
        self.assertEqual(names, {"records_"})

    def test_nested_template_balanced(self):
        names = detlint.unordered_names(
            "std::unordered_map<std::pair<int,int>, std::map<int,int>> deep_;"
        )
        self.assertEqual(names, {"deep_"})

    def test_alias_then_declaration(self):
        names = detlint.unordered_names(
            "using Table = std::unordered_map<int, int>;\nTable cells_;"
        )
        self.assertIn("cells_", names)

    def test_ordered_map_not_matched(self):
        names = detlint.unordered_names("std::map<int, int> fine_;")
        self.assertEqual(names, set())


class InlineFnCaptureTest(unittest.TestCase):
    def _findings(self, src: str):
        lines = detlint.strip_comments_and_strings(src)
        return detlint.inlinefn_findings("x.cpp", lines)

    def test_blanket_capture_flagged(self):
        got = self._findings("sim.schedule_at(10, [&]() { f(); });\n")
        self.assertEqual(len(got), 1)
        self.assertEqual(got[0].rule, "inlinefn-capture")
        self.assertEqual(got[0].line, 1)

    def test_default_ref_with_extras_flagged(self):
        got = self._findings("sim.schedule_in(5, [&, seq]() { g(seq); });\n")
        self.assertEqual(len(got), 1)

    def test_multiline_call_span_covered(self):
        got = self._findings(
            "sim.schedule_at(\n    t,\n    [&] { h(); });\n"
        )
        self.assertEqual(len(got), 1)
        self.assertEqual(got[0].line, 3)

    def test_named_reference_capture_clean(self):
        got = self._findings(
            "sim.schedule_at(10, [&bed, flow]() { bed.run(flow); });\n"
        )
        self.assertEqual(got, [])

    def test_by_value_capture_clean(self):
        got = self._findings("sim.schedule_in(5, [flow]() { g(flow); });\n")
        self.assertEqual(got, [])

    def test_nested_call_inside_event_body_clean(self):
        # A [&] handed to a *nested* call inside the deferred body (here a
        # lazy trace thunk) runs synchronously within the event and never
        # outlives its scope; only the lambda handed to schedule_* itself
        # is the deferred one.
        got = self._findings(
            "sim.schedule_in(lat, [this, pkt]() {\n"
            "  trace.add_lazy([&] { return describe(pkt); });\n"
            "});\n"
        )
        self.assertEqual(got, [])

    def test_blanket_capture_outside_schedule_call_clean(self):
        # The rule targets deferred event bodies only; an immediate
        # algorithm callback may capture whatever it likes.
        got = self._findings("std::sort(v.begin(), v.end(), [&](int a, int b)"
                             " { return key[a] < key[b]; });\n")
        self.assertEqual(got, [])


class ThreadContainmentTest(unittest.TestCase):
    def _findings(self, src: str):
        lines = detlint.strip_comments_and_strings(src)
        return detlint.thread_findings("x.cpp", lines)

    def test_primitive_declarations_flagged(self):
        got = self._findings(
            "std::mutex mu_;\nstd::atomic<int> n{0};\nstd::thread t;\n"
        )
        self.assertEqual([f.rule for f in got], ["thread-containment"] * 3)
        self.assertEqual([f.line for f in got], [1, 2, 3])

    def test_condition_variable_and_this_thread_flagged(self):
        got = self._findings(
            "std::condition_variable_any cv;\nstd::this_thread::yield();\n"
        )
        self.assertEqual(len(got), 2)

    def test_template_argument_position_clean(self):
        got = self._findings(
            "const std::lock_guard<std::mutex> lock(mu_);\n"
            "std::scoped_lock<std::mutex,\n"
            "                 std::mutex> both(a, b);\n"
        )
        self.assertEqual(got, [])

    def test_unrelated_std_names_clean(self):
        got = self._findings(
            "std::vector<int> v;\nstd::map<int, int> m;\n"
            "int futures_settled = 0;\n"
        )
        self.assertEqual(got, [])

    def test_thread_allow_prefix_exempts_file(self):
        r = run_detlint(
            "--repo", str(HERE / "fixtures"), "--paths", "fail",
            "--critical", "fail", "--thread-allow", "fail/thread_raw",
        )
        self.assertNotIn("thread-containment", r.stdout)


class FixtureTest(unittest.TestCase):
    FIXTURES = HERE / "fixtures"

    def test_pass_fixtures_are_clean(self):
        r = run_detlint(
            "--repo", str(self.FIXTURES), "--paths", "pass",
            "--critical", "pass",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_fail_fixtures_are_flagged(self):
        r = run_detlint(
            "--repo", str(self.FIXTURES), "--paths", "fail",
            "--critical", "fail",
        )
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        expected = {
            "fail/wall_clock.cpp": "wall-clock",
            "fail/raw_rand.cpp": "raw-rand",
            "fail/env_read.cpp": "env-read",
            "fail/unordered_iter.cpp": "unordered-iter",
            "fail/bad_suppressions.cpp": "bad-suppression",
            "fail/mc_unordered_merge.cpp": "unordered-iter",
            "fail/inlinefn_capture.cpp": "inlinefn-capture",
            "fail/thread_raw.cpp": "thread-containment",
        }
        for path, rule in expected.items():
            self.assertIn(f"{path}:", r.stdout)
            self.assertRegex(r.stdout, rf"{path}:\d+: {rule}:")
        # The mc-shaped fixture carries both bug classes the model-checking
        # driver must stay free of.
        self.assertRegex(
            r.stdout, r"fail/mc_unordered_merge\.cpp:\d+: wall-clock:"
        )
        self.assertRegex(
            r.stdout, r"bad_suppressions\.cpp:\d+: unused-suppression:"
        )

    def test_fail_fixture_finding_counts(self):
        r = run_detlint(
            "--repo", str(self.FIXTURES), "--paths", "fail",
            "--critical", "fail",
        )
        # wall_clock: 4, raw_rand: 3, env_read: 2, unordered_iter: 3 (two
        # range-fors + one .begin() walk), bad_suppressions: 3,
        # mc_unordered_merge: 3 (one hash-order range-for + two
        # steady_clock reads), inlinefn_capture: 3 (same-line [&],
        # [&, extra], multi-line call head), thread_raw: 5 (mutex, condvar,
        # atomic, thread, this_thread; the lock_guard<std::mutex> line adds
        # nothing — template-argument position).
        banned = [l for l in r.stdout.splitlines() if "[banned]" in l]
        self.assertEqual(len(banned), 26, r.stdout)

    def test_expect_allowed_mismatch_fails(self):
        r = run_detlint(
            "--repo", str(self.FIXTURES), "--paths", "pass",
            "--critical", "pass",
            "--expect-allowed", "wall-clock:pass=99",
        )
        self.assertEqual(r.returncode, 1)
        self.assertIn("expected 99 allowed", r.stderr)

    def test_expect_allowed_match_passes(self):
        # allowed_site.cpp carries two wall-clock sites, bench_clock.cpp one.
        r = run_detlint(
            "--repo", str(self.FIXTURES), "--paths", "pass",
            "--critical", "pass",
            "--expect-allowed", "wall-clock:pass=3",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_bench_clock_alias_fixture_registers_as_allowed(self):
        # The sanctioned bench idiom: one annotated `using BenchClock = ...`
        # alias. The annotation must register (not be flagged unused), the
        # file must lint clean, and --list-allowed must surface the site so
        # repo-scan pins can count it.
        r = run_detlint(
            "--repo", str(self.FIXTURES), "--paths", "pass",
            "--critical", "pass", "--list-allowed",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertRegex(
            r.stdout, r"pass/bench_clock\.cpp:\d+: wall-clock:.*\[allowed"
        )


class RepoScanTest(unittest.TestCase):
    """The dirs added by the interleaving-explorer work, scanned for real.

    src/sim holds the strategy/schedule/explorer core, src/harness holds
    the campaign runner, and bench/ holds the mc and static-verification
    drivers; all feed replayable artifacts and gating reports, so they
    must stay free of unordered-container iteration and deferred
    [&]-captures (bench/mc.cpp and bench/verify.cpp are promoted to
    campaign-critical), of wall-clock reads beyond the four sanctioned
    BenchClock sites in bench drivers, and of raw threading outside the
    allowlisted job runner (the one annotated exception is the
    SystemFactory registry mutex).
    """

    REPO = HERE.parent.parent

    def test_sim_and_mc_driver_stay_deterministic(self):
        r = run_detlint(
            "--repo", str(self.REPO),
            "--paths", "src/sim", "src/harness", "bench",
            "--critical", "src", "bench/mc.cpp", "bench/verify.cpp",
            "--expect-allowed", "wall-clock:bench=4",
            "--expect-allowed", "thread-containment:src=1",
        )
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
