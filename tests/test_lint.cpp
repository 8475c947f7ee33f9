// laco-lint rule coverage: each fixture under tests/lint_fixtures
// violates exactly one rule; these tests assert the exact diagnostics
// (path, line, rule id, message) so a rule that silently stops firing
// breaks the build. LACO_LINT_FIXTURE_DIR is injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace {

using laco::lint::Diagnostic;
using laco::lint::lint_file;

std::filesystem::path fixture(const std::string& name) {
  return std::filesystem::path(LACO_LINT_FIXTURE_DIR) / name;
}

std::vector<std::string> diags(const std::string& name, const std::string& relpath) {
  std::vector<std::string> out;
  for (const Diagnostic& d : lint_file(fixture(name), relpath)) out.push_back(d.str());
  return out;
}

TEST(LintRules, PragmaOnceMissing) {
  EXPECT_EQ(diags("missing_pragma.hpp", "src/fixture/missing_pragma.hpp"),
            std::vector<std::string>{
                "src/fixture/missing_pragma.hpp:1: [pragma-once] header must use '#pragma once'"});
}

TEST(LintRules, BareAssertOnlyInSrc) {
  EXPECT_EQ(diags("bare_assert.cpp", "src/fixture/bare_assert.cpp"),
            std::vector<std::string>{
                "src/fixture/bare_assert.cpp:10: [bare-assert] use LACO_CHECK/LACO_DCHECK "
                "(util/check.hpp); bare asserts vanish under NDEBUG"});
  // The same file under tests/ is fine: GoogleTest code may assert.
  EXPECT_TRUE(diags("bare_assert.cpp", "tests/bare_assert.cpp").empty());
}

TEST(LintRules, NakedNewAndDelete) {
  const std::vector<std::string> expected = {
      "src/fixture/naked_new.cpp:8: [naked-new] use std::make_unique/std::make_shared or "
      "containers instead of naked allocation",
      "src/fixture/naked_new.cpp:9: [naked-new] use RAII owners instead of manual deallocation"};
  EXPECT_EQ(diags("naked_new.cpp", "src/fixture/naked_new.cpp"), expected);
}

TEST(LintRules, RandForbiddenEverywhereButRngImpl) {
  const std::vector<std::string> expected = {
      "src/fixture/uses_rand.cpp:7: [rand] use util/rng.hpp (seeded, reproducible) instead of "
      "the C PRNG",
      "src/fixture/uses_rand.cpp:8: [rand] use util/rng.hpp (seeded, reproducible) instead of "
      "the C PRNG"};
  EXPECT_EQ(diags("uses_rand.cpp", "src/fixture/uses_rand.cpp"), expected);
  // The rng implementation itself is the one allowed wrapper point.
  EXPECT_TRUE(diags("uses_rand.cpp", "src/util/rng.cpp").empty());
}

TEST(LintRules, IostreamOnlyOutsideLoggingToolsBench) {
  const std::vector<std::string> expected = {
      "src/fixture/uses_cout.cpp:6: [iostream] use util/logging.hpp (LACO_LOG_*) for library "
      "output",
      "src/fixture/uses_cout.cpp:7: [iostream] use util/logging.hpp (LACO_LOG_*) for library "
      "output"};
  EXPECT_EQ(diags("uses_cout.cpp", "src/fixture/uses_cout.cpp"), expected);
  EXPECT_TRUE(diags("uses_cout.cpp", "bench/uses_cout.cpp").empty());
  EXPECT_TRUE(diags("uses_cout.cpp", "tools/uses_cout.cpp").empty());
  EXPECT_TRUE(diags("uses_cout.cpp", "src/util/logging.cpp").empty());
}

TEST(LintRules, UnguardedMutexMember) {
  EXPECT_EQ(diags("unguarded_mutex.hpp", "src/fixture/unguarded_mutex.hpp"),
            std::vector<std::string>{
                "src/fixture/unguarded_mutex.hpp:12: [mutex-guard] mutex member without any "
                "LACO_GUARDED_BY annotation in this header"});
  // util/mutex.hpp wraps the raw std::mutex and is exempt.
  EXPECT_TRUE(diags("unguarded_mutex.hpp", "src/util/mutex.hpp").empty());
}

TEST(LintRules, ForwardOutsideNoGradGuard) {
  const std::vector<std::string> expected = {
      "src/serve/nograd_missing.cpp:7: [nograd-forward] model forward() in src/serve must run "
      "under nn::NoGradGuard",
      "src/serve/nograd_missing.cpp:12: [nograd-forward] model forward() in src/serve must run "
      "under nn::NoGradGuard"};
  EXPECT_EQ(diags("nograd_missing.cpp", "src/serve/nograd_missing.cpp"), expected);
  // Outside src/serve the contract is out of scope.
  EXPECT_TRUE(diags("nograd_missing.cpp", "src/laco/nograd_missing.cpp").empty());
}

TEST(LintRules, CatchSwallowInFaultHandlingLayers) {
  const std::vector<std::string> expected = {
      "src/serve/catch_swallow.cpp:10: [catch-swallow] catch (...) in src/serve//src/laco must "
      "rethrow, log (LACO_LOG_*), or forward the exception (set_exception/fail_batch); "
      "swallowed faults defeat the reliability layer"};
  EXPECT_EQ(diags("catch_swallow.cpp", "src/serve/catch_swallow.cpp"), expected);
  // src/laco is the other fault-handling layer; elsewhere out of scope.
  EXPECT_EQ(diags("catch_swallow.cpp", "src/laco/catch_swallow.cpp").size(), 1u);
  EXPECT_TRUE(diags("catch_swallow.cpp", "src/placer/catch_swallow.cpp").empty());
  EXPECT_TRUE(diags("catch_swallow.cpp", "tools/catch_swallow.cpp").empty());
}

TEST(LintRules, CleanFileHasNoDiagnostics) {
  EXPECT_TRUE(diags("clean.hpp", "src/fixture/clean.hpp").empty());
}

TEST(LintRules, StripperRemovesCommentsAndStringsOnly) {
  const std::string stripped = laco::lint::strip_comments_and_strings(
      "int x = 1; // trailing\nconst char* s = \"str\\\"ing\";\n/* multi\nline */ int y;\n");
  EXPECT_EQ(stripped,
            "int x = 1;            \nconst char* s =           ;\n        \n        int y;\n");
}

TEST(LintTree, UnregisteredTestFileIsFlagged) {
  // Synthesized tree: test_good.cpp is registered, test_orphan.cpp is
  // not — only the orphan may be diagnosed, and only by this rule.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "lint_reg_tree";
  fs::remove_all(root);
  fs::create_directories(root / "tests");
  const auto put = [](const fs::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  };
  put(root / "tests" / "test_good.cpp", "int main() { return 0; }\n");
  put(root / "tests" / "test_orphan.cpp", "int main() { return 0; }\n");
  put(root / "tests" / "helper.cpp", "int helper() { return 1; }\n");  // not a test: exempt
  put(root / "tests" / "CMakeLists.txt", "laco_add_test(test_good)\n");

  std::vector<std::string> violations;
  for (const Diagnostic& d : laco::lint::lint_tree(root)) violations.push_back(d.str());
  EXPECT_EQ(violations,
            std::vector<std::string>{
                "tests/test_orphan.cpp:1: [test-registered] register it with "
                "laco_add_test(test_orphan) in tests/CMakeLists.txt — unregistered tests "
                "never run"});

  // Registering the orphan clears the diagnostic (whitespace-tolerant).
  put(root / "tests" / "CMakeLists.txt",
      "laco_add_test(test_good)\nlaco_add_test( test_orphan )\n");
  EXPECT_TRUE(laco::lint::lint_tree(root).empty());
  fs::remove_all(root);
}

// Regression pins for the tokenizer-based stripper (analyze_core):
// each of these fixtures made the old hand-rolled state machine
// misfire or drift line numbers.

TEST(LintStripper, RawStringBodiesNeverMatchRules) {
  // Violations spelled inside R"doc(...)doc" are prose; the one real
  // allocation after the literal keeps its exact line number.
  EXPECT_EQ(diags("raw_string.cpp", "src/fixture/raw_string.cpp"),
            std::vector<std::string>{
                "src/fixture/raw_string.cpp:12: [naked-new] use "
                "std::make_unique/std::make_shared or containers instead of naked allocation"});
}

TEST(LintStripper, MacroContinuationLinesAreNotCode) {
  EXPECT_EQ(diags("macro_continuation.cpp", "src/fixture/macro_continuation.cpp"),
            std::vector<std::string>{});
}

TEST(LintStripper, SplicedStringLiteralKeepsLineNumbers) {
  // The backslash-newline splice inside the literal used to swallow a
  // newline and shift every later diagnostic up a line.
  EXPECT_EQ(diags("spliced_string.cpp", "src/fixture/spliced_string.cpp"),
            std::vector<std::string>{
                "src/fixture/spliced_string.cpp:7: [naked-new] use "
                "std::make_unique/std::make_shared or containers instead of naked allocation"});
}

TEST(LintTree, RepoIsCleanAndWalkSkipsFixtures) {
  // The ctest gate runs the binary; this is the API-level equivalent,
  // and proves the walk never descends into lint_fixtures/.
  const std::filesystem::path root = std::filesystem::path(LACO_LINT_FIXTURE_DIR) / ".." / "..";
  const std::vector<std::string> files = laco::lint::collect_files(root);
  ASSERT_FALSE(files.empty());
  for (const std::string& rel : files) {
    EXPECT_EQ(rel.find("lint_fixtures"), std::string::npos) << rel;
    EXPECT_EQ(rel.find("analyze_fixtures"), std::string::npos) << rel;
  }
  std::vector<std::string> violations;
  for (const Diagnostic& d : laco::lint::lint_tree(root)) violations.push_back(d.str());
  EXPECT_EQ(violations, std::vector<std::string>{});
}

}  // namespace
