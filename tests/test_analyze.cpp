// Fixture tests for laco-analyze (tools/analyze_core.hpp): every rule
// has at least one failing fixture pinning the exact diagnostic text,
// plus tokenizer unit tests for the cases the old line-oriented
// stripper got wrong (raw strings, digit separators, spliced
// literals).
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze_core.hpp"

namespace {

namespace analyze = laco::analyze;
namespace fs = std::filesystem;

fs::path fixture(const std::string& name) {
  return fs::path(LACO_ANALYZE_FIXTURE_DIR) / name;
}

/// Runs the per-file rules on one fixture under a fake src/ relpath
/// and renders the diagnostics.
std::vector<std::string> file_diags(const std::string& name) {
  std::vector<std::string> out;
  for (const analyze::Diagnostic& d :
       analyze::analyze_file(fixture(name), "src/fixture/" + name)) {
    out.push_back(d.str());
  }
  return out;
}

std::vector<std::string> tree_diags(const std::string& tree_name) {
  std::vector<std::string> out;
  for (const analyze::Diagnostic& d : analyze::analyze_tree(fixture(tree_name))) {
    out.push_back(d.str());
  }
  return out;
}

// ------------------------------------------------------------ file rules

TEST(AnalyzeRules, TensorByValueFlagsValueParamsAndHonorsSuppression) {
  EXPECT_EQ(
      file_diags("tensor_by_value.cpp"),
      (std::vector<std::string>{
          "src/fixture/tensor_by_value.cpp:7: [tensor-by-value] parameter 'dense' takes "
          "nn::Tensor by value (one shared-impl copy per call); pass const Tensor& — or, "
          "for an intentional sink parameter, add // analyze-ok(tensor-by-value)",
          "src/fixture/tensor_by_value.cpp:8: [tensor-by-value] parameter 'frames' takes "
          "nn::Tensor by value (one shared-impl copy per call); pass const Tensor& — or, "
          "for an intentional sink parameter, add // analyze-ok(tensor-by-value)"}));
}

TEST(AnalyzeRules, DeterministicRegionsRejectUnorderedAccumulation) {
  EXPECT_EQ(
      file_diags("nondet_accum.cpp"),
      (std::vector<std::string>{
          "src/fixture/nondet_accum.cpp:11: [nondeterministic-accum] atomic fetch_add "
          "inside a LACO_DETERMINISTIC region: cross-thread accumulation order is "
          "unspecified — use per-shard partial sums reduced in index order",
          "src/fixture/nondet_accum.cpp:20: [nondeterministic-accum] reduction over "
          "std::unordered_map inside a LACO_DETERMINISTIC region: iteration order is "
          "unspecified — use a sorted container or index-ordered loop",
          "src/fixture/nondet_accum.cpp:29: [nondeterministic-accum] std::atomic<double> "
          "inside a LACO_DETERMINISTIC region: floating-point accumulation through an "
          "atomic is unordered — use per-shard partial sums reduced in index order"}));
}

TEST(AnalyzeRules, TiledReductionPatternPassesAndSharedAccumulateFails) {
  // The kernel-pool idiom (docs/KERNELS.md): per-tile partials merged
  // in index order are clean; one shared atomic across tiles is not.
  EXPECT_EQ(
      file_diags("tiled_reduction.cpp"),
      (std::vector<std::string>{
          "src/fixture/tiled_reduction.cpp:34: [nondeterministic-accum] atomic fetch_add "
          "inside a LACO_DETERMINISTIC region: cross-thread accumulation order is "
          "unspecified — use per-shard partial sums reduced in index order"}));
}

TEST(AnalyzeRules, GuardedAccessRequiresLockOrAnnotation) {
  // Only Counter::bump fires: locked_bump holds a MutexLock,
  // annotated_bump is LACO_REQUIRES, and the declaration line itself
  // is exempt.
  EXPECT_EQ(file_diags("guarded_access.cpp"),
            (std::vector<std::string>{
                "src/fixture/guarded_access.cpp:24: [guarded-access] field 'value_' is "
                "LACO_GUARDED_BY a mutex but is touched with no MutexLock in scope and "
                "outside any LACO_REQUIRES method — lock first, or annotate the method"}));
}

TEST(AnalyzeRules, DuplicateIncludeFlagsSecondOccurrence) {
  EXPECT_EQ(file_diags("dup_include.cpp"),
            (std::vector<std::string>{
                "src/fixture/dup_include.cpp:4: [duplicate-include] \"cstddef\" is "
                "already included by this file — drop the duplicate"}));
}

TEST(AnalyzeRules, CleanFixtureProducesNoDiagnostics) {
  EXPECT_EQ(file_diags("clean.cpp"), std::vector<std::string>{});
}

TEST(AnalyzeRules, SerialVersionedDemandsExplicitFormatVersion) {
  // GoodBlob (kVersion) and PlainStruct (no serial usage) stay quiet;
  // SuppressedBlob is analyze-ok'd.
  EXPECT_EQ(file_diags("serial_versioned.cpp"),
            (std::vector<std::string>{
                "src/fixture/serial_versioned.cpp:13: [serial-versioned] 'BadBlob' is "
                "serialized through laco::serial but declares no kVersion — every "
                "serialized struct carries an explicit format version so old files fail "
                "cleanly (docs/RELIABILITY.md)",
                "src/fixture/serial_versioned.cpp:17: [serial-versioned] 'BadReaderBlob' "
                "is serialized through laco::serial but declares no kVersion — every "
                "serialized struct carries an explicit format version so old files fail "
                "cleanly (docs/RELIABILITY.md)"}));
}

// ------------------------------------------------------------ tree rules

TEST(AnalyzeTree, LayerDagCycleAndIwyuFireOnSeededTree) {
  // layer_tree/ is a miniature repo: an nn header including serve
  // (upward include), two util headers including each other (cycle),
  // and a .cpp including a header it never references (IWYU).
  EXPECT_EQ(
      tree_diags("layer_tree"),
      (std::vector<std::string>{
          "src/nn/bad_upward.hpp:3: [layer-dag] include of \"src/serve/svc.hpp\" breaks "
          "the layer DAG: layer 'nn' must not depend on layer 'serve' "
          "(docs/STATIC_ANALYSIS.md)",
          "src/util/cycle_a.hpp:3: [include-cycle] include cycle: src/util/cycle_a.hpp "
          "-> src/util/cycle_b.hpp -> src/util/cycle_a.hpp",
          "src/util/unused_inc.cpp:1: [iwyu-unused-include] nothing declared by "
          "\"src/util/provides.hpp\" is referenced in this file — drop the include (or "
          "include what you actually use)"}));
}

TEST(AnalyzeTree, SerialRoundTripCoverageFlagsUntestedCodecs) {
  // serial_tree/ has two versioned codec structs; only CoveredBlob is
  // mentioned by its tests/test_snapshot.cpp.
  EXPECT_EQ(tree_diags("serial_tree"),
            (std::vector<std::string>{
                "src/util/blob.hpp:12: [serial-roundtrip] 'UncoveredBlob' is serialized "
                "through laco::serial but never appears in tests/test_snapshot.cpp — "
                "cover it in the snapshot round-trip suite"}));
}

TEST(AnalyzeTree, LayerTableMatchesLinkGraph) {
  EXPECT_TRUE(analyze::layer_may_include("placer", "util"));   // transitive
  EXPECT_TRUE(analyze::layer_may_include("serve", "laco"));    // direct
  EXPECT_TRUE(analyze::layer_may_include("nn", "nn"));         // reflexive
  EXPECT_FALSE(analyze::layer_may_include("nn", "serve"));     // upward
  EXPECT_FALSE(analyze::layer_may_include("util", "gridmap")); // upward
  EXPECT_FALSE(analyze::layer_may_include("placer", "router"));  // would be a cycle

  EXPECT_EQ(analyze::layer_of("src/nn/tensor.hpp"), "nn");
  EXPECT_EQ(analyze::layer_of("src/placer/nesterov.cpp"), "placer");
  // The laco_flows sources live under src/placer/ but sit above router.
  EXPECT_EQ(analyze::layer_of("src/placer/inflation.cpp"), "flows");
  EXPECT_EQ(analyze::layer_of("src/placer/net_weighting.hpp"), "flows");
  EXPECT_EQ(analyze::layer_of("tools/laco_cli.cpp"), "");
}

// ------------------------------------------------------------- tokenizer

TEST(AnalyzeTokenizer, RawStringsAreBlankedWithLinesPreserved) {
  const std::string src =
      "int x = 0;\n"
      "const char* doc = R\"doc(\n"
      "  int* leak = new int[8];\n"
      ")doc\";\n"
      "int y = 1;\n";
  const std::string stripped = analyze::strip_source(src);
  EXPECT_EQ(stripped.find("new int"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  // `y` still lexes on its true line after the multi-line literal.
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  bool found = false;
  for (const analyze::Token& t : tf.tokens) {
    if (t.text == "y") {
      EXPECT_EQ(t.line, 5);
      found = true;
    }
    EXPECT_NE(t.text, "leak");
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeTokenizer, DigitSeparatorsDoNotOpenCharLiterals) {
  // The old stripper treated the ' in 50'000 as a char literal opener
  // and blanked everything to the next apostrophe.
  const std::string src =
      "int big = 50'000;\n"
      "char c = 'x';\n"
      "int after = 1;\n";
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  bool saw_number = false;
  bool saw_after = false;
  for (const analyze::Token& t : tf.tokens) {
    if (t.text == "50'000") {
      EXPECT_EQ(t.kind, analyze::Token::Kind::kNumber);
      saw_number = true;
    }
    if (t.text == "after") {
      EXPECT_EQ(t.line, 3);
      saw_after = true;
    }
    EXPECT_NE(t.text, "x");  // char literal contents stay blanked
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_after);
}

TEST(AnalyzeTokenizer, SplicedStringLiteralKeepsLineNumbers) {
  const std::string src =
      "const char* s = \"abc\\\n"
      "def\";\n"
      "int after_splice = 2;\n";
  const std::string stripped = analyze::strip_source(src);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  bool found = false;
  for (const analyze::Token& t : tf.tokens) {
    if (t.text == "after_splice") {
      EXPECT_EQ(t.line, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzeTokenizer, MarkersAndSuppressionsAreCaptured) {
  const std::string src =
      "// LACO_DETERMINISTIC: ordered reduction\n"
      "int a = 1;  // analyze-ok(tensor-by-value): fixture\n";
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  ASSERT_EQ(tf.deterministic_marks.size(), 1u);
  EXPECT_EQ(tf.deterministic_marks[0], 1);
  ASSERT_EQ(tf.suppressions.count(2), 1u);
  EXPECT_EQ(tf.suppressions.at(2).count("tensor-by-value"), 1u);
}

TEST(AnalyzeTokenizer, PreprocessorDirectivesProduceNoTokens) {
  const std::string src =
      "#define FIXTURE_MACRO(n) \\\n"
      "  do { auto* p = new int[n]; delete[] p; } while (0)\n"
      "#include \"util/check.hpp\"\n"
      "int code = 3;\n";
  const analyze::TokenizedFile tf = analyze::tokenize(src);
  for (const analyze::Token& t : tf.tokens) {
    EXPECT_NE(t.text, "new");  // macro body is not code
    EXPECT_NE(t.text, "do");
  }
  ASSERT_EQ(tf.includes.size(), 1u);
  EXPECT_EQ(tf.includes[0].path, "util/check.hpp");
  EXPECT_FALSE(tf.includes[0].angled);
  EXPECT_EQ(tf.includes[0].line, 3);
  ASSERT_EQ(tf.defines.size(), 1u);
  EXPECT_EQ(tf.defines[0], "FIXTURE_MACRO");
}

}  // namespace
