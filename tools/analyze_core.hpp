// laco-analyze — second-generation static analysis for the LACO tree
// (docs/STATIC_ANALYSIS.md). Where laco-lint matches regexes against
// stripped lines, laco-analyze lexes real C++ tokens (comments,
// string/char literals, raw strings, and line-spliced literals all
// removed with exact line numbers preserved) and builds the project
// include graph, so it can prove structural invariants:
//
//   - the layer DAG (util → obs → nn → models → … → laco → serve): no
//     upward or cyclic includes between src/ subsystems,
//   - include hygiene (IWYU-lite unused project headers, duplicates,
//     file-level include cycles),
//   - lock discipline: LACO_GUARDED_BY fields only touched under a
//     MutexLock scope or inside a LACO_REQUIRES-annotated method,
//   - Tensor pass-by-value (an accidental shared_ptr copy per call),
//   - determinism: regions marked `// LACO_DETERMINISTIC` must not use
//     unordered floating-point accumulation idioms,
//   - serialization discipline: a struct whose body uses serial::Writer
//     or serial::Reader must declare an explicit kVersion
//     (serial-versioned) and must appear in tests/test_snapshot.cpp's
//     round-trip suite (serial-roundtrip).
//
// This header is the library half: tools/laco_analyze.cpp wraps it in
// a CLI (registered as the `laco_analyze` ctest gate) and
// tests/test_analyze.cpp drives it over fixtures asserting exact
// diagnostics. A violating line can be suppressed with a trailing
// `// analyze-ok(rule-id)` comment stating why.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace laco::analyze {

struct Diagnostic {
  std::string relpath;  ///< root-relative, '/' separators
  int line = 1;
  std::string rule;     ///< stable id, e.g. "layer-dag"
  std::string message;

  /// Canonical rendering: "path:line: [rule] message".
  std::string str() const;
};

/// One lexed token of the comment/string-stripped source.
struct Token {
  enum class Kind { kIdentifier, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

struct IncludeDirective {
  std::string path;  ///< as written inside the quotes/brackets
  int line = 1;
  bool angled = false;  ///< <...> (system) vs "..." (project)
};

/// The tokenizer's full view of one file.
struct TokenizedFile {
  /// Code tokens only: comments, strings, chars, raw strings and
  /// preprocessor directive lines are excluded.
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::vector<std::string> defines;  ///< #define'd macro names
  bool has_pragma_once = false;
  /// Lines carrying a `// LACO_DETERMINISTIC` marker comment.
  std::vector<int> deterministic_marks;
  /// line -> rule ids suppressed by `// analyze-ok(rule)` on that line.
  std::map<int, std::set<std::string>> suppressions;
};

/// Strips //, /* */ comments and string/char literals — including raw
/// strings R"(…)" and backslash-newline-spliced literals — while
/// preserving line structure exactly, so downstream patterns never
/// match inside prose and diagnostics keep true line numbers.
std::string strip_source(const std::string& source);

/// strip_source plus blanked preprocessor *continuation* lines (the
/// lines after a `#…\` splice): line-oriented rule engines (laco-lint)
/// use this so macro bodies never trip per-line rules, while the
/// directive's first line (`#pragma once`, `#define NAME \`) stays
/// visible.
std::string strip_for_line_rules(const std::string& source);

/// Full tokenization of `source` (see TokenizedFile).
TokenizedFile tokenize(const std::string& source);

/// The architectural layer of a root-relative path, e.g.
/// "src/nn/tensor.hpp" -> "nn". The laco_flows sources that live under
/// src/placer/ (inflation, net_weighting) map to the virtual layer
/// "flows" above router. Empty for paths outside src/.
std::string layer_of(const std::string& relpath);

/// Layers `from` may include headers from (reflexive-transitive
/// closure of the CMake link graph in src/CMakeLists.txt).
bool layer_may_include(const std::string& from, const std::string& to);

struct Options {
  bool file_rules = true;  ///< token-level per-file rules
  bool tree_rules = true;  ///< include-graph rules over src/
};

/// Runs the per-file token rules (tensor-by-value, guarded-access,
/// nondeterministic-accum, duplicate-include) on one file. `relpath`
/// decides scope; `root` locates the paired header for guarded-field
/// harvesting (pass an empty path to skip pairing — fixture mode).
std::vector<Diagnostic> analyze_file(const std::filesystem::path& file,
                                     const std::string& relpath,
                                     const std::filesystem::path& root = {});

/// Root-relative paths of every C++ file the tree walk visits
/// (src/ tests/ tools/ bench/, skipping *_fixtures/ directories).
std::vector<std::string> collect_files(const std::filesystem::path& root);

/// Whole-tree analysis: per-file rules plus the include-graph rules
/// (layer-dag, include-cycle, iwyu-unused-include) over src/.
/// Diagnostics are sorted by path then line.
std::vector<Diagnostic> analyze_tree(const std::filesystem::path& root,
                                     const Options& options = {});

}  // namespace laco::analyze
