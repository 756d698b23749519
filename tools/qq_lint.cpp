// qq_lint — repo-specific static lint, distilled from this repo's own bug
// history and conventions. Token/regex based on purpose: no libclang in the
// build image, and every rule here is shallow enough that a syntactic scan
// (on comment- and string-stripped text) has no false negatives we care
// about. It runs as a ctest entry on every CI leg, so a finding fails the
// build on GCC and Clang alike.
//
// Rules:
//   sentinel-best-seed   float/double best-tracker seeded from -1/-1.0.
//                        PR 6 fixed two real bugs of exactly this shape
//                        (argmax over values that can be <= -1 silently
//                        keeps the sentinel). Seed from -infinity or the
//                        first candidate instead. Integer index sentinels
//                        (`int best = -1`) are NOT flagged — those are
//                        guarded by convention and often correct.
//   raw-mutex            std::mutex / std::lock_guard / std::unique_lock /
//                        std::condition_variable (and their headers) used
//                        anywhere but src/util/mutex.hpp. The sanctioned
//                        types are util::Mutex / util::MutexLock /
//                        util::CondVar, which carry the Clang thread-safety
//                        capability annotations; a raw std type would be a
//                        hole in the -Werror=thread-safety net.
//   pragma-once          header without `#pragma once` near the top.
//   iostream-in-header   header including <iostream> (drags the static
//                        ios_base initializer into every TU; use <ostream>
//                        or keep I/O in a .cpp).
//   raw-intrinsics       x86 SIMD spelled outside src/qsim/simd.hpp:
//                        _mm*() intrinsic calls, __m128/__m256/__m512
//                        vector types, or an <immintrin.h>-family include.
//                        Kernels must call the dispatched simd:: primitives
//                        instead — a stray intrinsic bypasses the runtime
//                        ISA dispatch, the scalar bit-parity contract, and
//                        the QQ_SIMD=OFF build.
//   raw-thread           std::thread / std::jthread in src/ outside
//                        src/util/thread_pool.*. Library work runs on the
//                        shared pool, whose kernels split cooperatively; a
//                        dedicated thread per task (multi-restart QAOA once
//                        ran one per restart, meeting at a barrier)
//                        oversubscribes the cores behind the pool's back.
//                        Tests, benches and tools may spawn threads.
//
// Suppression: put `qq-lint: allow(<rule>)` in a comment on the offending
// line. src/util/mutex.hpp is exempt from raw-mutex by path — it IS the
// wrapper — and src/qsim/simd.hpp is exempt from raw-intrinsics for the
// same reason, as are src/util/thread_pool.* from raw-thread.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Replace comments and string/char literals with spaces, preserving
/// newlines (so findings report real line numbers) and length (so column
/// context in messages stays sane). Handles //, /* */, "...", '...', and
/// R"delim(...)delim".
std::string strip_comments_and_strings(const std::string& in) {
  std::string out(in.size(), ' ');
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_close;  // e.g. )delim" for the active raw string
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    if (c == '\n') out[i] = '\n';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   in[i - 1])) &&
                               in[i - 1] != '_'))) {
          std::size_t paren = in.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_close = ")" + in.substr(i + 2, paren - i - 2) + "\"";
            state = State::kRawString;
            i = paren;
          }
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        } else {
          out[i] = c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') state = State::kCode;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (i < in.size() && in[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (in.compare(i, raw_close.size(), raw_close) == 0) {
          i += raw_close.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream stream(text);
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

bool line_allows(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("qq-lint: allow(" + rule + ")") != std::string::npos;
}

bool is_header(const fs::path& path) { return path.extension() == ".hpp"; }

/// The one file allowed to spell std::mutex: the capability wrapper.
bool raw_mutex_exempt(const std::string& rel) {
  return rel == "src/util/mutex.hpp";
}

/// The one file allowed to spell x86 intrinsics: the dispatch layer.
bool raw_intrinsics_exempt(const std::string& rel) {
  return rel == "src/qsim/simd.hpp";
}

/// raw-thread covers library code only, minus the pool that owns threads.
bool raw_thread_checked(const std::string& rel) {
  return rel.rfind("src/", 0) == 0 &&
         rel.rfind("src/util/thread_pool.", 0) != 0;
}

// sentinel-best-seed: a floating-point declaration whose name says "this
// tracks the best/max so far" seeded with the magic -1. The type keyword is
// part of the pattern: `auto x = -1.0` deduces double, while `int best = -1`
// (index sentinel) deliberately does not fire.
const std::regex kSentinelSeed(
    R"(\b(?:float|double|auto)\s+([A-Za-z_]*(?:best|max|top|winner)[A-Za-z_0-9]*)\s*(?:=|\{)\s*-\s*1(?:\.0*)?[fF]?\s*[;,})])",
    std::regex::icase);

const std::regex kRawMutexType(
    R"(\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable|condition_variable_any)\b)");
const std::regex kRawMutexInclude(
    R"(#\s*include\s*<(mutex|shared_mutex|condition_variable)>)");
const std::regex kIostreamInclude(R"(#\s*include\s*<iostream>)");

// raw-intrinsics: _mm_/_mm256_/_mm512_ intrinsic names, __m128/__m256/__m512
// vector types (any suffix), or an intrinsics header include.
const std::regex kRawIntrinsicToken(
    R"(\b(_mm[0-9]*_[A-Za-z0-9_]+|__m(?:64|128|256|512)[a-z0-9]*)\b)");
const std::regex kRawIntrinsicInclude(
    R"(#\s*include\s*<([a-z0-9]*mmintrin\.h|x86intrin\.h|intrin\.h)>)");

// raw-thread: std::thread or std::jthread (std::this_thread is fine).
const std::regex kRawThread(R"(\bstd\s*::\s*j?thread\b)");

void scan_file(const std::string& rel, const std::string& content,
               std::vector<Finding>& findings) {
  const bool header = is_header(fs::path(rel));
  const std::string stripped = strip_comments_and_strings(content);
  const std::vector<std::string> raw_lines = split_lines(content);
  const std::vector<std::string> lines = split_lines(stripped);

  if (header) {
    // pragma-once: must appear in the first 10 raw lines (license or doc
    // comments may precede it, nothing else should).
    bool found = false;
    for (std::size_t i = 0; i < raw_lines.size() && i < 10; ++i) {
      if (raw_lines[i].find("#pragma once") != std::string::npos) {
        found = true;
        break;
      }
    }
    if (!found && !(!raw_lines.empty() && line_allows(raw_lines[0], "pragma-once"))) {
      findings.push_back(
          {rel, 1, "pragma-once", "header is missing #pragma once"});
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::string& raw =
        i < raw_lines.size() ? raw_lines[i] : lines[i];

    std::smatch m;
    if (std::regex_search(line, m, kSentinelSeed) &&
        !line_allows(raw, "sentinel-best-seed")) {
      findings.push_back(
          {rel, i + 1, "sentinel-best-seed",
           "best-tracker '" + m[1].str() +
               "' seeded from -1; seed from -infinity or the first "
               "candidate (values <= -1 silently lose to the sentinel)"});
    }
    if (!raw_mutex_exempt(rel)) {
      if ((std::regex_search(line, m, kRawMutexType) ||
           std::regex_search(line, m, kRawMutexInclude)) &&
          !line_allows(raw, "raw-mutex")) {
        findings.push_back(
            {rel, i + 1, "raw-mutex",
             "raw '" + m[0].str() +
                 "'; use util::Mutex / util::MutexLock / util::CondVar "
                 "(src/util/mutex.hpp) so the thread-safety analysis sees "
                 "it"});
      }
    }
    if (header && std::regex_search(line, kIostreamInclude) &&
        !line_allows(raw, "iostream-in-header")) {
      findings.push_back({rel, i + 1, "iostream-in-header",
                          "<iostream> in a header; include <ostream> or "
                          "move the I/O into a .cpp"});
    }
    if (!raw_intrinsics_exempt(rel)) {
      if ((std::regex_search(line, m, kRawIntrinsicToken) ||
           std::regex_search(line, m, kRawIntrinsicInclude)) &&
          !line_allows(raw, "raw-intrinsics")) {
        findings.push_back(
            {rel, i + 1, "raw-intrinsics",
             "raw x86 intrinsic '" + m[0].str() +
                 "' outside src/qsim/simd.hpp; call the dispatched simd:: "
                 "primitives so scalar parity, runtime dispatch, and the "
                 "QQ_SIMD=OFF build keep working"});
      }
    }
    if (raw_thread_checked(rel) && std::regex_search(line, m, kRawThread) &&
        !line_allows(raw, "raw-thread")) {
      findings.push_back(
          {rel, i + 1, "raw-thread",
           "raw '" + m[0].str() +
               "' in library code; run the work on util::ThreadPool "
               "(src/util/thread_pool.hpp) instead of a dedicated thread"});
    }
  }
}

int run_self_test() {
  struct Case {
    const char* name;
    const char* file;
    const char* content;
    const char* expect_rule;  // nullptr = expect clean
  };
  const Case cases[] = {
      {"float sentinel fires", "src/a.cpp",
       "#include <limits>\nvoid f() { double best_value = -1.0; }\n",
       "sentinel-best-seed"},
      {"float sentinel brace-init fires", "src/a.cpp",
       "void f() { float top_score{-1.0f}; }\n", "sentinel-best-seed"},
      {"auto sentinel fires", "src/a.cpp",
       "void f() { auto best_abs = -1.0; }\n", "sentinel-best-seed"},
      {"int index sentinel is fine", "src/a.cpp",
       "void f() { int best_a = -1; int max_color = -1; }\n", nullptr},
      {"inf seed is fine", "src/a.cpp",
       "#include <limits>\nvoid f() { double best_value = "
       "-std::numeric_limits<double>::infinity(); }\n",
       nullptr},
      {"allow comment suppresses", "src/a.cpp",
       "void f() { double best_v = -1.0; }  // qq-lint: "
       "allow(sentinel-best-seed)\n",
       nullptr},
      {"raw std::mutex fires", "src/a.hpp",
       "#pragma once\n#include <cstddef>\nstruct S { std::mutex m; };\n",
       "raw-mutex"},
      {"mutex include fires", "src/a.cpp", "#include <mutex>\n", "raw-mutex"},
      {"condition_variable fires", "src/a.cpp",
       "void f() { std::condition_variable cv; }\n", "raw-mutex"},
      {"wrapper header is exempt", "src/util/mutex.hpp",
       "#pragma once\n#include <mutex>\nstruct M { std::mutex m; };\n",
       nullptr},
      {"mutex in comment is fine", "src/a.cpp",
       "// std::mutex is banned here\nint x;\n", nullptr},
      {"mutex in string is fine", "src/a.cpp",
       "const char* s = \"std::mutex\";\n", nullptr},
      {"missing pragma once fires", "src/a.hpp", "int x;\n", "pragma-once"},
      {"pragma once after doc comment is fine", "src/a.hpp",
       "// doc\n#pragma once\nint x;\n", nullptr},
      {"iostream in header fires", "src/a.hpp",
       "#pragma once\n#include <iostream>\n", "iostream-in-header"},
      {"iostream in cpp is fine", "src/a.cpp", "#include <iostream>\n",
       nullptr},
      {"intrinsic call fires", "src/qsim/statevector.cpp",
       "void f(double* p) { _mm256_loadu_pd(p); }\n", "raw-intrinsics"},
      {"vector type fires", "src/a.hpp",
       "#pragma once\nstruct S { __m512d v; };\n", "raw-intrinsics"},
      {"immintrin include fires", "src/a.cpp", "#include <immintrin.h>\n",
       "raw-intrinsics"},
      {"legacy emmintrin include fires", "src/a.cpp",
       "#include <emmintrin.h>\n", "raw-intrinsics"},
      {"simd dispatch header is exempt", "src/qsim/simd.hpp",
       "#pragma once\n#include <immintrin.h>\nstruct V { __m256d v; };\n",
       nullptr},
      {"intrinsic in comment is fine", "src/a.cpp",
       "// _mm256_add_pd is banned here\nint x;\n", nullptr},
      {"intrinsic allow comment suppresses", "src/a.cpp",
       "using V = __m256d;  // qq-lint: allow(raw-intrinsics)\n", nullptr},
      {"plain identifiers stay clean", "src/a.cpp",
       "int comm_size = 0; double mm_total = 0.0;\n", nullptr},
      {"raw thread in src fires", "src/qaoa/a.cpp",
       "void f() { std::thread t([] {}); t.join(); }\n", "raw-thread"},
      {"jthread in src fires", "src/a.hpp",
       "#pragma once\nstruct S { std::jthread worker; };\n", "raw-thread"},
      {"thread pool is exempt", "src/util/thread_pool.cpp",
       "unsigned n = std::thread::hardware_concurrency();\n", nullptr},
      {"threads outside src are fine", "tests/a_test.cpp",
       "void f() { std::thread t([] {}); t.join(); }\n", nullptr},
      {"this_thread is fine", "src/a.cpp",
       "void f() { std::this_thread::yield(); }\n", nullptr},
      {"thread allow comment suppresses", "src/a.cpp",
       "std::thread t;  // qq-lint: allow(raw-thread)\n", nullptr},
  };
  int failures = 0;
  for (const Case& c : cases) {
    std::vector<Finding> findings;
    scan_file(c.file, c.content, findings);
    const bool ok = c.expect_rule == nullptr
                        ? findings.empty()
                        : (findings.size() == 1 &&
                           findings[0].rule == c.expect_rule);
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s (got %zu finding(s)",
                   c.name, findings.size());
      for (const Finding& f : findings) {
        std::fprintf(stderr, ", %s", f.rule.c_str());
      }
      std::fprintf(stderr, ")\n");
    }
  }
  if (failures == 0) {
    std::printf("qq_lint self-test: %zu cases passed\n",
                sizeof(cases) / sizeof(cases[0]));
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr, "usage: qq_lint [--root <repo>] [--self-test]\n");
      return 2;
    }
  }
  if (self_test) return run_self_test();

  const fs::path root_path(root);
  if (!fs::exists(root_path)) {
    std::fprintf(stderr, "qq_lint: no such directory: %s\n", root.c_str());
    return 2;
  }

  std::vector<Finding> findings;
  std::size_t scanned = 0;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path base = root_path / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".hpp" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "qq_lint: cannot read %s\n",
                     entry.path().c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string rel =
          fs::relative(entry.path(), root_path).generic_string();
      scan_file(rel, buffer.str(), findings);
      ++scanned;
    }
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "qq_lint: %zu finding(s) in %zu files\n",
                 findings.size(), scanned);
    return 1;
  }
  std::printf("qq_lint: %zu files clean\n", scanned);
  return 0;
}
