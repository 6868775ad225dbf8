// Determinism rule pack: wall-clock, unseeded-rng, naked-new,
// catch-all.  Ported from hyades-lint v1 onto the token stream --
// identifier tokens cannot be fooled by substrings, strings, or
// comments, and each finding carries the exact column.
#include <string>

#include "lint/rule.hpp"
#include "lint/walk.hpp"

namespace hyades::lint {
namespace {

class WallClockRule final : public Rule {
 public:
  std::string name() const override { return "wall-clock"; }
  std::string summary() const override {
    return "real-time clock reads outside VirtualClock; host sleeps in src/";
  }
  void per_file(const SourceFile& f, const Corpus&, Reporter& rep) override {
    // A host sleep in the program is real-time waiting: a rank that
    // polls and naps stands in for an event it should block on.  Tests
    // may still sleep to stage thread interleavings.
    const bool in_src = path_contains(f.path, "src/");
    const std::vector<Token>& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      const std::string& id = t[i].text;
      if (id == "system_clock" || id == "steady_clock" ||
          id == "high_resolution_clock") {
        rep.report(f, t[i].line - 1, name(),
                   id + ": the simulated world tells time with VirtualClock",
                   t[i].col);
        continue;
      }
      if (in_src &&
          (id == "sleep_for" || id == "sleep_until" || id == "usleep" ||
           id == "nanosleep") &&
          is_call(t, i)) {
        rep.report(f, t[i].line - 1, name(),
                   id + "() waits on real time: block on the event instead",
                   t[i].col);
        continue;
      }
      if ((id == "gettimeofday" || id == "clock_gettime" ||
           id == "timespec_get" || id == "localtime" || id == "gmtime") &&
          is_call(t, i)) {
        rep.report(f, t[i].line - 1, name(), id + "() reads the host clock",
                   t[i].col);
        continue;
      }
      // time(nullptr) / time(0) / time(NULL): `time` alone collides
      // with too many identifiers, so require the call shape with a
      // null-ish argument.
      if (id == "time" && is_call(t, i) && i + 2 < t.size()) {
        const Token& arg = t[i + 2];
        const bool nullish =
            (arg.kind == Tok::kIdent &&
             (arg.text == "nullptr" || arg.text == "NULL")) ||
            (arg.kind == Tok::kNumber && arg.text[0] == '0');
        if (nullish) {
          rep.report(f, t[i].line - 1, name(), "time() reads the host clock",
                     t[i].col);
        }
      }
    }
  }
};
HYADES_LINT_RULE(WallClockRule)

class UnseededRngRule final : public Rule {
 public:
  std::string name() const override { return "unseeded-rng"; }
  std::string summary() const override {
    return "nondeterministic randomness outside seeded SplitMix64";
  }
  void per_file(const SourceFile& f, const Corpus&, Reporter& rep) override {
    const std::vector<Token>& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      const std::string& id = t[i].text;
      if (id == "random_device" || id == "default_random_engine") {
        rep.report(f, t[i].line - 1, name(),
                   "nondeterministic engine: draw from a seeded SplitMix64",
                   t[i].col);
      } else if ((id == "rand" || id == "srand") && is_call(t, i)) {
        rep.report(
            f, t[i].line - 1, name(),
            "C rand(): hidden global state breaks replay; use SplitMix64",
            t[i].col);
      }
    }
  }
};
HYADES_LINT_RULE(UnseededRngRule)

class NakedNewRule final : public Rule {
 public:
  std::string name() const override { return "naked-new"; }
  std::string summary() const override {
    return "raw new/delete instead of owned containers/smart pointers";
  }
  void per_file(const SourceFile& f, const Corpus&, Reporter& rep) override {
    const std::vector<Token>& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      const bool after_operator = i > 0 && tok_is(t, i - 1, Tok::kIdent,
                                                  "operator");
      if (t[i].text == "new" && !after_operator) {
        rep.report(f, t[i].line - 1, name(),
                   "raw new: use make_unique/containers (exception-safe "
                   "ownership)",
                   t[i].col);
      } else if (t[i].text == "delete" && !after_operator &&
                 !(i > 0 && tok_is(t, i - 1, Tok::kPunct, "="))) {
        rep.report(f, t[i].line - 1, name(),
                   "raw delete: ownership belongs to a smart pointer",
                   t[i].col);
      }
    }
  }
};
HYADES_LINT_RULE(NakedNewRule)

class CatchAllRule final : public Rule {
 public:
  std::string name() const override { return "catch-all"; }
  std::string summary() const override {
    return "catch (...) would swallow RankFailStop";
  }
  void per_file(const SourceFile& f, const Corpus&, Reporter& rep) override {
    const std::vector<Token>& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!tok_is(t, i, Tok::kIdent, "catch") || !is_call(t, i)) continue;
      const std::size_t close = match_paren(t, i + 1);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (tok_is(t, j, Tok::kPunct, "...")) {
          rep.report(f, t[i].line - 1, name(),
                     "catch (...) also swallows RankFailStop (a scheduled "
                     "node death must not be survived)",
                     t[i].col);
          break;
        }
      }
    }
  }
};
HYADES_LINT_RULE(CatchAllRule)

}  // namespace
}  // namespace hyades::lint
