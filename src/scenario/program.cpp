#include "scenario/program.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>

#include "scenario/snapshot.hpp"
#include "space/torus.hpp"

namespace poly::scenario {

namespace {

using Kind = Stage::Kind;
using Sel = Stage::CrashSelector;
using Rec = Stage::RecoverSelector;
using Tokens = std::vector<std::string>;
using Args = std::span<const std::string>;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kMaxCount = std::numeric_limits<std::size_t>::max();

/// %.17g — shortest form that round-trips a double through the serializer.
std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that still parses back exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

/// "a", "a or b", "a, b, or c" — the alternatives of a diagnostic.
std::string either(const std::vector<std::string>& alts) {
  std::string out;
  for (std::size_t i = 0; i < alts.size(); ++i) {
    if (i > 0) out += alts.size() > 2 ? ", " : " ";
    if (i > 0 && i + 1 == alts.size()) out += "or ";
    out += alts[i];
  }
  return out;
}

/// `text` with its `{key}` placeholder replaced by `value`.
std::string fill(std::string text, const std::string& key,
                 const std::string& value) {
  if (const auto at = text.find(key); at != std::string::npos)
    text.replace(at, key.size(), value);
  return text;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment to end of line
    out.push_back(std::move(tok));
  }
  return out;
}

/// The values a numeric argument accepts, and how a diagnostic describes
/// one outside them.
struct Range {
  bool (*contains)(double);
  const char* outside;
};
constexpr Range kAnyValue{[](double) { return true; }, ""};
constexpr Range kFraction{[](double v) { return v > 0.0 && v <= 1.0; },
                          "out of (0, 1]"};
constexpr Range kRate{[](double v) { return v >= 0.0 && v < 1.0; },
                      "out of [0, 1)"};

/// A word of the language and the enumerator it stands for.
template <class E>
struct Word {
  const char* word;
  E value;
};
constexpr Word<Substrate> kSubstrates[] = {{"tman", Substrate::kTman},
                                           {"vicinity", Substrate::kVicinity}};
constexpr Word<LinkDirection> kDirections[] = {{"in", LinkDirection::kInto},
                                               {"out", LinkDirection::kOutOf},
                                               {"both", LinkDirection::kBoth}};
constexpr Word<TrafficMix> kMixes[] = {{"get", TrafficMix::kGet},
                                       {"put", TrafficMix::kPut},
                                       {"mixed", TrafficMix::kMixed}};
constexpr Word<Expect::Op> kOps[] = {
    {"<", Expect::Op::kLt},  {"<=", Expect::Op::kLe}, {">", Expect::Op::kGt},
    {">=", Expect::Op::kGe}, {"==", Expect::Op::kEq}, {"!=", Expect::Op::kNe}};

template <class E, std::size_t N>
std::string word_of(const Word<E> (&words)[N], E value) {
  for (const auto& w : words)
    if (w.value == value) return w.word;
  return "?";
}

/// One source line: `file:line` diagnostics and the typed conversions
/// every argument goes through.
struct Line {
  const std::string& file;
  int no;
  std::string verb;  ///< first token

  [[noreturn]] void fail(const std::string& msg) const {
    throw ProgramError(file, no, msg);
  }

  void arity(const Tokens& tok, std::size_t n, const std::string& usage) const {
    if (tok.size() != n)
      fail("'" + tok[0] + "' wants " + usage + ", got " +
           std::to_string(tok.size() - 1) + " argument(s)");
  }

  std::size_t count(const std::string& tok, const char* what,
                    std::size_t min = 1) const {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || tok[0] == '-')
      fail(std::string("bad ") + what + " '" + tok +
           "' (want a non-negative integer)");
    if (errno == ERANGE)
      fail(std::string(what) + " " + tok + " out of range (max " +
           std::to_string(kMaxCount) + ")");
    if (v < min)
      fail(std::string(what) + " must be >= " + std::to_string(min) +
           ", got " + tok);
    return static_cast<std::size_t>(v);
  }

  double real(const std::string& tok, const char* what,
              const Range& range = kAnyValue) const {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(v))
      fail(std::string("bad ") + what + " '" + tok + "'");
    if (!range.contains(v))
      fail(std::string(what) + " " + tok + " " + range.outside);
    return v;
  }

  template <class E, std::size_t N>
  E pick(const std::string& tok, const char* what,
         const Word<E> (&words)[N]) const {
    std::vector<std::string> alts;
    for (const auto& w : words) {
      if (tok == w.word) return w.value;
      alts.emplace_back(w.word);
    }
    fail(std::string("unknown ") + what + " '" + tok + "' (want " +
         either(alts) + ")");
  }
};

// ---- argument grammar -------------------------------------------------------

/// One argument of a verb form: a fixed keyword, or a typed value bound to
/// Stage fields.  `parse` reads `width` tokens (0 = the rest of the line)
/// into the stage; `print` renders them back in canonical form.
struct Slot {
  std::string text;  ///< the keyword, or its placeholder in diagnostics
  bool keyword = false;
  std::size_t width = 1;
  std::function<void(const Line&, Stage&, Args)> parse;
  std::function<std::string(const Stage&)> print;
};

Slot kw(const char* word) {
  return {word, true, 1, nullptr, [word](const Stage&) { return word; }};
}

Slot count(std::size_t Stage::*field, const char* what, const char* ph,
           std::size_t min = 1) {
  return {ph, false, 1,
          [=](const Line& l, Stage& s, Args t) {
            s.*field = l.count(t[0], what, min);
          },
          [=](const Stage& s) { return std::to_string(s.*field); }};
}

/// A fault's heal bound in rounds; 0 = never heals.
Slot heal() { return count(&Stage::rounds, "heal round count", "N", 0); }

Slot real(double Stage::*field, const char* what, const char* ph,
          Range range = kAnyValue) {
  return {ph, false, 1,
          [=](const Line& l, Stage& s, Args t) {
            s.*field = l.real(t[0], what, range);
          },
          [=](const Stage& s) { return fmt_g(s.*field); }};
}

template <class E, std::size_t N>
Slot choice(E Stage::*field, const char* what, const Word<E> (&words)[N]) {
  std::string ph;
  for (const auto& w : words) ph += std::string(ph.empty() ? "" : "|") + w.word;
  return {ph, false, 1,
          [=, &words](const Line& l, Stage& s, Args t) {
            s.*field = l.pick(t[0], what, words);
          },
          [=, &words](const Stage& s) { return word_of(words, s.*field); }};
}

/// Zone corners X0 Y0 X1 Y1; empty rectangles are rejected.
Slot zone() {
  return {"X0 Y0 X1 Y1", false, 4,
          [](const Line& l, Stage& s, Args t) {
            s.x0 = l.real(t[0], "zone x0");
            s.y0 = l.real(t[1], "zone y0");
            s.x1 = l.real(t[2], "zone x1");
            s.y1 = l.real(t[3], "zone y1");
            if (s.x1 <= s.x0 || s.y1 <= s.y0)
              l.fail("empty " + l.verb + " zone (want x0 < x1 and y0 < y1)");
          },
          [](const Stage& s) {
            return fmt_g(s.x0) + ' ' + fmt_g(s.y0) + ' ' + fmt_g(s.x1) + ' ' +
                   fmt_g(s.y1);
          }};
}

/// Comma-separated node ids.
Slot ids() {
  return {"A,B,…", false, 1,
          [](const Line& l, Stage& s, Args t) {
            std::istringstream is(t[0]);
            std::string part;
            while (std::getline(is, part, ','))
              s.ids.push_back(l.count(part, "node id", 0));
            if (s.ids.empty()) l.fail("empty " + l.verb + " id list");
          },
          [](const Stage& s) {
            std::string out;
            for (std::size_t id : s.ids)
              out += (out.empty() ? "" : ",") + std::to_string(id);
            return out;
          }};
}

Slot shape_spec() {
  return {"SPEC", false, 1,
          [](const Line& l, Stage& s, Args t) {
            std::string err;
            if (!shape::make_shape(t[0], &err))
              l.fail(l.verb + " to unknown shape: " + err);
            s.shape_spec = t[0];
          },
          [](const Stage& s) { return s.shape_spec; }};
}

/// The rest of the line as one label; empty labels print nothing.
Slot label() {
  return {"[label]", false, 0,
          [](const Line&, Stage& s, Args t) {
            for (const auto& w : t) s.label += (s.label.empty() ? "" : " ") + w;
          },
          [](const Stage& s) { return s.label; }};
}

/// The Stage field value that tells a form from its verb's other forms
/// (crash half vs crash frac, grow N vs grow crashed).
struct Tag {
  void (*set)(Stage&) = nullptr;
  bool (*is)(const Stage&) = nullptr;
};
template <auto Field, auto Value>
constexpr Tag tag{[](Stage& s) { s.*Field = Value; },
                  [](const Stage& s) { return s.*Field == Value; }};

// ---- engines and expect metrics ---------------------------------------------

constexpr unsigned bit(EngineMode m) { return 1u << static_cast<int>(m); }
constexpr unsigned kSyncBit = bit(EngineMode::kSync);
constexpr unsigned kEventsBit = bit(EngineMode::kEvents);

/// The engines a verb form may run under, and the diagnostic (with
/// `{verb}` and `{mode}` filled in) under any other.
struct Engines {
  unsigned mask;
  const char* refusal;
};
constexpr Engines kAnyEngine{~0u, ""};
constexpr Engines kEventsOnly{
    kEventsBit,
    "'{verb}' needs engine events (the fault and traffic planes live in the "
    "event hub), not {mode}"};
constexpr Engines kSyncOnly{
    kSyncBit, "morph/migrate stages need engine sync, not {mode}"};
constexpr Engines kSeeded{
    kSyncBit | kEventsBit,
    "churn / crash frac need a deterministic cluster RNG; engine live has "
    "none (use sync or events)"};

template <auto Field>
double field(const RoundMetrics& m, const Runtime&) {
  return static_cast<double>(m.*Field);
}

/// The metric vocabulary of `expect`: the engines that can observe each
/// (sync has no frame traffic, events no points/node) and its value in one
/// measurement.
struct Metric {
  const char* name;
  unsigned engines;
  double (*value)(const RoundMetrics&, const Runtime&);
};
using M = RoundMetrics;
constexpr Metric kMetrics[] = {
    {"homogeneity", kSyncBit | kEventsBit, field<&M::homogeneity>},
    {"proximity", kSyncBit | kEventsBit, field<&M::proximity>},
    // Through the runtime: sync's RoundMetrics carries NaN there.
    {"reliability", kSyncBit | kEventsBit,
     [](const M&, const Runtime& rt) { return rt.reliability(); }},
    {"alive", kSyncBit | kEventsBit, field<&M::alive>},
    {"points_per_node", kSyncBit, field<&M::points_per_node>},
    {"frames", kEventsBit, field<&M::frames>},
    {"frames_rejected", kEventsBit, field<&M::frames_rejected>},
    {"frames_blackholed", kEventsBit, field<&M::frames_blackholed>},
    {"frames_duplicated", kEventsBit, field<&M::frames_duplicated>},
    {"frames_corrupted", kEventsBit, field<&M::frames_corrupted>},
    {"frames_reordered", kEventsBit, field<&M::frames_reordered>},
    {"stall_rounds", kEventsBit, field<&M::stall_rounds>},
    {"recoveries", kEventsBit, field<&M::recoveries>},
    // Traffic plane (docs/TRAFFIC.md) — the workload runs on events only.
    {"requests", kEventsBit, field<&M::requests>},
    {"requests_failed", kEventsBit, field<&M::requests_failed>},
    {"success_rate", kEventsBit, field<&M::success_rate>},
    {"p50_latency_ms", kEventsBit, field<&M::p50_latency_ms>},
    {"p99_latency_ms", kEventsBit, field<&M::p99_latency_ms>},
    {"p999_latency_ms", kEventsBit, field<&M::p999_latency_ms>},
    {"mean_hops", kEventsBit, field<&M::mean_hops>},
};

const Metric* find_metric(const std::string& name) {
  for (const auto& m : kMetrics)
    if (name == m.name) return &m;
  return nullptr;
}

bool holds(Expect::Op op, double lhs, double rhs) {
  switch (op) {
    case Expect::Op::kLt: return lhs < rhs;
    case Expect::Op::kLe: return lhs <= rhs;
    case Expect::Op::kGt: return lhs > rhs;
    case Expect::Op::kGe: return lhs >= rhs;
    case Expect::Op::kEq: return lhs == rhs;
    case Expect::Op::kNe: return lhs != rhs;
  }
  return false;
}

// ---- execution --------------------------------------------------------------

std::function<bool(const space::Point&)> in_zone(const Stage& s) {
  return [&s](const space::Point& pt) {
    return pt.x() >= s.x0 && pt.x() < s.x1 && pt.y() >= s.y0 && pt.y() < s.y1;
  };
}

std::string zone_text(const Stage& s) {
  return fmt_g(s.x0) + "," + fmt_g(s.y0) + " to " + fmt_g(s.x1) + "," +
         fmt_g(s.y1);
}

std::string heal_text(std::size_t rounds) {
  return rounds != 0 ? ", heal after " + std::to_string(rounds) + " rounds"
                     : std::string(", never heals");
}

/// One repetition in progress — the state the verbs' apply functions
/// act on.
struct Exec {
  const ScenarioProgram& p;
  const shape::Shape& shape;
  const RoundHook& hook;
  std::unique_ptr<Runtime> rt;
  ProgramRun run{};
  std::size_t cadence = 1;
  std::size_t since_measure = 0;
  std::optional<std::size_t> crash_round{};  ///< set by the first crash
  std::size_t crashed_since_grow = 0;
  double morph_w = -1.0;  // current morph-shape extent (lazily = base's)
  double morph_h = -1.0;

  void note(const std::string& text) {
    run.events.push_back({rt->rounds_run(), false, text, {}, {}, {}});
  }

  void measure_now() {
    since_measure = 0;
    run.rounds.push_back(rt->measure());
    const auto& m = run.rounds.back();
    if (crash_round && std::isnan(run.reshaping_rounds) &&
        m.homogeneity < run.reference_h_after_crash)
      run.reshaping_rounds =
          static_cast<double>(rt->rounds_run() - *crash_round);
  }

  // Expects measure freshly at their trigger point, so a sparse measure
  // cadence cannot shift what an assertion sees; one measurement serves
  // every expect sharing the trigger.
  void check_expects(bool at_end) {
    std::optional<RoundMetrics> m;
    for (const auto& e : p.expects) {
      if (e.at_end != at_end || (!at_end && e.round != rt->rounds_run()))
        continue;
      if (!m) m = rt->measure();
      const Metric* metric = find_metric(e.metric);
      const double actual = metric ? metric->value(*m, *rt) : kNaN;
      if (!holds(e.op, actual, e.value))
        throw ProgramError(
            p.file, e.line,
            "expect failed: " + e.metric + " = " + fmt_g(actual) + ", want " +
                word_of(kOps, e.op) + " " + fmt_g(e.value) +
                (at_end ? std::string(" @ end")
                        : " @ round " + std::to_string(e.round)));
    }
  }

  void step() {
    rt->run_round();
    if (++since_measure >= cadence) measure_now();
    if (hook) hook(*rt, rt->rounds_run() - 1);
    check_expects(false);
  }

  /// Runs `n` rounds, calling `before(r)` ahead of round r.
  template <class F>
  void each_round(std::size_t n, F&& before) {
    for (std::size_t r = 0; r < n; ++r) {
      before(r);
      step();
    }
  }

  void morph_rounds(std::size_t n,
                    const std::function<space::Point(const space::Point&)>& f) {
    each_round(n, [&](std::size_t) { rt->morph(f); });
  }

  std::size_t of_alive(double frac) const {
    return static_cast<std::size_t>(frac *
                                    static_cast<double>(rt->alive_count()));
  }

  void crashed(std::size_t n, const std::string& how) {
    run.crashed += n;
    crashed_since_grow += n;
    if (!crash_round) {
      crash_round = rt->rounds_run();
      run.reference_h_after_crash =
          shape.reference_homogeneity(rt->alive_count());
    }
    note("crashed " + std::to_string(n) + " nodes (" + how + ")");
  }

  void stalled(std::size_t n, std::size_t rounds, const std::string& how) {
    note("stalled " + std::to_string(n) + " nodes for " +
         std::to_string(rounds) + " rounds (" + how + ")");
  }

  void recovered(std::size_t n, const std::string& how) {
    run.recovered += n;
    note("recovered " + std::to_string(n) + " nodes (" + how + ")");
  }
};

void apply_grow(Exec& x, const Stage& s) {
  const std::size_t n =
      x.rt->inject(s.grow_crashed ? x.crashed_since_grow : s.count);
  x.run.injected += n;
  x.crashed_since_grow = 0;
  x.note("injected " + std::to_string(n) + " fresh nodes (parallel grid)");
}

void apply_snapshot(Exec& x, const Stage& s) {
  ProgramEvent ev;
  ev.round = x.rt->rounds_run();
  ev.is_snapshot = true;
  ev.text = s.label.empty() ? "r" + std::to_string(ev.round) : s.label;
  if (auto* sim = x.rt->sim()) {
    ev.summary = summary_line(*sim);
  } else {
    const auto m = x.rt->measure();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "round=%llu alive=%zu homogeneity=%.3f (H=%.3f) "
                  "proximity=%.3f reliability=%.3f",
                  static_cast<unsigned long long>(x.rt->rounds_run()),
                  m.alive, m.homogeneity, m.reference_h, m.proximity,
                  m.reliability);
    ev.summary = buf;
  }
  ev.positions = x.rt->alive_positions();
  ev.map = ascii_density_map(x.shape.space(), ev.positions);
  x.run.events.push_back(std::move(ev));
}

void apply_morph_shape(Exec& x, const Stage& s) {
  // Scale the target about the origin, one compounding per-round factor
  // per axis, so after N rounds the extent is exactly the target's.
  // Parse-time checks guarantee grid→grid and fit.
  const auto target = shape::make_shape(s.shape_spec);
  const auto& tt = dynamic_cast<const space::TorusSpace&>(target->space());
  if (x.morph_w <= 0.0) {
    const auto& base = dynamic_cast<const space::TorusSpace&>(x.shape.space());
    x.morph_w = base.width();
    x.morph_h = base.height();
  }
  const double fx = std::pow(tt.width() / x.morph_w,
                             1.0 / static_cast<double>(s.rounds));
  const double fy = std::pow(tt.height() / x.morph_h,
                             1.0 / static_cast<double>(s.rounds));
  x.note("morph to " + s.shape_spec + " over " + std::to_string(s.rounds) +
         " rounds");
  x.morph_rounds(s.rounds, [&](const space::Point& pt) {
    return space::Point{pt.x() * fx, pt.y() * fy};
  });
  x.morph_w = tt.width();
  x.morph_h = tt.height();
}

void apply_drain(Exec& x, const Stage& s) {
  x.rt->stop_traffic();
  std::size_t drained = 0;
  while (x.rt->traffic_inflight() > 0) {
    if (++drained > 10000)
      throw ProgramError(x.p.file, s.line,
                         "drain ran 10000 rounds with traffic still in "
                         "flight — the workload is not draining");
    x.step();
  }
  x.note("drained in-flight traffic (" + std::to_string(drained) +
         " rounds)");
}

void check_grow_crashed(const Stage& s, const ScenarioProgram& p) {
  for (const Stage& prev : p.timeline)
    if (prev.kind == Kind::kCrash || prev.kind == Kind::kChurn) return;
  throw ProgramError(p.file, s.line,
                     "'grow crashed' needs a crash or churn stage before it");
}

/// Morph-shape targets must fit inside the torus the base shape created
/// (positions cannot leave the metric space) — a bad timeline fails at
/// parse time, not 80 rounds into a run.
void check_morph_target(const Stage& s, const ScenarioProgram& p) {
  if (p.shape_spec.empty()) return;  // reported as a missing 'shape'
  const auto base = shape::make_shape(p.shape_spec);
  const auto* torus = dynamic_cast<const space::TorusSpace*>(&base->space());
  if (torus == nullptr)
    throw ProgramError(p.file, 0,
                       "morph shape needs a grid:WxH base shape, not " +
                           p.shape_spec);
  const auto target = shape::make_shape(s.shape_spec);
  const auto* tt = dynamic_cast<const space::TorusSpace*>(&target->space());
  if (tt == nullptr)
    throw ProgramError(p.file, s.line,
                       "morph shape target must be a grid:WxH, not " +
                           s.shape_spec);
  if (tt->width() > torus->width() || tt->height() > torus->height())
    throw ProgramError(p.file, s.line,
                       "morph target " + s.shape_spec + " does not fit the " +
                           fmt_g(torus->width()) + "x" +
                           fmt_g(torus->height()) + " torus of " +
                           p.shape_spec);
}

void check_degrade(const Stage& s, const ScenarioProgram& p) {
  if (s.drop == 0.0 && s.jitter_ms == 0.0)
    throw ProgramError(p.file, s.line,
                       "degrade with drop 0 and jitter 0 does nothing");
}

// ---- the verb table ---------------------------------------------------------

/// One form of a timeline verb, defined once: keywords, argument grammar,
/// engines, round accounting and execution.  Parsing, serialize,
/// validate_for_mode, total_rounds and cap_rounds are generic walks over
/// these rows; adding a verb is one row plus its apply function.
struct VerbForm {
  const char* verb;
  const char* selector;  ///< second keyword naming this form, or nullptr
  Kind kind;
  Tag tag;
  const char* usage;  ///< arity diagnostic; nullptr = show the syntax
  std::vector<Slot> args;
  Engines engines;
  bool runs_rounds;  ///< `rounds` counts as executed timeline rounds
  void (*apply)(Exec&, const Stage&);
  /// Whole-stage rule beyond the typed arguments; throws ProgramError.
  void (*check)(const Stage&, const ScenarioProgram&) = nullptr;
  const char* selects = "selector";  ///< what diagnostics call `selector`
};

// Fault verbs (docs/FAULTS.md) install between rounds; their `rounds` is a
// heal bound or stall span, not executed rounds.  `drain` runs rounds, but
// as many as the in-flight traffic needs — expects about the post-drain
// state use `@ end`.
const std::vector<VerbForm>& verb_forms() {
  using X = Exec&;         // the apply signature, (X x, S s), kept short
  using S = const Stage&;  // so most rows fit their lines
  static const std::vector<VerbForm> forms = {
      {"run", nullptr, Kind::kRun, {}, "a round count",
       {count(&Stage::rounds, "round count", "N")}, kAnyEngine, true,
       [](X x, S s) { x.each_round(s.rounds, [](std::size_t) {}); }},
      {"grow", nullptr, Kind::kGrow, tag<&Stage::grow_crashed, false>,
       "a node count or 'crashed'", {count(&Stage::count, "node count", "N")},
       kAnyEngine, false, apply_grow},
      {"grow", "crashed", Kind::kGrow, tag<&Stage::grow_crashed, true>,
       "a node count or 'crashed'", {}, kAnyEngine, false, apply_grow,
       check_grow_crashed},
      {"crash", "half", Kind::kCrash, tag<&Stage::selector, Sel::kHalf>,
       "no further arguments", {}, kAnyEngine, false,
       [](X x, S) { x.crashed(x.rt->crash_half(), "failure half"); }},
      {"crash", "frac", Kind::kCrash, tag<&Stage::selector, Sel::kFrac>,
       "one fraction", {real(&Stage::frac, "crash fraction", "F", kFraction)},
       kSeeded, false, [](X x, S s) {
         x.crashed(x.rt->crash_random(x.of_alive(s.frac)),
                   "random " + fmt_g(s.frac) + " of alive");
       }},
      {"crash", "zone", Kind::kCrash, tag<&Stage::selector, Sel::kZone>,
       "four corner coordinates X0 Y0 X1 Y1", {zone()}, kAnyEngine, false,
       [](X x, S s) {
         x.crashed(x.rt->crash_region(in_zone(s)), "zone " + zone_text(s));
       }},
      {"crash", "ids", Kind::kCrash, tag<&Stage::selector, Sel::kIds>,
       "a comma-separated id list", {ids()}, kAnyEngine, false,
       [](X x, S s) { x.crashed(x.rt->crash_ids(s.ids), "explicit ids"); }},
      {"churn", nullptr, Kind::kChurn, {}, "a percentage and a round count",
       {real(&Stage::frac, "churn percentage", "PCT",
             {[](double v) { return v > 0.0 && v <= 100.0; },
              "out of (0, 100]"}),
        count(&Stage::rounds, "round count", "N")},
       kSeeded, true, [](X x, S s) {
         x.note("churn " + fmt_g(s.frac) + "%/round for " +
                std::to_string(s.rounds) + " rounds");
         x.each_round(s.rounds, [&](std::size_t) {
           const auto n = static_cast<std::size_t>(
               static_cast<double>(x.rt->alive_count()) * s.frac / 100.0);
           if (n == 0) return;
           x.run.crashed += x.rt->crash_random(n);
           x.crashed_since_grow += n;
           x.run.injected += x.rt->inject(n);
         });
       }},
      {"flash-crowd", nullptr, Kind::kFlashCrowd, {},
       "a node count and a round count",
       {count(&Stage::count, "node count", "N"),
        count(&Stage::rounds, "round count", "R")},
       kAnyEngine, true, [](X x, S s) {
         x.note("flash crowd: " + std::to_string(s.count) + " joins over " +
                std::to_string(s.rounds) + " rounds");
         x.each_round(s.rounds, [&](std::size_t r) {
           const std::size_t n =
               s.count * (r + 1) / s.rounds - s.count * r / s.rounds;
           if (n > 0) x.run.injected += x.rt->inject(n);
         });
       }},
      {"morph", "drift", Kind::kMorphDrift, {}, "drift DX DY N",
       {real(&Stage::dx, "drift dx", "DX"), real(&Stage::dy, "drift dy", "DY"),
        count(&Stage::rounds, "round count", "N")},
       kSyncOnly, true, [](X x, S s) {
         x.note("morph drift (" + fmt_g(s.dx) + ", " + fmt_g(s.dy) +
                ")/round for " + std::to_string(s.rounds) + " rounds");
         x.morph_rounds(s.rounds, [&](const space::Point& pt) {
           return space::Point{pt.x() + s.dx, pt.y() + s.dy};
         });
       },
       nullptr, "mode"},
      {"morph", "shape", Kind::kMorphShape, {}, "shape SPEC N",
       {shape_spec(), count(&Stage::rounds, "round count", "N")}, kSyncOnly,
       true, apply_morph_shape, check_morph_target, "mode"},
      {"migrate", nullptr, Kind::kMigrate, {}, "DX DY N",
       {real(&Stage::dx, "migrate dx", "DX"),
        real(&Stage::dy, "migrate dy", "DY"),
        count(&Stage::rounds, "round count", "N")},
       kSyncOnly, true, [](X x, S s) {
         const double sx = s.dx / static_cast<double>(s.rounds);
         const double sy = s.dy / static_cast<double>(s.rounds);
         x.note("migrate by (" + fmt_g(s.dx) + ", " + fmt_g(s.dy) +
                ") over " + std::to_string(s.rounds) + " rounds");
         x.morph_rounds(s.rounds, [&](const space::Point& pt) {
           return space::Point{pt.x() + sx, pt.y() + sy};
         });
       }},
      {"snapshot", nullptr, Kind::kSnapshot, {}, nullptr, {label()},
       kAnyEngine, false, apply_snapshot},
      {"measure", nullptr, Kind::kMeasureEvery, {}, nullptr,
       {kw("every"), count(&Stage::rounds, "measure cadence", "R")},
       kAnyEngine, false, [](X x, S s) {
         x.cadence = s.rounds;
         x.since_measure = 0;
       }},
      {"partition", nullptr, Kind::kPartition,
       tag<&Stage::selector, Sel::kZone>, "zone X0 Y0 X1 Y1 heal N",
       {kw("zone"), zone(), kw("heal"), heal()}, kEventsOnly, false,
       [](X x, S s) {
         const std::size_t n = x.rt->partition_region(in_zone(s), s.rounds);
         x.note("partitioned " + std::to_string(n) + " nodes (zone " +
                zone_text(s) + heal_text(s.rounds) + ")");
       }},
      {"degrade", nullptr, Kind::kDegrade, tag<&Stage::selector, Sel::kZone>,
       "zone X0 Y0 X1 Y1 in|out|both drop D jitter MS heal N",
       {kw("zone"), zone(),
        choice(&Stage::dir, "degrade direction", kDirections), kw("drop"),
        real(&Stage::drop, "degrade drop rate", "D", kRate), kw("jitter"),
        real(&Stage::jitter_ms, "degrade jitter", "MS",
             {[](double v) { return v >= 0.0; }, "must be >= 0 ms"}),
        kw("heal"), heal()},
       kEventsOnly, false, [](X x, S s) {
         const std::size_t n = x.rt->degrade_region(in_zone(s), s.dir, s.drop,
                                                    s.jitter_ms, s.rounds);
         x.note("degraded links of " + std::to_string(n) + " nodes (" +
                word_of(kDirections, s.dir) + ", drop " + fmt_g(s.drop) +
                ", jitter " + fmt_g(s.jitter_ms) + "ms" +
                heal_text(s.rounds) + ")");
       },
       check_degrade},
      {"corrupt", nullptr, Kind::kCorrupt, {}, "P heal N",
       {real(&Stage::frac, "corrupt probability", "P", kFraction), kw("heal"),
        heal()},
       kEventsOnly, false, [](X x, S s) {
         x.rt->corrupt_frames(s.frac, s.rounds);
         x.note("corrupting frames (p " + fmt_g(s.frac) +
                heal_text(s.rounds) + ")");
       }},
      {"duplicate", nullptr, Kind::kDuplicate, {}, "P heal N",
       {real(&Stage::frac, "duplicate probability", "P", kFraction),
        kw("heal"), heal()},
       kEventsOnly, false, [](X x, S s) {
         x.rt->duplicate_frames(s.frac, s.rounds);
         x.note("duplicating frames (p " + fmt_g(s.frac) +
                heal_text(s.rounds) + ")");
       }},
      {"reorder", nullptr, Kind::kReorder, {}, "P jitter MS heal N",
       {real(&Stage::frac, "reorder probability", "P", kFraction),
        kw("jitter"),
        real(&Stage::jitter_ms, "reorder jitter", "MS",
             {[](double v) { return v > 0.0; }, "must be > 0 ms"}),
        kw("heal"), heal()},
       kEventsOnly, false, [](X x, S s) {
         x.rt->reorder_frames(s.frac, s.jitter_ms, s.rounds);
         x.note("reordering frames (p " + fmt_g(s.frac) + ", jitter " +
                fmt_g(s.jitter_ms) + "ms" + heal_text(s.rounds) + ")");
       }},
      {"stall", "zone", Kind::kStall, tag<&Stage::selector, Sel::kZone>,
       "zone X0 Y0 X1 Y1 N",
       {zone(), count(&Stage::rounds, "stall round count", "N")},
       kEventsOnly, false, [](X x, S s) {
         x.stalled(x.rt->stall_region(in_zone(s), s.rounds), s.rounds,
                   "zone " + zone_text(s));
       }},
      {"stall", "frac", Kind::kStall, tag<&Stage::selector, Sel::kFrac>,
       "frac F N",
       {real(&Stage::frac, "stall fraction", "F", kFraction),
        count(&Stage::rounds, "stall round count", "N")},
       kEventsOnly, false, [](X x, S s) {
         x.stalled(x.rt->stall_random(x.of_alive(s.frac), s.rounds), s.rounds,
                   "random " + fmt_g(s.frac) + " of alive");
       }},
      {"recover", "all", Kind::kRecover, tag<&Stage::recover, Rec::kAll>,
       "no further arguments", {}, kEventsOnly, false,
       [](X x, S) { x.recovered(x.rt->recover_all(), "all crashed"); }},
      {"recover", "frac", Kind::kRecover, tag<&Stage::recover, Rec::kFrac>,
       "one fraction", {real(&Stage::frac, "recover fraction", "F", kFraction)},
       kEventsOnly, false, [](X x, S s) {
         const std::size_t candidates =
             x.run.crashed > x.run.recovered ? x.run.crashed - x.run.recovered
                                             : 0;
         x.recovered(x.rt->recover_random(static_cast<std::size_t>(
                         s.frac * static_cast<double>(candidates))),
                     "random " + fmt_g(s.frac) + " of crashed");
       }},
      {"recover", "ids", Kind::kRecover, tag<&Stage::recover, Rec::kIds>,
       "a comma-separated id list", {ids()}, kEventsOnly, false,
       [](X x, S s) { x.recovered(x.rt->recover_ids(s.ids), "explicit ids"); }},
      {"traffic", nullptr, Kind::kTraffic, {}, "<rate> get|put|mixed",
       {count(&Stage::count, "traffic rate", "<rate>"),
        choice(&Stage::mix, "traffic mix", kMixes)},
       kEventsOnly, false, [](X x, S s) {
         x.rt->start_traffic(s.count, s.mix);
         x.note("traffic " + std::to_string(s.count) + "/round (" +
                word_of(kMixes, s.mix) + ")");
       }},
      {"drain", nullptr, Kind::kDrain, {}, "no arguments", {}, kEventsOnly,
       false, apply_drain},
  };
  return forms;
}

/// The row a stage belongs to.  Every Kind has a row; a hand-built stage
/// whose tag field matches none of its kind's rows gets the first.
const VerbForm& form_of(const Stage& s) {
  const VerbForm* first = nullptr;
  for (const auto& f : verb_forms()) {
    if (f.kind != s.kind) continue;
    if (!f.tag.is || f.tag.is(s)) return f;
    if (first == nullptr) first = &f;
  }
  return *first;
}

/// The form's syntax after the verb, as diagnostics show it.
std::string syntax(const VerbForm& f) {
  std::string out = f.selector ? f.selector : "";
  for (const auto& a : f.args) out += (out.empty() ? "" : " ") + a.text;
  return out;
}

// ---- header directives ------------------------------------------------------

using P = ScenarioProgram;
using Arg = const std::string&;

/// A header directive: one argument, parsed into and printed from the
/// program.  Sync-only knobs say when they are at their default, and what
/// follows "engine <mode>" in the diagnostic when they are not.
struct Directive {
  const char* key;
  const char* usage;
  void (*parse)(const Line&, P&, Arg);
  std::string (*print)(const P&);
  bool (*at_default)(const P&) = nullptr;
  const char* fleet_refusal = nullptr;
  bool omit_default = false;  ///< serialize skips the line at default
};

const Directive kDirectives[] = {
    {"name", "one word", [](const Line&, P& p, Arg v) { p.name = v; },
     [](const P& p) { return p.name; }},
    {"shape", "one spec (grid:WxH, ring:N, cube:XxYxZ)",
     [](const Line& l, P& p, Arg v) {
       std::string err;
       if (!shape::make_shape(v, &err)) l.fail(err);
       p.shape_spec = v;
     },
     [](const P& p) { return p.shape_spec; }},
    {"engine", "sync|events|live",
     [](const Line& l, P& p, Arg v) {
       const auto mode = engine_mode_from_string(v);
       if (!mode)
         l.fail("unknown engine '" + v + "' (want sync, events, or live)");
       p.options.engine = *mode;
     },
     [](const P& p) { return std::string(to_string(p.options.engine)); }},
    {"seed", "one integer",
     [](const Line& l, P& p, Arg v) { p.options.seed = l.count(v, "seed", 0); },
     [](const P& p) { return std::to_string(p.options.seed); }},
    {"reps", "one integer",
     [](const Line& l, P& p, Arg v) { p.reps = l.count(v, "reps"); },
     [](const P& p) { return std::to_string(p.reps); }},
    {"k", "one integer",
     [](const Line& l, P& p, Arg v) {
       p.options.replication = l.count(v, "k");
     },
     [](const P& p) { return std::to_string(p.options.replication); }},
    {"split", "basic|pd|md|advanced",
     [](const Line& l, P& p, Arg v) {
       try {
         p.options.split = core::split_kind_from_string(v);
       } catch (const std::invalid_argument&) {
         l.fail("unknown split '" + v + "' (want basic, pd, md, or advanced)");
       }
     },
     [](const P& p) { return core::to_string(p.options.split); }},
    {"substrate", "tman|vicinity",
     [](const Line& l, P& p, Arg v) {
       p.options.substrate = l.pick(v, "substrate", kSubstrates);
     },
     [](const P& p) { return word_of(kSubstrates, p.options.substrate); },
     [](const P& p) { return p.options.substrate == Substrate::kTman; },
     "runs on T-Man; 'substrate vicinity' needs engine sync"},
    {"polystyrene", "on|off",
     [](const Line& l, P& p, Arg v) {
       if (v != "on" && v != "off")
         l.fail("polystyrene wants on or off, got '" + v + "'");
       p.options.polystyrene = v == "on";
     },
     [](const P& p) {
       return std::string(p.options.polystyrene ? "on" : "off");
     },
     [](const P& p) { return p.options.polystyrene; },
     "runs the full Polystyrene stack; 'polystyrene off' needs engine sync"},
    {"fd-delay", "one integer",
     [](const Line& l, P& p, Arg v) {
       p.options.fd_delay_rounds = l.count(v, "fd-delay", 0);
     },
     [](const P& p) { return std::to_string(p.options.fd_delay_rounds); },
     [](const P& p) { return p.options.fd_delay_rounds == 0; },
     "has its own failure detection; fd-delay needs engine sync", true},
    {"fd-fp", "one rate",
     [](const Line& l, P& p, Arg v) {
       p.options.fd_false_positive_rate = l.real(v, "fd-fp rate", kRate);
     },
     [](const P& p) { return fmt_g(p.options.fd_false_positive_rate); },
     [](const P& p) { return p.options.fd_false_positive_rate == 0.0; },
     "has its own failure detection; fd-fp needs engine sync", true},
};

// ---- parsing ----------------------------------------------------------------

/// Parses `tok` when it is a header directive; false when it is not.
bool parse_directive(const Line& l, const Tokens& tok, P& p) {
  const auto* d = std::find_if(
      std::begin(kDirectives), std::end(kDirectives),
      [&](const Directive& d) { return tok[0] == d.key; });
  if (d == std::end(kDirectives)) return false;
  l.arity(tok, 2, d->usage);
  if (const int first = p.line_of(tok[0]); first != 0)
    l.fail("duplicate '" + tok[0] + "' (first set on line " +
           std::to_string(first) + ")");
  p.directive_lines.emplace_back(tok[0], l.no);
  d->parse(l, p, tok[1]);
  return true;
}

/// `expect` is an assertion, not a stage — position-independent, keyed by
/// completed-round count (or `end`), collected outside the timeline.
Expect parse_expect(const Line& l, const Tokens& tok) {
  l.arity(tok, 6, "<metric> <op> <value> @ <round|end>");
  Expect e;
  e.line = l.no;
  e.metric = tok[1];
  if (find_metric(e.metric) == nullptr) {
    std::string names;
    for (const auto& m : kMetrics)
      names += (names.empty() ? "" : ", ") + std::string(m.name);
    l.fail("unknown expect metric '" + tok[1] + "' (want one of " + names +
           ")");
  }
  e.op = l.pick(tok[2], "expect comparison", kOps);
  e.value = l.real(tok[3], "expect value");
  if (tok[4] != "@")
    l.fail("'expect' wants: expect <metric> <op> <value> @ <round|end>");
  if (tok[5] == "end")
    e.at_end = true;
  else
    e.round = l.count(tok[5], "expect round");
  return e;
}

/// The verb form `tok` names; unknown verbs and selectors are diagnosed.
const VerbForm& find_form(const Line& l, const Tokens& tok) {
  const VerbForm* plain = nullptr;
  const char* selects = nullptr;
  std::vector<std::string> verbs, selectors, forms;
  for (const auto& f : verb_forms()) {
    if (verbs.empty() || verbs.back() != f.verb) verbs.emplace_back(f.verb);
    if (tok[0] != f.verb) continue;
    if (f.selector == nullptr) {
      plain = &f;
    } else if (tok.size() > 1 && tok[1] == f.selector) {
      return f;
    } else {
      selectors.emplace_back(f.selector);
      forms.push_back(syntax(f));
      selects = f.selects;
    }
  }
  if (plain != nullptr) return *plain;
  if (selects == nullptr) {
    verbs.emplace_back("expect");
    l.fail("unknown stage '" + tok[0] + "' (want " + either(verbs) + ")");
  }
  if (tok.size() < 2) l.fail("'" + tok[0] + "' wants " + either(forms));
  l.fail("unknown " + tok[0] + " " + selects + " '" + tok[1] + "' (want " +
         either(selectors) + ")");
}

Stage parse_stage(const Line& l, const Tokens& tok, const P& p) {
  const VerbForm& f = find_form(l, tok);
  const std::size_t first = f.selector ? 2 : 1;
  std::size_t n = first;
  bool rest = false;
  for (const auto& a : f.args) {
    n += a.width;
    rest |= a.width == 0;
  }
  const std::string wants = "'" + l.verb + "' wants: " + l.verb + " " +
                            syntax(f);
  if (!rest && tok.size() != n) {
    if (f.usage == nullptr) l.fail(wants);
    l.arity(tok, n, f.usage);
  }
  // Keywords first, so a misspelt one reports the syntax, not a value.
  for (std::size_t i = first; const auto& a : f.args) {
    if (a.keyword && tok[i] != a.text) l.fail(wants);
    i += a.width;
  }
  Stage s;
  s.kind = f.kind;
  s.line = l.no;
  if (f.tag.set) f.tag.set(s);
  for (std::size_t i = first; const auto& a : f.args) {
    if (!a.keyword)
      a.parse(l, s, Args(tok).subspan(i, a.width ? a.width : tok.size() - i));
    i += a.width;
  }
  if (f.check) f.check(s, p);
  return s;
}

}  // namespace

ProgramError::ProgramError(const std::string& file, int line,
                           const std::string& msg)
    : std::runtime_error(
          (line > 0 ? file + ":" + std::to_string(line) : file) + ": " + msg),
      file_(file),
      line_(line) {}

int ScenarioProgram::line_of(const std::string& directive) const {
  for (const auto& [k, l] : directive_lines)
    if (k == directive) return l;
  return 0;
}

std::size_t ScenarioProgram::total_rounds() const noexcept {
  std::size_t n = 0;
  for (const auto& s : timeline)
    if (form_of(s).runs_rounds) n += s.rounds;
  return n;
}

void ScenarioProgram::cap_rounds(std::size_t cap) {
  for (auto& s : timeline)
    if (form_of(s).runs_rounds) s.rounds = std::min(s.rounds, cap);
}

ScenarioProgram parse_program(const std::string& text,
                              const std::string& filename) {
  ScenarioProgram p;
  p.file = filename;
  p.name = filename.substr(filename.find_last_of('/') + 1);
  if (p.name.size() > 5 && p.name.ends_with(".poly"))
    p.name.resize(p.name.size() - 5);

  std::istringstream is(text);
  std::string raw;
  int no = 0;
  bool in_timeline = false;
  std::size_t rounds = 0;
  while (std::getline(is, raw)) {
    ++no;
    const Tokens tok = tokenize(raw);
    if (tok.empty()) continue;
    const Line l{filename, no, tok[0]};
    // The first non-header line starts the timeline; header words are
    // unknown stages from there on.
    if (!in_timeline && parse_directive(l, tok, p)) continue;
    in_timeline = true;
    if (tok[0] == "expect") {
      p.expects.push_back(parse_expect(l, tok));
      continue;
    }
    Stage s = parse_stage(l, tok, p);
    if (form_of(s).runs_rounds) {
      if (s.rounds > kMaxCount - rounds)
        l.fail("the timeline's round total overflows (more than " +
               std::to_string(kMaxCount) + " rounds)");
      rounds += s.rounds;
    }
    p.timeline.push_back(std::move(s));
  }

  if (p.shape_spec.empty())
    throw ProgramError(
        filename, 0,
        "missing required 'shape' directive (e.g. shape grid:80x40)");
  // An expect keyed past the last executed round would never fire.
  for (const auto& e : p.expects)
    if (!e.at_end && e.round > rounds)
      throw ProgramError(filename, e.line,
                         "expect @ round " + std::to_string(e.round) +
                             " but the timeline only runs " +
                             std::to_string(rounds) + " rounds");
  return p;
}

ScenarioProgram load_program(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ProgramError(path, 0, "cannot read scenario file");
  std::ostringstream os;
  os << f.rdbuf();
  return parse_program(os.str(), path);
}

std::string serialize(const ScenarioProgram& p) {
  std::ostringstream os;
  for (const auto& d : kDirectives)
    if (!d.omit_default || !d.at_default(p))
      os << d.key << ' ' << d.print(p) << '\n';
  os << '\n';
  for (const auto& s : p.timeline) {
    const VerbForm& f = form_of(s);
    os << f.verb;
    if (f.selector) os << ' ' << f.selector;
    for (const auto& a : f.args)
      if (const std::string t = a.print(s); !t.empty()) os << ' ' << t;
    os << '\n';
  }
  if (!p.expects.empty()) os << '\n';
  for (const auto& e : p.expects)
    os << "expect " << e.metric << ' ' << word_of(kOps, e.op) << ' '
       << fmt_g(e.value) << " @ "
       << (e.at_end ? "end" : std::to_string(e.round)) << '\n';
  return os.str();
}

void validate_for_mode(const ScenarioProgram& p, EngineMode mode) {
  const std::string m = to_string(mode);
  for (const auto& d : kDirectives)
    if (mode != EngineMode::kSync && d.at_default && !d.at_default(p))
      throw ProgramError(p.file, p.line_of(d.key),
                         "engine " + m + " " + d.fleet_refusal);
  for (const auto& s : p.timeline) {
    const VerbForm& f = form_of(s);
    if ((f.engines.mask & bit(mode)) == 0)
      throw ProgramError(
          p.file, s.line,
          fill(fill(f.engines.refusal, "{verb}", f.verb), "{mode}", m));
  }
  // Expects replay against a fixed trajectory, and each metric must be
  // observable under the mode that runs.
  for (const auto& e : p.expects) {
    if (mode == EngineMode::kLive)
      throw ProgramError(p.file, e.line,
                         "expect needs a deterministic trajectory; engine "
                         "live is not reproducible");
    const Metric* metric = find_metric(e.metric);
    if (metric != nullptr && (metric->engines & bit(mode)) == 0)
      throw ProgramError(p.file, e.line,
                         "metric '" + e.metric +
                             (mode == EngineMode::kSync
                                  ? "' is events-only (sync mode has no "
                                    "frame traffic)"
                                  : "' is sync-only"));
  }
}

ProgramRun run_program_once(const shape::Shape& shape,
                            const ScenarioProgram& p,
                            const ScenarioOptions& options,
                            const RoundHook& hook) {
  Exec x{p, shape, hook, make_cluster(shape, options)};
  x.cadence = std::max<std::size_t>(1, p.measure_every);
  for (const auto& s : p.timeline) form_of(s).apply(x, s);
  // The last executed round is always measured, so "final" values exist
  // even at a sparse cadence.
  if (x.rt->rounds_run() > 0 && x.since_measure != 0) x.measure_now();
  x.check_expects(true);
  x.run.reliability = x.rt->reliability();
  x.run.rounds_total = x.rt->rounds_run();
  return std::move(x.run);
}

}  // namespace poly::scenario
