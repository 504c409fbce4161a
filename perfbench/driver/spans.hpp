// Span tracer of the traced runs.  Spans are recorded from the
// benchmark's own files, around calls into each layer's public functions
// (the program itself carries no tracing).  Every span adds its duration
// and self time (duration minus the time its child spans cover) to
// per-(layer, message type) totals; the first `capacity` spans are also
// kept verbatim — name, start, end and the span that caused it — and
// written out when the run ends, so span memory has a fixed bound.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kRound,    ///< engine: EventEngine::run_until over one round
  kTick,     ///< node: AsyncNode::drive_tick
  kHandle,   ///< node: the message handler, keyed by message type
  kSend,     ///< hub: Transport::send into EngineHub (fault plane inside)
  kMeasure,  ///< metrics: one fleet measurement
  kVerb,     ///< scenario: a timeline verb (crash, recover, partition, …)
  kProbe,    ///< routing: closest_view_member probes
  kSyncRps,      ///< sync: RpsProtocol::round
  kSyncTopo,     ///< sync: TopologyConstruction::round
  kSyncPoly,     ///< sync: PolystyreneLayer::round
  kSyncAdvance,  ///< sync: Network::advance_round
  kCount,
};

inline const char* layer_name(Layer l) {
  static const char* const kNames[] = {
      "engine.round", "node.tick",   "node.handle",   "hub.send",
      "metrics.measure", "scenario.verb", "routing.probe", "sync.rps",
      "sync.topo",    "sync.poly",   "sync.advance"};
  return kNames[static_cast<int>(l)];
}

/// Message-type slot: 0 = none, 1..7 = net::MsgType.
constexpr int kTypeSlots = 8;

class Tracer {
 public:
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  explicit Tracer(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Spans are only recorded while active (the measured window).
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  void begin(Layer layer, int type = 0) {
    if (!active_) return;
    Open& o = stack_[depth_++];
    o.layer = layer;
    o.type = static_cast<std::uint8_t>(type);
    o.child_ns = 0;
    o.parent = depth_ > 1 ? stack_[depth_ - 2].record : kNoSpan;
    o.record = kNoSpan;
    if (spans_.size() < capacity_) {
      o.record = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back({});
    } else {
      ++dropped_;
    }
    o.start = Clock::now();
  }

  void end() {
    if (!active_) return;
    const Clock::time_point now = Clock::now();
    Open& o = stack_[--depth_];
    const std::int64_t dur = ns_between(o.start, now);
    Totals& t = totals_[static_cast<int>(o.layer)][o.type];
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    ++t.count;
    if (depth_ > 0)
      stack_[depth_ - 1].child_ns += dur;
    else
      root_ns_ += dur;
    if (o.record != kNoSpan)
      spans_[o.record] = {o.layer, o.type, o.parent,
                          ns_between(epoch_, o.start), ns_between(epoch_, now)};
  }

  const Totals& totals(Layer l, int type) const {
    return totals_[static_cast<int>(l)][type];
  }
  Totals totals(Layer l) const {
    Totals sum;
    for (const Totals& t : totals_[static_cast<int>(l)]) {
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
      sum.count += t.count;
    }
    return sum;
  }
  /// Sum of root-span durations == sum of every span's self time.
  std::int64_t root_ns() const { return root_ns_; }

  /// Writes the kept spans as TSV: id, parent, layer, type, start, end
  /// (ns since the tracer was built).  Returns false on an I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# spans kept %zu, dropped %llu\n", spans_.size(),
                 static_cast<unsigned long long>(dropped_));
    std::fprintf(f, "id\tparent\tlayer\ttype\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%s\t%d\t%lld\t%lld\n", i,
                   s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                   layer_name(s.layer), s.type,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;
  struct Span {
    Layer layer = Layer::kRound;
    std::uint8_t type = 0;
    std::uint32_t parent = kNoSpan;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open {
    Layer layer = Layer::kRound;
    std::uint8_t type = 0;
    std::uint32_t parent = kNoSpan;
    std::uint32_t record = kNoSpan;
    std::int64_t child_ns = 0;
    Clock::time_point start{};
  };

  bool active_ = false;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::array<Open, 16> stack_{};
  int depth_ = 0;
  std::array<std::array<Totals, kTypeSlots>, static_cast<int>(Layer::kCount)>
      totals_{};
  std::int64_t root_ns_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, Layer l, int type = 0) : t_(t) { t_.begin(l, type); }
  ~Scope() { t_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

}  // namespace perfbench
