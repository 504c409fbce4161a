// Traced mode, event engine: the workload's fleet assembled from the
// engine's public pieces — EventEngine, EngineHub::make_endpoint, a
// FaultPlane and AsyncNode in manual drive — in exactly EventCluster's
// construction order, so it replays the untraced fleet's trajectory bit
// for bit (checked: run.py compares the trajectory digests).  A
// benchmark-side Transport decorator over every endpoint times the node's
// sends into the hub and the node's message handler; the tick event
// times drive_tick(); each round is one timed EventEngine::run_until.
// Frames are sampled on the way and replayed afterwards through the
// codec (encode_*/decode_*_into) and FaultPlane::fate.
//
// Traffic is not part of this fleet (the traffic plane needs an
// EventCluster); run.py hands this mode the workload without its traffic
// and prices traffic by pairing untraced runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "engine/link_model.hpp"
#include "fault/fault_plane.hpp"
#include "net/fleet_metrics.hpp"
#include "net/messages.hpp"
#include "net/runtime.hpp"
#include "report.hpp"
#include "shape/shape.hpp"
#include "spans.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace perfbench {

using namespace poly;
using engine::SimTime;
using scenario::Stage;

namespace {

constexpr int kFirstType = static_cast<int>(net::MsgType::kRpsShuffleReq);
constexpr int kLastType = static_cast<int>(net::MsgType::kMigrateResp);
const char* const kTypeNames[kTypeSlots] = {
    "none",      "rps_req",     "rps_resp",    "tman_req",
    "tman_resp", "backup",      "migrate_req", "migrate_resp"};

/// Frame type slot of a payload (0 when it carries no valid type byte).
int type_of(const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return 0;
  const int t = payload[0];
  return t >= kFirstType && t <= kLastType ? t : 0;
}

/// What the decorators see, shared by the whole fleet.
struct FrameLog {
  std::array<std::uint64_t, kTypeSlots> frames{};
  std::array<std::uint64_t, kTypeSlots> bytes{};
  /// Every kSampleStride-th frame of each type is copied for the codec
  /// replay, up to kSamplesPerType.
  static constexpr std::uint64_t kSampleStride = 31;
  static constexpr std::size_t kSamplesPerType = 256;
  std::array<std::vector<std::vector<std::uint8_t>>, kTypeSlots> samples;
  /// Fault-plane consultations: frames sent while the plane had rules,
  /// and every kFateStride-th one's arguments for the fate replay.
  struct FateCall {
    std::uint32_t from, to;
    std::size_t bytes;
    SimTime now;
  };
  static constexpr std::uint64_t kFateStride = 7;
  static constexpr std::size_t kFateSamples = 1 << 16;
  std::uint64_t consulted = 0;
  std::vector<FateCall> fate_calls;
  bool recording = false;
};

/// Times the calls a node makes into its hub endpoint, and the calls the
/// hub makes into the node's handler.  Forwards everything unchanged.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(std::unique_ptr<engine::EngineTransport> inner,
                  Tracer& tracer, FrameLog& log,
                  const engine::EventEngine& engine,
                  const fault::FaultPlane& plane)
      : inner_(std::move(inner)),
        tracer_(tracer),
        log_(log),
        engine_(engine),
        plane_(plane) {}

  net::Address address() const override { return inner_->address(); }

  void set_handler(net::MessageHandler handler) override {
    handler_ = std::move(handler);
    inner_->set_handler([this](net::Message& msg) {
      const int type = type_of(msg.payload);
      tracer_.begin(Layer::kHandle, type);
      handler_(msg);
      tracer_.end();
    });
  }

  bool send(const net::Address& to,
            std::vector<std::uint8_t> payload) override {
    if (log_.recording)
      note(plane_.active() ? inner_->resolve(to) : net::kInvalidEndpointId,
           payload);
    const int type = type_of(payload);
    tracer_.begin(Layer::kSend, type);
    const bool ok = inner_->send(to, std::move(payload));
    tracer_.end();
    return ok;
  }

  bool send(net::EndpointId to, std::vector<std::uint8_t> payload) override {
    if (log_.recording) note(to, payload);
    const int type = type_of(payload);
    tracer_.begin(Layer::kSend, type);
    const bool ok = inner_->send(to, std::move(payload));
    tracer_.end();
    return ok;
  }

  net::EndpointId resolve(const net::Address& to) const override {
    return inner_->resolve(to);
  }
  std::vector<std::uint8_t> acquire_buffer() override {
    return inner_->acquire_buffer();
  }
  void shutdown() override { inner_->shutdown(); }

 private:
  /// Counts the frame and samples it; runs outside the send span.
  void note(net::EndpointId to, const std::vector<std::uint8_t>& payload) {
    const int type = type_of(payload);
    const std::uint64_t n = log_.frames[type]++;
    log_.bytes[type] += payload.size();
    if (n % FrameLog::kSampleStride == 0 &&
        log_.samples[type].size() < FrameLog::kSamplesPerType)
      log_.samples[type].push_back(payload);
    if (plane_.active()) {
      if (log_.consulted++ % FrameLog::kFateStride == 0 &&
          log_.fate_calls.size() < FrameLog::kFateSamples)
        log_.fate_calls.push_back(
            {inner_->endpoint_id(), to, payload.size(), engine_.now()});
    }
  }

  std::unique_ptr<engine::EngineTransport> inner_;
  net::MessageHandler handler_;
  Tracer& tracer_;
  FrameLog& log_;
  const engine::EventEngine& engine_;
  const fault::FaultPlane& plane_;
};

SimTime tick_period(const engine::EventClusterConfig& cfg) {
  const auto t = std::chrono::duration_cast<SimTime>(cfg.node.tick);
  return t > SimTime::zero() ? t : std::chrono::milliseconds(1);
}

/// EventCluster's fleet, rebuilt from public pieces with traced
/// endpoints.  Member order, RNG splits and event scheduling follow
/// engine/event_cluster.cpp step for step; the verbs are the ones the
/// benchmark workloads use.
class TracedFleet {
 public:
  TracedFleet(std::shared_ptr<const space::MetricSpace> space,
              const std::vector<space::DataPoint>& points,
              engine::EventClusterConfig config, std::uint64_t seed,
              Tracer& tracer, FrameLog& log)
      : space_(std::move(space)),
        cfg_(config),
        engine_(seed),
        hub_(std::make_unique<engine::EngineHub>(
            engine_,
            std::make_unique<engine::UniformLatency>(
                cfg_.latency_min, cfg_.latency_max, cfg_.drop_rate),
            cfg_.delivery_batch_window)),
        rng_(engine_.split_rng()),
        plane_(seed ^ 0x8ad5e4f1a3c927b1ull),
        tracer_(tracer),
        log_(log) {
    hub_->set_fault_plane(&plane_);
    scratch_.bind(arena_, cfg_.node);
    points_.reserve(points.size());
    for (const auto& dp : points) {
      points_.push_back(dp);
      add_node(dp);
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) bootstrap_node(i);
    const SimTime period = tick_period(cfg_);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].start();
      schedule_tick(i, SimTime{rng_.uniform_i64(0, period.count() - 1)});
    }
  }

  TracedFleet(const TracedFleet&) = delete;
  TracedFleet& operator=(const TracedFleet&) = delete;

  void run_round() {
    Scope s(tracer_, Layer::kRound);
    engine_.run_until(engine_.now() + tick_period(cfg_));
  }

  std::size_t size() const { return nodes_.size(); }
  std::size_t alive_count() const { return alive_pool_.size(); }
  const engine::EventEngine& engine() const { return engine_; }
  const engine::EngineHub& hub() const { return *hub_; }
  const fault::FaultPlane& plane() const { return plane_; }
  net::AsyncNode& node(std::size_t i) { return nodes_[i]; }
  bool crashed(std::size_t i) const { return crashed_[i]; }
  const std::vector<std::uint32_t>& alive_ids() const { return alive_pool_; }

  void crash_random(std::size_t count) {
    rng_.sample_indices_into(alive_pool_.size(),
                             std::min(count, alive_pool_.size()),
                             sample_scratch_);
    for (std::size_t& slot : sample_scratch_) slot = alive_pool_[slot];
    for (std::size_t i : sample_scratch_) crash(i);
  }

  void recover_all() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!crashed_[i]) continue;
      nodes_[i].recover(make_endpoint(i));
      crashed_[i] = false;
      pool_pos_[i] = static_cast<std::uint32_t>(alive_pool_.size());
      alive_pool_.push_back(static_cast<std::uint32_t>(i));
      ++plane_.counters().recoveries;
      nodes_[i].start();
      schedule_tick(
          i, SimTime{rng_.uniform_i64(0, tick_period(cfg_).count() - 1)});
    }
  }

  void partition_region(const std::function<bool(const space::Point&)>& pred,
                        std::size_t heal_rounds) {
    plane_.add_partition(region_ids(pred), engine_.now(),
                         heal_at(heal_rounds));
  }

  void degrade_region(const std::function<bool(const space::Point&)>& pred,
                      fault::Direction dir, double extra_drop, SimTime jitter,
                      std::size_t heal_rounds) {
    plane_.add_degrade(region_ids(pred), dir, extra_drop, jitter,
                       engine_.now(), heal_at(heal_rounds));
  }

  /// EventsRuntime::measure's fleet work: homogeneity, proximity,
  /// reliability (each over a fresh alive-state snapshot, as EventCluster
  /// takes one per metric) and the counters.
  scenario::RoundMetrics measure(std::size_t round,
                                 const shape::Shape& shape) const {
    scenario::RoundMetrics m;
    m.round = round;
    m.alive = alive_pool_.size();
    m.homogeneity = net::fleet_homogeneity(*space_, points_, alive_states());
    m.reference_h = shape.reference_homogeneity(m.alive);
    m.proximity = net::fleet_proximity(*space_, alive_states());
    m.reliability = net::fleet_reliability(points_, alive_states());
    m.msg_paper = std::nan("");
    m.frames = hub_->frames_sent();
    m.frames_rejected = frames_rejected();
    m.frames_blackholed = plane_.counters().frames_blackholed;
    m.frames_reordered = plane_.counters().frames_reordered;
    m.recoveries = plane_.counters().recoveries;
    return m;
  }

  std::vector<net::FleetNodeState> alive_states() const {
    std::vector<net::FleetNodeState> alive;
    alive.reserve(alive_pool_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      if (!crashed_[i])
        alive.push_back(
            net::FleetNodeState{nodes_[i].position(), nodes_[i].guests()});
    return alive;
  }

  std::uint64_t frames_rejected() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      total += nodes_[i].frames_rejected();
    return total;
  }

  engine::MemoryBreakdown memory_breakdown() const {
    engine::MemoryBreakdown m;
    m.arena_used = arena_.bytes_used();
    m.arena_reserved = arena_.bytes_reserved();
    m.node_objects = nodes_.reserved_bytes();
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      m.state_heap += nodes_[i].state_heap_bytes();
    m.hub_bytes = hub_->approx_bytes();
    return m;
  }

 private:
  std::unique_ptr<net::Transport> make_endpoint(std::size_t idx) {
    auto ep = hub_->make_endpoint("node-" + std::to_string(idx));
    plane_.map_endpoint(ep->endpoint_id(), static_cast<std::uint32_t>(idx));
    return std::make_unique<TracedTransport>(std::move(ep), tracer_, log_,
                                             engine_, plane_);
  }

  void add_node(std::optional<space::DataPoint> initial) {
    const std::size_t idx = nodes_.size();
    auto ep = make_endpoint(idx);
    net::AsyncNode& node = nodes_.emplace_back(
        static_cast<net::LiveNodeId>(idx), space_, std::move(ep),
        std::move(initial), cfg_.node, engine_.split_rng().next_u64(),
        &arena_, &scratch_);
    node.set_manual_drive([this] { return engine_.clock(); });
    crashed_.push_back(false);
    pool_pos_.push_back(static_cast<std::uint32_t>(alive_pool_.size()));
    alive_pool_.push_back(static_cast<std::uint32_t>(idx));
  }

  void bootstrap_node(std::size_t idx) {
    const std::uint32_t self = pool_pos_[idx];
    const auto back = static_cast<std::uint32_t>(alive_pool_.size() - 1);
    if (self != back) {
      std::swap(alive_pool_[self], alive_pool_[back]);
      pool_pos_[alive_pool_[self]] = self;
      pool_pos_[alive_pool_[back]] = back;
    }
    const std::size_t others = alive_pool_.size() - 1;
    rng_.sample_indices_into(others, std::min(cfg_.node.rps_view, others),
                             sample_scratch_);
    seed_scratch_.clear();
    for (std::size_t slot : sample_scratch_) {
      const std::uint32_t j = alive_pool_[slot];
      seed_scratch_.push_back(net::Seed{static_cast<net::LiveNodeId>(j),
                                        nodes_[j].address()});
    }
    nodes_[idx].bootstrap(seed_scratch_);
  }

  void schedule_tick(std::size_t idx, SimTime delay) {
    engine_.schedule_after(delay, [this, idx] {
      if (crashed_[idx]) return;
      tracer_.begin(Layer::kTick);
      nodes_[idx].drive_tick();
      tracer_.end();
      schedule_tick(idx, tick_period(cfg_));
    });
  }

  void crash(std::size_t idx) {
    nodes_[idx].crash();
    crashed_[idx] = true;
    const std::uint32_t pos = pool_pos_[idx];
    const std::uint32_t last = alive_pool_.back();
    alive_pool_[pos] = last;
    pool_pos_[last] = pos;
    alive_pool_.pop_back();
    pool_pos_[idx] = kNotInPool;
  }

  std::vector<std::uint32_t> region_ids(
      const std::function<bool(const space::Point&)>& pred) const {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < points_.size(); ++i)
      if (pred(points_[i].pos)) ids.push_back(static_cast<std::uint32_t>(i));
    return ids;
  }

  SimTime heal_at(std::size_t heal_rounds) const {
    if (heal_rounds == 0) return SimTime::max();
    return engine_.now() +
           tick_period(cfg_) * static_cast<std::int64_t>(heal_rounds);
  }

  std::shared_ptr<const space::MetricSpace> space_;
  engine::EventClusterConfig cfg_;
  engine::EventEngine engine_;
  std::unique_ptr<engine::EngineHub> hub_;
  util::Rng rng_;
  fault::FaultPlane plane_;
  Tracer& tracer_;
  FrameLog& log_;
  std::vector<space::DataPoint> points_;
  util::Arena arena_{std::size_t{4} << 20};
  net::AsyncScratch scratch_;
  util::ObjectSlab<net::AsyncNode> nodes_;
  std::vector<bool> crashed_;
  std::vector<std::uint32_t> alive_pool_;
  std::vector<std::uint32_t> pool_pos_;
  static constexpr std::uint32_t kNotInPool = 0xffffffffu;
  std::vector<std::size_t> sample_scratch_;
  std::vector<net::Seed> seed_scratch_;
};

bool in_zone(const Stage& s, const space::Point& pt) {
  return pt.x() >= s.x0 && pt.x() < s.x1 && pt.y() >= s.y0 && pt.y() < s.y1;
}

fault::Direction fault_dir(scenario::LinkDirection d) {
  switch (d) {
    case scenario::LinkDirection::kInto: return fault::Direction::kInto;
    case scenario::LinkDirection::kOutOf: return fault::Direction::kOutOf;
    case scenario::LinkDirection::kBoth: break;
  }
  return fault::Direction::kBoth;
}

/// Decodes one sampled frame into `scratch`, re-encodes it into `w`, and
/// returns the decode and encode times.  Throws when the re-encoded bytes
/// differ from the original frame (a codec round-trip failure).
struct CodecScratch {
  std::vector<net::WirePeer> peers;
  std::vector<net::WireDescriptor> descriptors;
  std::vector<net::WirePoint> points;
  std::vector<std::uint8_t> out;
};

std::pair<std::int64_t, std::int64_t> replay_codec(
    const std::vector<std::uint8_t>& frame, CodecScratch& cs) {
  const Clock::time_point t0 = Clock::now();
  util::ByteReader r(frame);
  const net::Header h = net::decode_header(r);
  space::Point pos;
  bool accepted = false;
  switch (h.type) {
    case net::MsgType::kRpsShuffleReq:
    case net::MsgType::kRpsShuffleResp:
      net::decode_peers_into(r, cs.peers);
      break;
    case net::MsgType::kTmanReq:
    case net::MsgType::kTmanResp:
      net::decode_descriptors_into(r, cs.descriptors);
      break;
    case net::MsgType::kBackupPush:
      net::decode_points_into(r, cs.points);
      break;
    case net::MsgType::kMigrateReq:
      pos = net::decode_point(r);
      net::decode_points_into(r, cs.points);
      break;
    case net::MsgType::kMigrateResp:
      accepted = r.u8() != 0;
      net::decode_points_into(r, cs.points);
      break;
  }
  const Clock::time_point t1 = Clock::now();
  util::ByteWriter w(std::move(cs.out));
  switch (h.type) {
    case net::MsgType::kRpsShuffleReq:
    case net::MsgType::kRpsShuffleResp:
      net::encode_rps(w, h, cs.peers);
      break;
    case net::MsgType::kTmanReq:
    case net::MsgType::kTmanResp:
      net::encode_tman(w, h, cs.descriptors);
      break;
    case net::MsgType::kBackupPush:
      net::encode_backup_push(w, h, cs.points);
      break;
    case net::MsgType::kMigrateReq:
      net::encode_migrate_req(w, h, pos, cs.points);
      break;
    case net::MsgType::kMigrateResp:
      net::encode_migrate_resp(w, h, accepted, cs.points);
      break;
  }
  const Clock::time_point t2 = Clock::now();
  cs.out = w.take();
  if (cs.out != frame)
    throw std::runtime_error("codec round trip changed a sampled frame");
  return {ns_between(t0, t1), ns_between(t1, t2)};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int run_traced_events(const std::string& path, const std::string& spans_out,
                      std::size_t routing_probes) {
  Tracer tracer(std::size_t{1} << 16);
  FrameLog log;

  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioProgram p = compile_file(path);
  std::string err;
  const auto shape = shape::make_shape(p.shape_spec, &err);
  if (!shape) throw scenario::ProgramError(p.file, p.line_of("shape"), err);
  const std::size_t warmup = warmup_rounds(p);
  const Clock::time_point t_compiled = Clock::now();

  engine::EventClusterConfig cfg;
  cfg.node.replication = p.options.replication;
  cfg.node.split_kind = p.options.split;
  const std::vector<space::DataPoint> points = shape->generate();
  TracedFleet fleet(shape->space_ptr(), points, cfg, p.options.seed, tracer,
                    log);
  const Clock::time_point t_built = Clock::now();

  // run_program_once's loop for the verbs the workloads use.
  std::size_t cadence = std::max<std::size_t>(1, p.measure_every);
  std::size_t since_measure = 0;
  std::size_t rounds = 0;
  std::vector<scenario::RoundMetrics> measured;
  double alive_rounds = 0.0;
  Clock::time_point window_start{};
  std::uint64_t events0 = 0, sent0 = 0, dropped0 = 0, blackholed0 = 0,
                reordered0 = 0;
  // Routing probes draw from a private stream and read views only, so
  // they leave the trajectory untouched.
  util::Rng probe_rng(p.options.seed ^ 0x5bd1e995u);

  auto step = [&] {
    if (rounds == warmup) {
      window_start = Clock::now();
      events0 = fleet.engine().events_executed();
      sent0 = fleet.hub().frames_sent();
      dropped0 = fleet.hub().frames_dropped();
      blackholed0 = fleet.plane().counters().frames_blackholed;
      reordered0 = fleet.plane().counters().frames_reordered;
      tracer.set_active(true);
      log.recording = true;
    }
    fleet.run_round();
    ++rounds;
    if (++since_measure >= cadence) {
      Scope s(tracer, Layer::kMeasure);
      since_measure = 0;
      measured.push_back(fleet.measure(rounds - 1, *shape));
    }
    if (rounds > warmup) {
      alive_rounds += static_cast<double>(fleet.alive_count());
      if (routing_probes > 0 && fleet.alive_count() > 0) {
        // Greedy-routing lookups over the live views, as the traffic
        // plane issues them (alive-filtered), toward random keys.
        Scope s(tracer, Layer::kProbe);
        const auto& ids = fleet.alive_ids();
        for (std::size_t i = 0; i < routing_probes; ++i) {
          const std::uint32_t from = ids[probe_rng.index(ids.size())];
          const space::Point& target =
              points[probe_rng.index(points.size())].pos;
          fleet.node(from).closest_view_member(
              target,
              [](void* ctx, net::LiveNodeId id) {
                return !static_cast<TracedFleet*>(ctx)->crashed(id);
              },
              &fleet);
        }
      }
    }
  };

  for (const Stage& s : p.timeline) {
    switch (s.kind) {
      case Stage::Kind::kRun:
        for (std::size_t r = 0; r < s.rounds; ++r) step();
        break;
      case Stage::Kind::kMeasureEvery:
        cadence = s.rounds;
        since_measure = 0;
        break;
      case Stage::Kind::kCrash: {
        if (s.selector != Stage::CrashSelector::kFrac)
          throw scenario::ProgramError(p.file, s.line,
                                       "traced event run: only `crash frac`");
        Scope sc(tracer, Layer::kVerb);
        fleet.crash_random(static_cast<std::size_t>(
            s.frac * static_cast<double>(fleet.alive_count())));
        break;
      }
      case Stage::Kind::kRecover: {
        if (s.recover != Stage::RecoverSelector::kAll)
          throw scenario::ProgramError(p.file, s.line,
                                       "traced event run: only `recover all`");
        Scope sc(tracer, Layer::kVerb);
        fleet.recover_all();
        break;
      }
      case Stage::Kind::kPartition: {
        Scope sc(tracer, Layer::kVerb);
        fleet.partition_region(
            [&](const space::Point& pt) { return in_zone(s, pt); }, s.rounds);
        break;
      }
      case Stage::Kind::kDegrade: {
        Scope sc(tracer, Layer::kVerb);
        fleet.degrade_region(
            [&](const space::Point& pt) { return in_zone(s, pt); },
            fault_dir(s.dir), s.drop,
            std::chrono::duration_cast<SimTime>(
                std::chrono::duration<double, std::milli>(s.jitter_ms)),
            s.rounds);
        break;
      }
      default:
        throw scenario::ProgramError(
            p.file, s.line,
            "traced event run: stage not supported (traffic is priced by "
            "the untraced pair, not traced)");
    }
  }
  if (rounds > 0 && since_measure != 0) {
    Scope s(tracer, Layer::kMeasure);
    measured.push_back(fleet.measure(rounds - 1, *shape));
  }
  tracer.set_active(false);
  log.recording = false;
  const Clock::time_point window_end = Clock::now();
  if (rounds <= warmup) {
    std::fprintf(stderr, "perfbench: no measured rounds\n");
    return 1;
  }

  Digest digest;
  for (const auto& m : measured) digest.add(m);

  const double window_s = seconds_between(window_start, window_end);
  const double events =
      static_cast<double>(fleet.engine().events_executed() - events0);
  const double sent = static_cast<double>(fleet.hub().frames_sent() - sent0);
  const double dropped =
      static_cast<double>(fleet.hub().frames_dropped() - dropped0);

  // Replays, after the window: codec round trips over the sampled frames,
  // fate() over the sampled consultations on a copy of the plane.
  CodecScratch cs;
  std::array<double, kTypeSlots> decode_ns{}, encode_ns{};
  for (int t = kFirstType; t <= kLastType; ++t) {
    std::int64_t dec = 0, enc = 0;
    for (const auto& frame : log.samples[t]) {
      const auto [d, e] = replay_codec(frame, cs);
      dec += d;
      enc += e;
    }
    const double n = static_cast<double>(log.samples[t].size());
    decode_ns[t] = ratio(static_cast<double>(dec), n);
    encode_ns[t] = ratio(static_cast<double>(enc), n);
  }
  double fate_ns_per_call = 0.0;
  if (!log.fate_calls.empty()) {
    // fate() advances the copy's rule streams, so no call is dead code.
    fault::FaultPlane replay = fleet.plane();
    const Clock::time_point a = Clock::now();
    for (const auto& c : log.fate_calls) replay.fate(c.from, c.to, c.bytes, c.now);
    fate_ns_per_call = ratio(static_cast<double>(ns_between(a, Clock::now())),
                             static_cast<double>(log.fate_calls.size()));
  }

  const auto mem = fleet.memory_breakdown();
  const double nodes = static_cast<double>(fleet.size());

  Report rep;
  rep.text("mode", "trace-events");
  rep.count("nodes", fleet.size());
  rep.count("rounds", rounds);
  rep.num("compile_s", seconds_between(t0, t_compiled));
  rep.num("construct_s", seconds_between(t_compiled, t_built));
  rep.num("warmup_s", seconds_between(t_built, window_start));
  rep.num("window_s", window_s);
  rep.num("alive_rounds", alive_rounds);
  rep.num("node_rounds_per_s", alive_rounds / window_s);
  rep.num("span_root_s", static_cast<double>(tracer.root_ns()) * 1e-9);
  rep.text("digest", digest.hex());

  const auto round = tracer.totals(Layer::kRound);
  rep.num("engine.events_per_node_round", events / alive_rounds);
  rep.num("engine.step_self_ns_per_event",
          ratio(static_cast<double>(round.self_ns), events));
  const auto send = tracer.totals(Layer::kSend);
  rep.num("hub.frames_per_node_round", sent / alive_rounds);
  rep.num("hub.drop_ratio", ratio(dropped, sent));
  rep.num("hub.send_ns_per_frame", ratio(static_cast<double>(send.total_ns),
                                         static_cast<double>(send.count)));
  rep.num("fault.fate_ns_per_frame",
          ratio(fate_ns_per_call * static_cast<double>(log.consulted), sent));
  rep.num("fault.blackholed_per_node_round",
          static_cast<double>(fleet.plane().counters().frames_blackholed -
                              blackholed0) /
              alive_rounds);
  rep.num("fault.reordered_per_node_round",
          static_cast<double>(fleet.plane().counters().frames_reordered -
                              reordered0) /
              alive_rounds);
  for (int t = kFirstType; t <= kLastType; ++t) {
    const std::string n = kTypeNames[t];
    const double frames = static_cast<double>(log.frames[t]);
    rep.num("codec.bytes_per_frame." + n,
            ratio(static_cast<double>(log.bytes[t]), frames));
    rep.num("codec.encode_ns_per_frame." + n, encode_ns[t]);
    rep.num("codec.decode_ns_per_frame." + n, decode_ns[t]);
    const auto& h = tracer.totals(Layer::kHandle, t);
    rep.num("node.handle_self_ns_per_frame." + n,
            ratio(static_cast<double>(h.self_ns),
                  static_cast<double>(h.count)));
    rep.num("node.frames_per_node_round." + n, frames / alive_rounds);
  }
  rep.count("codec.frames_rejected", fleet.frames_rejected());
  const auto tick = tracer.totals(Layer::kTick);
  rep.num("node.tick_self_ns", ratio(static_cast<double>(tick.self_ns),
                                     static_cast<double>(tick.count)));
  const auto probe = tracer.totals(Layer::kProbe);
  rep.num("routing.closest_view_member_ns",
          ratio(static_cast<double>(probe.total_ns),
                static_cast<double>(routing_probes * probe.count)));
  const auto meas = tracer.totals(Layer::kMeasure);
  rep.num("metrics.measure_s_per_call",
          ratio(static_cast<double>(meas.total_ns) * 1e-9,
                static_cast<double>(meas.count)));
  rep.num("mem.arena_used_per_node",
          static_cast<double>(mem.arena_used) / nodes);
  rep.num("mem.arena_reserved_per_node",
          static_cast<double>(mem.arena_reserved) / nodes);
  rep.num("mem.node_objects_per_node",
          static_cast<double>(mem.node_objects) / nodes);
  rep.num("mem.state_heap_per_node",
          static_cast<double>(mem.state_heap) / nodes);
  rep.num("mem.hub_bytes_per_node", static_cast<double>(mem.hub_bytes) / nodes);
  rep.num("mem.audit_total_per_node", static_cast<double>(mem.total()) / nodes);

  // Self time per layer, over the window (they sum to span_root_s).
  rep.num("self_s.engine", static_cast<double>(round.self_ns) * 1e-9);
  rep.num("self_s.node_tick", static_cast<double>(tick.self_ns) * 1e-9);
  rep.num("self_s.node_handle",
          static_cast<double>(tracer.totals(Layer::kHandle).self_ns) * 1e-9);
  rep.num("self_s.hub_send", static_cast<double>(send.self_ns) * 1e-9);
  rep.num("self_s.metrics", static_cast<double>(meas.self_ns) * 1e-9);
  rep.num("self_s.verbs",
          static_cast<double>(tracer.totals(Layer::kVerb).self_ns) * 1e-9);
  rep.num("self_s.routing",
          static_cast<double>(tracer.totals(Layer::kProbe).self_ns) * 1e-9);
  if (!tracer.write(spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  rep.print();
  return 0;
}

}  // namespace perfbench
