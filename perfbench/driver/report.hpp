// Shared helpers of the benchmark driver: a flat JSON report line, wall
// clocks, peak RSS, and the trajectory digest that pairs runs.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "scenario/program.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Peak resident set of this process, in bytes.
inline double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

/// A fixed memory-latency probe: random read-modify-writes over a
/// buffer far larger than a core's private caches, so its time follows
/// the shared cache and memory contention that other tenants of the host
/// put on the simulator.  The buffer is written in full on construction,
/// so it is resident from then on and adds exactly `bytes()` to RSS.
class MemoryProbe {
 public:
  static constexpr std::size_t kWords = std::size_t{1} << 21;  // 16 MiB
  static constexpr int kSteps = 300000;

  MemoryProbe() : buf_(kWords, 1) {}

  /// Runs the fixed probe once; returns its wall time in seconds.
  double run() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = x_;
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      ++buf_[x & (kWords - 1)];
    }
    x_ = x;
    return seconds_between(t0, Clock::now());
  }
  static constexpr double bytes() { return kWords * sizeof(std::uint64_t); }

 private:
  std::vector<std::uint64_t> buf_;
  std::uint64_t x_ = 88172645463325252ull;
};

/// One flat JSON object, printed as a single stdout line.  Values keep
/// all their digits (%.17g); NaN and infinities are written as null.
class Report {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    fields_.emplace_back(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void text(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + v + "\"");
  }
  void print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// FNV-1a over the fleet-side fields of measured rounds: the fingerprint
/// two runs must share to count as the same trajectory.  Traffic fields
/// are left out on purpose — the traffic plane must not move the fleet.
class Digest {
 public:
  void add(const poly::scenario::RoundMetrics& m) {
    mix(m.round);
    mix(m.alive);
    mix_double(m.homogeneity);
    mix_double(m.reliability);
    mix(m.frames);
    mix(m.frames_rejected);
    mix(m.frames_blackholed);
    mix(m.frames_reordered);
    mix(m.recoveries);
    mix_double(m.msg_paper);
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    if (!std::isnan(d)) std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Rounds of the timeline's warm-up: the benchmark workloads open with
/// one `run W` stage (after any `measure every`), and the measured window
/// starts after it.
std::size_t warmup_rounds(const poly::scenario::ScenarioProgram& p);

/// Reads and compiles a `.poly` file; throws ProgramError.
poly::scenario::ScenarioProgram compile_file(const std::string& path);

// The three driver modes (main.cpp dispatches on argv[1]).
int run_scenario(const std::string& path);
int run_traced_events(const std::string& path, const std::string& spans_out,
                      std::size_t routing_probes);
int run_traced_sync(const std::string& path, const std::string& spans_out);

}  // namespace perfbench
