// Every checked-in scenario program (scenarios/*.poly, found through
// POLY_SCENARIO_DIR) must compile, serialize to a canonical fixpoint that
// re-parses to the same program, and validate under the engine its header
// declares — so a program no ctest runs still cannot rot.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/program.hpp"

namespace {

using poly::scenario::Expect;
using poly::scenario::ScenarioProgram;
using poly::scenario::Stage;
using poly::scenario::load_program;
using poly::scenario::parse_program;
using poly::scenario::serialize;
using poly::scenario::validate_for_mode;

std::vector<std::string> scenario_files() {
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(POLY_SCENARIO_DIR))
    if (entry.path().extension() == ".poly") out.push_back(entry.path());
  std::sort(out.begin(), out.end());
  return out;
}

/// Every field of two stages but the source line.
void expect_same_stage(const Stage& a, const Stage& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.grow_crashed, b.grow_crashed);
  EXPECT_EQ(a.selector, b.selector);
  EXPECT_EQ(a.recover, b.recover);
  EXPECT_EQ(a.frac, b.frac);
  EXPECT_EQ(a.x0, b.x0);
  EXPECT_EQ(a.y0, b.y0);
  EXPECT_EQ(a.x1, b.x1);
  EXPECT_EQ(a.y1, b.y1);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.dx, b.dx);
  EXPECT_EQ(a.dy, b.dy);
  EXPECT_EQ(a.dir, b.dir);
  EXPECT_EQ(a.mix, b.mix);
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.jitter_ms, b.jitter_ms);
  EXPECT_EQ(a.shape_spec, b.shape_spec);
  EXPECT_EQ(a.label, b.label);
}

void expect_same_expect(const Expect& a, const Expect& b) {
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.at_end, b.at_end);
}

TEST(ScenarioFiles, DirectoryHoldsPrograms) {
  EXPECT_GE(scenario_files().size(), 14u);
}

TEST(ScenarioFiles, EachRoundTripsAndValidates) {
  for (const std::string& path : scenario_files()) {
    SCOPED_TRACE(path);
    const ScenarioProgram p = load_program(path);
    const std::string canon = serialize(p);
    const ScenarioProgram q = parse_program(canon, path);
    EXPECT_EQ(serialize(q), canon);

    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.shape_spec, p.shape_spec);
    EXPECT_EQ(q.options.engine, p.options.engine);
    EXPECT_EQ(q.options.seed, p.options.seed);
    EXPECT_EQ(q.options.replication, p.options.replication);
    EXPECT_EQ(q.options.split, p.options.split);
    EXPECT_EQ(q.options.polystyrene, p.options.polystyrene);
    EXPECT_EQ(q.options.substrate, p.options.substrate);
    EXPECT_EQ(q.options.fd_delay_rounds, p.options.fd_delay_rounds);
    EXPECT_EQ(q.options.fd_false_positive_rate,
              p.options.fd_false_positive_rate);
    EXPECT_EQ(q.reps, p.reps);
    EXPECT_EQ(q.measure_every, p.measure_every);
    EXPECT_EQ(q.total_rounds(), p.total_rounds());
    ASSERT_EQ(q.timeline.size(), p.timeline.size());
    for (std::size_t i = 0; i < p.timeline.size(); ++i) {
      SCOPED_TRACE("stage " + std::to_string(i));
      expect_same_stage(q.timeline[i], p.timeline[i]);
    }
    ASSERT_EQ(q.expects.size(), p.expects.size());
    for (std::size_t i = 0; i < p.expects.size(); ++i)
      expect_same_expect(q.expects[i], p.expects[i]);

    EXPECT_NO_THROW(validate_for_mode(p, p.options.engine));
  }
}

}  // namespace
