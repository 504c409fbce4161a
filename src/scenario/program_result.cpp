// run_program's repetition pool and the ProgramResult it aggregates and
// prints.  The scenario language — parsing, validation and the execution
// of one repetition — lives in program.cpp.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "scenario/program.hpp"

namespace poly::scenario {

util::MeanCi ProgramResult::reshaping_ci() const {
  std::vector<double> ok;
  for (double v : reshaping_rounds)
    if (!std::isnan(v)) ok.push_back(v);
  return util::mean_ci(ok);
}

util::MeanCi ProgramResult::reliability_ci() const {
  return util::mean_ci(reliability);
}

std::size_t ProgramResult::never_reshaped() const {
  return static_cast<std::size_t>(
      std::count_if(reshaping_rounds.begin(), reshaping_rounds.end(),
                    [](double v) { return std::isnan(v); }));
}

ProgramResult run_program(const ScenarioProgram& p, const RoundHook& hook) {
  std::string err;
  const auto shape = shape::make_shape(p.shape_spec, &err);
  if (!shape) throw ProgramError(p.file, p.line_of("shape"), err);
  validate_for_mode(p, p.options.engine);

  const std::size_t reps = std::max<std::size_t>(1, p.reps);
  std::vector<ProgramRun> runs(reps);
  // A throw on a worker thread (a failed expect, mostly) must not
  // std::terminate — capture per repetition, rethrow the lowest index
  // after the join so the diagnostic is deterministic.
  std::vector<std::exception_ptr> errors(reps);

  auto run_rep = [&](std::size_t i) noexcept {
    try {
      ScenarioOptions opt = p.options;
      opt.seed = p.options.seed + i;
      runs[i] = run_program_once(*shape, p, opt, i == 0 ? hook : nullptr);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  // Live mode runs real threads per node — keep repetitions sequential.
  std::size_t workers = p.options.engine == EngineMode::kLive
                            ? 1
                            : std::thread::hardware_concurrency();
  workers = std::clamp<std::size_t>(workers, 1, reps);
  if (workers == 1) {
    for (std::size_t i = 0; i < reps; ++i) run_rep(i);
  } else {
    // Work-stealing over repetition indices; every repetition is seeded
    // independently so the schedule cannot affect results.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < workers; ++t)
      pool.emplace_back([&]() {
        for (std::size_t i = next++; i < reps; i = next++) run_rep(i);
      });
    for (auto& t : pool) t.join();
  }

  for (std::size_t i = 0; i < reps; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);

  // Deterministic aggregation in repetition order.
  ProgramResult out;
  out.program = p;
  for (const auto& run : runs) {
    const auto series = [&](double RoundMetrics::*field) {
      std::vector<double> v;
      for (const auto& m : run.rounds) v.push_back(m.*field);
      return v;
    };
    out.homogeneity.add_run(series(&RoundMetrics::homogeneity));
    out.proximity.add_run(series(&RoundMetrics::proximity));
    out.points_per_node.add_run(series(&RoundMetrics::points_per_node));
    out.msg_paper.add_run(series(&RoundMetrics::msg_paper));
    out.reliability_series.add_run(series(&RoundMetrics::reliability));
    out.reshaping_rounds.push_back(run.reshaping_rounds);
    out.reliability.push_back(run.reliability);
  }
  out.first = std::move(runs[0]);
  return out;
}

void print_events(const ProgramResult& result,
                  const std::optional<std::string>& csv_dir) {
  for (const auto& ev : result.first.events) {
    if (!ev.is_snapshot) {
      std::printf("## round %zu: %s\n", ev.round, ev.text.c_str());
      continue;
    }
    std::printf("\n## round %zu: snapshot %s\n%s\n", ev.round,
                ev.text.c_str(), ev.summary.c_str());
    std::fputs(ev.map.c_str(), stdout);
    if (csv_dir) {
      std::string label = ev.text;
      for (char& c : label)
        if (c == ' ' || c == '/') c = '_';
      const std::string path = *csv_dir + "/" + result.program.name + "_" +
                               label + "_r" + std::to_string(ev.round) +
                               ".csv";
      std::ofstream f(path);
      if (f) {
        f << "x,y\n";
        for (const auto& pt : ev.positions)
          f << pt.x() << ',' << pt.y() << '\n';
        if (f) std::printf("(positions written to %s)\n", path.c_str());
      }
    }
    std::puts("");
  }
}

util::Table series_table_for(const ProgramResult& r) {
  const EngineMode mode = r.program.options.engine;
  const bool sync = mode == EngineMode::kSync;
  const bool events = mode == EngineMode::kEvents;
  const bool aggregated = r.reshaping_rounds.size() > 1;

  std::vector<std::string> headers{"round", "alive", "homogeneity", "H",
                                   "proximity"};
  if (sync) headers.insert(headers.end(), {"points/node", "msg/node"});
  if (!sync) headers.push_back("reliability");
  if (events) headers.push_back("frames");
  // Traffic columns (cumulative since the first `traffic` verb) when the
  // workload ran: the series then shows the before/during/after service
  // arc directly.  Aggregated (reps > 1) tables keep the protocol-only
  // shape — per-rep traffic spreads belong to a later stats row.
  const bool traffic_cols =
      events && !aggregated &&
      std::any_of(r.first.rounds.begin(), r.first.rounds.end(),
                  [](const RoundMetrics& m) {
                    return m.requests + m.requests_failed > 0;
                  });
  if (traffic_cols)
    headers.insert(headers.end(), {"requests", "success", "p50_ms", "p99_ms",
                                   "p999_ms", "hops"});

  util::Table table(std::move(headers));
  for (std::size_t i = 0; i < r.first.rounds.size(); ++i) {
    const auto& m = r.first.rounds[i];
    // One repetition prints plain values, more print `mean ± ci`.
    const auto cell = [&](const util::SeriesAggregator& series, double v,
                          int prec) {
      return aggregated ? series.row(i).str(prec) : util::fmt(v, prec);
    };
    std::vector<std::string> row{std::to_string(m.round),
                                 std::to_string(m.alive),
                                 cell(r.homogeneity, m.homogeneity, 3),
                                 util::fmt(m.reference_h, 3),
                                 cell(r.proximity, m.proximity, 3)};
    if (sync)
      row.insert(row.end(), {cell(r.points_per_node, m.points_per_node, 2),
                             cell(r.msg_paper, m.msg_paper, 1)});
    if (!sync) row.push_back(cell(r.reliability_series, m.reliability, 3));
    if (events) row.push_back(std::to_string(m.frames));
    if (traffic_cols && m.requests + m.requests_failed == 0)
      row.insert(row.end(), 6, "-");
    else if (traffic_cols)
      row.insert(row.end(),
                 {std::to_string(m.requests), util::fmt(m.success_rate, 4),
                  util::fmt(m.p50_latency_ms, 2),
                  util::fmt(m.p99_latency_ms, 2),
                  util::fmt(m.p999_latency_ms, 2), util::fmt(m.mean_hops, 1)});
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace poly::scenario
