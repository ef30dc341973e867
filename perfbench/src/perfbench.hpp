// End-to-end benchmark of the gossip library: four workloads driven through
// the public entry points (runner::TrialRunner::run_trial, sim::Network,
// sim::FaultModel, core::broadcast, the registry, obs::Telemetry and the
// obs exporters). See perfbench/README.md for the metrics, the workloads
// and why they were chosen.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.hpp"

namespace perfbench {

/// Which layer owns the algorithm a workload runs; names the per-layer
/// between-rounds metric (core. / baselines. / membership.).
enum class AlgorithmLayer { kCore, kBaselines, kMembership };

struct Workload {
  std::string name;
  gossip::runner::ScenarioSpec spec;  ///< spec.seed is the workload's fixed seed
  unsigned seeds = 1;                 ///< fixed trial seeds timed per run
  AlgorithmLayer layer = AlgorithmLayer::kCore;
  bool broadcast = true;  ///< success rule: every alive node ends informed
  bool exports = false;   ///< export the trial's telemetry inside the timed region
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload; `n_override` (0 = none) shrinks it for smoke tests.
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint32_t n_override = 0);

/// The fixed trial indices a run times: the first `seeds` trials of the
/// workload's scenario whose source survives a scheduled crash wave (a
/// crashed source takes the rumor with it, so no algorithm could finish).
[[nodiscard]] std::vector<unsigned> trial_indices(const Workload& w);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;   ///< orders the visits to the fixed trial seeds
  double seconds = 10.0;    ///< budget for the whole run, warm-up included
  bool trace = false;       ///< per-layer traced mode
  std::uint32_t n = 0;      ///< network-size override for smoke tests (0 = none)
  std::string trace_out;    ///< Chrome trace path (traced mode; empty = none)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one benchmark invocation. Human-readable progress, failures and
/// the per-layer table go to `log`.
[[nodiscard]] Result run(const Options& options, std::ostream& log);

/// Writes the one-line result object. Throws std::invalid_argument when a
/// metric name is not a valid benchmark metric name.
void write_result(std::ostream& os, const Result& result);

}  // namespace perfbench
