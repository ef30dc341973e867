#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "common/rng.hpp"
#include "common/rss.hpp"
#include "core/broadcast.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runner/json_writer.hpp"
#include "runner/registry.hpp"
#include "runner/trial_runner.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace core = gossip::core;
namespace obs = gossip::obs;
namespace runner = gossip::runner;
namespace sim = gossip::sim;
using gossip::Rng;
using Clock = std::chrono::steady_clock;

/// After each timed trial, setup samples of the same seed are taken until
/// they add up to this share of the trial's time (1 to kMaxSetupSamples),
/// so that setup is sampled all through the run as trials are.
constexpr double kSetupShare = 0.05;
constexpr unsigned kMaxSetupSamples = 16;
/// One setup sample builds at least this many node slots, so a build that
/// takes microseconds (n = 1024) is timed as a batch of about a millisecond.
constexpr std::uint64_t kSetupBatchNodes = 1u << 17;
/// Untraced runs repeat every seed at least this often: the repeat check
/// needs two runs, and best-of needs a choice.
constexpr unsigned kMinPasses = 2;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

// --- trial derivation (mirrors TrialRunner::run_trial) ----------------------

struct TrialSeeds {
  std::uint64_t network = 0;
  std::uint64_t adversary = 0;
  Rng rest;  ///< the trial stream after the two seed draws: the source draw
};

TrialSeeds derive(const runner::ScenarioSpec& spec, unsigned trial) {
  TrialSeeds s;
  s.rest = Rng(spec.seed).fork(trial);
  s.network = s.rest.next_u64();
  s.adversary = s.rest.next_u64();
  return s;
}

sim::NetworkOptions network_options(const runner::ScenarioSpec& spec, std::uint64_t seed) {
  sim::NetworkOptions o;
  o.n = spec.n;
  o.seed = seed;
  o.rumor_bits = spec.rumor_bits;
  o.max_nodes = spec.max_nodes();
  return o;
}

std::uint32_t pick_source(Rng& rest, const sim::Network& net, std::uint32_t n) {
  auto source = static_cast<std::uint32_t>(rest.uniform_below(n));
  while (!net.alive(source)) source = (source + 1) % n;
  return source;
}

bool source_survives(const runner::ScenarioSpec& spec, unsigned trial) {
  TrialSeeds seeds = derive(spec, trial);
  sim::Network net(network_options(spec, seeds.network));
  const std::unique_ptr<sim::FaultModel> fault = spec.make_fault_model();
  if (!fault) return true;
  Rng adversary(seeds.adversary);
  fault->on_run_begin(net, adversary);
  const std::uint32_t source = pick_source(seeds.rest, net, spec.n);
  for (std::int64_t r = 0; r <= spec.crash_round; ++r) {
    fault->on_round_begin(static_cast<std::uint64_t>(r), net);
  }
  return net.alive(source);
}

/// Visit order of the fixed seeds in one pass, shuffled from (run seed,
/// pass) so that no seed always runs in the same slot of a pass.
std::vector<std::size_t> visit_order(std::uint64_t seed, std::uint64_t pass, std::size_t k) {
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  Rng rng = Rng(seed).fork(pass);
  for (std::size_t i = k; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_below(i)]);
  }
  return order;
}

// --- one trial ----------------------------------------------------------------

struct Counts {
  std::uint64_t rounds = 0;
  std::uint64_t payload_messages = 0;
  std::uint64_t bits = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const core::BroadcastReport& r) {
  return {r.rounds, r.stats.total.payload_messages, r.stats.total.bits};
}

struct Outcome {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
  double engine_seconds = 0.0;  ///< sum of the telemetry's RoundRecord phase*_ns
  double export_seconds = 0.0;
  core::BroadcastReport report;
  std::uint64_t export_bytes = 0;
};

double engine_seconds(const obs::Telemetry& telemetry) {
  std::uint64_t ns = 0;
  for (const obs::RoundRecord& r : telemetry.rounds.records()) {
    ns += r.phase1_ns + r.phase2_ns + r.phase3_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

/// An in-memory stream buffer that every export rewinds and overwrites. It
/// grows by doubling and never shrinks, so after the warm-up trial the
/// export allocates nothing. A fresh std::ostringstream per trial allocates
/// blocks of up to 16 MB whose place in the heap depends on what ran
/// before, and so can move peak_rss_mb from run to run.
class ExportSink : public std::streambuf {
 public:
  explicit ExportSink(std::size_t capacity) : buf_(capacity) { rewind(); }
  void rewind() { setp(buf_.data(), buf_.data() + buf_.size()); }
  [[nodiscard]] std::uint64_t size() const {
    return static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type c) override {
    const std::ptrdiff_t used = pptr() - pbase();
    buf_.resize(2 * buf_.size());
    setp(buf_.data(), buf_.data() + buf_.size());
    pbump(static_cast<int>(used));
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  std::vector<char> buf_;
};

/// Writes the trial's time series, events, provenance and Chrome trace to
/// memory, as gossip_run writes them to files; returns the bytes written.
std::uint64_t export_all(const obs::Telemetry& telemetry) {
  static ExportSink sink(std::size_t{1} << 24);
  sink.rewind();
  std::ostream os(&sink);
  const std::vector<const obs::Telemetry*> trials{&telemetry};
  obs::write_timeseries_jsonl(os, trials);
  obs::write_events_jsonl(os, trials);
  obs::write_provenance_jsonl(os, trials);
  obs::write_chrome_trace(os, trials);
  return sink.size();
}

/// The per-trial path of gossip_run: run_trial with a fresh telemetry
/// handle (or none, for the telemetry-overhead legs), plus the export on
/// workloads that export.
Outcome untraced_trial(const Workload& w, unsigned trial, bool attach) {
  Outcome o;
  std::unique_ptr<obs::Telemetry> telemetry;
  if (attach) {
    telemetry = std::make_unique<obs::Telemetry>();
    telemetry->rounds.reserve(512);
  }
  try {
    const Clock::time_point t0 = Clock::now();
    o.report = runner::TrialRunner::run_trial(w.spec, trial, telemetry.get());
    const Clock::time_point ran = Clock::now();
    if (w.exports && telemetry) o.export_bytes = export_all(*telemetry);
    const Clock::time_point done = Clock::now();
    o.seconds = seconds_between(t0, done);
    o.export_seconds = seconds_between(ran, done);
    if (telemetry) o.engine_seconds = engine_seconds(*telemetry);
    o.ok = true;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

/// Empty when the trial succeeded; otherwise why it failed. `first` is the
/// seed's first run, which every repeat must reproduce exactly.
std::string failure(const Workload& w, const Outcome& o, const std::optional<Counts>& first) {
  if (!o.ok) return "threw: " + o.error;
  if (w.broadcast && o.report.informed != o.report.alive) {
    return std::to_string(o.report.alive - o.report.informed) + " alive nodes uninformed";
  }
  if (first && !(counts_of(o.report) == *first)) {
    const Counts c = counts_of(o.report);
    std::ostringstream os;
    os << "repeat disagrees with the seed's first run: rounds " << c.rounds << " vs "
       << first->rounds << ", messages " << c.payload_messages << " vs "
       << first->payload_messages << ", bits " << c.bits << " vs " << first->bits;
    return os.str();
  }
  return {};
}

/// Bookkeeping shared by both modes: attempts, failures and each seed's
/// first counts.
struct Ledger {
  const Workload& w;
  std::ostream& log;
  std::vector<unsigned> trials;
  std::vector<std::optional<Counts>> first;
  std::vector<core::BroadcastReport> first_report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  Ledger(const Workload& workload, std::ostream& out)
      : w(workload), log(out), trials(trial_indices(workload)),
        first(trials.size()), first_report(trials.size()) {}

  /// Records one operation on seed `i`; true when it succeeded.
  bool record(std::size_t i, const Outcome& o, const char* leg) {
    ++attempted;
    const std::string why = failure(w, o, first[i]);
    if (!why.empty()) {
      ++failed;
      log << "FAILED " << w.name << " trial " << trials[i] << " (" << leg << "): " << why
          << "\n";
      return false;
    }
    if (!first[i]) {
      first[i] = counts_of(o.report);
      first_report[i] = o.report;
    }
    return true;
  }
};

double time_setup(const Workload& w, unsigned trial, std::uint64_t batch) {
  const TrialSeeds seeds = derive(w.spec, trial);
  const sim::NetworkOptions options = network_options(w.spec, seeds.network);
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t b = 0; b < batch; ++b) {
    sim::Network net(options);
    const std::unique_ptr<sim::FaultModel> fault = w.spec.make_fault_model();
    if (fault) {
      Rng adversary(seeds.adversary);
      fault->on_run_begin(net, adversary);
    }
  }
  return seconds_since(t0) / static_cast<double>(batch);
}

/// Per-seed sample vectors with room for every sample a run can take, so
/// that no harness allocation lands between trials: one that did could pin
/// the top of the heap and make peak_rss_mb depend on how many passes a run
/// made.
PerSeedSamples reserved_samples(std::size_t k) {
  PerSeedSamples samples(k);
  for (std::vector<double>& s : samples) s.reserve(1u << 14);
  return samples;
}

/// Mean over seeds of each seed's fastest sample, skipping seeds whose
/// every run failed (the result is then marked incorrect anyway).
double best_of_mean_ok(PerSeedSamples samples) {
  std::erase_if(samples, [](const std::vector<double>& s) { return s.empty(); });
  return samples.empty() ? 0.0 : best_of_mean(samples);
}

/// Setup samples of one seed after a trial that took `trial_seconds`.
void sample_setup(const Workload& w, unsigned trial, std::uint64_t batch, double trial_seconds,
                  std::vector<double>& out) {
  double spent = 0.0;
  for (unsigned s = 0; s < kMaxSetupSamples && (s == 0 || spent < kSetupShare * trial_seconds);
       ++s) {
    out.push_back(time_setup(w, trial, batch));
    spent += out.back() * static_cast<double>(batch);
  }
}

/// Runs passes over the seeds until the next pass would end after
/// `deadline` (at least `min_passes`). `body(pass, i)` runs seed i once.
template <class Body>
unsigned run_passes(const Options& opt, Clock::time_point deadline, std::size_t k,
                    unsigned min_passes, Body&& body) {
  const Clock::time_point start = Clock::now();
  unsigned pass = 0;
  for (;; ++pass) {
    const Clock::time_point now = Clock::now();
    if (pass >= min_passes && now + (now - start) / pass > deadline) break;
    for (const std::size_t i : visit_order(opt.seed, pass, k)) body(pass, i);
  }
  return pass;
}

double mean_of(const std::vector<core::BroadcastReport>& reports,
               double (*field)(const core::BroadcastReport&)) {
  double sum = 0.0;
  for (const core::BroadcastReport& r : reports) sum += field(r);
  return reports.empty() ? 0.0 : sum / static_cast<double>(reports.size());
}

// --- untraced mode ----------------------------------------------------------------

Result run_untraced(const Workload& w, const Options& opt, Clock::time_point deadline,
                    std::ostream& log) {
  Ledger ledger(w, log);
  const std::size_t k = ledger.trials.size();
  PerSeedSamples setup = reserved_samples(k);
  const std::uint64_t batch = std::max<std::uint64_t>(1, kSetupBatchNodes / w.spec.max_nodes());

  // Untimed warm-up: faults in the allocator's pages and the code.
  ledger.record(0, untraced_trial(w, ledger.trials[0], true), "warm-up");

  PerSeedSamples trial = reserved_samples(k);
  const unsigned passes = run_passes(opt, deadline, k, kMinPasses, [&](unsigned, std::size_t i) {
    const Outcome o = untraced_trial(w, ledger.trials[i], true);
    if (ledger.record(i, o, "timed")) trial[i].push_back(o.seconds);
    sample_setup(w, ledger.trials[i], batch, o.seconds, setup[i]);
  });

  for (std::size_t i = 0; i < k; ++i) {
    const core::BroadcastReport& r = ledger.first_report[i];
    log << w.name << " trial " << ledger.trials[i] << ": rounds " << r.rounds
        << ", msgs/node " << r.payload_messages_per_node() << ", informed "
        << r.informed << "/" << r.alive;
    if (trial[i].size() >= 2) {
      const std::vector<double> q = quantiles(trial[i]);
      log << ", best " << *std::min_element(trial[i].begin(), trial[i].end())
          << " s, quartiles " << q[0] << " / " << q[1] << " / " << q[2] << " s of "
          << trial[i].size() << " repeats";
    }
    log << "\n";
  }
  log << w.name << ": " << k << " seeds x " << passes << " passes, " << sample_count(trial)
      << " trial samples, " << sample_count(setup) << " setup samples (batch " << batch
      << ")\n";

  Result res;
  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  res.correct = ledger.failed == 0;
  const auto& reports = ledger.first_report;
  res.metrics = {
      {"trial_s", "s", best_of_mean_ok(trial)},
      {"setup_s", "s", best_of_mean_ok(setup)},
      {"peak_rss_mb", "MB", static_cast<double>(gossip::peak_rss_bytes()) / (1 << 20)},
      {"rounds", "count",
       mean_of(reports, [](const core::BroadcastReport& r) { return double(r.rounds); })},
      {"msgs_per_node", "count",
       mean_of(reports, [](const core::BroadcastReport& r) {
         return r.payload_messages_per_node();
       })},
      {"bits_per_node", "bit",
       mean_of(reports, [](const core::BroadcastReport& r) { return r.bits_per_node(); })},
      {"informed_frac", "fraction",
       mean_of(reports, [](const core::BroadcastReport& r) { return r.informed_fraction(); })},
  };
  return res;
}

// --- traced mode ----------------------------------------------------------------

struct Span {
  std::string name;
  std::string cat;
  Interval iv;
  std::size_t parent = kNoParent;
  std::int64_t round = -1;  ///< engine spans: the round they belong to
  static constexpr std::size_t kNoParent = ~std::size_t{0};
};

/// Spans of one traced trial, in seconds from the trial's start.
struct Trace {
  std::vector<Span> spans;

  std::size_t add(std::string name, std::string cat, Interval iv, std::size_t parent,
                  std::int64_t round = -1) {
    spans.push_back(Span{std::move(name), std::move(cat), iv, parent, round});
    return spans.size() - 1;
  }

  [[nodiscard]] double self(std::size_t i) const {
    std::vector<Interval> children;
    for (const Span& s : spans) {
      if (s.parent == i) children.push_back(s.iv);
    }
    return self_time(spans[i].iv, children);
  }
};

/// A paper-phase step boundary: the observer's snapshot, stamped with the
/// bench clock and the number of engine rounds recorded so far.
struct Stamp {
  std::string phase;
  double at = 0.0;
  std::size_t records = 0;
};

constexpr const char* kCorePhases[] = {"grow",         "square", "merge_all", "bounded_push",
                                       "pull",         "share",  "recovery"};

struct TracedTrial {
  Outcome outcome;
  Trace trace;
  std::map<std::string, double> layer;  ///< per-layer values of this trial
  /// Traced time outside the engine (the observer's own snapshot work
  /// included): in total, and per paper-phase span; and the engine time
  /// inside each paper-phase span. run_traced replaces the first two with
  /// the untraced between-rounds time, split in the same proportions.
  double between = 0.0;
  std::map<std::string, double> phase_between;
  std::map<std::string, double> phase_engine;
};

/// Lays the engine phases of records [begin, end) back to back from
/// `from`, under `parent`. Durations are measured; positions are not (the
/// engine reports per-round phase durations, not timestamps), exactly as
/// obs::write_chrome_trace lays them out.
void add_engine_spans(Trace& trace, const std::vector<obs::RoundRecord>& records,
                      std::size_t begin, std::size_t end, double from, std::size_t parent) {
  constexpr const char* kNames[3] = {"sim.engine.phase1", "sim.engine.phase2",
                                     "sim.engine.phase3"};
  double cursor = from;
  for (std::size_t r = begin; r < end; ++r) {
    const std::uint64_t ns[3] = {records[r].phase1_ns, records[r].phase2_ns,
                                 records[r].phase3_ns};
    for (int p = 0; p < 3; ++p) {
      const double dur = static_cast<double>(ns[p]) * 1e-9;
      trace.add(kNames[p], "sim", {cursor, cursor + dur}, parent,
                static_cast<std::int64_t>(records[r].round));
      cursor += dur;
    }
  }
}

/// Algorithm work outside the engine is named after the layer that does it.
const char* between_rounds_metric(AlgorithmLayer layer) {
  switch (layer) {
    case AlgorithmLayer::kCore: return "core.between_rounds_s";
    case AlgorithmLayer::kBaselines: return "baselines.between_rounds_s";
    case AlgorithmLayer::kMembership: return "membership.between_rounds_s";
  }
  return "core.between_rounds_s";
}

core::Algorithm core_algorithm(const std::string& id) {
  if (id == "cluster1") return core::Algorithm::kCluster1;
  if (id == "cluster2") return core::Algorithm::kCluster2;
  throw std::invalid_argument("no core algorithm '" + id + "'");
}

/// Repeats the trial that run_trial runs - same network seed, adversary
/// seed and source - but through core::broadcast (with a phase observer)
/// or the registry entry, timing every layer boundary from here.
TracedTrial traced_trial(const Workload& w, unsigned trial_index) {
  TracedTrial tr;
  Outcome& o = tr.outcome;
  const runner::ScenarioSpec& spec = w.spec;
  auto telemetry = std::make_unique<obs::Telemetry>();
  telemetry->rounds.reserve(512);
  std::vector<Stamp> stamps;
  double net_built = 0, setup_done = 0, alg_start = 0, alg_end = 0, end = 0;
  try {
    const Clock::time_point t0 = Clock::now();
    const auto at = [t0] { return seconds_since(t0); };
    TrialSeeds seeds = derive(spec, trial_index);
    sim::Network net(network_options(spec, seeds.network));
    net_built = at();
    net.set_observer(&telemetry->events);
    telemetry->events.set_sample_cap(spec.event_sample_cap);
    telemetry->provenance.arm(net.capacity());
    const std::unique_ptr<sim::FaultModel> fault = spec.make_fault_model();
    if (fault) {
      Rng adversary(seeds.adversary);
      fault->on_run_begin(net, adversary);
    }
    setup_done = at();
    const std::uint32_t source = pick_source(seeds.rest, net, spec.n);
    telemetry->provenance.note_seed(source);
    alg_start = at();
    if (w.layer == AlgorithmLayer::kCore) {
      core::BroadcastOptions b;
      b.algorithm = core_algorithm(spec.algorithm);
      b.source = source;
      b.delta = spec.delta;
      b.threads = spec.engine_threads;
      b.shard_size = spec.shard_size;
      b.delivery_buckets = spec.delivery_buckets;
      b.fault_model = fault.get();
      b.telemetry = telemetry.get();
      b.recovery.enabled = spec.recovery;
      if (spec.retry_budget != 0) b.recovery.retry_budget = spec.retry_budget;
      b.observer = [&](const core::PhaseSnapshot& s) {
        stamps.push_back({std::string(s.phase), at(), telemetry->rounds.records().size()});
      };
      o.report = core::broadcast(net, b);
    } else {
      o.report = runner::require_algorithm(spec.algorithm)
                     .run(net, source, spec, fault.get(), telemetry.get());
    }
    alg_end = at();
    if (w.exports) o.export_bytes = export_all(*telemetry);
    end = at();
    o.seconds = end;
    o.ok = true;
  } catch (const std::exception& e) {
    o.error = e.what();
    return tr;
  }

  // Span tree: trial -> setup / algorithm -> paper phase -> engine phase.
  Trace& t = tr.trace;
  const std::vector<obs::RoundRecord>& records = telemetry->rounds.records();
  const std::size_t root = t.add("trial", "trial", {0, end}, Span::kNoParent);
  const std::size_t setup = t.add("setup", "setup", {0, setup_done}, root);
  t.add("sim.network_build", "sim", {0, net_built}, setup);
  t.add("sim.fault_setup", "sim", {net_built, setup_done}, setup);
  const std::size_t algorithm = t.add("algorithm", "algorithm", {alg_start, alg_end}, root);
  double seg_start = alg_start;
  std::size_t rec_begin = 0;
  for (std::size_t s = 0; s < stamps.size(); ++s) {
    if (s + 1 < stamps.size() && stamps[s + 1].phase == stamps[s].phase) continue;
    const std::size_t phase =
        t.add("core." + stamps[s].phase, "core", {seg_start, stamps[s].at}, algorithm);
    add_engine_spans(t, records, rec_begin, stamps[s].records, seg_start, phase);
    seg_start = stamps[s].at;
    rec_begin = stamps[s].records;
  }
  // Rounds after the last paper phase belong to the recovery supervisor
  // when it ran; otherwise (no observer: baselines, membership) directly to
  // the algorithm.
  const bool recovered = std::any_of(o.report.phases.begin(), o.report.phases.end(),
                                     [](const core::PhaseBreakdown& p) {
                                       return p.name == "recovery";
                                     });
  std::size_t tail_parent = algorithm;
  if (recovered && !stamps.empty()) {
    tail_parent = t.add("core.recovery", "core", {seg_start, alg_end}, algorithm);
  }
  add_engine_spans(t, records, rec_begin, records.size(), seg_start, tail_parent);
  if (w.exports) t.add("obs.export", "obs", {alg_end, end}, root);

  // Per-layer values. The traced between-rounds time is the self time of
  // the algorithm and paper-phase spans: work outside the engine, which
  // here includes the observer's snapshots.
  auto& L = tr.layer;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    if (s.cat == "sim" && s.round < 0) L[s.name + "_s"] += s.iv.duration();
    if (s.cat == "core" || s.cat == "algorithm") tr.between += t.self(i);
    if (s.cat == "core") {
      tr.phase_between[s.name] += t.self(i);
      tr.phase_engine[s.name] += s.iv.duration() - t.self(i);
    }
    if (s.cat == "obs") L["obs.export_s"] += s.iv.duration();
  }
  double p1 = 0, p2 = 0, p3 = 0, initiators = 0, contacts = 0, connections = 0;
  double loss = 0, corrupt = 0;
  for (const obs::RoundRecord& r : records) {
    p1 += static_cast<double>(r.phase1_ns) * 1e-9;
    p2 += static_cast<double>(r.phase2_ns) * 1e-9;
    p3 += static_cast<double>(r.phase3_ns) * 1e-9;
    initiators += static_cast<double>(r.initiators);
    contacts += static_cast<double>(r.pushes + r.pull_requests + r.pull_responses);
    connections += static_cast<double>(r.connections);
    loss += static_cast<double>(r.loss_drops);
    corrupt += static_cast<double>(r.corrupt_responses);
  }
  L["sim.engine.phase1_s"] = p1;
  L["sim.engine.phase2_s"] = p2;
  L["sim.engine.phase3_s"] = p3;
  L["sim.engine.contacts_per_s"] = p1 + p2 + p3 > 0 ? contacts / (p1 + p2 + p3) : 0.0;
  L["sim.engine.initiators"] = initiators;
  L["sim.engine.contacts"] = contacts;
  L["sim.engine.connections"] = connections;
  const double payload = static_cast<double>(o.report.stats.total.payload_messages);
  const double first_informs =
      static_cast<double>(telemetry->provenance.informed_count()) - 1.0;  // minus the seed
  L["sim.engine.inform_yield"] = payload > 0 ? std::max(0.0, first_informs) / payload : 0.0;
  L["sim.fault.loss_drops"] = loss;
  L["sim.fault.corrupt_responses"] = corrupt;
  for (const obs::Event& e : telemetry->events.events()) {
    switch (e.kind) {
      case obs::EventKind::kJoin: L["sim.fault.joins"] += 1; break;
      case obs::EventKind::kCrash: L["sim.fault.crashes"] += 1; break;
      case obs::EventKind::kReelect: L["core.recovery.reelects"] += 1; break;
      case obs::EventKind::kFallback: L["core.recovery.fallbacks"] += 1; break;
      default: break;
    }
  }
  const double n = static_cast<double>(o.report.n);
  for (const core::PhaseBreakdown& p : o.report.phases) {
    if (w.layer != AlgorithmLayer::kCore) break;  // baselines name their phases too
    L["core." + p.name + ".rounds"] += static_cast<double>(p.rounds);
    L["core." + p.name + ".msgs_per_node"] += static_cast<double>(p.payload_messages) / n;
  }
  if (w.layer == AlgorithmLayer::kMembership) {
    L["membership.estimate_error"] = o.report.estimate_n_error;
  }
  L["obs.export_bytes"] = static_cast<double>(o.export_bytes);
  L["obs.events"] = static_cast<double>(telemetry->events.events().size());
  // Parts that sum to the trial: setup + engine + between rounds + export +
  // the trial span's own residual.
  L["table.setup_s"] = t.spans[setup].iv.duration();
  L["table.engine_s"] = p1 + p2 + p3;
  L["table.residual_s"] = t.self(root);
  L["table.trial_s"] = end;
  return tr;
}

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// Every per-layer metric, in print order. Layers a workload does not
/// exercise read 0.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"sim.network_build_s", "s"},        {"sim.fault_setup_s", "s"},
        {"sim.engine.phase1_s", "s"},        {"sim.engine.phase2_s", "s"},
        {"sim.engine.phase3_s", "s"},        {"sim.engine.contacts_per_s", "1/s"},
        {"sim.engine.initiators", "count"},  {"sim.engine.contacts", "count"},
        {"sim.engine.connections", "count"}, {"sim.engine.inform_yield", "ratio"},
        {"sim.fault.loss_drops", "count"},   {"sim.fault.corrupt_responses", "count"},
        {"sim.fault.joins", "count"},        {"sim.fault.crashes", "count"},
        {"core.between_rounds_s", "s"},
    };
    for (const char* p : kCorePhases) {
      const std::string prefix = std::string("core.") + p;
      m.push_back({prefix + ".s", "s"});
      m.push_back({prefix + ".rounds", "count"});
      m.push_back({prefix + ".msgs_per_node", "count"});
    }
    m.insert(m.end(), {
        {"core.recovery.reelects", "count"}, {"core.recovery.fallbacks", "count"},
        {"baselines.between_rounds_s", "s"}, {"membership.between_rounds_s", "s"},
        {"membership.estimate_error", "ratio"}, {"obs.telemetry_overhead", "ratio"},
        {"obs.export_s", "s"},               {"obs.export_bytes", "bytes"},
        {"obs.events", "count"},             {"trace.overhead", "ratio"},
    });
    return m;
  }();
  return metrics;
}

void write_chrome_trace(const std::string& path, const Workload& w,
                        const std::vector<unsigned>& trials,
                        const std::vector<std::optional<TracedTrial>>& best) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  runner::JsonWriter j(os, /*compact=*/true);
  j.begin_object();
  j.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < best.size(); ++i) {
    if (!best[i]) continue;
    const std::string track = w.name + " trial " + std::to_string(trials[i]);
    j.begin_object().kv("ph", "M").kv("pid", std::uint64_t{0}).kv("tid", std::uint64_t{i});
    j.kv("name", "thread_name").key("args").begin_object().kv("name", track).end_object();
    j.end_object();
    for (const Span& s : best[i]->trace.spans) {
      j.begin_object().kv("ph", "X").kv("pid", std::uint64_t{0}).kv("tid", std::uint64_t{i});
      j.kv("name", s.name).kv("cat", s.cat);
      j.kv("ts", s.iv.start * 1e6).kv("dur", s.iv.duration() * 1e6);
      if (s.round >= 0) j.key("args").begin_object().kv("round", s.round).end_object();
      j.end_object();
    }
  }
  j.end_array();
  j.kv("displayTimeUnit", "ms");
  j.end_object();
}

/// Algorithm time outside the engine in an untraced leg: the leg's trial
/// time less its setup, engine phases and export. No observer runs there,
/// so none of its cost lands here.
double untraced_between(const Outcome& leg, double setup_s) {
  return leg.seconds - setup_s - leg.engine_seconds - leg.export_seconds;
}

Result run_traced(const Workload& w, const Options& opt, Clock::time_point deadline,
                  std::ostream& log) {
  Ledger ledger(w, log);
  const std::size_t k = ledger.trials.size();
  const std::uint64_t batch = std::max<std::uint64_t>(1, kSetupBatchNodes / w.spec.max_nodes());
  ledger.record(0, untraced_trial(w, ledger.trials[0], true), "warm-up");

  PerSeedSamples setup(k), traced(k);
  std::vector<double> telemetry_ratios;
  std::vector<std::optional<Outcome>> best_attached(k);
  std::vector<std::optional<TracedTrial>> best(k);
  run_passes(opt, deadline, k, 1, [&](unsigned pass, std::size_t i) {
    const unsigned t = ledger.trials[i];
    // Paired legs, alternating which runs first, so drift hits both alike.
    Outcome a, d;
    if (pass % 2 == 0) {
      a = untraced_trial(w, t, true);
      d = untraced_trial(w, t, false);
    } else {
      d = untraced_trial(w, t, false);
      a = untraced_trial(w, t, true);
    }
    const bool a_ok = ledger.record(i, a, "attached");
    const bool d_ok = ledger.record(i, d, "detached");
    if (a_ok && d_ok) telemetry_ratios.push_back(a.seconds / d.seconds);
    sample_setup(w, t, batch, a.seconds, setup[i]);
    if (a_ok && (!best_attached[i] || a.seconds < best_attached[i]->seconds)) {
      best_attached[i] = std::move(a);
    }
    TracedTrial tr = traced_trial(w, t);
    if (!ledger.record(i, tr.outcome, "traced")) return;
    traced[i].push_back(tr.outcome.seconds);
    if (!best[i] || tr.outcome.seconds < best[i]->outcome.seconds) best[i] = std::move(tr);
  });

  // Per-layer values: each seed's fastest traced trial, averaged over
  // seeds. Between-rounds time comes from the seed's fastest attached leg
  // instead, and the traced paper-phase spans only split it.
  std::map<std::string, double> layer;
  PerSeedSamples attached(k);
  std::size_t traced_seeds = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!best[i] || !best_attached[i]) continue;
    ++traced_seeds;
    attached[i].push_back(best_attached[i]->seconds);
    const TracedTrial& tr = *best[i];
    std::map<std::string, double> L = tr.layer;
    const double between = untraced_between(
        *best_attached[i], *std::min_element(setup[i].begin(), setup[i].end()));
    L[between_rounds_metric(w.layer)] = between;
    for (const auto& [phase, engine] : tr.phase_engine) {
      const double share = tr.between > 0 ? tr.phase_between.at(phase) / tr.between : 0.0;
      L[phase + ".s"] = engine + share * between;
    }
    L["table.between_s"] = between;
    L["table.tracing_s"] = tr.between - between;
    for (const auto& [name, value] : L) layer[name] += value;
  }
  for (auto& [name, value] : layer) {
    value /= static_cast<double>(std::max<std::size_t>(1, traced_seeds));
  }
  layer["obs.telemetry_overhead"] = telemetry_ratios.size() ? median(telemetry_ratios) : 0.0;
  const double attached_s = best_of_mean_ok(attached);
  layer["trace.overhead"] = attached_s > 0 ? best_of_mean_ok(traced) / attached_s : 0.0;

  constexpr int kParts = 6;
  const double parts[kParts] = {layer["table.setup_s"],   layer["table.engine_s"],
                                layer["table.between_s"], layer["obs.export_s"],
                                layer["table.tracing_s"], layer["table.residual_s"]};
  const char* part_names[kParts] = {"setup",  "engine phases", "between rounds",
                                    "export", "tracing",       "residual"};
  char line[160];
  log << "per-layer split of the traced trial (mean of each seed's fastest):\n";
  for (int p = 0; p < kParts; ++p) {
    std::snprintf(line, sizeof(line), "  %-16s %12.6f s  %6.2f%%\n", part_names[p], parts[p],
                  100.0 * parts[p] / std::max(1e-12, layer["table.trial_s"]));
    log << line;
  }
  std::snprintf(line, sizeof(line), "  %-16s %12.6f s  (sum of the parts above)\n",
                "traced trial", layer["table.trial_s"]);
  log << line;
  std::snprintf(line, sizeof(line), "  untraced trial   %12.6f s  trace overhead %.4f x\n",
                attached_s, layer["trace.overhead"]);
  log << line;

  if (!opt.trace_out.empty()) {
    write_chrome_trace(opt.trace_out, w, ledger.trials, best);
    log << "wrote Chrome trace " << opt.trace_out << "\n";
  }

  Result res;
  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  res.correct = ledger.failed == 0;
  for (const LayerMetric& m : layer_metrics()) {
    res.metrics.push_back({m.name, m.unit, layer.count(m.name) ? layer[m.name] : 0.0});
  }
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cluster2_128k", "push_pull_128k",
                                                 "recovery_observed_128k",
                                                 "membership_churn_1k"};
  return names;
}

Workload make_workload(std::string_view name, std::uint32_t n_override) {
  Workload w;
  w.name = std::string(name);
  runner::ScenarioSpec& s = w.spec;
  s.name = w.name;
  s.trials = 1;
  s.threads = 1;
  s.engine_threads = 0;
  if (name == "cluster2_128k") {
    s.algorithm = "cluster2";
    s.n = 1u << 17;
    s.seed = 1402;
    w.seeds = 2;
  } else if (name == "push_pull_128k") {
    s.algorithm = "push_pull";
    s.n = 1u << 17;
    s.seed = 1512;
    w.seeds = 2;
    w.layer = AlgorithmLayer::kBaselines;
  } else if (name == "recovery_observed_128k") {
    // scenarios/partition.scn at 2^17 nodes.
    s.algorithm = "cluster1";
    s.n = 1u << 17;
    s.seed = 502;
    s.fault_fraction = 0.2;
    s.fault_strategy = sim::FaultStrategy::kSmallestIds;
    s.crash_round = 4;
    s.partition_round = 0;
    s.heal_round = 120;
    s.recovery = true;
    s.retry_budget = 1;
    w.seeds = 2;
    w.exports = true;
  } else if (name == "membership_churn_1k") {
    // scenarios/churn.scn's fault mix on the membership service.
    s.algorithm = "membership";
    s.n = 1024;
    s.seed = 23;
    s.join_rate = 0.8;
    s.crash_rate = 0.4;
    s.loss_schedule = "burst:0.2:2:6";
    s.byzantine_fraction = 0.05;
    w.seeds = 1;
    w.layer = AlgorithmLayer::kMembership;
    w.broadcast = false;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  if (n_override != 0) s.n = n_override;
  s.validate();
  return w;
}

std::vector<unsigned> trial_indices(const Workload& w) {
  std::vector<unsigned> out;
  for (unsigned t = 0; out.size() < w.seeds; ++t) {
    if (t >= 64 * w.seeds) throw std::runtime_error(w.name + ": too few trials with a surviving source");
    if (w.spec.crash_round < 0 || source_survives(w.spec, t)) out.push_back(t);
  }
  return out;
}

Result run(const Options& options, std::ostream& log) {
  // The budget covers the whole run: seed selection, warm-up and passes.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  const Workload w = make_workload(options.workload, options.n);
  return options.trace ? run_traced(w, options, deadline, log)
                       : run_untraced(w, options, deadline, log);
}

void write_result(std::ostream& os, const Result& result) {
  runner::JsonWriter j(os, /*compact=*/true);
  j.begin_object();
  j.kv("correct", result.correct);
  j.kv("attempted", result.attempted);
  j.kv("failed", result.failed);
  j.key("metrics").begin_object();
  for (const Metric& m : result.metrics) {
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("invalid metric name '" + m.name + "'");
    }
    j.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
  }
  j.end_object();
  j.end_object();
}

}  // namespace perfbench
