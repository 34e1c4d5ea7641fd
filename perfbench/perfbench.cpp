// perfbench — the repository benchmark's measuring program.
//
// Runs ONE workload, repeatedly, for a fixed wall budget and prints one JSON
// object per line: a provenance header, then the result. run.py builds this
// program from source, scrubs ambient SPIDER_* variables, and relays the
// result; run it through run.py:
//
//   python3 perfbench/run.py --workload churn-wf --seed 1 --seconds 30
//       --trace 0
//
// Every workload is built here from explicit ScenarioParams (no
// ScenarioParams::from_env), runs the serial engine (shards = 1) on one
// thread, and times calls to the library's PUBLIC functions only:
// SpiderNetwork::{SpiderNetwork, warm_paths, session},
// SimSession::{submit_topology, submit, advance_until, metrics,
// release_replayed, drain} and TraceSource::next. Nothing inside the
// library is instrumented.
//
// Untraced mode (--trace 0) reads the clock three times per repetition:
// before constructing the SpiderNetwork, when the session is ready, and when
// drain() returns. Traced mode (--trace 1) alternates untraced repetitions
// with traced ones that record one span per public call (wall and process
// CPU time, parent, repetition id), writes them as Chrome trace-event JSON,
// and reports per-layer sums, self times and counts. --seconds has no
// default here; run.py passes BENCHMARK.json's run_seconds.
#include <sys/resource.h>
#include <time.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/spider.hpp"
#include "workload/trace_binary.hpp"

namespace {

using spider::PaymentSpec;
using spider::Scheme;
using spider::SimMetrics;

// ---------------------------------------------------------------- workloads

struct WorkloadDef {
  const char* name;
  const char* scenario;
  Scheme scheme;
  int payments;
  bool streamed;  // replay a .sptr file in chunks, one snapshot per sim-second
};

// Sizes were chosen so one repetition takes 2-4 s on a 4-core x86 VM;
// METRICS.md records why each workload exists and what it loads.
constexpr WorkloadDef kWorkloads[] = {
    {"ripple-paper-wf", "ripple-full", Scheme::kSpiderWaterfilling, 6000,
     false},
    {"isp-dctcp-stream", "isp", Scheme::kSpiderDctcp, 120000, true},
    {"churn-wf", "lightning-churn", Scheme::kSpiderWaterfilling, 60000,
     false},
    {"isp-lp", "isp", Scheme::kSpiderLp, 6000, false},
};

constexpr std::size_t kStreamChunk = 4096;

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// splitmix64: spreads a small workload seed over the 64-bit seed space.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Nonzero, because ScenarioParams reads 0 as "scenario default".
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t salt) {
  return (mix(workload_seed ^ mix(salt)) >> 1) | 1;
}

struct Inputs {
  spider::ScenarioInstance scenario;
  std::uint64_t sim_seed = 0;
  std::string trace_path;  // streamed workloads: the .sptr replayed
};

/// Traces per run: each run measures this many traces drawn from its seed,
/// so trace-to-trace differences in work average out within the run.
constexpr int kTracesPerRun = 3;

/// The topology (and, for lightning-churn, its churn stream, which the
/// scenario seeds from the topology seed) is the scenario's fixed default,
/// as the paper evaluates one ISP and one Ripple graph; the workload seed
/// draws trace `index`'s payments and its simulation seed.
Inputs make_inputs(const WorkloadDef& w, std::uint64_t seed, int index) {
  spider::ScenarioParams params;
  params.payments = w.payments;
  params.shards = 1;
  const auto salt = static_cast<std::uint64_t>(index);
  params.traffic_seed = derive_seed(seed, 100 + salt);
  Inputs in;
  in.scenario = spider::build_scenario(w.scenario, params);
  in.sim_seed = derive_seed(seed, 200 + salt);
  return in;
}

// ------------------------------------------------------------------ clocks

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0;
}

// ----------------------------------------------------------------- tracing

struct Span {
  const char* name;
  const char* layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t cpu_start_ns;
  std::int64_t cpu_end_ns;
  int parent;  // index into Tracer::spans, -1 for a repetition's root
  int run;     // repetition id shared by every span of one repetition
};

class Tracer {
 public:
  int open(const char* name, const char* layer) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, wall_ns(), 0, cpu_ns(), 0, parent, run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.cpu_end_ns = cpu_ns();
    span.end_ns = wall_ns();
    stack_.pop_back();
  }
  void set_run(int run) { run_ = run; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

/// RAII span; a no-op when `tracer` is null (the untraced repetitions).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer ? tracer->open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

template <class F>
decltype(auto) timed(Tracer* tracer, const char* name, const char* layer,
                     F&& f) {
  const ScopedSpan span(tracer, name, layer);
  return std::forward<F>(f)();
}

// ------------------------------------------------------------- repetitions

struct Rep {
  double setup_s = 0.0;
  double total_s = 0.0;
  double warm_rss_mb = 0.0;
  std::size_t warm_pairs = 0;
  std::size_t warm_paths = 0;
  std::size_t submitted = 0;
  SimMetrics metrics;
  int first_span = 0;  // traced repetitions: [first_span, end_span)
  int end_span = 0;
};

/// One repetition: inputs -> ready session (setup) -> drain() (total).
/// `withhold_churn` runs the same inputs without the topology stream.
Rep run_once(const WorkloadDef& w, const Inputs& in, Tracer* tracer,
             bool withhold_churn) {
  const spider::ScenarioInstance& sc = in.scenario;
  const std::vector<PaymentSpec>& trace = sc.trace;
  Rep rep;
  if (tracer) rep.first_span = static_cast<int>(tracer->spans().size());
  const std::int64_t t0 = wall_ns();
  {
    const ScopedSpan root(tracer, "run", "bench");
    const spider::SpiderNetwork net = timed(
        tracer, "SpiderNetwork::SpiderNetwork", "core",
        [&] { return spider::SpiderNetwork(sc.graph, sc.config); });
    const double rss_before = tracer ? resident_mb() : 0.0;
    timed(tracer, "SpiderNetwork::warm_paths", "routing",
          [&] { net.warm_paths(trace); });
    if (tracer) rep.warm_rss_mb = resident_mb() - rss_before;
    spider::SessionOptions options;
    options.demand_hint = &trace;
    spider::SimSession session =
        timed(tracer, "SpiderNetwork::session", "core",
              [&] { return net.session(w.scheme, in.sim_seed, options); });
    rep.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;

    if (!withhold_churn && !sc.churn.empty())
      timed(tracer, "SimSession::submit_topology", "core",
            [&] { session.submit_topology(sc.churn); });
    if (w.streamed) {
      spider::TraceReaderOptions reader_options;
      reader_options.chunk_size = kStreamChunk;
      spider::BinaryTraceReader reader = timed(
          tracer, "BinaryTraceReader::BinaryTraceReader", "workload", [&] {
            return spider::BinaryTraceReader(in.trace_path, reader_options);
          });
      spider::TimePoint next_snapshot = spider::seconds(1.0);
      while (true) {
        const std::span<const PaymentSpec> chunk = timed(
            tracer, "TraceSource::next", "workload",
            [&] { return static_cast<spider::TraceSource&>(reader).next(); });
        if (chunk.empty()) break;
        timed(tracer, "SimSession::submit", "core",
              [&] { session.submit(chunk.data(), chunk.size()); });
        // Advance only to just before the newest submitted arrival (the
        // replay_trace contract that keeps streamed == batch), snapshotting
        // at every whole simulated second on the way, as a live dashboard
        // does.
        const spider::TimePoint target = chunk.back().arrival - 1;
        for (; next_snapshot <= target; next_snapshot += spider::seconds(1.0)) {
          timed(tracer, "SimSession::advance_until", "sim",
                [&] { return session.advance_until(next_snapshot); });
          timed(tracer, "SimSession::metrics", "core",
                [&] { return session.metrics(); });
        }
        timed(tracer, "SimSession::advance_until", "sim",
              [&] { return session.advance_until(target); });
        timed(tracer, "SimSession::release_replayed", "core",
              [&] { return session.release_replayed(); });
      }
    } else {
      timed(tracer, "SimSession::submit", "core",
            [&] { session.submit(trace); });
    }
    rep.metrics = timed(tracer, "SimSession::drain", "sim",
                        [&] { return session.drain(); });
    rep.submitted = session.submitted();
    if (const spider::PathCache* store = net.path_store()) {
      rep.warm_pairs = store->pair_count();
      rep.warm_paths = store->path_count();
    }
  }
  rep.total_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  if (tracer) rep.end_span = static_cast<int>(tracer->spans().size());
  return rep;
}

// ------------------------------------------------------------------ checks

/// Appends a message to `errors` for each §6.1 / accounting invariant
/// `m` violates.
void check_metrics(const SimMetrics& m, std::size_t submitted,
                   std::vector<std::string>& errors) {
  if (m.attempted_count != static_cast<std::int64_t>(submitted))
    errors.push_back("attempted_count " + std::to_string(m.attempted_count) +
                     " != payments submitted " + std::to_string(submitted));
  const std::int64_t causes = m.failed_timeout + m.failed_churn +
                              m.failed_fault + m.failed_no_path +
                              m.admission_refused;
  if (causes != m.expired_count + m.rejected_count)
    errors.push_back("failure causes sum to " + std::to_string(causes) +
                     ", expired + rejected is " +
                     std::to_string(m.expired_count + m.rejected_count));
  for (const double ratio : {m.success_ratio(), m.success_volume()})
    if (!(ratio >= 0.0 && ratio <= 1.0))
      errors.push_back("success ratio " + std::to_string(ratio) +
                       " outside [0, 1]");
  if (m.attempted_count <= 0) errors.push_back("no payment attempted");
}

// ----------------------------------------------------------------- helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_number(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(x) ? x : 0.0);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// FNV-1a over the counters that define a run's simulated outcome; equal
/// seeds must print equal digests from any process.
std::uint64_t metrics_digest(const SimMetrics& m) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const std::int64_t fields[] = {
      m.attempted_count, m.attempted_volume,  m.completed_count,
      m.completed_volume, m.delivered_volume, m.expired_count,
      m.rejected_count,  m.chunks_sent,       m.plans_requested,
      static_cast<std::int64_t>(m.events_processed),
      m.chunks_queued,   m.queue_timeouts,    m.chunks_marked,
      m.pace_rounds,     m.topology_changes,  m.failed_timeout,
      m.failed_churn,    m.failed_no_path};
  for (const std::int64_t field : fields) {
    std::uint64_t bits = static_cast<std::uint64_t>(field);
    for (int i = 0; i < 8; ++i) {
      h ^= bits & 0xFF;
      h *= 0x100000001B3ULL;
      bits >>= 8;
    }
  }
  return h;
}

void write_chrome_trace(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin =
      tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.layer)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
        << ",\"ts\":" << json_number((s.start_ns - origin) * 1e-3)
        << ",\"dur\":" << json_number((s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << ",\"cpu_us\":"
        << json_number((s.cpu_end_ns - s.cpu_start_ns) * 1e-3) << "}}";
  }
  out << "\n]}\n";
}

/// Per-repetition sums over a traced repetition's spans.
struct SpanSums {
  std::map<std::string, double> wall_s;   // by span name
  std::map<std::string, double> cpu_s;    // by span name
  std::map<std::string, int> calls;       // by span name
  std::map<std::string, double> self_s;   // by layer
  double last_snapshot_ms = 0.0;
};

SpanSums sum_spans(const Tracer& tracer, const Rep& rep) {
  SpanSums sums;
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (int i = rep.first_span; i < rep.end_span; ++i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  for (int i = rep.first_span; i < rep.end_span; ++i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    const double wall = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    sums.wall_s[s.name] += wall;
    sums.cpu_s[s.name] +=
        static_cast<double>(s.cpu_end_ns - s.cpu_start_ns) * 1e-9;
    sums.calls[s.name] += 1;
    sums.self_s[s.layer] += wall - child_s[static_cast<std::size_t>(i)];
    if (std::strcmp(s.name, "SimSession::metrics") == 0)
      sums.last_snapshot_ms = wall * 1e3;
  }
  return sums;
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // required
  bool trace = false;
  std::string out_dir = ".";
  std::string dump_inputs;  // directory: write the inputs and exit
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value != "0";
    else if (flag == "--out") args.out_dir = value;
    else if (flag == "--dump-inputs") args.dump_inputs = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!find_workload(args.workload))
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  if (args.seconds < 0.0)
    throw std::invalid_argument("--seconds is required and must be >= 0");
  return args;
}

void dump_inputs(const std::vector<Inputs>& inputs, const std::string& dir) {
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    const Inputs& in = inputs[j];
    const std::string prefix = dir + "/" + std::to_string(j) + "-";
    spider::write_topology_binary(in.scenario.graph, prefix + "topology.sptp");
    spider::write_trace_binary(prefix + "trace.sptr", in.scenario.trace);
    std::ofstream churn(prefix + "churn.csv");
    for (const spider::TopologyChange& c : in.scenario.churn)
      churn << c.at << ',' << static_cast<int>(c.kind) << ',' << c.a << ','
            << c.b << ',' << c.edge << ',' << c.side << ',' << c.amount
            << '\n';
    std::ofstream(prefix + "sim_seed.txt") << in.sim_seed << '\n';
  }
}

// Repetition kinds. Untraced runs repeat U per trace; traced runs repeat
// U and T (traced) per trace, plus W (traced, churn stream withheld) when the
// scenario has churn, so tracing overhead and churn overhead are measured
// against neighbours under the same host conditions.
enum class Kind { kUntraced, kTraced, kWithheld };

struct Sample {
  Kind kind;
  int trace;  // index into the run's inputs
  Rep rep;
  SpanSums sums;  // traced kinds only
};

/// Mean over the run's traces of the median over that trace's samples of
/// `kind`: every trace weighs the same however many repetitions it got.
template <class F>
double per_trace(const std::vector<Sample>& samples, int traces, Kind kind,
                 F value) {
  double total = 0.0;
  for (int j = 0; j < traces; ++j) {
    std::vector<double> v;
    for (const Sample& s : samples)
      if (s.kind == kind && s.trace == j) v.push_back(value(s));
    total += median(v);
  }
  return total / traces;
}

double named(const std::map<std::string, double>& sums, const char* name) {
  const auto it = sums.find(name);
  return it == sums.end() ? 0.0 : it->second;
}

/// Time from a ready session to drain(): the root span minus the setup calls.
double run_s(const SpanSums& s) {
  return named(s.wall_s, "run") -
         named(s.wall_s, "SpiderNetwork::SpiderNetwork") -
         named(s.wall_s, "SpiderNetwork::warm_paths") -
         named(s.wall_s, "SpiderNetwork::session");
}

std::vector<Metric> per_layer_metrics(const std::vector<Sample>& samples,
                                      const std::vector<SimMetrics>& outcome,
                                      int traces, bool churn,
                                      double generate_s) {
  const auto traced = [&](auto value) {
    return per_trace(samples, traces, Kind::kTraced, value);
  };
  const auto wall = [&](const char* name) {
    return traced([name](const Sample& s) { return named(s.sums.wall_s, name); });
  };
  const auto cpu = [&](const char* name) {
    return traced([name](const Sample& s) { return named(s.sums.cpu_s, name); });
  };
  const auto self = [&](const char* layer) {
    return traced(
        [layer](const Sample& s) { return named(s.sums.self_s, layer); });
  };
  // Counts are exact per trace; report their total over the run's traces,
  // taken from each trace's first traced repetition.
  const auto count = [&](auto value) {
    double total = 0.0;
    for (int j = 0; j < traces; ++j)
      for (const Sample& s : samples)
        if (s.kind == Kind::kTraced && s.trace == j) {
          total += value(s);
          break;
        }
    return total;
  };
  const auto outcome_sum = [&](auto field) {
    double total = 0.0;
    for (const SimMetrics& m : outcome) total += static_cast<double>(field(m));
    return total;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const double warm_s = wall("SpiderNetwork::warm_paths");
  const double advance_s = wall("SimSession::advance_until");
  const double drain_s = wall("SimSession::drain");
  const double pairs =
      count([](const Sample& s) { return static_cast<double>(s.rep.warm_pairs); });
  const double events =
      outcome_sum([](const SimMetrics& m) { return m.events_processed; });
  const double plans =
      outcome_sum([](const SimMetrics& m) { return m.plans_requested; });
  const double chunks =
      outcome_sum([](const SimMetrics& m) { return m.chunks_sent; });
  const double queued =
      outcome_sum([](const SimMetrics& m) { return m.chunks_queued; });
  const double timeouts =
      outcome_sum([](const SimMetrics& m) { return m.queue_timeouts; });
  const double traced_total =
      traced([](const Sample& s) { return s.rep.total_s; });
  const double untraced_total = per_trace(
      samples, traces, Kind::kUntraced,
      [](const Sample& s) { return s.rep.total_s; });
  const double traced_run_s =
      traced([](const Sample& s) { return run_s(s.sums); });
  // Without a churn stream there is nothing to withhold: the overhead is 0.
  const double churn_overhead_s =
      churn ? traced_run_s - per_trace(samples, traces, Kind::kWithheld,
                                       [](const Sample& s) {
                                         return run_s(s.sums);
                                       })
            : 0.0;

  return {
      {"routing.warm_s", warm_s, "s"},
      {"routing.warm_us_per_pair", ratio(warm_s * traces * 1e6, pairs), "us"},
      {"routing.warm_pairs", pairs, "count"},
      {"routing.warm_paths",
       count([](const Sample& s) {
         return static_cast<double>(s.rep.warm_paths);
       }),
       "count"},
      {"routing.warm_rss_mb",
       traced([](const Sample& s) { return s.rep.warm_rss_mb; }), "MB"},
      {"routing.warm_cpu_s", cpu("SpiderNetwork::warm_paths"), "s"},
      {"routing.churn_overhead_s", churn_overhead_s, "s"},
      {"routing.topology_changes",
       outcome_sum([](const SimMetrics& m) { return m.topology_changes; }),
       "count"},
      {"core.network_s", wall("SpiderNetwork::SpiderNetwork"), "s"},
      {"core.session_open_s", wall("SpiderNetwork::session"), "s"},
      {"core.session_open_cpu_s", cpu("SpiderNetwork::session"), "s"},
      {"core.submit_s",
       wall("SimSession::submit") + wall("SimSession::submit_topology"), "s"},
      {"core.release_s", wall("SimSession::release_replayed"), "s"},
      {"core.snapshot_s", wall("SimSession::metrics"), "s"},
      {"core.snapshots",
       count([](const Sample& s) {
         const auto it = s.sums.calls.find("SimSession::metrics");
         return it == s.sums.calls.end() ? 0.0
                                         : static_cast<double>(it->second);
       }),
       "count"},
      {"core.snapshot_last_ms",
       traced([](const Sample& s) { return s.sums.last_snapshot_ms; }), "ms"},
      {"core.run_s", traced_run_s, "s"},
      {"sim.advance_s", advance_s, "s"},
      {"sim.advance_cpu_s", cpu("SimSession::advance_until"), "s"},
      {"sim.drain_s", drain_s, "s"},
      {"sim.drain_cpu_s", cpu("SimSession::drain"), "s"},
      {"sim.ns_per_event", ratio((advance_s + drain_s) * traces * 1e9, events),
       "ns"},
      {"sim.events", events, "count"},
      {"sim.plans", plans, "count"},
      {"sim.chunks_sent", chunks, "count"},
      {"sim.chunk_yield", ratio(chunks, plans), "ratio"},
      {"transport.chunks_queued", queued, "count"},
      {"transport.queue_timeouts", timeouts, "count"},
      {"transport.timeout_ratio", ratio(timeouts, queued), "ratio"},
      {"transport.chunks_marked",
       outcome_sum([](const SimMetrics& m) { return m.chunks_marked; }),
       "count"},
      {"transport.pace_rounds",
       outcome_sum([](const SimMetrics& m) { return m.pace_rounds; }),
       "count"},
      {"workload.generate_s", generate_s, "s"},
      {"workload.parse_s",
       wall("TraceSource::next") +
           wall("BinaryTraceReader::BinaryTraceReader"),
       "s"},
      {"self.bench_s", self("bench"), "s"},
      {"self.core_s", self("core"), "s"},
      {"self.routing_s", self("routing"), "s"},
      {"self.sim_s", self("sim"), "s"},
      {"self.workload_s", self("workload"), "s"},
      {"trace.total_s", traced_total, "s"},
      {"trace.cpu_wall_ratio",
       traced([&ratio](const Sample& s) {
         return ratio(named(s.sums.cpu_s, "run"), named(s.sums.wall_s, "run"));
       }),
       "ratio"},
      {"trace.overhead_ratio", ratio(traced_total, untraced_total), "ratio"},
      {"trace.spans",
       count([](const Sample& s) {
         return static_cast<double>(s.rep.end_span - s.rep.first_span);
       }),
       "count"},
  };
}

int run(const Args& args) {
  const WorkloadDef& w = *find_workload(args.workload);

  const std::int64_t gen_start = wall_ns();
  std::vector<Inputs> inputs;
  for (int j = 0; j < kTracesPerRun; ++j)
    inputs.push_back(make_inputs(w, args.seed, j));
  const double generate_s = static_cast<double>(wall_ns() - gen_start) * 1e-9;
  if (!args.dump_inputs.empty()) {
    dump_inputs(inputs, args.dump_inputs);
    return 0;
  }
  if (w.streamed) {
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      inputs[j].trace_path = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-" +
                             std::to_string(j) + ".sptr";
      spider::write_trace_binary(inputs[j].trace_path,
                                 inputs[j].scenario.trace);
    }
  }

  const spider::ScenarioInstance& first = inputs.front().scenario;
  std::printf("{\"provenance\":{\"workload\":%s,\"seed\":%llu,"
              "\"compiler\":%s,\"build_type\":%s,\"traces\":%d,"
              "\"payments_per_trace\":%zu,\"nodes\":%d,\"channels\":%d,"
              "\"topology_changes\":%zu,\"scheme\":%s,\"shards\":%d}}\n",
              json_string(w.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              json_string(PERFBENCH_COMPILER).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(), kTracesPerRun,
              first.trace.size(), static_cast<int>(first.graph.num_nodes()),
              static_cast<int>(first.graph.num_edges()), first.churn.size(),
              json_string(spider::scheme_name(w.scheme)).c_str(),
              first.config.shards);
  std::fflush(stdout);

  const bool churn = !first.churn.empty();
  std::vector<Kind> cycle{Kind::kUntraced};
  if (args.trace) cycle.push_back(Kind::kTraced);
  if (args.trace && churn) cycle.push_back(Kind::kWithheld);
  // Untraced runs take at least two rounds, so every trace's outcome is
  // checked against a repeat; traced runs compare U with T within a round.
  const int min_rounds = args.trace ? 1 : 2;
  const int traces = static_cast<int>(inputs.size());

  Tracer tracer;
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  // Operations are the repetitions plus the streamed-vs-batch comparison;
  // one fails when any of its correctness checks does.
  std::size_t operations = 0;
  std::size_t failed = 0;
  auto account = [&](std::size_t errors_before) {
    ++operations;
    if (errors.size() > errors_before) ++failed;
  };
  // reference[j][withheld]: the first outcome seen for each trace and kind;
  // every later repetition must reproduce it exactly.
  std::vector<std::array<std::optional<SimMetrics>, 2>> reference(
      inputs.size());
  const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t loop_start = wall_ns();
  std::int64_t longest_round_ns = 0;
  for (int rounds = 1;; ++rounds) {
    const std::int64_t round_start = wall_ns();
    for (int j = 0; j < traces; ++j) {
      const Inputs& in = inputs[static_cast<std::size_t>(j)];
      for (const Kind kind : cycle) {
        malloc_trim(0);  // each repetition starts from a trimmed heap
        const std::size_t errors_before = errors.size();
        tracer.set_run(static_cast<int>(samples.size()));
        Sample sample{kind, j,
                      run_once(w, in,
                               kind == Kind::kUntraced ? nullptr : &tracer,
                               kind == Kind::kWithheld),
                      {}};
        const Rep& rep = sample.rep;
        check_metrics(rep.metrics, rep.submitted, errors);
        if (rep.submitted != in.scenario.trace.size())
          errors.push_back("submitted " + std::to_string(rep.submitted) +
                           " of " + std::to_string(in.scenario.trace.size()) +
                           " payments");
        std::optional<SimMetrics>& ref =
            reference[static_cast<std::size_t>(j)][kind == Kind::kWithheld];
        if (!ref) ref = rep.metrics;
        else if (!(*ref == rep.metrics))
          errors.push_back("simulated metrics differ between repetitions");
        account(errors_before);
        if (kind != Kind::kUntraced) sample.sums = sum_spans(tracer, rep);
        samples.push_back(std::move(sample));
      }
    }
    const std::int64_t now = wall_ns();
    longest_round_ns = std::max(longest_round_ns, now - round_start);
    // Stop once another round would overrun the budget.
    if (rounds >= min_rounds &&
        now - loop_start + longest_round_ns > budget_ns)
      break;
  }
  // Read before the batch reference run below, which holds the whole trace
  // and its payment state: the figure covers input generation and the timed
  // repetitions only.
  const double peak_mb = peak_rss_mb();

  // Streamed workloads must reproduce a batch run() of the same trace.
  if (w.streamed) {
    const std::size_t errors_before = errors.size();
    const Inputs& in = inputs.front();
    const spider::SpiderNetwork net(in.scenario.graph, in.scenario.config);
    const SimMetrics batch = net.run(w.scheme, in.scenario.trace, in.sim_seed,
                                     in.scenario.churn);
    if (!(batch == *reference.front()[0]))
      errors.push_back("streamed metrics differ from the batch run()");
    account(errors_before);
  }

  std::vector<SimMetrics> outcome;
  for (const auto& ref : reference) outcome.push_back(*ref[0]);
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer_metrics(samples, outcome, traces, churn, generate_s);
    write_chrome_trace(args.out_dir + "/trace-" + w.name + "-seed" +
                           std::to_string(args.seed) + ".json",
                       tracer);
  } else {
    double completed = 0.0;
    double attempted = 0.0;
    double delivered = 0.0;
    double volume = 0.0;
    for (const SimMetrics& m : outcome) {
      completed += static_cast<double>(m.completed_count);
      attempted += static_cast<double>(m.attempted_count);
      delivered += static_cast<double>(m.delivered_volume);
      volume += static_cast<double>(m.attempted_volume);
    }
    metrics = {
        {"setup_s",
         per_trace(samples, traces, Kind::kUntraced,
                   [](const Sample& s) { return s.rep.setup_s; }),
         "s"},
        {"total_s",
         per_trace(samples, traces, Kind::kUntraced,
                   [](const Sample& s) { return s.rep.total_s; }),
         "s"},
        {"peak_rss_mb", peak_mb, "MB"},
        {"success_ratio", completed / attempted, "ratio"},
        {"success_volume", delivered / volume, "ratio"},
    };
  }

  std::uint64_t digest = 0;
  for (const SimMetrics& m : outcome) digest = mix(digest ^ metrics_digest(m));
  std::printf("{\"check\":{\"metrics_digest\":\"%016llx\","
              "\"repetitions\":%zu,\"threads\":%d,\"samples\":[",
              static_cast<unsigned long long>(digest), samples.size(),
              thread_count());
  for (std::size_t i = 0; i < samples.size(); ++i)
    std::printf("%s[%d,%d,%.6f,%.6f]", i ? "," : "",
                static_cast<int>(samples[i].kind), samples[i].trace,
                samples[i].rep.setup_s, samples[i].rep.total_s);
  std::printf("],\"errors\":[");
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i)
    std::printf("%s%s", i ? "," : "", json_string(errors[i]).c_str());
  std::printf("]}}\n");

  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{",
              errors.empty() ? "true" : "false", operations, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s%s:{\"value\":%s,\"unit\":%s}", i ? "," : "",
                json_string(metrics[i].name).c_str(),
                json_number(metrics[i].value).c_str(),
                json_string(metrics[i].unit).c_str());
  std::printf("}}\n");
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
