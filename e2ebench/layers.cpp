// tdt_layers — the benchmark's traced run. Each subcommand assembles one
// benchmark operation from the public include/tdt API, with timing
// decorators (Timed) between the stages, and prints one JSON object of
// per-layer figures on stdout. The same operation is also run without
// decorators, so the tracing overhead is measured rather than assumed.
//
//   tdt_layers sweep <trace> <sweep-spec> <jobs> <reps>
//   tdt_layers transform <trace> <rules> <xform-out> <size> <block> <assoc>
//                        <repl> <reps>
//   tdt_layers local <requests.tsv> <threads>
//   tdt_layers serve <socket> <requests.tsv> <hit-rounds>
//
// requests.tsv holds one tdtune argument vector per line, tab-separated.
// `local` runs each through the tdtune tool body in-process (the code a
// tdtd worker runs) and prints one JSON line per request; `serve` does
// that, sends the same request to a running tdtd through
// service::Session, and profiles the request through the API.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <ostream>
#include <map>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "tdt/service.hpp"
#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"

namespace {

using namespace tdt;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Decorator that charges the time spent below it to one layer. Each
/// instance is driven by one thread only (the fan-out gives every sink
/// to exactly one worker), so plain counters suffice.
class Timed final : public trace::TraceSink {
 public:
  explicit Timed(trace::TraceSink& next) : next_(next) {}

  void on_record(const trace::TraceRecord& rec) override {
    const auto t0 = Clock::now();
    next_.on_record(rec);
    charge(t0);
  }
  void push_batch(std::span<const trace::TraceRecord> batch) override {
    const auto t0 = Clock::now();
    next_.push_batch(batch);
    charge(t0);
  }
  void push_batch_owned(std::vector<trace::TraceRecord>&& batch) override {
    const auto t0 = Clock::now();
    next_.push_batch_owned(std::move(batch));
    charge(t0);
  }
  void on_end() override {
    const auto t0 = Clock::now();
    next_.on_end();
    charge(t0);
  }

  [[nodiscard]] double ms() const noexcept { return busy_ns_ / 1e6; }
  [[nodiscard]] double ns() const noexcept { return busy_ns_; }

 private:
  void charge(Clock::time_point t0) {
    busy_ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
  }

  trace::TraceSink& next_;
  double busy_ns_ = 0;
};

/// Discarding streambuf that counts the bytes written through it (the
/// diagnostic text a tool would print on stderr).
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) ++bytes_;
    return ch == traits_type::eof() ? 0 : ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(ch));
    } else if (ch < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out.push_back(static_cast<char>(ch));
    }
  }
  return out;
}

/// Flat JSON object of named numbers, printed in key order.
class Figures {
 public:
  void set(const std::string& key, double value) { items_[key] = value; }
  void print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [k, v] : items_) {
      std::printf("%s\"%s\": %.9g", first ? "" : ", ", k.c_str(), v);
      first = false;
    }
    std::printf("}\n");
  }

 private:
  std::map<std::string, double> items_;
};

cache::CacheConfig make_config(const char* size, const char* block,
                               const char* assoc, const char* repl) {
  cache::CacheConfig c;
  c.size = std::strtoull(size, nullptr, 10);
  c.block_size = std::strtoull(block, nullptr, 10);
  c.assoc = static_cast<std::uint32_t>(std::strtoul(assoc, nullptr, 10));
  c.replacement = cache::parse_replacement_policy(repl);
  c.validate();
  return c;
}

// ------------------------------------------------------------- sweep

struct SweepOp {
  double wall_ms = 0, run_ms = 0, fan_ms = 0, sim_ns = 0, worker_busy_ms = 0;
  std::uint64_t records = 0, accesses = 0, misses = 0, stalls = 0, idle = 0;
};

/// One `dinerosim --trace T --sweep S --jobs J` assembled from the API:
/// source -> [Timed] -> ParallelFanOut -> per point [Timed] -> TraceCacheSim.
SweepOp sweep_once(const std::string& path, const std::string& spec,
                   std::size_t jobs, bool traced) {
  SweepOp op;
  const auto t0 = Clock::now();
  trace::TraceContext ctx;
  DiagEngine diags;
  cache::ParallelSweep engine(cache::parse_sweep_spec(spec, {}));
  std::vector<trace::TraceSink*> sinks = engine.sinks();
  std::deque<Timed> point_timers;
  if (traced) {
    for (trace::TraceSink*& s : sinks) s = &point_timers.emplace_back(*s);
  }
  // A registry makes the fan-out record per-batch worker latency.
  std::optional<obs::Registry> registry;
  trace::ParallelOptions fan_options;
  fan_options.jobs = jobs <= 1 ? 0 : jobs;
  if (traced) fan_options.registry = &registry.emplace("tdt_layers");
  trace::ParallelFanOut fan(sinks, fan_options);
  Timed fan_timer(fan);
  trace::ViewSourceOptions source_options;
  source_options.diags = &diags;
  source_options.jobs = static_cast<int>(jobs);
  const trace::View source = trace::View::source(ctx, path, source_options);
  trace::Graph graph;
  graph.add_sink(source, traced ? static_cast<trace::TraceSink&>(fan_timer)
                                : static_cast<trace::TraceSink&>(fan));
  const auto t1 = Clock::now();
  const trace::GraphResult result = graph.run({});
  const auto t2 = Clock::now();
  static_cast<void>(engine.report());  // the tool prints it: part of the op
  op.wall_ms = ms_between(t0, Clock::now());
  op.run_ms = ms_between(t1, t2);
  op.fan_ms = fan_timer.ms();
  for (const Timed& t : point_timers) op.sim_ns += t.ns();
  const trace::PipelineCounters& pc = fan.counters();
  for (const trace::WorkerCounters& w : pc.workers) {
    op.worker_busy_ms += static_cast<double>(w.batch_latency_us.sum) / 1e3;
    op.stalls += w.push_stalls;
    op.idle += w.pop_stalls;
  }
  op.records = result.records;
  const cache::LevelStats merged = engine.merged_l1();
  op.accesses = merged.accesses();
  op.misses = merged.misses();
  return op;
}

int cmd_sweep(char** argv) {
  const std::string path = argv[2], spec = argv[3];
  const auto jobs = static_cast<std::size_t>(std::strtoul(argv[4], nullptr, 10));
  const int reps = std::atoi(argv[5]);
  std::vector<double> wall, plain, read, read_rate, fan, sim, ns_acc, busy,
      stalls, idle, unattributed;
  SweepOp last;
  for (int i = 0; i < reps; ++i) {
    plain.push_back(sweep_once(path, spec, jobs, false).wall_ms);
    const SweepOp op = sweep_once(path, spec, jobs, true);
    const double read_ms = op.run_ms - op.fan_ms;
    wall.push_back(op.wall_ms);
    read.push_back(read_ms);
    read_rate.push_back(static_cast<double>(op.records) / (read_ms * 1e3));
    fan.push_back(op.fan_ms);
    sim.push_back(op.sim_ns / 1e6);
    ns_acc.push_back(op.sim_ns / static_cast<double>(op.accesses));
    busy.push_back(op.worker_busy_ms);
    stalls.push_back(static_cast<double>(op.stalls));
    idle.push_back(static_cast<double>(op.idle));
    unattributed.push_back(op.wall_ms - read_ms - op.fan_ms);
    last = op;
  }
  Figures f;
  f.set("op_ms", median(wall));
  f.set("trace.read.busy_ms", median(read));
  f.set("trace.read.mrec_per_s", median(read_rate));
  f.set("trace.fanout.wait_ms", median(fan));
  f.set("trace.fanout.worker_busy_ms", median(busy));
  f.set("trace.fanout.stalls", median(stalls));
  f.set("trace.fanout.idle_waits", median(idle));
  f.set("cache.sim.busy_ms", median(sim));
  f.set("cache.sim.ns_per_access", median(ns_acc));
  f.set("cache.sim.accesses", static_cast<double>(last.accesses));
  f.set("cache.sim.misses", static_cast<double>(last.misses));
  f.set("records", static_cast<double>(last.records));
  f.set("layers.unattributed_ms", median(unattributed));
  f.set("layers.trace_overhead_ms", median(wall) - median(plain));
  f.print();
  return 0;
}

// --------------------------------------------------------- transform

struct TransformOp {
  double wall_ms = 0, run_ms = 0, xform_ms = 0, write_ms = 0, sim_ms = 0;
  std::uint64_t records = 0, diag_bytes = 0, out_bytes = 0, accesses = 0,
                misses = 0;
  core::TransformStats stats;
};

/// One `dinerosim --trace T --rules R --xform-out F <cache>` assembled
/// from the API: source -> [Timed] -> TraceTransformer -> Tee{[Timed]
/// WriterSink, [Timed] TraceCacheSim}.
TransformOp transform_once(char** argv, bool traced) {
  TransformOp op;
  const auto t0 = Clock::now();
  const core::RuleSet rules = load_rules(argv[3]);
  trace::TraceContext ctx;
  CountingBuf diag_buf;
  std::ostream diag_stream(&diag_buf);
  DiagEngine diags;
  diags.set_echo(&diag_stream);
  cache::CacheHierarchy hierarchy(
      make_config(argv[5], argv[6], argv[7], argv[8]));
  cache::TraceCacheSim sim(hierarchy);
  std::ofstream out_file(argv[4], std::ios::out);
  std::optional<Timed> write_timer, sim_timer, xform_timer;
  {
    trace::WriterSink writer(ctx, out_file);
    trace::TraceSink* w = &writer;
    trace::TraceSink* s = &sim;
    if (traced) {
      w = &write_timer.emplace(writer);
      s = &sim_timer.emplace(sim);
    }
    trace::TeeSink tee({w, s});
    core::TransformOptions xopt;
    xopt.diags = &diags;
    core::TraceTransformer transformer(rules, ctx, tee, xopt);
    trace::TraceSink* head = &transformer;
    if (traced) head = &xform_timer.emplace(transformer);
    trace::ViewSourceOptions source_options;
    source_options.diags = &diags;
    const trace::View source = trace::View::source(ctx, argv[2], source_options);
    trace::Graph graph;
    graph.add_sink(source, *head);
    const auto t1 = Clock::now();
    op.records = graph.run({}).records;
    op.run_ms = ms_between(t1, Clock::now());
    op.stats = transformer.stats();
  }
  out_file.close();
  static_cast<void>(hierarchy.report());  // the tool prints it
  op.wall_ms = ms_between(t0, Clock::now());
  if (traced) {
    op.write_ms = write_timer->ms();
    op.sim_ms = sim_timer->ms();
    op.xform_ms = xform_timer->ms() - op.write_ms - op.sim_ms;
  }
  op.diag_bytes = diag_buf.bytes();
  std::ifstream sized(argv[4], std::ios::binary | std::ios::ate);
  op.out_bytes = static_cast<std::uint64_t>(sized.tellg());
  const cache::LevelStats& l1 = hierarchy.l1().stats();
  op.accesses = l1.accesses();
  op.misses = l1.misses();
  return op;
}

int cmd_transform(char** argv) {
  const int reps = std::atoi(argv[9]);
  std::vector<double> wall, plain, read, read_rate, xform, write, sim, ns_acc,
      unattributed;
  TransformOp last;
  for (int i = 0; i < reps; ++i) {
    plain.push_back(transform_once(argv, false).wall_ms);
    const TransformOp op = transform_once(argv, true);
    const double read_ms = op.run_ms - op.xform_ms - op.write_ms - op.sim_ms;
    wall.push_back(op.wall_ms);
    read.push_back(read_ms);
    read_rate.push_back(static_cast<double>(op.records) / (read_ms * 1e3));
    xform.push_back(op.xform_ms);
    write.push_back(op.write_ms);
    sim.push_back(op.sim_ms);
    ns_acc.push_back(op.sim_ms * 1e6 / static_cast<double>(op.accesses));
    unattributed.push_back(op.wall_ms - op.run_ms);
    last = op;
  }
  const core::TransformStats& s = last.stats;
  Figures f;
  f.set("op_ms", median(wall));
  f.set("trace.read.busy_ms", median(read));
  f.set("trace.read.mrec_per_s", median(read_rate));
  f.set("trace.write.busy_ms", median(write));
  f.set("trace.write.mb", static_cast<double>(last.out_bytes) / 1e6);
  f.set("core.transform.busy_ms", median(xform));
  f.set("core.transform.rewritten", static_cast<double>(s.rewritten));
  f.set("core.transform.inserted", static_cast<double>(s.inserted));
  f.set("core.transform.skipped", static_cast<double>(s.skipped));
  f.set("core.transform.fit_ratio",
        static_cast<double>(s.rewritten) /
            static_cast<double>(std::max<std::uint64_t>(1, s.rewritten + s.skipped)));
  f.set("core.plan.hit_ratio",
        static_cast<double>(s.plan_hits) /
            static_cast<double>(std::max<std::uint64_t>(1, s.plan_hits + s.plan_misses)));
  f.set("core.diag.mb", static_cast<double>(last.diag_bytes) / 1e6);
  f.set("cache.sim.busy_ms", median(sim));
  f.set("cache.sim.ns_per_access", median(ns_acc));
  f.set("cache.sim.accesses", static_cast<double>(last.accesses));
  f.set("cache.sim.misses", static_cast<double>(last.misses));
  f.set("records", static_cast<double>(last.records));
  f.set("layers.unattributed_ms", median(unattributed));
  f.set("layers.trace_overhead_ms", median(wall) - median(plain));
  f.print();
  return 0;
}

// ------------------------------------------------------------- serve

std::vector<std::vector<std::string>> read_requests(const char* path) {
  std::ifstream in(path);
  if (!in) throw_io_error(std::string("cannot open ") + path);
  std::vector<std::vector<std::string>> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> args;
    std::stringstream ss(line);
    std::string a;
    while (std::getline(ss, a, '\t')) args.push_back(a);
    requests.push_back(std::move(args));
  }
  return requests;
}

struct LocalRun {
  int exit = 0;
  std::string out;
  double ms = 0;
};

/// The tdtune tool body in-process, wrapped exactly as a tdtd worker
/// wraps it (tools::run_tool_body over captured streams).
LocalRun run_local(const std::vector<std::string>& args) {
  std::vector<std::string> storage{"tdtune"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  LocalRun run;
  const auto t0 = Clock::now();
  service::CaptureIO capture;
  run.exit = tools::run_tool_body("tdtune", capture.io(), [&] {
    return tools::tdtune_run(capture.io(), static_cast<int>(argv.size()),
                             argv.data());
  });
  run.out = capture.out_bytes();
  run.ms = ms_between(t0, Clock::now());
  return run;
}

int cmd_local(char** argv) {
  const auto requests = read_requests(argv[2]);
  const std::size_t threads =
      std::max<std::size_t>(1, std::strtoul(argv[3], nullptr, 10));
  std::vector<LocalRun> runs(requests.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        try {
          runs[i] = run_local(requests[i]);
        } catch (const std::exception& e) {
          runs[i].exit = -1;  // never a tool exit code: the check fails
          runs[i].out = e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("{\"i\": %zu, \"exit\": %d, \"ms\": %.6f, \"stdout\": \"%s\"}\n",
                i, runs[i].exit, runs[i].ms, json_escape(runs[i].out).c_str());
  }
  return 0;
}

std::string flag_value(const std::vector<std::string>& args,
                       const std::string& flag, const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

struct Profiled {
  double wall_ms = 0, read_ms = 0, profile_ms = 0, rank_ms = 0;
  std::size_t candidates = 0;
  std::uint64_t records = 0;
  std::uint64_t baseline_accesses = 0, baseline_misses = 0;
};

/// One autotune request assembled from the API the way tdtune wires it:
/// source -> {[Timed] VectorSink, [Timed] AffinityCollector}, then
/// generate_candidates and Autotuner::evaluate over one cache point.
Profiled profile_request(const std::vector<std::string>& args) {
  Profiled p;
  const auto t0 = Clock::now();
  trace::TraceContext ctx;
  DiagEngine diags;
  analysis::AffinityOptions affinity_options;
  affinity_options.window = static_cast<std::uint32_t>(
      std::stoul(flag_value(args, "--window", "32")));
  analysis::AffinityCollector affinity(ctx, affinity_options);
  trace::VectorSink recorder;
  Timed record_timer(recorder), affinity_timer(affinity);
  trace::ViewSourceOptions source_options;
  source_options.diags = &diags;
  const trace::View source =
      trace::View::source(ctx, flag_value(args, "--trace", ""), source_options);
  trace::Graph graph;
  graph.add_sink(source, record_timer);
  graph.add_sink(source, affinity_timer);
  const auto t1 = Clock::now();
  graph.run({});
  const auto t2 = Clock::now();
  const std::vector<trace::TraceRecord> records = recorder.take();
  p.records = records.size();
  const analysis::AutotuneOptions options;
  std::vector<analysis::Candidate> candidates =
      analysis::generate_candidates(affinity.structs(), options);
  p.candidates = candidates.size();
  const auto t3 = Clock::now();
  cache::SweepPoint point;
  point.levels.push_back(make_config(
      flag_value(args, "--size", "32768").c_str(),
      flag_value(args, "--block", "32").c_str(),
      flag_value(args, "--assoc", "1").c_str(),
      flag_value(args, "--repl", "lru").c_str()));
  const analysis::Autotuner tuner(ctx, options);
  const analysis::AutotuneResult result =
      tuner.evaluate(records, std::move(candidates), {point}, {}, {}, 1);
  static_cast<void>(result.table());  // the tool prints it
  const auto t4 = Clock::now();
  p.wall_ms = ms_between(t0, t4);
  p.read_ms = ms_between(t1, t2) - affinity_timer.ms();
  p.profile_ms = affinity_timer.ms() + ms_between(t2, t3);
  p.rank_ms = ms_between(t3, t4);
  p.baseline_accesses = result.baseline.accesses;
  p.baseline_misses = result.baseline.misses;
  return p;
}

int cmd_serve(char** argv) {
  const std::string socket = argv[2];
  const auto requests = read_requests(argv[3]);
  const int hit_rounds = std::atoi(argv[4]);
  service::Session session(socket);
  std::vector<double> overhead, read, profile, rank, per_candidate, cands,
      unattributed, hits, traced, plain, read_rate;
  int mismatches = 0;
  std::uint64_t accesses = 0, misses = 0;
  std::vector<std::string> cold(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const LocalRun local = run_local(requests[i]);
    const auto t0 = Clock::now();
    const service::Reply reply = session.call("autotune", requests[i]);
    const double served_ms = ms_between(t0, Clock::now());
    if (!reply.ok() || reply.memo_hit || reply.exit_code != local.exit ||
        reply.out != local.out) {
      ++mismatches;
    }
    cold[i] = reply.out;
    overhead.push_back(served_ms - local.ms);
    const Profiled p = profile_request(requests[i]);
    traced.push_back(p.wall_ms);
    plain.push_back(local.ms);
    read.push_back(p.read_ms);
    read_rate.push_back(static_cast<double>(p.records) / (p.read_ms * 1e3));
    profile.push_back(p.profile_ms);
    rank.push_back(p.rank_ms);
    cands.push_back(static_cast<double>(p.candidates));
    per_candidate.push_back(p.rank_ms / static_cast<double>(p.candidates + 1));
    unattributed.push_back(p.wall_ms - p.read_ms - p.profile_ms - p.rank_ms);
    const std::string want = "baseline: merged L1 totals: " +
                             std::to_string(p.baseline_accesses) +
                             " accesses, " + std::to_string(p.baseline_misses) +
                             " misses\n";
    if (local.out.find(want) == std::string::npos) ++mismatches;
    accesses += p.baseline_accesses;
    misses += p.baseline_misses;
  }
  for (int r = 0; r < hit_rounds; ++r) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto t0 = Clock::now();
      const service::Reply reply = session.call("autotune", requests[i]);
      hits.push_back(ms_between(t0, Clock::now()));
      if (!reply.ok() || !reply.memo_hit || reply.out != cold[i]) ++mismatches;
    }
  }
  Figures f;
  f.set("mismatches", mismatches);
  f.set("trace.read.busy_ms", median(read));
  f.set("trace.read.mrec_per_s", median(read_rate));
  f.set("analysis.profile.busy_ms", median(profile));
  f.set("analysis.candidates", median(cands));
  f.set("analysis.rank.busy_ms", median(rank));
  f.set("analysis.rank.ms_per_candidate", median(per_candidate));
  f.set("service.rpc.overhead_ms", median(overhead));
  f.set("service.memo.hit_p50_ms", percentile(hits, 0.5));
  f.set("service.memo.hit_p90_ms", percentile(hits, 0.9));
  f.set("cache.sim.accesses", static_cast<double>(accesses));
  f.set("cache.sim.misses", static_cast<double>(misses));
  f.set("layers.unattributed_ms", median(unattributed));
  f.set("op_ms", median(traced));
  f.set("layers.trace_overhead_ms", median(traced) - median(plain));
  f.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "sweep" && argc == 6) return cmd_sweep(argv);
    if (cmd == "transform" && argc == 10) return cmd_transform(argv);
    if (cmd == "local" && argc == 4) return cmd_local(argv);
    if (cmd == "serve" && argc == 5) return cmd_serve(argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tdt_layers: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "usage: tdt_layers sweep|transform|local|serve ...\n");
  return 2;
}
