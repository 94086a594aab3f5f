// Repository benchmark program: runs one of three media workloads through
// the public runtime API and prints its metrics as one JSON line.
//
//   perfbench --workload encode_cif|relay_64|transcode_disk_64
//             --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--git-rev REV]
//
// Workloads (closed loop: every source produces as fast as back-pressure
// lets it):
//   encode_cif         one Fig. 1 encoder session, 352x288, 4 workers
//   relay_64           eight RTP relays (in -> decode -> display -> out),
//                      64x64, 2% loss, reorder span 2, 2 workers + 2 I/O
//   transcode_disk_64  two FAT file transcodes (read -> decode -> encode ->
//                      write), 64x64, disk modeled in real time, 2 + 2
// Sessions use the defaults the example server ships with (io_depth 4)
// and are mapped with runtime::round_robin_mapping, as it maps them.
//
// A run repeats *rounds* until --seconds have been measured. Each round
// builds fresh sessions from the seed (set-up), submits them, waits for
// every session and flushes the sinks (the timed phase). Every round's
// output digests are checked against a reference computed once per run
// and input set on a deliberately different execution path: one worker,
// one firing per dispatch, no stealing, no payload recycling, inline
// (blocking) boundaries and no modeled device time.
//
// --trace 0 reports the end-to-end metrics (medians over rounds); only
// the source and sink bodies are stamped. --trace 1 measures every
// workload in turn, alternating untraced and traced rounds; traced rounds
// stamp every task body (through TaskGraph::set_body) and derive the
// per-layer split from those spans plus the public SessionReport,
// BoundaryStats, IoContext::Stats and BlockDevice counters. The spans are
// written as Chrome-trace JSON to --trace-out.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/dispatch.h"
#include "runtime/engine.h"
#include "runtime/io.h"
#include "runtime/pipelines.h"
#include "runtime/telemetry.h"

namespace {

using mmsoc::mpsoc::TaskFiring;
using mmsoc::mpsoc::TaskGraph;
using mmsoc::mpsoc::TaskId;
namespace rt = mmsoc::runtime;

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in ns.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Start a fresh resident-set high-water mark: hand freed heap pages back
/// to the kernel, then reset VmHWM to the current resident set.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset_peak_rss(), from VmHWM.
/// (ru_maxrss cannot be reset, and also counts the parent's pages held
/// between fork and exec.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return std::nan("");
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an already sorted sample.
double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Body stamps: one start/end pair per task firing, indexed by unit.
// ---------------------------------------------------------------------------

struct TaskStamps {
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> end;
  std::vector<std::int64_t> cpu;  ///< thread CPU ns in the body (traced only)
};

/// Wrap the body of `task` so each firing records its start and end, and
/// with `cpu` set also the CPU time its thread spent in the body. The
/// vectors are sized before submit and never reallocated; each slot is
/// written by the single thread firing that unit and read only after
/// Engine::wait().
void stamp_body(TaskGraph& graph, TaskId task, TaskStamps& stamps,
                std::uint64_t units, bool cpu) {
  stamps.start.assign(units, 0);
  stamps.end.assign(units, 0);
  stamps.cpu.assign(cpu ? units : 0, 0);
  auto inner = graph.task(task).body;
  std::int64_t* start = stamps.start.data();
  std::int64_t* end = stamps.end.data();
  std::int64_t* cpu_ns = cpu ? stamps.cpu.data() : nullptr;
  graph.set_body(task, [inner = std::move(inner), start, end, cpu_ns,
                        units](TaskFiring& f) {
    const std::uint64_t u = f.iteration;
    const bool stamp = u < units;
    const std::int64_t c0 = stamp && cpu_ns ? thread_cpu_ns() : 0;
    if (stamp) start[u] = now_ns();
    inner(f);
    if (stamp) end[u] = now_ns();
    if (stamp && cpu_ns) cpu_ns[u] = thread_cpu_ns() - c0;
  });
}

// ---------------------------------------------------------------------------
// Sessions under test
// ---------------------------------------------------------------------------

/// What a session's sinks observed; two runs of the same inputs must
/// agree on every field.
struct Digest {
  std::uint32_t crc = 0;      ///< bitstream_crc / luma_crc / out_crc
  std::uint32_t aux_crc = 0;  ///< recon_crc (encoder only)
  std::uint64_t frames = 0;   ///< frames through the digesting stage
  std::uint64_t decode_conceals = 0;
  std::uint64_t ingress_concealed = 0;
  bool operator==(const Digest&) const = default;
};

/// Boundary, file-system and network counters of a workload's sessions,
/// summed over its traced rounds (maxima for the buffer peaks).
struct IoCounters {
  bool any = false;
  std::uint64_t source_max_buffered = 0;
  std::uint64_t sink_max_buffered = 0;
  std::uint64_t errors = 0;
  std::uint64_t retries = 0;
};

struct FsCounters {
  bool any = false;
  double reads = 0, writes = 0, seeks = 0, read_us = 0, write_us = 0;
};

struct NetCounters {
  bool any = false;
  double concealed = 0, jitter_us = 0, bytes_out = 0, sessions = 0;
};

struct Counters {
  IoCounters io;
  FsCounters fs;
  NetCounters net;
};

class Session {
 public:
  virtual ~Session() = default;
  virtual TaskGraph& graph() = 0;
  virtual std::uint64_t frames() const = 0;
  virtual mmsoc::common::Result<std::size_t> submit(
      rt::Engine& engine, const mmsoc::mpsoc::Mapping& mapping) = 0;
  virtual void finish() {}
  virtual Digest digest() const = 0;
  virtual void add_counters(Counters&) const {}
};

class EncodeSession final : public Session {
 public:
  EncodeSession(const rt::VideoPipelineConfig& config, std::uint64_t frames)
      : pipe_(rt::make_video_encoder_pipeline(config)), frames_(frames) {}
  TaskGraph& graph() override { return pipe_.graph; }
  std::uint64_t frames() const override { return frames_; }
  mmsoc::common::Result<std::size_t> submit(
      rt::Engine& engine, const mmsoc::mpsoc::Mapping& mapping) override {
    return engine.submit(pipe_.graph, mapping, frames_);
  }
  Digest digest() const override {
    return {pipe_.sink->bitstream_crc, pipe_.sink->recon_crc,
            pipe_.sink->frames_coded, 0, 0};
  }

 private:
  rt::VideoPipeline pipe_;
  std::uint64_t frames_;
};

void add_boundaries(const rt::AsyncSource* source, const rt::AsyncSink* sink,
                    IoCounters& io) {
  io.any = true;
  if (source != nullptr) {
    const auto s = source->stats();
    io.source_max_buffered = std::max<std::uint64_t>(io.source_max_buffered,
                                                     s.max_buffered);
    io.errors += s.errors;
    io.retries += s.retries;
  }
  if (sink != nullptr) {
    const auto s = sink->stats();
    io.sink_max_buffered = std::max<std::uint64_t>(io.sink_max_buffered,
                                                   s.max_buffered);
    io.errors += s.errors;
    io.retries += s.retries;
  }
}

class RelaySession final : public Session {
 public:
  RelaySession(rt::IoContext& io, const rt::StreamingSessionConfig& config)
      : s_(rt::make_streaming_session(io, config)) {}
  TaskGraph& graph() override { return s_.graph; }
  std::uint64_t frames() const override { return s_.frames; }
  mmsoc::common::Result<std::size_t> submit(
      rt::Engine& engine, const mmsoc::mpsoc::Mapping& mapping) override {
    return s_.submit_to(engine, mapping);
  }
  void finish() override { s_.finish(); }
  Digest digest() const override {
    return {s_.state->luma_crc, 0, s_.state->frames_decoded,
            s_.state->decode_conceals, s_.ingress->concealed()};
  }
  void add_counters(Counters& c) const override {
    add_boundaries(s_.source.get(), s_.sink.get(), c.io);
    NetCounters& net = c.net;
    net.any = true;
    net.concealed += static_cast<double>(s_.ingress->concealed());
    net.jitter_us += s_.ingress->jitter_us();
    net.bytes_out += static_cast<double>(s_.egress->bytes_sent());
    net.sessions += 1;
  }

 private:
  rt::StreamingSession s_;
};

class TranscodeSession final : public Session {
 public:
  explicit TranscodeSession(rt::FileTranscodeSession s) : s_(std::move(s)) {}
  TaskGraph& graph() override { return s_.graph; }
  std::uint64_t frames() const override { return s_.frames; }
  mmsoc::common::Result<std::size_t> submit(
      rt::Engine& engine, const mmsoc::mpsoc::Mapping& mapping) override {
    return s_.submit_to(engine, mapping);
  }
  void finish() override { s_.finish(); }
  Digest digest() const override {
    return {s_.state->out_crc, 0, s_.state->frames_encoded,
            s_.state->decode_conceals, 0};
  }
  void add_counters(Counters& c) const override {
    add_boundaries(s_.source.get(), s_.sink.get(), c.io);
    FsCounters& fs = c.fs;
    fs.any = true;
    fs.reads += static_cast<double>(s_.device->reads());
    fs.writes += static_cast<double>(s_.device->writes());
    fs.seeks += static_cast<double>(s_.device->seek_distance());
    fs.read_us += s_.reader_endpoint->modeled_io_us();
    fs.write_us += s_.writer_endpoint->modeled_io_us();
  }

 private:
  rt::FileTranscodeSession s_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t sessions = 1;
  std::size_t workers = 1;
  std::size_t io_threads = 0;
  /// Input sets a run cycles its rounds through, all derived from the run
  /// seed (see variant_seed), so a run's figures depend less on one seed.
  std::size_t variants = 1;
  /// Build session `index` from the run seed. `reference` selects the
  /// inline-boundary, no-device-time variant of the same inputs.
  std::function<std::unique_ptr<Session>(rt::IoContext&, std::uint64_t seed,
                                         std::size_t index, bool reference)>
      make;
};

std::uint64_t session_seed(std::uint64_t seed, std::size_t index) {
  return splitmix64(seed * 0x100000001B3ull + index) | 1u;
}

std::vector<Workload> all_workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "encode_cif";
    w.sessions = 1;
    w.workers = 4;
    w.make = [](rt::IoContext&, std::uint64_t seed, std::size_t index,
                bool) -> std::unique_ptr<Session> {
      rt::VideoPipelineConfig c;
      c.width = 352;
      c.height = 288;
      c.seed = session_seed(seed, index);
      return std::make_unique<EncodeSession>(c, 120);
    };
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "relay_64";
    // Eight concurrent streams keep both workers busy while one stream
    // waits on its I/O boundary, so throughput depends less on how fast
    // the host wakes a parked thread (on a shared 4-vCPU VM, two streams
    // spread 35% over ten runs, eight 25%, interleaved with them).
    w.sessions = 8;
    w.workers = 2;
    w.io_threads = 2;
    w.make = [](rt::IoContext& io, std::uint64_t seed, std::size_t index,
                bool reference) -> std::unique_ptr<Session> {
      rt::StreamingSessionConfig c;
      c.width = 64;
      c.height = 64;
      // Set-up (pre-encoding the feeds) takes ~4x the timed phase, so short
      // streams give a run more rounds: ~30 in 30 s.
      c.frames = 256;
      c.seed = session_seed(seed, index);
      c.loss_probability = 0.02;
      c.reorder_span = 2;
      c.time_scale = 0.0;  // unpaced feed: closed loop
      c.async_boundaries = !reference;
      return std::make_unique<RelaySession>(io, c);
    };
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "transcode_disk_64";
    w.sessions = 2;
    w.workers = 2;
    w.io_threads = 2;
    // The modeled disk time depends on the files' sizes, so one seed's
    // inputs can run 15% slower than another's.
    w.variants = 4;
    w.make = [](rt::IoContext& io, std::uint64_t seed, std::size_t index,
                bool reference) -> std::unique_ptr<Session> {
      rt::TranscodeSessionConfig c;
      c.width = 64;
      c.height = 64;
      c.frames = 512;
      c.seed = session_seed(seed, index);
      c.time_scale = reference ? 0.0 : 1.0;  // the modeled disk in real time
      c.async_boundaries = !reference;
      auto made = rt::make_file_transcode_session(io, c);
      if (!made.is_ok()) {
        std::fprintf(stderr, "transcode set-up failed: %s\n",
                     made.status().to_text().c_str());
        return nullptr;
      }
      return std::make_unique<TranscodeSession>(std::move(made.value()));
    };
    out.push_back(std::move(w));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

/// One body span of a traced round (Chrome-trace "X" event).
struct Span {
  std::string workload;
  std::size_t session = 0;
  std::string task;
  std::string parent;  ///< predecessor whose span ended last; empty for sources
  std::uint64_t unit = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer sums over the traced rounds of one workload.
struct LayerSums {
  struct Stage {
    double service_s = 0, wait_s = 0, io_stall_s = 0;
    std::uint64_t n = 0, waits = 0, firings = 0;
    bool boundary = false;
  };
  std::vector<std::string> stage_order;
  std::map<std::string, Stage> stages;
  double frames = 0, cpu_s = 0, body_s = 0, body_cpu_s = 0, busy_s = 0;
  double worker_wall_s = 0;
  double recycled = 0, edge_iterations = 0, migrations = 0, rounds = 0;
  double max_occupancy = 0;
  double io_jobs = 0, io_busy_s = 0;
  Counters counters;
};

struct RoundResult {
  bool ok = false;  ///< round ran (independent of output correctness)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double frames_per_s = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double peak_rss_mb = 0;
};

/// Run one round of `w` and check its digests against `digests`. The
/// reference round (`reference` set) stores its digests there instead.
/// Traced rounds stamp every body and add to `layers` and `spans`.
RoundResult run_round(const Workload& w, std::uint64_t seed, bool traced,
                      std::vector<Digest>* digests, bool reference,
                      LayerSums* layers, std::vector<Span>* spans) {
  RoundResult r;
  reset_peak_rss();
  rt::IoContextOptions io_opts;
  io_opts.threads = std::max<std::size_t>(1, w.io_threads);
  std::optional<rt::IoContext> io;
  io.emplace(io_opts);
  rt::EngineOptions eopts;
  eopts.workers = reference ? 1 : w.workers;
  if (reference) {
    eopts.firing_quantum = 1;
    eopts.work_stealing = false;
    eopts.recycle_payloads = false;
  }
  std::optional<rt::Engine> engine;
  engine.emplace(eopts);
  if (!engine->start().is_ok()) return r;

  // Set-up: building the sessions, which pre-renders and pre-encodes their
  // inputs. Sessions are independent, so each is built on its own thread.
  const auto setup0 = Clock::now();
  std::vector<std::unique_ptr<Session>> sessions(w.sessions);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < w.sessions; ++i) {
      threads.emplace_back(
          [&, i] { sessions[i] = w.make(*io, seed, i, reference); });
    }
    sessions[0] = w.make(*io, seed, 0, reference);
    for (auto& t : threads) t.join();
  }
  std::vector<std::vector<TaskStamps>> stamps(w.sessions);
  for (std::size_t i = 0; i < w.sessions; ++i) {
    if (!sessions[i]) return r;
    TaskGraph& g = sessions[i]->graph();
    stamps[i].resize(g.task_count());
    for (TaskId t = 0; t < g.task_count(); ++t) {
      const bool endpoint = g.predecessors(t).empty() || g.successors(t).empty();
      if (traced || endpoint) {
        stamp_body(g, t, stamps[i][t], sessions[i]->frames(), traced);
      }
    }
  }
  r.setup_s = seconds_since(setup0);

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    auto id = sessions[i]->submit(
        *engine, rt::round_robin_mapping(sessions[i]->graph(), eopts.workers));
    if (!id.is_ok()) {
      std::fprintf(stderr, "%s: submit failed: %s\n", w.name.c_str(),
                   id.status().to_text().c_str());
      engine->cancel_all();  // sessions already admitted must drain first
      (void)engine->wait();
      return r;
    }
    ids.push_back(id.value());
  }
  const auto waited = engine->wait();
  for (auto& s : sessions) s->finish();
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  r.peak_rss_mb = peak_rss_mb();
  if (!waited.is_ok()) {
    std::fprintf(stderr, "%s: engine failed: %s\n", w.name.c_str(),
                 waited.to_text().c_str());
  }

  // Output checks.
  std::uint64_t delivered = 0;
  if (reference) digests->assign(w.sessions, Digest{});
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& rep = engine->report(ids[i]);
    const Digest d = sessions[i]->digest();
    const std::uint64_t frames = sessions[i]->frames();
    r.attempted += frames;
    const bool completed =
        rep.outcome == rt::SessionOutcome::kCompleted && d.frames == frames;
    bool good = completed;
    if (reference) {
      (*digests)[i] = d;
    } else if (!(d == (*digests)[i])) {
      good = false;
      std::fprintf(stderr,
                   "%s session %zu: digest %08x/%08x conceals %llu/%llu "
                   "differs from reference %08x/%08x conceals %llu/%llu\n",
                   w.name.c_str(), i, d.crc, d.aux_crc,
                   static_cast<unsigned long long>(d.decode_conceals),
                   static_cast<unsigned long long>(d.ingress_concealed),
                   (*digests)[i].crc, (*digests)[i].aux_crc,
                   static_cast<unsigned long long>((*digests)[i].decode_conceals),
                   static_cast<unsigned long long>(
                       (*digests)[i].ingress_concealed));
    }
    if (!completed) {
      std::fprintf(stderr, "%s session %zu: outcome %s, %llu of %llu frames\n",
                   w.name.c_str(), i,
                   std::string(rt::to_string(rep.outcome)).c_str(),
                   static_cast<unsigned long long>(d.frames),
                   static_cast<unsigned long long>(frames));
    }
    if (good) delivered += frames;
  }
  r.failed = r.attempted - delivered;
  r.frames_per_s = r.wall_s > 0 ? static_cast<double>(delivered) / r.wall_s : 0;

  // Frame latency: earliest source body start to latest sink body end.
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const TaskGraph& g = sessions[i]->graph();
    std::vector<TaskId> sources, sinks;
    for (TaskId t = 0; t < g.task_count(); ++t) {
      if (g.predecessors(t).empty()) sources.push_back(t);
      if (g.successors(t).empty()) sinks.push_back(t);
    }
    for (std::uint64_t u = 0; u < sessions[i]->frames(); ++u) {
      std::int64_t first = INT64_MAX;
      std::int64_t last = INT64_MIN;
      for (TaskId t : sources) first = std::min(first, stamps[i][t].start[u]);
      for (TaskId t : sinks) last = std::max(last, stamps[i][t].end[u]);
      if (first > 0 && last > 0) {  // 0: the unit never fired
        latency_ms.push_back(static_cast<double>(last - first) * 1e-6);
      }
    }
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  r.latency_p50_ms = quantile_sorted(latency_ms, 0.50);
  r.latency_p90_ms = quantile_sorted(latency_ms, 0.90);

  if (traced && layers != nullptr) {
    LayerSums& L = *layers;
    L.rounds += 1;
    L.frames += static_cast<double>(delivered);
    L.cpu_s += r.cpu_s;
    L.worker_wall_s += r.wall_s * static_cast<double>(eopts.workers);
    const auto io_stats = io->stats();
    if (w.io_threads > 0) {
      L.io_jobs += static_cast<double>(io_stats.jobs);
      L.io_busy_s += io_stats.busy_s;
    }
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const TaskGraph& g = sessions[i]->graph();
      const auto& rep = engine->report(ids[i]);
      const std::uint64_t frames = sessions[i]->frames();
      L.recycled += static_cast<double>(rep.payloads_recycled);
      L.edge_iterations +=
          static_cast<double>(rep.iterations * g.edges().size());
      L.migrations += static_cast<double>(rep.task_migrations);
      L.max_occupancy = std::max(L.max_occupancy,
                                 static_cast<double>(rep.max_channel_occupancy));
      for (TaskId t = 0; t < g.task_count(); ++t) {
        const std::string& name = g.task(t).name;
        if (!L.stages.count(name)) L.stage_order.push_back(name);
        auto& S = L.stages[name];
        const auto& ts = rep.tasks[t];
        L.busy_s += ts.busy_s;
        S.io_stall_s += ts.io_stall_s;
        S.firings += ts.firings;
        S.boundary = S.boundary || g.task(t).has_gate();
        const auto preds = g.predecessors(t);
        const auto& st = stamps[i][t];
        for (std::uint64_t u = 0; u < frames; ++u) {
          const double service = static_cast<double>(st.end[u] - st.start[u]) * 1e-9;
          S.service_s += service;
          S.n += 1;
          L.body_s += service;
          L.body_cpu_s += static_cast<double>(st.cpu[u]) * 1e-9;
          std::string parent;
          if (!preds.empty()) {
            std::int64_t latest = INT64_MIN;
            for (TaskId p : preds) {
              if (stamps[i][p].end[u] > latest) {
                latest = stamps[i][p].end[u];
                parent = g.task(p).name;
              }
            }
            S.wait_s += static_cast<double>(st.start[u] - latest) * 1e-9;
            S.waits += 1;
          }
          if (spans != nullptr) {
            spans->push_back(Span{w.name, i, name, std::move(parent), u,
                                  st.start[u], st.end[u]});
          }
        }
      }
      sessions[i]->add_counters(L.counters);
    }
  }

  // Teardown order: sessions (their adapters quiesce on the I/O context),
  // then the engine, then the I/O context.
  sessions.clear();
  engine.reset();
  io.reset();
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string host_json(const std::string& git_rev) {
  std::ostringstream os;
  os << "{\"cpu_model\": " << quoted(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"loadavg\": " << quoted(read_first_line("/proc/loadavg"))
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"simd_level\": "
     << quoted(std::string(mmsoc::dsp::simd_level_name(
            mmsoc::dsp::kernels().level)))
     << ", \"telemetry_compiled\": "
     << (mmsoc::kTelemetryCompiled ? "true" : "false")
     << ", \"git_rev\": " << quoted(git_rev) << "}";
  return os.str();
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& host) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  std::int64_t origin = INT64_MAX;
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"otherData\": " << host << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"ph\":\"X\",\"name\":" << quoted(s.task)
        << ",\"cat\":" << quoted(s.workload)
        << ",\"pid\":" << quoted(s.workload + ".session" + std::to_string(s.session))
        << ",\"tid\":" << quoted(s.task)
        << ",\"ts\":" << number(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ",\"dur\":" << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"id\":" << s.unit << ",\"args\":{\"unit\":" << s.unit
        << ",\"parent\":" << quoted(s.parent) << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Measurement loops
// ---------------------------------------------------------------------------

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool ran = true;
};

void tally(Totals& t, const RoundResult& r) {
  t.attempted += r.attempted;
  t.failed += r.failed;
  t.ran = t.ran && r.ok;
}

/// Seed of input set `variant` of a run; set 0 uses the run seed itself.
std::uint64_t variant_seed(std::uint64_t seed, std::size_t variant) {
  return variant == 0 ? seed : splitmix64(seed + variant);
}

/// Run the reference round of every input set of `w`, storing the digests
/// the measured rounds are checked against. False when one did not run.
bool reference_digests(const Workload& w, std::uint64_t seed, Totals& totals,
                       std::vector<std::vector<Digest>>& digests) {
  digests.assign(w.variants, {});
  for (std::size_t v = 0; v < w.variants; ++v) {
    const RoundResult r = run_round(w, variant_seed(seed, v), false,
                                    &digests[v], true, nullptr, nullptr);
    tally(totals, r);
    if (!r.ok) return false;
  }
  return true;
}

/// End-to-end metrics of `w`: rounds until `seconds` of measuring, each
/// metric the median of its per-round values. Frame latency is logged
/// here but reported with the per-layer metrics: in relay_64's unpaced
/// closed loop it measures how full the channels happen to be, and its
/// per-round p50 spans 0.5-3.6 ms on a 4-vCPU VM, beyond any usable bound.
/// Peak RSS is the smallest per-round peak: how many frame buffers are
/// live at a round's peak depends on host timing (on a 4-vCPU VM,
/// encode_cif rounds ranged 10-20 MB), while the floor moves only when the
/// program needs more. No metrics are returned when a round fails to run.
std::vector<Metric> measure_end_to_end(const Workload& w, std::uint64_t seed,
                                       double seconds, Totals& totals) {
  std::vector<std::vector<Digest>> digests;
  if (!reference_digests(w, seed, totals, digests)) return {};
  std::vector<double> setup, fps, cpu_ms, rss;
  const auto t0 = Clock::now();
  // Whole cycles of input sets, so that each weighs the same in the medians.
  while (setup.empty() || setup.size() % w.variants != 0 ||
         seconds_since(t0) < seconds) {
    const std::size_t v = setup.size() % w.variants;
    const RoundResult r = run_round(w, variant_seed(seed, v), false,
                                    &digests[v], false, nullptr, nullptr);
    tally(totals, r);
    if (!r.ok) return {};
    setup.push_back(r.setup_s);
    fps.push_back(r.frames_per_s);
    cpu_ms.push_back(r.cpu_s * 1e3 / static_cast<double>(r.attempted));
    rss.push_back(r.peak_rss_mb);
    std::fprintf(stderr,
                 "%s round %zu: setup %.6f s, wall %.3f s, %.1f frames/s, "
                 "latency p50 %.3f p90 %.3f ms over %llu frames, "
                 "%.4f cpu ms/frame, peak rss %.1f MB\n",
                 w.name.c_str(), fps.size(), r.setup_s, r.wall_s,
                 r.frames_per_s, r.latency_p50_ms, r.latency_p90_ms,
                 static_cast<unsigned long long>(r.attempted), cpu_ms.back(),
                 r.peak_rss_mb);
  }
  return {
      {"frames_per_s", median(fps), "1/s"},
      {"cpu_ms_per_frame", median(cpu_ms), "ms"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", *std::min_element(rss.begin(), rss.end()), "MB"},
  };
}

/// Per-layer metrics of `w`, prefixed with its name: untraced and traced
/// rounds alternate until `seconds` of measuring (at least one of each).
void measure_layers(const Workload& w, std::uint64_t seed, double seconds,
                    Totals& totals, std::vector<Metric>& out,
                    std::vector<Span>& spans) {
  std::vector<std::vector<Digest>> digests;
  if (!reference_digests(w, seed, totals, digests)) return;
  LayerSums L;
  std::vector<double> fps_plain, fps_traced, p50_plain, p90_plain;
  const auto t0 = Clock::now();
  while (fps_traced.empty() || seconds_since(t0) < seconds) {
    // Each untraced round and the traced round after it share an input set.
    const bool traced = fps_plain.size() > fps_traced.size();
    const std::size_t v = fps_traced.size() % w.variants;
    const RoundResult r = run_round(w, variant_seed(seed, v), traced,
                                    &digests[v], false,
                                    traced ? &L : nullptr,
                                    traced ? &spans : nullptr);
    tally(totals, r);
    if (!r.ok) return;
    (traced ? fps_traced : fps_plain).push_back(r.frames_per_s);
    if (!traced) {
      p50_plain.push_back(r.latency_p50_ms);
      p90_plain.push_back(r.latency_p90_ms);
    }
  }
  const std::string p = w.name + ".";
  const double frames = std::max(1.0, L.frames);
  const auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({p + name, value, unit});
  };
  for (const auto& name : L.stage_order) {
    const auto& S = L.stages.at(name);
    add("stage." + name + ".service_ms",
        S.n > 0 ? S.service_s * 1e3 / static_cast<double>(S.n) : 0.0, "ms");
    if (S.waits > 0) {
      add("stage." + name + ".queue_wait_ms",
          S.wait_s * 1e3 / static_cast<double>(S.waits), "ms");
    }
    if (S.boundary) {
      add("stage." + name + ".io_stall_ms",
          S.firings > 0 ? S.io_stall_s * 1e3 / static_cast<double>(S.firings)
                        : 0.0,
          "ms");
    }
  }
  add("engine.outside_body_cpu_ms_per_frame",
      (L.cpu_s - L.body_cpu_s) * 1e3 / frames, "ms");
  add("engine.handoff_ms_per_frame", (L.busy_s - L.body_s) * 1e3 / frames,
      "ms");
  add("engine.worker_idle_ratio",
      L.worker_wall_s > 0 ? 1.0 - L.busy_s / L.worker_wall_s : 0.0, "ratio");
  add("engine.recycle_ratio",
      L.edge_iterations > 0 ? L.recycled / L.edge_iterations : 0.0, "ratio");
  add("engine.max_channel_occupancy", L.max_occupancy, "count");
  add("engine.migrations", L.migrations / std::max(1.0, L.rounds), "count");
  const auto& io = L.counters.io;
  const auto& fs = L.counters.fs;
  const auto& net = L.counters.net;
  if (io.any) {
    add("io.jobs_per_frame", L.io_jobs / frames, "count");
    add("io.busy_ms_per_frame", L.io_busy_s * 1e3 / frames, "ms");
    add("io.source_max_buffered", static_cast<double>(io.source_max_buffered),
        "count");
    add("io.sink_max_buffered", static_cast<double>(io.sink_max_buffered),
        "count");
    add("io.errors", static_cast<double>(io.errors), "count");
    add("io.retries", static_cast<double>(io.retries), "count");
  }
  if (fs.any) {
    add("fs.device_reads_per_frame", fs.reads / frames, "count");
    add("fs.device_writes_per_frame", fs.writes / frames, "count");
    add("fs.seek_blocks_per_frame", fs.seeks / frames, "count");
    add("fs.modeled_read_us_per_frame", fs.read_us / frames, "us");
    add("fs.modeled_write_us_per_frame", fs.write_us / frames, "us");
  }
  if (net.any) {
    add("net.concealed_ratio", net.concealed / frames, "ratio");
    add("net.jitter_us", net.jitter_us / std::max(1.0, net.sessions), "us");
    add("net.bytes_out_per_frame", net.bytes_out / frames, "B");
  }
  add("frame_latency_p50_ms", median(p50_plain), "ms");
  add("frame_latency_p90_ms", median(p90_plain), "ms");
  add("trace.overhead_ratio", median(fps_traced) / median(fps_plain), "ratio");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--git-rev REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::string git_rev = "unknown";
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") trace = std::atoi(val.c_str());
    else if (key == "--trace-out") trace_out = val;
    else if (key == "--git-rev") git_rev = val;
    else return usage();
  }
  const auto workloads = all_workloads();
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) { return w.name == workload; });
  if (it == workloads.end() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  const std::string host = host_json(git_rev);
  std::printf("{\"host\": %s}\n", host.c_str());

  Totals totals;
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = measure_end_to_end(*it, seed, seconds, totals);
  } else {
    // The per-layer map spans all three workloads, so a traced run
    // measures each of them, starting with the one named.
    std::vector<const Workload*> order{&*it};
    for (const auto& w : workloads) {
      if (&w != &*it) order.push_back(&w);
    }
    std::vector<Span> spans;
    for (const Workload* w : order) {
      measure_layers(*w, seed, seconds / static_cast<double>(order.size()),
                     totals, metrics, spans);
    }
    if (!trace_out.empty()) write_chrome_trace(trace_out, spans, host);
  }

  bool finite = true;
  std::string m = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    finite = finite && std::isfinite(metrics[i].value);
    m += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
         (std::isfinite(metrics[i].value) ? number(metrics[i].value)
                                          : std::string("null")) +
         ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  m += "}";
  const bool correct = totals.ran && finite && totals.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed), m.c_str());
  return correct ? 0 : 1;
}
