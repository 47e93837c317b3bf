// Closed-loop benchmark driver: 4 places x 1 worker, one driver activity at
// place 0 issuing one verified solve at a time.
//
//   apgas_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --out DIR [--wrong-expected]
//
// --trace 0 runs kTimedCycles Runtime::run cycles of S/kTimedCycles seconds
// of solves, each followed by a cycle that only starts and stops the
// runtime; every cycle measures set-up time (entering Runtime::run until the
// driver can start its first solve). --trace 1 runs one untraced cycle and
// one traced cycle of S/2 seconds each: the traced one arms
// Config::histograms and records the driver's spans, and the pair gives the
// tracing overhead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: value}}; perfbench/
// run.py attaches the units from BENCHMARK.json. Exit status is 1 when any
// solve failed verification, 2 on a usage or I/O error.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/api.h"
#include "runtime/metrics.h"

namespace perfbench {
namespace {

constexpr int kTimedCycles = 6;
constexpr std::size_t kSpanFileLimit = 100'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
  bool wrong_expected = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "apgas_perfbench: %s\nusage: apgas_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 --out DIR "
               "[--wrong-expected]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--wrong-expected") {
      o.wrong_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds takes s > 0");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0 ||
      o.out_dir.empty()) {
    usage("--workload, --seed, --seconds and --out are required");
  }
  return o;
}

/// Place 0's part of one Runtime::run cycle: the closed loop, when `seconds`
/// is above 0. Everything it measures goes into a Record
/// written to `rec_path`; spans of a traced cycle also go to `span_path`.
void place0(Workload& w, double seconds, bool traced,
            const std::string& rec_path, const std::string& span_path) {
  Record rec;
  rec.add("t_main_ns", static_cast<double>(now_ns()));
  // Nothing of the driver's own sits between place 0 starting and the first
  // solve; the stamp keeps the launcher's share of set-up separable.
  rec.add("t_ready_ns", static_cast<double>(now_ns()));
  if (seconds > 0) {
    SpanLog spans(traced);
    std::uint64_t attempted = 0;
    std::uint64_t good = 0;
    std::uint64_t unverified = 0;
    const double cap_ms = w.cap_s() * 1e3;
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t solve = 0; solve == 0 || now_ns() < deadline; ++solve) {
      spans.set_solve(solve);
      const std::int64_t t0 = now_ns();
      bool verified = false;
      {
        SpanScope s(spans, Sp::kSolve);
        try {
          verified = w.solve(spans, rec);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "apgas_perfbench: solve %lld threw: %s\n",
                       static_cast<long long>(solve), e.what());
        }
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      ++attempted;
      if (verified && ms <= cap_ms) ++good;
      if (!verified) ++unverified;
      rec.add("lat_ms", ms);
    }
    rec.add("timed_s", static_cast<double>(now_ns() - start) / 1e9);
    rec.add("attempted", static_cast<double>(attempted));
    rec.add("good", static_cast<double>(good));
    rec.add("unverified", static_cast<double>(unverified));
    if (traced) {
      auto scaled = [&](const char* name, const std::vector<double>& ns,
                        double div) {
        for (double v : ns) rec.add(name, v / div);
      };
      scaled("runtime.api.asyncAt_call_ns", spans.durations_ns(Sp::kAsyncAt), 1);
      scaled("runtime.api.at_rtt_us", spans.durations_ns(Sp::kAt), 1e3);
      scaled("runtime.finish.close_wait_us",
             spans.durations_ns(Sp::kFinishCloseWait), 1e3);
      scaled("runtime.finish.self_us", spans.self_ns(Sp::kFinish), 1e3);
      scaled("glb.run_ms", spans.durations_ns(Sp::kGlbRun), 1e6);
      scaled("solve.self_ms", spans.self_ns(Sp::kSolve), 1e6);
      for (Sp k : {Sp::kStream, Sp::kRandomAccess, Sp::kFft, Sp::kKmeans,
                   Sp::kHpl, Sp::kSmithWaterman, Sp::kBc}) {
        scaled((std::string(span_name(k)) + "_ms").c_str(),
               spans.durations_ns(k), 1e6);
      }
      if (!spans.write_csv(span_path, kSpanFileLimit)) {
        std::fprintf(stderr, "apgas_perfbench: cannot write %s\n",
                     span_path.c_str());
      }
    }
  }
  if (!rec.write(rec_path)) {
    std::fprintf(stderr, "apgas_perfbench: cannot write %s\n",
                 rec_path.c_str());
  }
}

/// One Runtime::run cycle; returns place 0's record, plus the driver's own
/// stamp of when it entered Runtime::run.
Record run_cycle(const apgas::Config& cfg, Workload& w, double seconds,
                 bool traced, const std::string& rec_path,
                 const std::string& span_path) {
  std::filesystem::remove(rec_path);
  const std::int64_t enter = now_ns();
  apgas::Runtime::run(cfg, [&] {
    place0(w, seconds, traced, rec_path, span_path);
  });
  const std::int64_t exit = now_ns();
  if (traced) {
    // The driver process's own span, id 0: Runtime::run from entry to the
    // job's quiescence, around every span place 0 recorded.
    if (std::FILE* f = std::fopen(span_path.c_str(), "a")) {
      std::fprintf(f, "runtime.run,0,0,-1,%lld,%lld\n",
                   static_cast<long long>(enter), static_cast<long long>(exit));
      std::fclose(f);
    }
  }
  Record rec;
  if (!Record::read(rec_path, rec) || rec.get("t_ready_ns").empty()) {
    std::fprintf(stderr, "apgas_perfbench: place 0 left no record at %s\n",
                 rec_path.c_str());
    std::exit(2);
  }
  rec.add("t_enter_ns", static_cast<double>(enter));
  return rec;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unverified = 0;

  void add(const Record& r) {
    const auto n = static_cast<std::uint64_t>(r.scalar("attempted"));
    attempted += n;
    failed += n - static_cast<std::uint64_t>(r.scalar("good"));
    unverified += static_cast<std::uint64_t>(r.scalar("unverified"));
  }
};

/// Verified solves per second over one cycle's timed phase.
double solves_per_s(const Record& r) {
  return r.scalar("good") / r.scalar("timed_s", 1);
}

double setup_s(const Record& r) {
  return (r.scalar("t_ready_ns") - r.scalar("t_enter_ns")) / 1e9;
}

/// Peak RSS in MiB so far of the driver process, or — when the places ran
/// as forked processes — of the largest place process.
double peak_rss_mb(bool socket) {
  rusage ru{};
  getrusage(socket ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Whether Stream's arrays, all places together, are below 4x the last-level
/// cache: then its GB/s measure cache bandwidth, not memory bandwidth.
bool stream_cache_resident(const Record& facts) {
  const double bytes = facts.scalar("kernels.stream.total_mib") * (1 << 20);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 && llc > 0 && bytes < 4.0 * static_cast<double>(llc);
}

using Metrics = std::map<std::string, double>;

/// Set-up time is the median over every cycle. Latency and rate are
/// min-of-N over the timed cycles (the repository's bench discipline): the
/// lowest cycle median and the highest cycle rate. On a virtual machine
/// shared with other tenants, their load slowed whole stretches of seconds;
/// spreading the run over cycles lets it keep clean ones, and puts set-up
/// samples on cores the previous cycle kept busy all through the run.
/// `first_rss_mb` is the peak RSS over the first cycle, one whole job: the
/// later cycles repeat it, and with freed memory kept in the heap their peak
/// shows how the allocator happened to pack one arena more or less (28 MiB
/// under spmd-kernels), not what the program needs.
Metrics end_to_end(const std::vector<Record>& cycles, double first_rss_mb) {
  std::vector<double> setups;
  double best_p50 = 0;
  double best_rate = 0;
  for (const Record& r : cycles) {
    setups.push_back(setup_s(r));
    if (r.get("lat_ms").empty()) continue;
    const double p50 = quantile(r.get("lat_ms"), 0.5);
    if (best_p50 == 0 || p50 < best_p50) best_p50 = p50;
    best_rate = std::max(best_rate, solves_per_s(r));
  }
  return {
      {"setup_s", quantile(setups, 0.5)},
      {"solves_per_s", best_rate},
      {"solve_ms_p50", best_p50},
      {"peak_rss_mb", first_rss_mb},
  };
}

Metrics per_layer(const Record& facts, const Record& untraced,
                  const Record& traced,
                  const std::map<std::string, std::uint64_t>& m) {
  auto c = [&m](const std::string& k) -> double {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto sum_prefix = [&m](const std::string& prefix, const std::string& suffix) {
    double s = 0;
    for (const auto& [k, v] : m) {
      if (k.starts_with(prefix) && k.ends_with(suffix)) {
        s += static_cast<double>(v);
      }
    }
    return s;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto q = [&traced](const char* series, double p) {
    return quantile(traced.get(series), p);
  };
  const double n = traced.scalar("attempted");
  const double untraced_p50 = quantile(untraced.get("lat_ms"), 0.5);

  Metrics out;
  // runtime.api
  out["runtime.api.asyncAt_call_ns.p50"] = q("runtime.api.asyncAt_call_ns", 0.5);
  out["runtime.api.at_rtt_us.p50"] = q("runtime.api.at_rtt_us", 0.5);
  out["runtime.api.at_rtt_us.p90"] = q("runtime.api.at_rtt_us", 0.9);
  // runtime.finish
  out["runtime.finish.close_wait_us.p50"] = q("runtime.finish.close_wait_us", 0.5);
  out["runtime.finish.close_wait_us.p90"] = q("runtime.finish.close_wait_us", 0.9);
  out["runtime.finish.self_us.p50"] = q("runtime.finish.self_us", 0.5);
  out["runtime.finish.ctrl_msgs_per_finish"] =
      ratio(c("finish.credit_msgs") + c("finish.completion_msgs") +
                c("finish.snapshots.sent"),
            c("finish.opened"));
  out["runtime.finish.opened_per_solve"] = ratio(c("finish.opened"), n);
  out["runtime.finish.close_ns.default.p50"] =
      c("hist.finish.close_ns.default.p50");
  out["runtime.finish.close_ns.spmd.p50"] = c("hist.finish.close_ns.spmd.p50");
  // runtime.scheduler
  out["runtime.scheduler.ship_wait_ns.p50"] = c("hist.task.ship_ns.p50");
  out["runtime.scheduler.ship_wait_ns.p90"] = c("hist.task.ship_ns.p90");
  out["runtime.scheduler.exec_ns.p50"] = c("hist.activity.exec_ns.p50");
  out["runtime.scheduler.msgs_per_solve"] =
      ratio(sum_prefix("sched.p", ".messages_processed"), n);
  out["runtime.scheduler.activities_per_solve"] =
      ratio(sum_prefix("sched.p", ".activities_executed"), n);
  // x10rt.transport
  out["x10rt.transport.msgs_per_solve"] = ratio(c("transport.msgs.total"), n);
  out["x10rt.transport.bytes_per_solve"] =
      ratio(sum_prefix("transport.bytes.", ""), n);
  out["x10rt.transport.pool_hit_ratio"] =
      ratio(c("transport.pool.hits"),
            c("transport.pool.hits") + c("transport.pool.misses"));
  out["x10rt.transport.rdma_ops_per_solve"] = ratio(c("transport.rdma.ops"), n);
  out["x10rt.transport.rdma_bytes_per_solve"] =
      ratio(c("transport.rdma.bytes"), n);
  // x10rt.coalesce
  out["x10rt.coalesce.records_per_envelope"] =
      ratio(c("transport.coalesce.records"), c("transport.coalesce.envelopes"));
  out["x10rt.coalesce.residency_ns.p90"] = c("hist.envelope.residency_ns.p90");
  // x10rt.retx
  out["x10rt.retx.sent_per_solve"] = ratio(c("transport.retx.sent"), n);
  out["x10rt.retx.standalone_acks_per_solve"] =
      ratio(c("transport.retx.standalone_acks"), n);
  out["x10rt.retx.retransmits"] = c("transport.retx.retransmits");
  out["x10rt.retx.ack_latency_ns.p50"] = c("hist.retx.ack_latency_ns.p50");
  // x10rt.socket
  out["x10rt.socket.frames_per_solve"] =
      ratio(c("transport.backend.frames_sent"), n);
  out["x10rt.socket.bytes_per_frame"] = ratio(
      c("transport.backend.bytes_sent"), c("transport.backend.frames_sent"));
  out["x10rt.socket.ship_ns.p50"] = c("hist.task.ship_xproc_aligned_ns.p50");
  out["x10rt.socket.ship_ns.p90"] = c("hist.task.ship_xproc_aligned_ns.p90");
  // runtime.launcher: the set-up split of the untraced cycle.
  out["runtime.launcher.fork_to_ready_s"] =
      (untraced.scalar("t_main_ns") - untraced.scalar("t_enter_ns")) / 1e9;
  out["runtime.launcher.driver_ready_s"] =
      (untraced.scalar("t_ready_ns") - untraced.scalar("t_main_ns")) / 1e9;
  // glb
  out["glb.run_ms.p50"] = q("glb.run_ms", 0.5);
  out["glb.steal_hit_ratio"] =
      ratio(c("glb.steal_hits"), c("glb.steal_attempts"));
  out["glb.steals_per_solve"] = q("glb.steals", 0.5);
  out["glb.steals_per_solve.iqr"] = q("glb.steals", 0.75) - q("glb.steals", 0.25);
  out["glb.lifelines_per_solve"] = ratio(c("glb.lifeline_requests"), n);
  out["glb.resuscitations_per_solve"] = ratio(c("glb.resuscitations"), n);
  out["glb.steal_to_work_ns.p50"] = c("hist.glb.steal_to_work_ns.p50");
  out["glb.steal_to_work_ns.p90"] = c("hist.glb.steal_to_work_ns.p90");
  out["glb.imbalance"] = q("glb.imbalance", 0.5);
  out["glb.processed_per_solve"] = ratio(c("glb.processed"), n);
  // runtime.team
  for (const char* op : {"allreduce", "alltoall", "bcast", "barrier"}) {
    out[std::string("runtime.team.op_ns.") + op + ".p50"] =
        c(std::string("hist.team.op_ns.") + op + ".p50");
  }
  // kernels
  for (const char* k : {"stream", "randomaccess", "fft", "kmeans", "hpl",
                        "smith_waterman", "bc"}) {
    out[std::string("kernels.") + k + "_run_ms.p50"] =
        q((std::string("kernels.") + k + "_run_ms").c_str(), 0.5);
  }
  for (const char* k : {"kernels.stream.gbs_computed", "kernels.randomaccess.gups",
                        "kernels.hpl.gflops", "kernels.fft.gflops"}) {
    out[k] = q(k, 0.5);
  }
  out["kernels.stream.cache_resident"] = stream_cache_resident(facts) ? 1 : 0;
  out["kernels.uts_sequential_ms"] = facts.scalar("kernels.uts_sequential_ms");
  out["kernels.uts.nodes"] = facts.scalar("kernels.uts.nodes");
  // End-to-end quantities without a bound: the untraced half of the pair.
  out["solve_ms_p90"] = quantile(untraced.get("lat_ms"), 0.9);
  out["seq_speedup"] = ratio(facts.scalar("kernels.uts_sequential_ms"),
                             untraced_p50);
  out["solve.self_ms.p50"] = q("solve.self_ms", 0.5);
  out["trace.overhead_frac"] =
      1.0 - ratio(solves_per_s(traced), solves_per_s(untraced));
  return out;
}

int run(const Options& o) {
  std::unique_ptr<Workload> w =
      make_workload(o.workload, o.seed, o.wrong_expected);
  if (!w) usage(("unknown workload " + o.workload).c_str());
  Record facts;
  w->describe(facts);

  apgas::Config cfg;
  cfg.places = 4;
  cfg.workers_per_place = 1;
  w->configure(cfg);
  const bool socket = cfg.backend == apgas::BackendKind::kSocket;

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem = o.out_dir + "/" + o.workload;
  const std::string rec_path = stem + ".place0.rec";
  const std::string span_path =
      stem + ".seed" + std::to_string(o.seed) + ".spans.csv";

  Tally tally;
  Metrics metrics;
  if (!o.trace) {
    std::vector<Record> cycles;
    double first_rss_mb = 0;
    for (int i = 0; i < kTimedCycles; ++i) {
      cycles.push_back(run_cycle(cfg, *w, o.seconds / kTimedCycles, false,
                                 rec_path, span_path));
      tally.add(cycles.back());
      if (i == 0) first_rss_mb = peak_rss_mb(socket);
      cycles.push_back(run_cycle(cfg, *w, 0, false, rec_path, span_path));
    }
    metrics = end_to_end(cycles, first_rss_mb);
  } else {
    const Record untraced =
        run_cycle(cfg, *w, o.seconds / 2, false, rec_path, span_path);
    apgas::Config traced_cfg = cfg;
    traced_cfg.histograms = true;
    const Record traced =
        run_cycle(traced_cfg, *w, o.seconds / 2, true, rec_path, span_path);
    tally.add(untraced);
    tally.add(traced);
    metrics = per_layer(facts, untraced, traced, apgas::last_run_metrics());
    metrics["fail_frac"] = static_cast<double>(tally.failed) /
                           static_cast<double>(tally.attempted);
  }

  if (facts.scalar("kernels.stream.array_mib") > 0) {
    std::printf("stream: 3 arrays of %.0f MiB per place, %.0f MiB in all, "
                "LLC %.0f MiB: %s\n",
                facts.scalar("kernels.stream.array_mib"),
                facts.scalar("kernels.stream.total_mib"),
                static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / (1 << 20),
                stream_cache_resident(facts) ? "cache-resident (below 4x LLC)"
                                             : "memory-bound (4x LLC or more)");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.unverified == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return tally.unverified == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the heap. Each Runtime::run frees its congruent
  // arenas (112 MiB for spmd-kernels) and the kernels free their buffers
  // every pass; handed back to the kernel, that memory is faulted in again
  // at a cost that varied fivefold with the host's huge-page supply, which
  // no change to the runtime would cause. Only the first cycle pays it now.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return perfbench::run(perfbench::parse(argc, argv));
}
