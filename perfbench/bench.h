// Shared pieces of the benchmark driver: the record that carries place 0's
// measurements back to the driver process, the driver-side span log, and the
// workload interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/config.h"

namespace perfbench {

/// Nanoseconds on CLOCK_MONOTONIC. The clock is system-wide, so stamps taken
/// in a forked place process compare directly with the driver process's.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Named series of doubles. Place 0 fills one per Runtime::run and writes it
/// to a file the driver process names; the driver reads it back once the run
/// has returned. Under the socket backend place 0 is a forked process whose
/// memory and stdout the driver never sees, so every run takes this path.
class Record {
 public:
  void add(const std::string& name, double v) { series_[name].push_back(v); }
  /// The series under `name`, empty when nothing was added.
  [[nodiscard]] const std::vector<double>& get(const std::string& name) const;
  /// First value of `name`, or `fallback` when the series is empty.
  [[nodiscard]] double scalar(const std::string& name,
                              double fallback = 0) const;
  /// One line per series: the name, then its values at full precision.
  [[nodiscard]] bool write(const std::string& path) const;
  [[nodiscard]] static bool read(const std::string& path, Record& out);

 private:
  std::map<std::string, std::vector<double>> series_;
};

/// The layer boundaries the driver brackets with spans.
enum class Sp : std::uint8_t {
  kSolve,
  kFinish,           ///< apgas::finish, from the call to its return
  kFinishCloseWait,  ///< from the finish body's return to finish's return
  kAsyncAt,          ///< apgas::asyncAt call
  kAt,               ///< blocking apgas::at round trip
  kGlbRun,           ///< glb::Glb::run
  kStream,
  kRandomAccess,
  kFft,
  kKmeans,
  kHpl,
  kSmithWaterman,
  kBc,
};
inline constexpr int kNumSpanNames = 13;
const char* span_name(Sp s);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t solve = 0;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< id of the enclosing span, 0 at the root
  Sp name = Sp::kSolve;
};

/// Spans recorded by the driver activity at place 0 around its calls into
/// the runtime's public functions. Kept in memory and written when the run
/// ends. A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  void set_solve(std::int64_t solve) { solve_ = solve; }

  /// Opens a span whose parent is the innermost open one; returns its id.
  std::uint32_t begin(Sp name);
  void end(std::uint32_t id);
  /// Records an already-finished span under the innermost open one.
  void add(Sp name, std::int64_t start_ns, std::int64_t end_ns);

  /// Durations (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> durations_ns(Sp name) const;
  /// Self time (ns) of every span named `name`: its duration minus the time
  /// its direct children cover.
  [[nodiscard]] std::vector<double> self_ns(Sp name) const;
  /// CSV (name,id,parent,solve,start_ns,end_ns) of the first `limit` spans.
  bool write_csv(const std::string& path, std::size_t limit) const;

 private:
  bool on_;
  std::int64_t solve_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Brackets one call with a span.
class SpanScope {
 public:
  SpanScope(SpanLog& log, Sp name) : log_(log), id_(log.begin(name)) {}
  ~SpanScope() { log_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// One workload: its runtime configuration and one verified solve issued by
/// the driver activity at place 0.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Backend, congruent arena size (allocated while the runtime starts, so
  /// counted in set-up time) and any other per-workload knob.
  virtual void configure(apgas::Config& cfg) const = 0;
  /// One solve from place 0. Returns whether its output verified; adds any
  /// per-solve series to `rec` and brackets layer calls in `spans`.
  virtual bool solve(SpanLog& spans, Record& rec) = 0;
  /// A solve slower than this counts as failed.
  [[nodiscard]] virtual double cap_s() const = 0;
  /// Facts fixed before Runtime::run (reference timings, input sizes).
  virtual void describe(Record& rec) const = 0;
};

/// Builds the named workload from `seed`, computing its expected results.
/// With `wrong_expected` one expected value is deliberately off by one, so
/// every solve must fail verification (the self-test's negative check).
/// Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        bool wrong_expected);

}  // namespace perfbench
