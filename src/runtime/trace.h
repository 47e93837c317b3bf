// Flight recorder: per-place, lock-free ring-buffer event tracing.
//
// The paper argues its scaling story (§3.1, §5) through runtime-internal
// signals — control-message volume, out-degree, steal traffic. The tracer
// records those signals as timestamped events so a single run can be
// inspected after the fact (chrome://tracing / Perfetto) instead of argued
// about from aggregate counters alone.
//
// Design constraints:
//   * Bounded memory: one fixed-capacity ring per place (plus one shared
//     "external" ring for non-worker threads). When a ring wraps, the oldest
//     events are overwritten — a flight recorder keeps the recent past.
//   * Lock-free writers: a slot index is claimed with one relaxed fetch_add;
//     slot fields are 64-bit atomics guarded by a per-slot seqlock-style
//     generation stamp (claim = odd, publish = even), so readers detect a
//     slot that is mid-write or has been lapped and drop it instead of
//     exporting interleaved fields of two events.
//   * Near-zero cost when disabled: every emit site is an inline check of
//     one relaxed atomic bool; no arguments are evaluated beyond the enum.
//
// Lifecycle: Runtime::run initializes the recorder before workers start and
// tears it down (optionally exporting Chrome trace JSON) after they join.
// Tests may also drive init()/emit_at()/shutdown() standalone.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace apgas::trace {

/// Event kinds recorded by the runtime. Schema (the meaning of args a/b) is
/// documented per-kind in docs/observability.md and in name().
enum class Ev : std::uint8_t {
  kActivitySpawn,    // a = span id, b = remote<<32 | destination place
  kActivityBegin,    // body starts; a = span id, b = parent span id
  kActivityEnd,      // body finished; a = span id
  kMsgSend,          // a = x10rt::MsgType, b = destination place
  kMsgRecv,          // a = x10rt::MsgType, b = source place
  kFinishOpen,       // a = finish seq, b = pragma
  kFinishClose,      // a = finish seq, b = pragma
  kFinishUpgrade,    // a = finish seq (kAuto local counter -> matrix)
  kStealAttempt,     // a = victim place (GLB random steal)
  kStealSuccess,     // a = victim place
  kTeamBegin,        // a = collective op id (see docs), b = team id
  kTeamEnd,          // a = collective op id, b = team id
  kSchedSteal,       // intra-place deque steal; a = thief worker, b = victim
  kSchedOverflow,    // overflow-inbox drain; a = draining worker (-1 = ext)
  kCount_,           // sentinel — keep last; name() is static_asserted to it
};
inline constexpr int kNumEv = static_cast<int>(Ev::kCount_);

/// Stable lowercase event name (used by the exporters and docs).
const char* name(Ev e);

/// One recorded event, as read back out of a ring.
struct Event {
  std::uint64_t t_ns = 0;  // monotonic ns since trace::init()
  Ev kind = Ev::kActivitySpawn;
  std::int32_t place = -1;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Fixed-capacity MPMC overwrite ring. Writers claim slots with fetch_add;
/// readers (drain) run at quiescence. Exposed for unit testing.
class Ring {
 public:
  Ring() = default;
  explicit Ring(std::size_t capacity) { reset(capacity); }

  void reset(std::size_t capacity);
  void push(const Event& e);

  /// Total events ever pushed (>= stored once the ring has wrapped).
  [[nodiscard]] std::uint64_t written() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Snapshot of retained events, oldest first. Safe against concurrent
  /// pushes: each slot's generation stamp is checked before and after the
  /// field reads, so an event that is mid-write (or lapped during the read)
  /// is dropped rather than returned torn.
  [[nodiscard]] std::vector<Event> drain() const;

 private:
  struct Slot {
    // Seqlock stamp: a writer on lap L stores 2L+1 (claim) before the fields
    // and 2L+2 (publish) after. Readers expecting lap L accept the slot only
    // if they observe 2L+2 both before and after reading the fields —
    // deriving the stamp from the lap (rather than ++) keeps it well-formed
    // even when two lapped writers collide on the slot.
    std::atomic<std::uint64_t> gen{0};
    std::atomic<std::uint64_t> t{0};
    std::atomic<std::uint64_t> meta{0};  // kind << 32 | uint32(place)
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> cursor_{0};
};

namespace detail {
extern std::atomic<bool> g_enabled;
void record(int place, Ev kind, std::uint64_t a, std::uint64_t b);
inline constexpr int kHere = -2;  // resolve place from the worker TLS
}  // namespace detail

/// True when tracing is live. One relaxed load — this is the whole cost of a
/// disabled event site.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Records an event attributed to an explicit place ring.
inline void emit_at(int place, Ev kind, std::uint64_t a = 0,
                    std::uint64_t b = 0) {
  if (enabled()) detail::record(place, kind, a, b);
}

/// Records an event attributed to the calling worker's place (events from
/// non-worker threads land in the shared external ring).
inline void emit(Ev kind, std::uint64_t a = 0, std::uint64_t b = 0) {
  if (enabled()) detail::record(detail::kHere, kind, a, b);
}

/// Allocates `places + 1` rings (the extra one catches non-worker threads)
/// and arms/disarms event sites. When `enable` is false the rings are
/// allocated at minimal (one-slot) capacity, so a disabled run pays neither
/// CPU nor ring memory. Must not race emit(); Runtime calls it before
/// workers start.
void init(int places, std::size_t capacity_per_place, bool enable);

/// Disarms event sites and frees the rings.
void shutdown();

/// True between init() and shutdown() (even if recording is disabled).
bool active();

/// Sum of written() across rings (0 when inactive or disabled).
std::uint64_t total_events();

/// The `k` most recent retained events across all rings, oldest first
/// (merged by timestamp). Used by the stall watchdog's diagnosis dump.
std::vector<Event> recent(std::size_t k);

/// Every retained event across all rings, merged oldest first. Used by place
/// processes to ship their ring contents to the launcher supervisor before
/// shutdown() tears the recorder down.
std::vector<Event> drain_all();

/// The recorder's epoch (the instant t_ns counts from) as absolute
/// steady_clock nanoseconds, the clock hist::now_ns() reads. Every place
/// process on the host shares it, so a child's event happened at absolute
/// time epoch_abs_ns() + e.t_ns in every process's view. 0 when inactive.
std::uint64_t epoch_abs_ns();

/// Compact binary codec for shipping a ring drain across the ctrl socket:
/// [magic u32]["APGT" version u32][epoch_abs u64][count u64] then one fixed-
/// width record per event. decode_events returns false (leaving the outputs
/// untouched) on a malformed blob.
std::string encode_events(std::uint64_t epoch_abs_ns,
                          const std::vector<Event>& events);
bool decode_events(std::string_view blob, std::uint64_t& epoch_abs_ns_out,
                   std::vector<Event>& events_out);

/// One place process's decoded trace blob, for the merged exporter: each
/// event happened at absolute time epoch_ns + t_ns.
struct ProcEvents {
  int place = 0;
  std::uint64_t epoch_ns = 0;
  std::vector<Event> events;
};

/// Serializes every retained event as Chrome trace_event JSON (the format
/// chrome://tracing, Perfetto, and speedscope load). pid 0, tid = place;
/// activity begin/end become "B"/"E" duration events; remote spawns add
/// "s"/"f" flow events (arrows from activity.spawn on the source place to
/// the matching activity.begin, keyed by span id); finish open/close become
/// "b"/"e" async slices on a per-finish track (id = home<<40 | seq); the
/// rest are instants.
std::string chrome_json();

/// Multi-process variant used by the launcher supervisor: one Perfetto JSON
/// over every place process's events, with pid = owning place so each
/// process renders as its own named row, plus the same flow arrows as
/// chrome_json() — remote spawns are matched to begins across process
/// boundaries. Each event is emitted at epoch_ns + t_ns minus the earliest
/// such instant over all places, so the merged trace starts near ts 0. A
/// remote spawn is stamped before its frame is sent and the begin after it
/// is dequeued, on the one host clock, so every arrow points forward.
std::string chrome_json_merged(const std::vector<ProcEvents>& procs);

/// Writes chrome_json() to `path`. Returns false (and keeps quiet beyond a
/// stderr note) on I/O failure — teardown must not throw.
bool write_chrome_json(const std::string& path);

}  // namespace apgas::trace
