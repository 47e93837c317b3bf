#include "runtime/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "runtime/runtime.h"
#include "x10rt/message.h"

namespace apgas::trace {

namespace {

// Indexed by Ev; order must mirror the enum. Aggregate initialization zero-
// fills any tail entry a new Ev kind would leave behind, and the
// static_assert below turns that nullptr into a compile error — an event
// kind can no longer ship without a name.
constexpr std::array<const char*, kNumEv> kEvNames = {
    "activity.spawn",  // kActivitySpawn
    "activity",        // kActivityBegin
    "activity",        // kActivityEnd
    "send",            // kMsgSend
    "recv",            // kMsgRecv
    "finish.open",     // kFinishOpen
    "finish.close",    // kFinishClose
    "finish.upgrade",  // kFinishUpgrade
    "glb.steal",       // kStealAttempt
    "glb.loot",        // kStealSuccess
    "team",            // kTeamBegin
    "team",            // kTeamEnd
    "sched.steal",     // kSchedSteal
    "sched.overflow",  // kSchedOverflow
};

constexpr bool all_events_named() {
  for (const char* n : kEvNames) {
    if (n == nullptr) return false;
  }
  return true;
}
static_assert(all_events_named(),
              "trace::Ev grew without a name — extend kEvNames in trace.cc");

}  // namespace

const char* name(Ev e) {
  const auto i = static_cast<std::size_t>(e);
  return i < kEvNames.size() ? kEvNames[i] : "?";
}

// --- Ring --------------------------------------------------------------------

void Ring::reset(std::size_t capacity) {
  slots_ = std::vector<Slot>(capacity == 0 ? 1 : capacity);
  cursor_.store(0, std::memory_order_relaxed);
}

void Ring::push(const Event& e) {
  const std::uint64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cap = slots_.size();
  Slot& s = slots_[i % cap];
  const std::uint64_t lap = i / cap;
  // Seqlock write: claim (odd) -> fields -> publish (even). The stamps are
  // derived from the lap so two writers a full lap apart can collide on the
  // slot without ever producing a stamp that validates a torn read.
  s.gen.store(2 * lap + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.t.store(e.t_ns, std::memory_order_relaxed);
  s.meta.store((static_cast<std::uint64_t>(e.kind) << 32) |
                   static_cast<std::uint32_t>(e.place),
               std::memory_order_relaxed);
  s.a.store(e.a, std::memory_order_relaxed);
  s.b.store(e.b, std::memory_order_relaxed);
  s.gen.store(2 * lap + 2, std::memory_order_release);
}

std::vector<Event> Ring::drain() const {
  const std::uint64_t n = cursor_.load(std::memory_order_relaxed);
  const std::size_t cap = slots_.size();
  const std::size_t stored = n < cap ? static_cast<std::size_t>(n) : cap;
  const std::uint64_t first = n - stored;  // index of the oldest retained
  std::vector<Event> out;
  out.reserve(stored);
  for (std::uint64_t i = first; i < n; ++i) {
    const Slot& s = slots_[i % cap];
    // Accept the slot only if the publish stamp for *this* lap is observed
    // both before and after the field reads — otherwise the slot is still
    // in flight (claim stamp) or was overwritten by a later lap; drop it.
    const std::uint64_t want = 2 * (i / cap) + 2;
    if (s.gen.load(std::memory_order_acquire) != want) continue;
    Event e;
    e.t_ns = s.t.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    e.kind = static_cast<Ev>(meta >> 32);
    e.place = static_cast<std::int32_t>(meta & 0xffffffffu);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.gen.load(std::memory_order_relaxed) != want) continue;
    out.push_back(e);
  }
  return out;
}

// --- global recorder ---------------------------------------------------------

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

struct Recorder {
  std::vector<std::unique_ptr<Ring>> rings;  // [places] + 1 external ring
  std::chrono::steady_clock::time_point epoch;
};

std::atomic<Recorder*> g_recorder{nullptr};

std::uint64_t now_ns(const Recorder& r) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - r.epoch)
          .count());
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
}

}  // namespace

namespace detail {

void record(int place, Ev kind, std::uint64_t a, std::uint64_t b) {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  if (r == nullptr) return;
  if (place == kHere) place = apgas::detail::tl_place;
  const int nrings = static_cast<int>(r->rings.size());
  // Non-worker threads (and out-of-range places) share the external ring.
  const int idx = (place >= 0 && place < nrings - 1) ? place : nrings - 1;
  Event e;
  e.t_ns = now_ns(*r);
  e.kind = kind;
  e.place = place;
  e.a = a;
  e.b = b;
  r->rings[static_cast<std::size_t>(idx)]->push(e);
}

}  // namespace detail

void init(int places, std::size_t capacity_per_place, bool enable) {
  shutdown();
  auto* r = new Recorder;
  // Disabled runs keep the recorder live (active() stays true, exporters
  // emit empty traces) but must not pay the ring memory — "near-zero cost
  // when disabled" covers the 2 MiB/place of slots, not just the emit sites.
  // Ring clamps capacity 0 to one slot, so each ring costs ~32 bytes.
  const std::size_t cap = enable ? capacity_per_place : 0;
  r->rings.reserve(static_cast<std::size_t>(places) + 1);
  for (int p = 0; p < places + 1; ++p) {
    r->rings.push_back(std::make_unique<Ring>(cap));
  }
  r->epoch = std::chrono::steady_clock::now();
  g_recorder.store(r, std::memory_order_release);
  detail::g_enabled.store(enable, std::memory_order_release);
}

void shutdown() {
  detail::g_enabled.store(false, std::memory_order_release);
  Recorder* r = g_recorder.exchange(nullptr, std::memory_order_acq_rel);
  delete r;
}

bool active() { return g_recorder.load(std::memory_order_acquire) != nullptr; }

std::uint64_t total_events() {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  if (r == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& ring : r->rings) total += ring->written();
  return total;
}

std::vector<Event> recent(std::size_t k) {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  std::vector<Event> all;
  if (r == nullptr) return all;
  for (const auto& ring : r->rings) {
    for (const Event& e : ring->drain()) all.push_back(e);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& x, const Event& y) { return x.t_ns < y.t_ns; });
  if (all.size() > k) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(k));
  return all;
}

std::vector<Event> drain_all() {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  std::vector<Event> all;
  if (r == nullptr) return all;
  for (const auto& ring : r->rings) {
    for (const Event& e : ring->drain()) all.push_back(e);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& x, const Event& y) { return x.t_ns < y.t_ns; });
  return all;
}

std::uint64_t epoch_abs_ns() {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  if (r == nullptr) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          r->epoch.time_since_epoch())
          .count());
}

namespace {

constexpr std::uint32_t kBlobMagic = 0x41504754u;  // "APGT"
// Blobs carry raw Ev ids, so the version moves whenever those ids shift.
constexpr std::uint32_t kBlobVersion = 3;

template <typename T>
void put(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

template <typename T>
bool get(std::string_view in, std::size_t& pos, T& v) {
  if (in.size() - pos < sizeof(T)) return false;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

std::string encode_events(std::uint64_t epoch_abs_ns,
                          const std::vector<Event>& events) {
  std::string out;
  out.reserve(24 + events.size() * 29);
  put(out, kBlobMagic);
  put(out, kBlobVersion);
  put(out, epoch_abs_ns);
  put(out, static_cast<std::uint64_t>(events.size()));
  for (const Event& e : events) {
    put(out, e.t_ns);
    put(out, static_cast<std::uint8_t>(e.kind));
    put(out, e.place);
    put(out, e.a);
    put(out, e.b);
  }
  return out;
}

bool decode_events(std::string_view blob, std::uint64_t& epoch_abs_ns_out,
                   std::vector<Event>& events_out) {
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t epoch = 0;
  std::uint64_t count = 0;
  if (!get(blob, pos, magic) || magic != kBlobMagic) return false;
  if (!get(blob, pos, version) || version != kBlobVersion) return false;
  if (!get(blob, pos, epoch) || !get(blob, pos, count)) return false;
  constexpr std::size_t kRecord = 8 + 1 + 4 + 8 + 8;
  if (count > (blob.size() - pos) / kRecord) return false;
  if (blob.size() - pos != count * kRecord) return false;
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Event e;
    std::uint8_t kind = 0;
    if (!get(blob, pos, e.t_ns) || !get(blob, pos, kind) ||
        !get(blob, pos, e.place) || !get(blob, pos, e.a) ||
        !get(blob, pos, e.b)) {
      return false;
    }
    if (kind >= static_cast<std::uint8_t>(Ev::kCount_)) return false;
    e.kind = static_cast<Ev>(kind);
    events.push_back(e);
  }
  epoch_abs_ns_out = epoch;
  events_out = std::move(events);
  return true;
}

namespace {

// Span ids whose spawn was remote. Only those get flow events — a local
// spawn/begin pair sits on one track already, and emitting a flow "f" with
// no matching "s" (spawn fell off the ring) would be rejected by the
// importer anyway.
void collect_remote_spawns(const std::vector<Event>& evs,
                           std::unordered_set<std::uint64_t>& remote_spawns) {
  for (const Event& e : evs) {
    if (e.kind == Ev::kActivitySpawn && ((e.b >> 32) & 1u) != 0 && e.a != 0) {
      remote_spawns.insert(e.a);
    }
  }
}

// Serializes one event (plus its flow companion where applicable) as Chrome
// trace_event objects. Shared by the single-process and merged exporters;
// `pid` is 0 in-process and the owning place in a merged trace.
void emit_event_json(std::string& out, bool& first, const Event& e, int pid,
                     const std::unordered_set<std::uint64_t>& remote_spawns) {
  char buf[320];
  // Shared "...,{"name":NM,"ph":PH,"ts":...,"pid":P,"tid":place" prefix;
  // ts is microseconds (Chrome's unit) with ns precision as decimals.
  auto header = [&](const char* nm, const char* ph) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    json_escape_into(out, nm);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"%s\",\"ts\":%" PRIu64 ".%03u,\"pid\":%d,"
                  "\"tid\":%d",
                  ph, e.t_ns / 1000, static_cast<unsigned>(e.t_ns % 1000), pid,
                  e.place);
    out += buf;
  };
  auto append = [&](const char* fmt, auto... vals) {
    std::snprintf(buf, sizeof(buf), fmt, vals...);
    out += buf;
  };
  switch (e.kind) {
    case Ev::kActivitySpawn: {
      const auto dst = static_cast<std::uint64_t>(e.b & 0xffffffffu);
      const auto remote = static_cast<unsigned>((e.b >> 32) & 1u);
      header(name(e.kind), "i");
      // Span ids exceed JSON's double-exact integer range; hex strings
      // keep them grep-able against the begin event and the flow id.
      append(",\"args\":{\"span\":\"0x%" PRIx64 "\",\"dst\":%" PRIu64
             ",\"remote\":%u},\"s\":\"t\"}",
             e.a, dst, remote);
      if (remote != 0 && e.a != 0) {
        // Flow start: binds to the enclosing slice (the spawning
        // activity) on this track; the arrow lands on the matching
        // activity.begin on the destination place.
        header("activity.spawn", "s");
        append(",\"cat\":\"flow\",\"id\":\"0x%" PRIx64 "\"}", e.a);
      }
      break;
    }
    case Ev::kActivityBegin: {
      header(name(e.kind), "B");
      append(",\"args\":{\"span\":\"0x%" PRIx64 "\",\"parent\":\"0x%" PRIx64
             "\"}}",
             e.a, e.b);
      if (e.a != 0 && remote_spawns.count(e.a) != 0) {
        header("activity.spawn", "f");
        append(",\"cat\":\"flow\",\"bp\":\"e\",\"id\":\"0x%" PRIx64 "\"}",
               e.a);
      }
      break;
    }
    case Ev::kActivityEnd:
    case Ev::kTeamEnd:
      header(name(e.kind), "E");  // "E" needs no args; keeps pairs
      out += "}";                 // balanced
      break;
    case Ev::kTeamBegin:
      header(name(e.kind), "B");
      append(",\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}", e.a, e.b);
      break;
    case Ev::kFinishOpen:
    case Ev::kFinishClose: {
      // Async ("b"/"e") slice per finish: one track per id, paired by
      // cat+id+name. The id folds home place and seq exactly like
      // FinishKeyHash; the name carries the declared protocol.
      const bool open = e.kind == Ev::kFinishOpen;
      const std::string nm =
          std::string("finish.") + pragma_name(static_cast<Pragma>(e.b));
      const std::uint64_t gid =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.place))
           << 40) |
          e.a;
      header(nm.c_str(), open ? "b" : "e");
      append(",\"cat\":\"finish\",\"id\":\"0x%" PRIx64 "\"", gid);
      if (open) {
        append(",\"args\":{\"seq\":%" PRIu64 ",\"pragma\":%" PRIu64 "}", e.a,
               e.b);
      }
      out += "}";
      break;
    }
    case Ev::kMsgSend:
    case Ev::kMsgRecv: {
      // Message events get their class folded into the name so tracks
      // are readable without expanding args.
      const std::string nm =
          std::string(name(e.kind)) + "." +
          x10rt::msg_type_name(static_cast<x10rt::MsgType>(e.a));
      header(nm.c_str(), "i");
      append(",\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "},\"s\":\"t\"}",
             e.a, e.b);
      break;
    }
    default:
      header(name(e.kind), "i");
      append(",\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "},\"s\":\"t\"}",
             e.a, e.b);
      break;
  }
}

}  // namespace

std::string chrome_json() {
  Recorder* r = g_recorder.load(std::memory_order_acquire);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  if (r != nullptr) {
    std::vector<std::vector<Event>> drained;
    drained.reserve(r->rings.size());
    for (const auto& ring : r->rings) drained.push_back(ring->drain());
    std::unordered_set<std::uint64_t> remote_spawns;
    for (const auto& evs : drained) collect_remote_spawns(evs, remote_spawns);
    for (const auto& evs : drained) {
      for (const Event& e : evs) {
        emit_event_json(out, first, e, 0, remote_spawns);
      }
    }
  }
  out += "]}";
  return out;
}

std::string chrome_json_merged(const std::vector<ProcEvents>& procs) {
  std::uint64_t base = UINT64_MAX;
  std::unordered_set<std::uint64_t> remote_spawns;
  for (const ProcEvents& p : procs) {
    for (const Event& e : p.events) base = std::min(base, p.epoch_ns + e.t_ns);
    collect_remote_spawns(p.events, remote_spawns);
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const ProcEvents& p : procs) {
    // Per-place process row: Perfetto names the pid track from this
    // metadata event.
    if (!first) out.push_back(',');
    first = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":0,\"args\":{\"name\":\"place %d\"}}",
                  p.place, p.place);
    out += buf;
    for (Event e : p.events) {
      e.t_ns = p.epoch_ns + e.t_ns - base;
      emit_event_json(out, first, e, p.place, remote_spawns);
    }
  }
  out += "]}";
  return out;
}

bool write_chrome_json(const std::string& path) {
  const std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[apgas] cannot write trace to %s\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size()) {
    std::fprintf(stderr, "[apgas] short write of trace %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace apgas::trace
