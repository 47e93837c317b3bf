// apgas_top: live terminal dashboard over the telemetry JSONL.
//
//   apgas_top [--once] [--interval MS] [file]
//
// Tails the JSONL that the launcher (socket mode) or the runtime itself
// (in-process mode) appends under APGAS_TELEMETRY_MS, and renders one row
// per place: activity/steal/socket-frame/park rates computed from
// counter deltas, the latest latency percentiles, and a watchdog flag that
// lights up when a place shipped a stall diagnosis. With --once it reads the
// file once, prints cumulative totals instead of rates, and exits — that is
// the mode tests and CI use.
//
// The frame format is flat JSON (telemetry.h); this parser is a scanner for
// exactly that shape, not a general JSON reader. Keys are matched by
// substring so the dashboard keeps working when the registry grows new
// counters: a "task" column sums every selected counter whose key contains
// "activities_executed", and so on.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

namespace {

struct PlaceRow {
  std::uint64_t seq = 0;
  std::uint64_t t_ms = 0;                       // last frame stamp
  std::uint64_t prev_t_ms = 0;                  // stamp at previous render
  std::map<std::string, long long> totals;      // accumulated counter deltas
  std::map<std::string, long long> prev_totals; // totals at previous render
  std::map<std::string, long long> abs;         // latest "a" absolutes
  int watchdog_reports = 0;
};

// --- tiny scanners over one JSONL frame -------------------------------------

bool find_int(const std::string& s, const char* field, long long* out) {
  const std::string pat = std::string("\"") + field + "\":";
  const std::size_t at = s.find(pat);
  if (at == std::string::npos) return false;
  *out = std::strtoll(s.c_str() + at + pat.size(), nullptr, 10);
  return true;
}

// Walks the flat object after `"name":{` and calls fn(key, value) per pair.
// Values are integers (telemetry.h emits nothing else inside d/a).
template <typename Fn>
void walk_object(const std::string& s, const char* name, Fn fn) {
  const std::string pat = std::string("\"") + name + "\":{";
  std::size_t at = s.find(pat);
  if (at == std::string::npos) return;
  at += pat.size();
  while (at < s.size() && s[at] != '}') {
    if (s[at] != '"') return;  // malformed; stop quietly
    const std::size_t kend = s.find('"', at + 1);
    if (kend == std::string::npos) return;
    const std::string key = s.substr(at + 1, kend - at - 1);
    std::size_t vat = kend + 1;
    if (vat >= s.size() || s[vat] != ':') return;
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str() + vat + 1, &end, 10);
    fn(key, v);
    at = static_cast<std::size_t>(end - s.c_str());
    if (at < s.size() && s[at] == ',') ++at;
  }
}

void ingest_line(const std::string& line, std::map<int, PlaceRow>& rows) {
  long long place = 0;
  if (!find_int(line, "place", &place)) return;
  PlaceRow& r = rows[static_cast<int>(place)];
  if (line.find("\"watchdog\":") != std::string::npos) {
    ++r.watchdog_reports;
    return;
  }
  long long v = 0;
  if (find_int(line, "seq", &v)) r.seq = static_cast<std::uint64_t>(v);
  if (find_int(line, "t_ms", &v)) r.t_ms = static_cast<std::uint64_t>(v);
  walk_object(line, "d",
              [&r](const std::string& k, long long d) { r.totals[k] += d; });
  walk_object(line, "a",
              [&r](const std::string& k, long long a) { r.abs[k] = a; });
}

// Sum of entries (in totals minus prev when `rate`) whose key contains `sub`.
long long column(const PlaceRow& r, const char* sub, bool rate) {
  long long sum = 0;
  for (const auto& [k, v] : r.totals) {
    if (k.find(sub) == std::string::npos) continue;
    sum += v;
    if (rate) {
      const auto it = r.prev_totals.find(k);
      if (it != r.prev_totals.end()) sum -= it->second;
    }
  }
  return sum;
}

long long abs_col(const PlaceRow& r, const char* sub) {
  for (const auto& [k, v] : r.abs) {
    if (k.find(sub) != std::string::npos) return v;
  }
  return 0;
}

/// Formats one rate cell from a counter delta over the place's *frame-stamp*
/// interval. dt_ms == 0 means the place's t_ms did not advance since the
/// last render — no new frame, or frames carrying duplicate stamps from a
/// clock that did not tick between flushes; dividing by that zero would
/// print inf (or garbage after the cast), so the cell renders "-" instead.
const char* fmt_rate(char* buf, std::size_t n, long long delta,
                     std::uint64_t dt_ms) {
  if (dt_ms == 0) return "-";
  std::snprintf(buf, n, "%.0f",
                static_cast<double>(delta) * 1000.0 /
                    static_cast<double>(dt_ms));
  return buf;
}

void render(std::map<int, PlaceRow>& rows, bool once) {
  if (!once) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
  std::printf("apgas_top — %zu place(s)%s\n", rows.size(),
              once ? " (totals)" : "");
  std::printf("%5s %6s %10s %10s %10s %10s %12s %12s %3s\n", "place", "seq",
              once ? "tasks" : "task/s", once ? "steals" : "steal/s",
              once ? "frames" : "frame/s", once ? "parks" : "park/s",
              "exec_p99_us", "ship_p99_us", "wd");
  for (auto& [p, r] : rows) {
    if (once) {
      std::printf("%5d %6" PRIu64
                  " %10lld %10lld %10lld %10lld %12lld %12lld %3s\n",
                  p, r.seq, column(r, "activities_executed", false),
                  column(r, ".steals", false), column(r, "frames_sent", false),
                  column(r, "park", false),
                  abs_col(r, "activity.exec_ns.p99") / 1000,
                  abs_col(r, "ship_xproc_aligned_ns.p99") / 1000,
                  r.watchdog_reports > 0 ? "!!" : "-");
    } else {
      // Rates come from the place's own telemetry stamps, not the poll
      // interval — frames can arrive late or bunched without skewing them.
      const std::uint64_t dt_ms =
          r.t_ms > r.prev_t_ms ? r.t_ms - r.prev_t_ms : 0;
      char b[4][32];
      std::printf(
          "%5d %6" PRIu64 " %10s %10s %10s %10s %12lld %12lld %3s\n", p,
          r.seq,
          fmt_rate(b[0], sizeof b[0], column(r, "activities_executed", true),
                   dt_ms),
          fmt_rate(b[1], sizeof b[1], column(r, ".steals", true), dt_ms),
          fmt_rate(b[2], sizeof b[2], column(r, "frames_sent", true), dt_ms),
          fmt_rate(b[3], sizeof b[3], column(r, "park", true), dt_ms),
          abs_col(r, "activity.exec_ns.p99") / 1000,
          abs_col(r, "ship_xproc_aligned_ns.p99") / 1000,
          r.watchdog_reports > 0 ? "!!" : "-");
      r.prev_t_ms = r.t_ms;
    }
    r.prev_totals = r.totals;
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "apgas_telemetry.jsonl";
  bool once = false;
  int interval_ms = 1000;
  long ticks = -1;  // rate-mode renders before exiting; -1 = forever
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ticks") == 0 && i + 1 < argc) {
      ticks = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: apgas_top [--once] [--interval MS] [--ticks N] [file]\n");
      return 0;
    } else {
      path = argv[i];
    }
  }

  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "apgas_top: cannot open %s\n", path);
    return 1;
  }

  std::map<int, PlaceRow> rows;
  std::string carry;  // partial last line between polls
  auto drain = [&] {
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      carry.append(buf, n);
      std::size_t nl;
      while ((nl = carry.find('\n')) != std::string::npos) {
        ingest_line(carry.substr(0, nl), rows);
        carry.erase(0, nl + 1);
      }
    }
    std::clearerr(f);  // EOF is just "caught up" while tailing
  };

  if (once) {
    drain();
    render(rows, /*once=*/true);
    std::fclose(f);
    return 0;
  }
  for (long t = 0; ticks < 0 || t < ticks; ++t) {
    drain();
    render(rows, /*once=*/false);
    if (ticks >= 0 && t + 1 == ticks) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  std::fclose(f);
  return 0;
}
