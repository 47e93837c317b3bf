#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Record -----------------------------------------------------------------

const std::vector<double>& Record::get(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = series_.find(name);
  return it == series_.end() ? kEmpty : it->second;
}

double Record::scalar(const std::string& name, double fallback) const {
  const auto& v = get(name);
  return v.empty() ? fallback : v.front();
}

bool Record::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [name, values] : series_) {
    std::fputs(name.c_str(), f);
    for (double v : values) std::fprintf(f, " %.17g", v);
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

bool Record::read(const std::string& path, Record& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    if (!(fields >> name)) continue;
    auto& values = out.series_[name];
    double v = 0;
    while (fields >> v) values.push_back(v);
  }
  return true;
}

// --- SpanLog ----------------------------------------------------------------

const char* span_name(Sp s) {
  static const char* const kNames[kNumSpanNames] = {
      "solve",          "runtime.finish", "runtime.finish.close_wait",
      "runtime.asyncAt", "runtime.at",    "glb.run",
      "kernels.stream_run", "kernels.randomaccess_run", "kernels.fft_run",
      "kernels.kmeans_run", "kernels.hpl_run", "kernels.smith_waterman_run",
      "kernels.bc_run",
  };
  return kNames[static_cast<int>(s)];
}

std::uint32_t SpanLog::begin(Sp name) {
  if (!on_) return 0;
  Span s;
  s.name = name;
  s.solve = solve_;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanLog::end(std::uint32_t id) {
  if (!on_) return;
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

void SpanLog::add(Sp name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.solve = solve_;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

std::vector<double> SpanLog::durations_ns(Sp name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> SpanLog::self_ns(Sp name) const {
  // Children follow their parent in the log and never overlap one another
  // (one driver activity records them all), so summing their durations
  // gives the covered part of the parent's interval.
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) -
                    child_ns[s.id]);
    }
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path, std::size_t limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("name,id,parent,solve,start_ns,end_ns\n", f);
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%u,%u,%lld,%lld,%lld\n", span_name(s.name), s.id,
                 s.parent, static_cast<long long>(s.solve),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
