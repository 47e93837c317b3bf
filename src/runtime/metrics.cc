#include "runtime/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

namespace apgas {

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>(0);
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::add_gauge(const std::string& name, Gauge gauge) {
  std::scoped_lock lock(mu_);
  gauges_[name] = std::move(gauge);
}

std::uint64_t MetricsRegistry::value(const std::string& name) const {
  // Copy the gauge out so user callbacks never run under the registry lock.
  Gauge gauge;
  {
    std::scoped_lock lock(mu_);
    if (auto it = counters_.find(name); it != counters_.end()) {
      return it->second->load(std::memory_order_relaxed);
    }
    auto it = gauges_.find(name);
    if (it == gauges_.end()) return 0;
    gauge = it->second;
  }
  return gauge();
}

std::map<std::string, std::uint64_t> MetricsRegistry::snapshot() const {
  std::map<std::string, std::uint64_t> out;
  std::map<std::string, Gauge> gauges;
  std::vector<std::pair<std::string, const Histogram*>> hists;
  {
    std::scoped_lock lock(mu_);
    for (const auto& [name, c] : counters_) {
      out[name] = c->load(std::memory_order_relaxed);
    }
    for (const auto& [name, h] : histograms_) hists.emplace_back(name, h.get());
    gauges = gauges_;
  }
  // Histogram walks (a few thousand relaxed loads each) and gauge callbacks
  // run outside the lock; the Histogram objects live as long as the registry.
  for (const auto& [name, h] : hists) {
    const Histogram::Snapshot s = h->snapshot();
    const std::string base = "hist." + name;
    out[base + ".count"] = s.count;
    out[base + ".p50"] = s.p50;
    out[base + ".p90"] = s.p90;
    out[base + ".p99"] = s.p99;
    out[base + ".max"] = s.max;
  }
  for (const auto& [name, g] : gauges) out[name] = g();
  return out;
}

std::string format_metrics(const std::map<std::string, std::uint64_t>& snapshot,
                           bool as_json) {
  std::string out = as_json ? "{" : "";
  char buf[32];
  for (const auto& [name, v] : snapshot) {
    if (as_json) {
      if (out.size() > 1) out.push_back(',');
      out += "\"" + name + "\"";  // metric names never need escaping
      std::snprintf(buf, sizeof(buf), ":%" PRIu64, v);
    } else {
      out += name;
      std::snprintf(buf, sizeof(buf), "=%" PRIu64 "\n", v);
    }
    out += buf;
  }
  if (as_json) out += "}";
  return out;
}

bool write_metrics(const std::string& path,
                   const std::map<std::string, std::uint64_t>& snapshot) {
  const bool as_json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = format_metrics(snapshot, as_json);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[apgas] cannot write metrics to %s\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (n != body.size()) {
    std::fprintf(stderr, "[apgas] short write of metrics %s\n", path.c_str());
    return false;
  }
  return true;
}

namespace {
std::map<std::string, std::uint64_t> g_last_metrics;  // written at teardown
}  // namespace

const std::map<std::string, std::uint64_t>& last_run_metrics() {
  return g_last_metrics;
}

namespace detail {
void store_last_metrics(std::map<std::string, std::uint64_t> snapshot) {
  g_last_metrics = std::move(snapshot);
}
}  // namespace detail

}  // namespace apgas
