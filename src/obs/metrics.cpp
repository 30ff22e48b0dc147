#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "support/json.h"

namespace mcr::obs {

namespace {

/// Base metric name for the # TYPE line: everything before the label set.
std::string_view base_name(std::string_view name) {
  const auto brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string labeled_name(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>> labels) {
  std::string out(base);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  out += '}';
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      exemplar_slots_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
}

std::size_t Histogram::bucket_index(double x) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double x) noexcept {
  buckets_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> via CAS: portable across libstdc++ versions.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double x, std::string_view exemplar) {
  observe(x);
  if (exemplar.empty()) return;
  constexpr auto kStale = std::chrono::seconds(60);
  ExemplarSlot& slot = exemplar_slots_[bucket_index(x)];
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  const auto now =
      exemplar_clock_ ? exemplar_clock_() : std::chrono::steady_clock::now();
  if (slot.label.empty() || x >= slot.value || now - slot.when > kStale) {
    slot.value = x;
    slot.label.assign(exemplar);
    slot.when = now;
  }
}

void Histogram::set_exemplar_clock(ExemplarClock clock) {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  exemplar_clock_ = std::move(clock);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    s.counts.push_back(b.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    s.exemplars.reserve(exemplar_slots_.size());
    for (const ExemplarSlot& slot : exemplar_slots_) {
      s.exemplars.push_back({slot.value, slot.label});
    }
  }
  return s;
}

std::vector<double> MetricsRegistry::default_bounds() {
  std::vector<double> b;
  for (double v = 1e-6; v < 100.0; v *= 4.0) b.push_back(v);  // 1us .. ~65s
  return b;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0 ||
      windowed_.count(name) != 0) {
    throw std::invalid_argument("metric '" + name + "' already registered with another type");
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0 ||
      windowed_.count(name) != 0) {
    throw std::invalid_argument("metric '" + name + "' already registered with another type");
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    throw std::invalid_argument("metric '" + name + "' already registered with another type");
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

SlidingWindowHistogram& MetricsRegistry::windowed_histogram(
    const std::string& name, std::vector<double> bounds,
    SlidingWindowHistogram::Options options) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A windowed instrument may share its name with a cumulative
  // histogram (the windowed view of the same family) but not with a
  // scalar instrument.
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    throw std::invalid_argument("metric '" + name + "' already registered with another type");
  }
  auto& slot = windowed_[name];
  if (!slot) {
    slot = std::make_unique<SlidingWindowHistogram>(std::move(bounds),
                                                    std::move(options));
  }
  return *slot;
}

std::map<std::string, SlidingWindowHistogram::Snapshot>
MetricsRegistry::windowed_snapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, SlidingWindowHistogram::Snapshot> out;
  for (const auto& [name, h] : windowed_) out.emplace(name, h->snapshot());
  return out;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::gauge_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, g] : gauges_) out.emplace(name, g->value());
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string_view last_typed;
  const auto type_line = [&](std::string_view name, const char* type) {
    const std::string_view base = base_name(name);
    if (base == last_typed) return;  // label variants share one TYPE line
    last_typed = base;
    os << "# TYPE " << base << ' ' << type << '\n';
  };
  for (const auto& [name, c] : counters_) {
    type_line(name, "counter");
    os << name << ' ' << c->value() << '\n';
  }
  last_typed = {};
  for (const auto& [name, g] : gauges_) {
    type_line(name, "gauge");
    os << name << ' ' << g->value() << '\n';
  }
  last_typed = {};
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    const std::string_view base = base_name(name);
    type_line(name, "histogram");
    // Instrument labels ("verb=\"SOLVE\"" for a name registered via
    // labeled_name) are merged before `le` on every _bucket series and
    // appended to _sum/_count; a label-free name emits the exact series
    // it always has.
    const std::string_view labels =
        base.size() == name.size()
            ? std::string_view{}
            : std::string_view(name).substr(base.size() + 1,
                                            name.size() - base.size() - 2);
    const auto bucket_line = [&](std::string_view le, std::uint64_t count) {
      os << base << "_bucket{";
      if (!labels.empty()) os << labels << ',';
      os << "le=\"" << le << "\"} " << count << '\n';
    };
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      cumulative += s.counts[i];
      bucket_line(json::format_number(s.bounds[i]), cumulative);
    }
    bucket_line("+Inf", s.count);
    const std::string label_suffix =
        labels.empty() ? std::string() : '{' + std::string(labels) + '}';
    os << base << "_sum" << label_suffix << ' ' << json::format_number(s.sum) << '\n';
    os << base << "_count" << label_suffix << ' ' << s.count << '\n';
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  const auto key = [&](const std::string& name) {
    out += '"';
    json::append_escaped(out, name);
    out += "\":";
  };
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    key(name);
    out += std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    key(name);
    out += std::to_string(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    const Histogram::Snapshot s = h->snapshot();
    key(name);
    out += "{\"count\":" + std::to_string(s.count);
    out += ",\"sum\":" + json::format_number(s.sum);
    out += ",\"buckets\":[";
    const auto exemplar = [&](std::size_t i) {
      if (i >= s.exemplars.size() || s.exemplars[i].label.empty()) return;
      out += ",\"exemplar\":{\"value\":" + json::format_number(s.exemplars[i].value) +
             ",\"label\":\"";
      json::append_escaped(out, s.exemplars[i].label);
      out += "\"}";
    };
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      cumulative += s.counts[i];
      if (i != 0) out += ',';
      out += "{\"le\":" + json::format_number(s.bounds[i]) +
             ",\"count\":" + std::to_string(cumulative);
      exemplar(i);
      out += '}';
    }
    if (!s.bounds.empty()) out += ',';
    out += "{\"le\":\"+Inf\",\"count\":" + std::to_string(s.count);
    exemplar(s.bounds.size());
    out += "}]}";
  }
  out += "},\"windowed\":{";
  first = true;
  for (const auto& [name, h] : windowed_) {
    if (!first) out += ',';
    first = false;
    const SlidingWindowHistogram::Snapshot s = h->snapshot();
    key(name);
    out += "{\"count\":" + std::to_string(s.count);
    out += ",\"sum\":" + json::format_number(s.sum);
    out += ",\"window_seconds\":" + json::format_number(s.window_seconds);
    out += ",\"covered_seconds\":" + json::format_number(s.covered_seconds);
    out += ",\"buckets\":[";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      cumulative += s.counts[i];
      if (i != 0) out += ',';
      out += "{\"le\":" + json::format_number(s.bounds[i]) +
             ",\"count\":" + std::to_string(cumulative);
      out += '}';
    }
    if (!s.bounds.empty()) out += ',';
    out += "{\"le\":\"+Inf\",\"count\":" + std::to_string(s.count) + "}]}";
  }
  out += "}}";
  os << out;
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

std::string MetricsRegistry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace mcr::obs
