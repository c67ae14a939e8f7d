#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>

namespace pcm::obs {

std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  std::vector<MetricKind> kinds;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

MetricId register_metric(std::string_view name, MetricKind kind) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] != name) continue;
    if (r.kinds[i] != kind) {
      throw std::invalid_argument(
          "metric '" + std::string(name) + "' re-registered as " +
          std::string(to_string(kind)) + " but is a " +
          std::string(to_string(r.kinds[i])));
    }
    return i;
  }
  // Registration happens once per metric name for the whole process, not
  // per superstep; the hot path only ever hits the early-return above.
  r.names.emplace_back(name);
  r.kinds.push_back(kind);
  return r.names.size() - 1;
}

std::size_t registry_size() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.names.size();
}

std::string metric_name(MetricId id) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.names.at(id);
}

MetricKind metric_kind(MetricId id) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (id >= r.kinds.size()) throw std::out_of_range("unknown MetricId");
  return r.kinds[id];
}

const Builtin& builtin() {
  static const Builtin b = [] {
    Builtin ids;
    ids.exchanges = register_metric("machine.exchanges", MetricKind::Counter);
    ids.packets = register_metric("machine.packets", MetricKind::Counter);
    ids.bytes = register_metric("machine.bytes", MetricKind::Counter);
    ids.barriers = register_metric("machine.barriers", MetricKind::Counter);
    ids.barrier_skew_us =
        register_metric("machine.barrier_skew_us", MetricKind::Histogram);
    ids.delta_waves = register_metric("net.delta.waves", MetricKind::Counter);
    ids.delta_conflicts =
        register_metric("net.delta.conflicts", MetricKind::Counter);
    ids.delta_waves_per_exchange =
        register_metric("net.delta.waves_per_exchange", MetricKind::Histogram);
    ids.fat_tree_port_queue_peak =
        register_metric("net.fat_tree.port_queue_peak", MetricKind::Gauge);
    ids.mesh_recv_backlog_peak =
        register_metric("net.mesh.recv_backlog_peak", MetricKind::Gauge);
    ids.parcels = register_metric("runtime.parcels", MetricKind::Counter);
    ids.payload_bytes =
        register_metric("runtime.payload_bytes", MetricKind::Counter);
    return ids;
  }();
  return b;
}

void Metrics::set_on(bool on) {
  on_ = on;
  if (on_ && scalars_.empty()) ensure(registry_size() > 0 ? registry_size() - 1 : 0);
}

void Metrics::ensure(MetricId id) {
  if (id < scalars_.size()) return;
  scalars_.resize(id + 1, 0);
  hists_.resize(id + 1);
  touched_.resize(id + 1, false);
}

void Metrics::add(MetricId id, std::uint64_t delta) {
  if (!on_) return;
  ensure(id);
  scalars_[id] += delta;
  touched_[id] = true;
}

void Metrics::peak(MetricId id, std::uint64_t v) {
  if (!on_) return;
  ensure(id);
  scalars_[id] = std::max(scalars_[id], v);
  touched_[id] = true;
}

void Metrics::observe(MetricId id, std::uint64_t v) {
  if (!on_) return;
  ensure(id);
  HistogramData& h = hists_[id];
  ++h.count;
  h.sum += v;
  h.max = std::max(h.max, v);
  ++h.buckets[static_cast<std::size_t>(std::bit_width(v))];
  touched_[id] = true;
}

std::uint64_t Metrics::value(MetricId id) const {
  return id < scalars_.size() ? scalars_[id] : 0;
}

HistogramData Metrics::histogram(MetricId id) const {
  return id < hists_.size() ? hists_[id] : HistogramData{};
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot snap;
  for (MetricId id = 0; id < touched_.size(); ++id) {
    if (!touched_[id]) continue;
    SnapshotEntry e;
    e.name = metric_name(id);
    e.kind = metric_kind(id);
    e.value = scalars_[id];
    e.hist = hists_[id];
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.name < b.name;
            });
  return snap;
}

void Metrics::clear() {
  std::fill(scalars_.begin(), scalars_.end(), 0);
  std::fill(hists_.begin(), hists_.end(), HistogramData{});
  std::fill(touched_.begin(), touched_.end(), false);
}

const SnapshotEntry* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  // Both entry lists are name-sorted; a classic two-pointer merge keeps the
  // result sorted and the operation associative.
  std::vector<SnapshotEntry> merged;
  merged.reserve(entries.size() + other.entries.size());
  std::size_t i = 0, j = 0;
  while (i < entries.size() || j < other.entries.size()) {
    if (j >= other.entries.size() ||
        (i < entries.size() && entries[i].name < other.entries[j].name)) {
      merged.push_back(std::move(entries[i++]));
      continue;
    }
    if (i >= entries.size() || other.entries[j].name < entries[i].name) {
      merged.push_back(other.entries[j++]);
      continue;
    }
    SnapshotEntry e = std::move(entries[i++]);
    const SnapshotEntry& o = other.entries[j++];
    switch (e.kind) {
      case MetricKind::Counter: e.value += o.value; break;
      case MetricKind::Gauge: e.value = std::max(e.value, o.value); break;
      case MetricKind::Histogram: {
        e.hist.count += o.hist.count;
        e.hist.sum += o.hist.sum;
        e.hist.max = std::max(e.hist.max, o.hist.max);
        for (std::size_t b = 0; b < e.hist.buckets.size(); ++b) {
          e.hist.buckets[b] += o.hist.buckets[b];
        }
        break;
      }
    }
    merged.push_back(std::move(e));
  }
  entries = std::move(merged);
}

std::string encode_metrics_snapshot(const MetricsSnapshot& snap) {
  std::string out;
  for (const SnapshotEntry& e : snap.entries) {
    if (!out.empty()) out.push_back(';');
    out += e.name;
    out.push_back('=');
    switch (e.kind) {
      case MetricKind::Counter:
        out += "c:" + std::to_string(e.value);
        break;
      case MetricKind::Gauge:
        out += "g:" + std::to_string(e.value);
        break;
      case MetricKind::Histogram: {
        out += "h:" + std::to_string(e.hist.count) + ':' +
               std::to_string(e.hist.sum) + ':' + std::to_string(e.hist.max);
        std::string buckets;
        for (std::size_t b = 0; b < e.hist.buckets.size(); ++b) {
          if (e.hist.buckets[b] == 0) continue;
          if (!buckets.empty()) buckets.push_back(',');
          buckets +=
              std::to_string(b) + '.' + std::to_string(e.hist.buckets[b]);
        }
        if (!buckets.empty()) out += ':' + buckets;
        break;
      }
    }
  }
  return out;
}

namespace {

/// Strict uint64 parse of token[*pos..] up to the next delimiter; advances
/// *pos past the number. Returns false when no digits were consumed.
bool parse_u64(std::string_view token, std::size_t* pos, std::uint64_t* out) {
  std::uint64_t v = 0;
  std::size_t i = *pos;
  bool any = false;
  while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(token[i] - '0');
    any = true;
    ++i;
  }
  *pos = i;
  *out = v;
  return any;
}

bool decode_entry(std::string_view field, SnapshotEntry* e) {
  const auto eq = field.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 2 >= field.size()) {
    return false;
  }
  e->name = std::string(field.substr(0, eq));
  const char kind = field[eq + 1];
  if (field[eq + 2] != ':') return false;
  std::size_t pos = eq + 3;
  e->hist = HistogramData{};
  e->value = 0;
  if (kind == 'c' || kind == 'g') {
    e->kind = kind == 'c' ? MetricKind::Counter : MetricKind::Gauge;
    return parse_u64(field, &pos, &e->value) && pos == field.size();
  }
  if (kind != 'h') return false;
  e->kind = MetricKind::Histogram;
  if (!parse_u64(field, &pos, &e->hist.count) || pos >= field.size() ||
      field[pos] != ':') {
    return false;
  }
  ++pos;
  if (!parse_u64(field, &pos, &e->hist.sum)) return false;
  if (pos >= field.size() || field[pos] != ':') return false;
  ++pos;
  if (!parse_u64(field, &pos, &e->hist.max)) return false;
  if (pos == field.size()) return true;  // no non-zero buckets
  if (field[pos] != ':') return false;
  ++pos;
  while (pos < field.size()) {
    std::uint64_t bucket = 0, count = 0;
    if (!parse_u64(field, &pos, &bucket) || pos >= field.size() ||
        field[pos] != '.' || bucket >= e->hist.buckets.size()) {
      return false;
    }
    ++pos;
    if (!parse_u64(field, &pos, &count)) return false;
    e->hist.buckets[bucket] = count;
    if (pos == field.size()) break;
    if (field[pos] != ',') return false;
    ++pos;
  }
  return true;
}

}  // namespace

MetricsSnapshot decode_metrics_snapshot(std::string_view token) {
  MetricsSnapshot snap;
  std::size_t start = 0;
  while (start < token.size()) {
    auto end = token.find(';', start);
    if (end == std::string_view::npos) end = token.size();
    SnapshotEntry e;
    if (!decode_entry(token.substr(start, end - start), &e)) return {};
    snap.entries.push_back(std::move(e));
    start = end + 1;
  }
  // Entries were written name-sorted; re-sort defensively so merge()'s
  // two-pointer invariant holds even for a hand-edited journal.
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace pcm::obs
