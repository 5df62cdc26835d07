#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace perfbench {

void SpanLog::Add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

uint64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::vector<Span> SpanLog::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  wikisearch::JsonWriter w;
  w.BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Key("name");
      w.String(s.name);
      w.Key("ph");
      w.String("X");
      w.Key("pid");
      w.UInt(1);
      w.Key("tid");
      w.UInt(s.parent == 0 ? s.id : s.parent);
      w.Key("ts");
      w.Double(s.start_s * 1e6);
      w.Key("dur");
      w.Double((s.end_s - s.start_s) * 1e6);
      w.Key("args");
      w.BeginObject();
      w.Key("id");
      w.UInt(s.id);
      w.Key("parent");
      w.UInt(s.parent);
      w.EndObject();
      w.EndObject();
    }
  }
  w.EndArray();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = std::move(w).Take();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t Fnv1a(const char* data, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
