#include "obs/run_report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

namespace p4u::obs {

namespace {

/// JSON number formatting: finite doubles round-trip via %.17g; NaN and
/// infinities (not representable in JSON) are emitted as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Creates `dir` (and parents); a no-op for "" (the working directory).
void create_out_dir(const std::string& dir, const char* who) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error(std::string(who) +
                             ": cannot create output directory '" + dir +
                             "': " + ec.message());
  }
}

#ifndef P4U_BUILD_TYPE
#define P4U_BUILD_TYPE "unknown"
#endif
#ifndef P4U_COMPILER
#define P4U_COMPILER "unknown"
#endif

/// The host a bench ran on. Lands in BENCH_*.json trajectory files only,
/// never in a campaign report.
Json machine_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      cpu = line.substr(colon + 2);
    }
    break;
  }
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return Json::object()
      .set("cpu", cpu)
      .set("cores", cores > 0 ? cores : 0L)
      .set("build_type", P4U_BUILD_TYPE)
      .set("compiler", P4U_COMPILER);
}

std::string labels_json(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

RunReport::RunReport(std::string out_dir, std::string run_name)
    : out_dir_(std::move(out_dir)), run_name_(std::move(run_name)) {}

void RunReport::set_meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void RunReport::set_meta(const std::string& key, std::uint64_t value) {
  meta_.emplace_back(key, std::to_string(value));
}

void RunReport::add_metrics(const MetricsRegistry& m) {
  for (const auto& row : m.counters()) {
    lines_.push_back("{\"type\":\"counter\",\"name\":\"" +
                     json_escape(row.name) +
                     "\",\"labels\":" + labels_json(row.labels) +
                     ",\"value\":" + std::to_string(row.value) + "}");
  }
  for (const auto& row : m.gauges()) {
    lines_.push_back("{\"type\":\"gauge\",\"name\":\"" +
                     json_escape(row.name) +
                     "\",\"labels\":" + labels_json(row.labels) +
                     ",\"value\":" + json_number(row.value) + "}");
  }
  for (const auto& row : m.histograms()) {
    const HistogramData& d = *row.value;
    std::string buckets = "[";
    for (std::size_t i = 0; i < d.counts.size(); ++i) {
      if (i > 0) buckets += ",";
      const std::string le =
          i < d.bounds.size() ? json_number(d.bounds[i]) : "\"inf\"";
      buckets += "{\"le\":" + le +
                 ",\"count\":" + std::to_string(d.counts[i]) + "}";
    }
    buckets += "]";
    lines_.push_back(
        "{\"type\":\"histogram\",\"name\":\"" + json_escape(row.name) +
        "\",\"labels\":" + labels_json(row.labels) +
        ",\"count\":" + std::to_string(d.count) +
        ",\"sum\":" + json_number(d.sum) + ",\"min\":" + json_number(d.min) +
        ",\"max\":" + json_number(d.max) + ",\"buckets\":" + buckets + "}");
  }
}

void RunReport::add_samples(const std::string& name, const sim::Samples& s,
                            const std::string& unit) {
  std::string raw = "[";
  for (std::size_t i = 0; i < s.raw().size(); ++i) {
    if (i > 0) raw += ",";
    raw += json_number(s.raw()[i]);
    csv_rows_.emplace_back(name, s.raw()[i]);
  }
  raw += "]";
  std::string line = "{\"type\":\"samples\",\"name\":\"" + json_escape(name) +
                     "\",\"unit\":\"" + json_escape(unit) +
                     "\",\"count\":" + std::to_string(s.count());
  if (!s.empty()) {
    line += ",\"mean\":" + json_number(s.mean()) +
            ",\"min\":" + json_number(s.min()) +
            ",\"max\":" + json_number(s.max()) +
            ",\"p50\":" + json_number(s.percentile(50)) +
            ",\"p95\":" + json_number(s.percentile(95)) +
            ",\"p99\":" + json_number(s.percentile(99)) +
            ",\"stddev\":" + json_number(s.stddev());
  }
  line += ",\"raw\":" + raw + "}";
  lines_.push_back(std::move(line));
}

void RunReport::add_trace(const sim::Trace& trace) {
  for (const sim::TraceEntry& e : trace.entries()) {
    lines_.push_back(
        "{\"type\":\"trace\",\"at_ms\":" + json_number(sim::to_ms(e.at)) +
        ",\"kind\":\"" + sim::to_string(e.kind) +
        "\",\"node\":" + std::to_string(e.node) +
        ",\"flow\":" + std::to_string(e.flow) +
        ",\"a\":" + std::to_string(e.a) + ",\"b\":" + std::to_string(e.b) +
        ",\"note\":\"" + json_escape(e.note) + "\"}");
  }
}

std::string RunReport::write() const {
  namespace fs = std::filesystem;
  create_out_dir(out_dir_, "RunReport");
  const std::string jsonl_path =
      (fs::path(out_dir_) / (run_name_ + ".jsonl")).string();
  {
    std::ofstream out(jsonl_path, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("RunReport: cannot open " + jsonl_path);
    }
    std::string meta = "{\"type\":\"meta\",\"run\":\"" +
                       json_escape(run_name_) + "\"";
    for (const auto& [k, v] : meta_) {
      meta += ",\"" + json_escape(k) + "\":" + v;
    }
    meta += "}";
    out << meta << '\n';
    for (const std::string& line : lines_) out << line << '\n';
    if (!out) {
      throw std::runtime_error("RunReport: short write to " + jsonl_path);
    }
  }
  if (!csv_rows_.empty()) {
    const std::string csv_path =
        (fs::path(out_dir_) / (run_name_ + ".csv")).string();
    std::ofstream csv(csv_path, std::ios::trunc);
    if (!csv) {
      throw std::runtime_error("RunReport: cannot open " + csv_path);
    }
    csv << "series,value\n";
    for (const auto& [series, value] : csv_rows_) {
      csv << series << ',' << json_number(value) << '\n';
    }
  }
  return jsonl_path;
}

Json Json::fixed(double v, int decimals) {
  Json j;
  if (std::isfinite(v)) {
    // Sized to fit: "%.*f" of a large double runs to hundreds of digits.
    const int n = std::snprintf(nullptr, 0, "%.*f", decimals, v);
    j.text_.assign(static_cast<std::size_t>(n), '\0');
    std::snprintf(j.text_.data(), j.text_.size() + 1, "%.*f", decimals, v);
  }
  return j;
}

Json Json::raw(std::string json) {
  while (!json.empty() &&
         std::isspace(static_cast<unsigned char>(json.back())) != 0) {
    json.pop_back();
  }
  Json j;
  j.text_ = std::move(json);
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject) {
    throw std::logic_error("Json::set on a non-object");
  }
  keys_.push_back(key);
  items_.push_back(std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) {
    throw std::logic_error("Json::push on a non-array");
  }
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent) const {
  if (kind_ == Kind::kScalar) {
    out += text_;
    return;
  }
  const bool is_object = kind_ == Kind::kObject;
  if (items_.empty()) {
    out += is_object ? "{}" : "[]";
    return;
  }
  const std::string pad(static_cast<std::size_t>(indent + 2), ' ');
  out += is_object ? "{\n" : "[\n";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out += pad;
    if (is_object) out += "\"" + json_escape(keys_[i]) + "\": ";
    items_[i].dump_to(out, indent + 2);
    out += i + 1 < items_.size() ? ",\n" : "\n";
  }
  out += std::string(static_cast<std::size_t>(indent), ' ');
  out += is_object ? '}' : ']';
}

std::string write_json(const std::string& out_dir, const std::string& file,
                       const Json& doc) {
  create_out_dir(out_dir, "write_json");
  const std::string path = (std::filesystem::path(out_dir) / file).string();
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_json: cannot open " + path);
  out << doc.dump() << '\n';
  out.flush();
  if (!out) throw std::runtime_error("write_json: short write to " + path);
  return path;
}

Json bench_json(const std::string& bench, bool smoke) {
  return Json::object()
      .set("bench", bench)
      .set("mode", smoke ? "smoke" : "full")
      .set("machine", machine_json());
}

}  // namespace p4u::obs
