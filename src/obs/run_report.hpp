// RunReport: machine-readable run artifacts.
//
// Serializes a run's MetricsRegistry, its sim::Trace, and any number of
// named sim::Samples series into one JSON-Lines file (plus a flat CSV of
// the raw samples) under an output directory — the `--out <dir>` flag every
// bench and example accepts. One line = one self-describing JSON object
// with a "type" discriminator; see EXPERIMENTS.md ("Run reports") for the
// full schema. JSONL keeps the writer trivial, appends cheap, and lets
// downstream tooling (jq, pandas) consume reports without a parser of ours.
//
// The bench artifacts (BENCH_*.json, MC_counterexample_*.json,
// VERIFY_witness_*.json) are single JSON documents instead: built as a Json
// tree and written by write_json, under the same throw-on-I/O-failure
// contract as RunReport::write.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace p4u::obs {

/// Escapes a string for inclusion inside JSON double quotes.
std::string json_escape(const std::string& s);

/// One JSON value under construction: a scalar (null, bool, integer,
/// fixed-decimal number, string, or pre-serialised JSON text), an array, or
/// an object whose keys keep insertion order. Doubles enter only through
/// `fixed`, so every number states the precision it is printed with.
class Json {
 public:
  Json() = default;  // null
  Json(bool v) : text_(v ? "true" : "false") {}
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  Json(T v) : text_(std::to_string(v)) {}
  Json(double) = delete;
  Json(const char* s) : Json(std::string(s)) {}
  Json(const std::string& s) : text_("\"" + json_escape(s) + "\"") {}

  /// `v` with `decimals` digits after the point (printf "%.*f"); NaN and
  /// infinities, which JSON cannot represent, become null.
  static Json fixed(double v, int decimals);
  /// Already-serialised JSON, embedded verbatim (trailing whitespace
  /// trimmed).
  static Json raw(std::string json);
  static Json object();
  static Json array();

  /// Appends `key: value` to an object.
  Json& set(const std::string& key, Json value);
  /// Appends `value` to an array.
  Json& push(Json value);

  /// Two-space-indented serialisation without a trailing newline.
  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind { kScalar, kArray, kObject };
  void dump_to(std::string& out, int indent) const;

  Kind kind_ = Kind::kScalar;
  std::string text_ = "null";       // scalars: the serialised value
  std::vector<std::string> keys_;   // objects: one key per item
  std::vector<Json> items_;         // arrays and objects
};

/// Writes `doc.dump()` plus a newline to <out_dir>/<file> (the working
/// directory when out_dir is empty), creating out_dir if needed. Returns
/// the path. Throws std::runtime_error when the directory cannot be
/// created or the file cannot be opened or fully written.
std::string write_json(const std::string& out_dir, const std::string& file,
                       const Json& doc);

/// The common head of every BENCH_<bench>.json: {"bench", "mode"
/// ("smoke"/"full"), "machine": {"cpu", "cores", "build_type",
/// "compiler"}}; each bench appends its own fields.
Json bench_json(const std::string& bench, bool smoke);

class RunReport {
 public:
  /// `run_name` becomes the file stem: <out_dir>/<run_name>.jsonl.
  RunReport(std::string out_dir, std::string run_name);

  /// Free-form metadata, serialized into the leading "meta" line.
  void set_meta(const std::string& key, const std::string& value);
  void set_meta(const std::string& key, std::uint64_t value);

  /// Adds every counter/gauge/histogram of `m` to the report.
  void add_metrics(const MetricsRegistry& m);

  /// Adds one samples series ("fig7a.P4Update.update_time_ms", unit "ms"):
  /// a summary line plus the raw values (exact CDF reconstruction).
  void add_samples(const std::string& name, const sim::Samples& s,
                   const std::string& unit = "ms");

  /// Appends every trace entry as a "trace" line. Skip for large sweeps.
  void add_trace(const sim::Trace& trace);

  /// Writes <out_dir>/<run_name>.jsonl (and .csv when samples were added),
  /// creating the directory if needed. Returns the JSONL path. Throws
  /// std::runtime_error on I/O failure.
  std::string write() const;

  [[nodiscard]] const std::string& out_dir() const { return out_dir_; }

 private:
  std::string out_dir_;
  std::string run_name_;
  std::vector<std::pair<std::string, std::string>> meta_;  // pre-encoded JSON
  std::vector<std::string> lines_;                         // body JSONL lines
  std::vector<std::pair<std::string, double>> csv_rows_;   // (series, value)
};

}  // namespace p4u::obs
