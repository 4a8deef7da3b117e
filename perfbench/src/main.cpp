// perfbench: one outside-in benchmark of the p4update-sim stack.
//
//   perfbench --workload <ft16_batch|ft8_churn|fig7_cells> --seed <n>
//             --seconds <s> --trace <0|1> --reference-digest <hex>
//             [--spans-dir <dir>]
//   perfbench --workload <w> --print-reference-digest
//
// A run first replays the workload at kReferenceSeed and checks
// its request-ledger digest against the recorded one, so a change that
// moves simulated behaviour fails instead of showing up as a speed-up.
// Then it measures ceil(seconds / nominal pass time) passes (at least 3).
// With --trace 0 every pass replays its own seed block derived from --seed,
// a SpeedProbe samples the host's speed throughout, and the run prints the
// end-to-end metrics in reference-speed seconds (speed_probe.hpp). With
// --trace 1 every pass replays the first block under the traced
// instruments (tracing.hpp), is checked against one untraced pass of that
// block, and the run prints the per-layer metrics. Per-bed progress goes to stderr, flushed per line.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit status: 0 = correct, 1 = a correctness check failed, 2 =
// bad arguments.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/schedule_strategy.hpp"
#include "quantiles.hpp"
#include "sim/stats.hpp"
#include "spans.hpp"
#include "speed_probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using p4u::harness::SystemKind;

struct Args {
  Workload workload = Workload::kFt16Batch;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::optional<std::uint64_t> reference_digest;
  bool print_reference_digest = false;
  std::string spans_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <ft16_batch|"
               "ft8_churn|fig7_cells> --seed <n> --seconds <s> --trace <0|1> "
               "--reference-digest <hex> [--spans-dir <dir>]\n"
               "       perfbench --workload <w> --print-reference-digest\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, int base, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, base);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage((std::string("bad ") + what + ": '" + s + "'").c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-reference-digest") {
      a.print_reference_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage((std::string("unknown workload '") + v + "'").c_str());
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, 10, "seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v, 10, "seconds"));
      if (a.seconds < 1.0 || a.seconds > 600.0) {
        usage("--seconds must be within [1, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.traced = v[0] == '1';
    } else if (flag == "--reference-digest") {
      a.reference_digest = parse_u64(v, 16, "reference digest");
    } else if (flag == "--spans-dir") {
      a.spans_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!a.print_reference_digest) {
    if (!have_seed) usage("--seed is required");
    if (!a.reference_digest) usage("--reference-digest is required");
  }
  return a;
}

// ---- host memory --------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- correctness ----------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  bool expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
    return ok;
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Per-bed checks every pass must pass; returns how many beds failed one.
std::uint64_t check_pass(Workload w, const PassResult& p,
                         const char* pass_name, Checks& checks) {
  std::uint64_t failed_beds = 0;
  for (const BedResult& b : p.beds) {
    const std::string where = std::string(pass_name) + " " + b.label;
    const std::uint64_t open = b.requests - b.requests_terminal;
    bool ok = checks.expect(open == 0 || !gates_liveness(w),
                            where + ": " + std::to_string(open) +
                                " requests never reached a terminal state");
    if (b.system == SystemKind::kP4Update) {
      ok &= checks.expect(
          b.violations.loops == 0 && b.violations.blackholes == 0,
          where + ": P4Update bed has loop/blackhole violations");
    }
    if (b.trace) {
      ok &= checks.expect(
          b.trace->shadow_agrees,
          where + ": shadow monitor disagrees with the bed monitor");
    }
    if (!ok) ++failed_beds;
  }
  return failed_beds;
}

/// Host time per bed, in the groups bed_tail_ms takes its tails over. A
/// pass's beds go in round order (run index, then spec), so a group holds
/// whole rounds, one bed of every spec each, and closes once it holds
/// kTailGroupBeds beds.
class TailGroups {
 public:
  void add_pass(const std::vector<BedResult>& beds) {
    std::vector<const BedResult*> order;
    order.reserve(beds.size());
    for (const BedResult& b : beds) order.push_back(&b);
    std::stable_sort(order.begin(), order.end(),
                     [](const BedResult* x, const BedResult* y) {
                       return x->run_index < y->run_index;
                     });
    int round = -1;
    for (const BedResult* b : order) {
      if (b->run_index != round) {
        round = b->run_index;
        if (groups_.back().count() >= kTailGroupBeds) groups_.emplace_back();
      }
      groups_.back().add(b->times.total_s * b->speed_scale * 1e3);
    }
  }

  /// The groups, a short last one folded into the one before it.
  const std::vector<p4u::sim::Samples>& finish() {
    if (groups_.size() > 1 && groups_.back().count() < kTailGroupBeds) {
      groups_[groups_.size() - 2].add_all(groups_.back().raw());
      groups_.pop_back();
    }
    return groups_;
  }

 private:
  std::vector<p4u::sim::Samples> groups_ =
      std::vector<p4u::sim::Samples>(1);
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::uint64_t settled_requests(const PassResult& p) {
  std::uint64_t n = 0;
  for (const BedResult& b : p.beds) n += b.requests_terminal;
  return n;
}

std::uint64_t pass_events(const PassResult& p) {
  std::uint64_t n = 0;
  for (const BedResult& b : p.beds) n += b.counts.events;
  return n;
}

constexpr SystemKind kSystemKinds[] = {SystemKind::kP4Update,
                                       SystemKind::kEzSegway,
                                       SystemKind::kCentral};

/// The per-pass end-to-end metrics of one untraced pass, in a fixed order
/// (the per-bed metrics pool every pass's beds instead). Host times are in
/// reference-speed seconds: each bed's at its own scale, the rest of the
/// pass at the pass's.
std::vector<Metric> end_to_end_metrics(const PassResult& p) {
  double wall_s = p.wall_s * p.speed_scale;
  double setup_s = p.setup_s * p.speed_scale;
  double run_s = 0.0;
  for (const BedResult& b : p.beds) {
    const BedTimes& t = b.times;
    const double bed_setup = t.gen_s + t.paths_s + t.ctor_s + t.deploy_s;
    const double rescale = b.speed_scale - p.speed_scale;
    wall_s += t.total_s * rescale;
    setup_s += bed_setup * rescale;
    run_s += t.run_s * b.speed_scale;
  }
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"sim_events_per_s", static_cast<double>(pass_events(p)) / run_s,
       "1/s"},
      {"updates_per_s", static_cast<double>(settled_requests(p)) / wall_s,
       "1/s"},
  };
}

/// Every per-layer metric of one traced pass, in a fixed order.
std::vector<Metric> layer_metrics(const PassResult& p) {
  std::vector<Metric> m;
  const auto add = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  // The plan's phases count towards the pass's workload and path totals.
  BedTimes t;
  t.gen_s = p.plan_gen_s;
  t.gen_calls = p.plan_gen_calls;
  t.paths_s = p.plan_paths_s;
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  for (const BedResult& b : p.beds) {
    t.gen_s += b.times.gen_s;
    t.gen_calls += b.times.gen_calls;
    t.paths_s += b.times.paths_s;
    t.ctor_s += b.times.ctor_s;
    t.ctor_calls += b.times.ctor_calls;
    t.deploy_s += b.times.deploy_s;
    t.deploy_calls += b.times.deploy_calls;
    t.run_s += b.times.run_s;
    t.harvest_s += b.times.harvest_s;
    events += b.counts.events;
    pending_peak = std::max(pending_peak, b.counts.pending_peak);
  }
  add("harness.bed_ctor_s", t.ctor_s, "s");
  add("harness.bed_ctor.calls", static_cast<double>(t.ctor_calls), "count");
  add("harness.deploy_s", t.deploy_s, "s");
  add("harness.deploy.calls", static_cast<double>(t.deploy_calls), "count");
  add("harness.workload_s", t.gen_s, "s");
  add("harness.workload.calls", static_cast<double>(t.gen_calls), "count");
  add("net.paths_s", t.paths_s, "s");
  add("obs.harvest_s", t.harvest_s, "s");

  add("sim.events", static_cast<double>(events), "count");
  add("sim.run_s", t.run_s, "s");
  add("sim.pending_peak", static_cast<double>(pending_peak), "count");
  for (const SystemKind k : kSystemKinds) {
    double ctor = 0.0;
    double run = 0.0;
    std::uint64_t ev = 0;
    for (const BedResult& b : p.beds) {
      if (b.system != k) continue;
      ctor += b.times.ctor_s;
      run += b.times.run_s;
      ev += b.counts.events;
    }
    const std::string suffix = std::string(".") + p4u::harness::to_string(k);
    add("harness.bed_ctor_s" + suffix, ctor, "s");
    add("sim.run_s" + suffix, run, "s");
    add("sim.events" + suffix, static_cast<double>(ev), "count");
  }

  for (std::size_t c = 0; c < kEventClasses; ++c) {
    std::uint64_t ev = 0;
    double busy = 0.0;
    for (const BedResult& b : p.beds) {
      if (!b.trace) continue;
      ev += b.trace->class_events[c];
      busy += b.trace->class_busy_s[c];
    }
    const std::string base =
        std::string("sim.") +
        p4u::sim::to_string(static_cast<p4u::sim::EventClass>(c));
    add(base + ".events", static_cast<double>(ev), "count");
    add(base + ".busy_s", busy, "s");
    add(base + ".us_per_event", ratio(busy * 1e6, static_cast<double>(ev)),
        "us");
  }

  std::uint64_t mon_calls = 0;
  double mon_busy = 0.0;
  for (const BedResult& b : p.beds) {
    if (!b.trace) continue;
    mon_calls += b.trace->monitor_calls;
    mon_busy += b.trace->monitor_busy_s;
  }
  add("harness.monitor.calls", static_cast<double>(mon_calls), "count");
  add("harness.monitor.busy_s", mon_busy, "s");
  add("harness.monitor.us_per_call",
      ratio(mon_busy * 1e6, static_cast<double>(mon_calls)), "us");

  BedCounts sum;
  for (const BedResult& b : p.beds) {
    const BedCounts& c = b.counts;
    sum.fabric_tx += c.fabric_tx;
    sum.fabric_rx += c.fabric_rx;
    sum.fabric_drop += c.fabric_drop;
    sum.rule_installs += c.rule_installs;
    sum.admission_dispatched += c.admission_dispatched;
    sum.admission_coalesced += c.admission_coalesced;
    sum.admission_refused += c.admission_refused;
    sum.admission_queued_peak =
        std::max(sum.admission_queued_peak, c.admission_queued_peak);
    sum.admission_inflight_peak =
        std::max(sum.admission_inflight_peak, c.admission_inflight_peak);
    sum.requests_completed += c.requests_completed;
    sum.preflight_safe += c.preflight_safe;
    sum.preflight_unsafe += c.preflight_unsafe;
    sum.preflight_unknown += c.preflight_unknown;
    sum.recovery_resends += c.recovery_resends;
    sum.recovery_repairs += c.recovery_repairs;
    sum.recovery_gaveup += c.recovery_gaveup;
  }
  const auto count = [&](const char* name, std::uint64_t v) {
    add(name, static_cast<double>(v), "count");
  };
  count("p4rt.fabric.tx", sum.fabric_tx);
  count("p4rt.fabric.rx", sum.fabric_rx);
  count("p4rt.fabric.drop", sum.fabric_drop);
  add("p4rt.fabric.delivery_ratio",
      ratio(static_cast<double>(sum.fabric_rx),
            static_cast<double>(sum.fabric_tx)),
      "ratio");
  count("p4rt.switch.rule_installs", sum.rule_installs);
  count("control.admission.dispatched", sum.admission_dispatched);
  count("control.admission.coalesced", sum.admission_coalesced);
  count("control.admission.refused", sum.admission_refused);
  count("control.admission.queued_peak", sum.admission_queued_peak);
  count("control.admission.inflight_peak", sum.admission_inflight_peak);
  add("control.admission.useful_ratio",
      ratio(static_cast<double>(sum.requests_completed),
            static_cast<double>(sum.admission_dispatched)),
      "ratio");
  count("verify.preflight.safe", sum.preflight_safe);
  count("verify.preflight.unsafe", sum.preflight_unsafe);
  count("verify.preflight.unknown", sum.preflight_unknown);
  count("faults.recovery.resends", sum.recovery_resends);
  count("faults.recovery.repairs", sum.recovery_repairs);
  count("faults.recovery.gaveup", sum.recovery_gaveup);
  add("sim.events_per_update",
      ratio(static_cast<double>(events),
            static_cast<double>(settled_requests(p))),
      "count");
  return m;
}

/// Per-metric median across passes (all passes list the same metrics in
/// the same order; counts are identical in every pass).
std::vector<Metric> median_across(const std::vector<std::vector<Metric>>& per) {
  std::vector<Metric> out = per.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    p4u::sim::Samples xs;
    for (const auto& pass : per) xs.add(pass[i].value);
    out[i].value = xs.median();
  }
  return out;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  const char* wname = to_string(a.workload);
  SpanLog spans;
  Checks checks;

  if (a.print_reference_digest) {
    const PassResult ref =
        run_pass(a.workload, kReferenceSeed, false, spans, "reference",
                 stderr, nullptr);
    check_pass(a.workload, ref, "reference", checks);
    for (const std::string& f : checks.failures) {
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    }
    std::printf("%s %" PRIu64 " %s\n", wname, kReferenceSeed,
                hex(ref.ledger_digest).c_str());
    return checks.ok() ? 0 : 1;
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              wname, a.seed, a.seconds, a.traced ? 1 : 0);
  std::printf("machine: nproc=%u build_type=%s compiler=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  std::fflush(stdout);

  // Untraced runs sample the host's speed on this thread throughout;
  // traced runs report host time as measured.
  SpeedProbe speed_probe;
  SpeedProbe* const probe = a.traced ? nullptr : &speed_probe;

  // The reference pass: pinned seed, same tracing as the run, digest
  // checked against the recorded untraced one. Doubles as the warm-up.
  {
    const PassResult ref = run_pass(a.workload, kReferenceSeed, a.traced,
                                    spans, "reference", stderr, probe);
    check_pass(a.workload, ref, "reference", checks);
    checks.expect(ref.ledger_digest == *a.reference_digest,
                  "reference seed " + std::to_string(kReferenceSeed) +
                      ": ledger digest " + hex(ref.ledger_digest) +
                      " != recorded " + hex(*a.reference_digest));
    std::printf("reference pass: seed %" PRIu64 " ledger digest %s (%s)\n",
                kReferenceSeed, hex(ref.ledger_digest).c_str(),
                ref.ledger_digest == *a.reference_digest ? "matches record"
                                                         : "MISMATCH");
  }

  // Untraced passes each replay their own seed block derived from --seed,
  // so a run's medians cover n_passes x beds-per-pass seeds. Traced passes
  // all replay the first block: every one of them is checked against one
  // untraced pass of that block (whose wall time is also the base of the
  // tracing overhead), and their counts are the same in every pass.
  const int n_passes = std::max(
      kMinPasses,
      static_cast<int>(std::ceil(a.seconds / nominal_pass_seconds(a.workload))));
  const auto pass_seed = [&](int i) {
    return a.seed * kPassSeedStride +
           static_cast<std::uint64_t>(a.traced ? 0 : i);
  };
  std::optional<PassResult> untraced;
  if (a.traced) {
    untraced =
        run_pass(a.workload, pass_seed(0), false, spans, "untraced", stderr,
                 nullptr);
    check_pass(a.workload, *untraced, "untraced", checks);
  }

  // Each pass is reduced to its metrics right away, so the run's
  // bookkeeping does not grow with the pass count.
  std::vector<std::vector<Metric>> per_pass;
  p4u::sim::Samples pass_wall;  // host seconds as measured
  p4u::sim::Samples pass_scale;
  p4u::sim::Samples bed_ms;  // host time per bed, pooled over passes
  TailGroups tail_groups;
  std::uint64_t failed_beds = 0;
  std::uint64_t beds = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t reroutes_failed = 0;
  std::uint64_t open = 0;
  std::uint64_t open_beds = 0;
  p4u::sim::Samples vt;  // P4Update reroute latency, pooled over passes
  for (int i = 0; i < n_passes; ++i) {
    const std::string name =
        "pass " + std::to_string(i + 1) + "/" + std::to_string(n_passes);
    const PassResult p = run_pass(a.workload, pass_seed(i), a.traced, spans,
                                  name.c_str(), stderr, probe);
    failed_beds += check_pass(a.workload, p, name.c_str(), checks);
    std::printf("%s: seed %" PRIu64 " ledger digest %s, host wall %.6f s, "
                "host setup %.6f s, speed scale %.6f (%zu probe slices)\n",
                name.c_str(), pass_seed(i), hex(p.ledger_digest).c_str(),
                p.wall_s, p.setup_s, p.speed_scale, p.probe_slices);
    std::fflush(stdout);
    if (untraced) {
      checks.expect(p.ledger_digest == untraced->ledger_digest,
                    name + ": traced ledger digest " + hex(p.ledger_digest) +
                        " != untraced " + hex(untraced->ledger_digest));
    }
    for (const BedResult& b : p.beds) {
      ++beds;
      reroutes += b.reroutes;
      reroutes_failed += b.reroutes_failed;
      open += b.requests - b.requests_terminal;
      if (b.requests != b.requests_terminal) ++open_beds;
      vt.add_all(b.vt_ms);
      bed_ms.add(b.times.total_s * b.speed_scale * 1e3);
    }
    tail_groups.add_pass(p.beds);
    pass_wall.add(p.wall_s);
    pass_scale.add(p.speed_scale);
    if (a.traced) {
      per_pass.push_back(layer_metrics(p));
    } else {
      per_pass.push_back(end_to_end_metrics(p));
      spans.clear();  // only traced runs write their spans out
    }
  }

  std::printf("failed_frac: %.6f (%llu of %llu attempted reroutes rolled "
              "back, abandoned or open; %llu requests open in %llu beds)\n",
              reroutes > 0 ? static_cast<double>(reroutes_failed) /
                                 static_cast<double>(reroutes)
                           : 0.0,
              static_cast<unsigned long long>(reroutes_failed),
              static_cast<unsigned long long>(reroutes),
              static_cast<unsigned long long>(open),
              static_cast<unsigned long long>(open_beds));

  checks.expect(!vt.empty(), "no settled P4Update reroute to measure");
  double vt_p50 = 0.0;
  double vt_p99 = 0.0;
  double vt_mean = 0.0;
  if (!vt.empty()) {
    vt_mean = vt.mean();
    vt_p50 = order_statistic(vt, 0.50);
    vt_p99 = order_statistic(vt, 0.99);
    checks.expect(vt_p50 <= vt_p99 && vt_p99 <= vt.max(),
                  "virtual-time quantiles are not monotone");
    std::printf("vt: %zu P4Update reroutes pooled, p50 %.6f ms, p99 %.6f ms, "
                "max %.6f ms, mean %.6f ms\n",
                vt.count(), vt_p50, vt_p99, vt.max(), vt_mean);
  }

  std::vector<Metric> metrics = median_across(per_pass);
  if (!a.traced) {
    const std::vector<p4u::sim::Samples>& groups = tail_groups.finish();
    const Tail tail = median_tail(groups);
    metrics.push_back({"bed_p50_ms", order_statistic(bed_ms, 0.50), "ms"});
    metrics.push_back({"bed_tail_ms", tail.value, "ms"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"vt_mean_ms", vt_mean, "ms"});
    metrics.push_back({"vt_p99_ms", vt_p99, "ms"});
    print_table("end_to_end (per-pass medians; per-bed figures pool all "
                "passes; host times in reference-speed seconds)",
                metrics);
    std::printf("  host speed: median speed scale %.6f over %zu passes "
                "(min %.6f, max %.6f); median host wall_s as measured "
                "%.6f\n",
                pass_scale.median(), pass_scale.count(), pass_scale.min(),
                pass_scale.max(), pass_wall.median());
    std::printf("  bed_tail_ms is the median over %zu groups of beds of each "
                "group's p%.2f (%zu beds in the first group)%s\n",
                groups.size(), tail.percentile, tail.n,
                tail.percentile < 90.0
                    ? " (too few beds for a tail: read it as a mid-range "
                      "order statistic)"
                    : "");
  } else {
    metrics.push_back({"bench.trace_overhead_s",
                       pass_wall.median() - untraced->wall_s, "s"});
    print_table("per_layer (median over traced passes)", metrics);
    std::printf("  tracing overhead: traced wall_s %.6f - untraced wall_s "
                "%.6f\n",
                pass_wall.median(), untraced->wall_s);
    if (!a.spans_dir.empty()) {
      std::filesystem::create_directories(a.spans_dir);
      const std::string path = a.spans_dir + "/" + wname + "-seed" +
                               std::to_string(a.seed) + ".jsonl";
      if (spans.write_jsonl(path)) {
        std::printf("spans: %zu written to %s\n", spans.spans().size(),
                    path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
      }
    }
  }

  for (const std::string& f : checks.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  // The benchmark's operations are bed runs: attempted counts the measured
  // beds, failed those that failed a correctness check.
  print_result(checks.ok(), beds, failed_beds, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Freed memory stays in this process, so a bed reuses pages an earlier
  // bed (or the warm-up pass) faulted in. Otherwise every bed's event pool
  // and tables go back to the kernel and are faulted in again, and on a VM
  // whose host reclaims freed guest memory those faults cost a varying
  // multiple of the construction being measured.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
