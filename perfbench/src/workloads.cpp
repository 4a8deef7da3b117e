#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "control/flow_db.hpp"
#include "harness/churn.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/traffic.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "net/topology_zoo.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/streaming_stats.hpp"

namespace perfbench {

namespace {

using namespace p4u;
using harness::RunSpec;
using harness::ScenarioFamily;
using harness::SystemKind;
using harness::TestBed;
using harness::TestBedParams;

// The job bodies' fixed instants (harness/campaign.cpp).
constexpr sim::Time kIssueAt = sim::milliseconds(10);
constexpr sim::Time kRunUntil = sim::seconds(300);
/// Virtual time a probed bed's run advances between two probe ticks.
constexpr sim::Duration kRunStep = sim::milliseconds(1);

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

// ---- workload tables --------------------------------------------------------

/// ft16_batch: the kScale shape (bench/scale) at a per-bed size that keeps
/// a pass short: resident flows fill the switch tables, a watched prefix is
/// rerouted in one batch.
struct ScaleCell {
  std::size_t flows = 40000;
  std::size_t update_flows = 2048;
  std::size_t pairs = 256;
  int beds = 2;
};
constexpr ScaleCell kScaleCell{};

/// ft8_churn: bench/churn's full table and both fault rows.
struct ChurnCell {
  std::size_t pairs = 64;
  std::size_t initial_flows = 128;
  double arrivals_per_sec = 100.0;
  sim::Duration duration = sim::seconds(60);
  int beds_per_spec = 2;
};
constexpr ChurnCell kChurnCell{};

struct ChurnRow {
  const char* slug;
  double control_drop;
};
constexpr ChurnRow kChurnRows[] = {
    {"churn_ft8_clean", 0.0},
    {"churn_ft8_drop05", 0.05},
};

/// fig7_cells: seeded beds per (subfigure, system) in one pass.
constexpr int kFig7BedsPerSpec = 64;

/// Seed spacing between workload seeds: run indices stay below it, so two
/// workload seeds never share a bed seed.
constexpr std::uint64_t kSeedStride = 1000;

// ---- ledger digest ------------------------------------------------------------

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t ledger_digest(const control::FlowDb& db) {
  Fnv1a h;
  for (const control::RequestRecord& r : db.requests()) {
    h.add(r.flow);
    h.add(r.version);
    h.add(static_cast<std::uint64_t>(r.kind));
    h.add(static_cast<std::uint64_t>(r.submitted_at));
    h.add(static_cast<std::uint64_t>(r.finished_at));
    h.add(static_cast<std::uint64_t>(r.state));
  }
  return h.value();
}

bool settled_on_its_own(control::RequestState s) {
  return s == control::RequestState::kCompleted ||
         s == control::RequestState::kRolledBack ||
         s == control::RequestState::kAbandoned;
}

// ---- one bed -------------------------------------------------------------------

/// The instrumentation shared by every family runner: a span per phase, the
/// traced instruments, and the read-out after the run.
class BedHarness {
 public:
  BedHarness(const RunSpec& spec, std::uint64_t seed, const BedOptions& opt,
             int run_index)
      : spec_(spec),
        opt_(opt),
        bed_span_(*opt.spans, "bed", opt.parent,
                  spec.slug + "#" + std::to_string(seed)),
        probe_at_open_(probe_mark(opt.probe)),
        slices_at_open_(opt.probe == nullptr ? 0 : opt.probe->slices()) {
    if (spec.strategy_factory) {
      throw std::invalid_argument(
          "perfbench: specs must not carry a strategy factory");
    }
    result_.label = spec.slug + "#" + std::to_string(seed);
    result_.system = spec.bed.system;
    result_.seed = seed;
    result_.run_index = run_index;
  }

  /// Runs `f` inside a child span of the bed; adds its seconds, without
  /// the probe's slices, to `acc`.
  template <typename F>
  decltype(auto) phase(const char* name, double& acc, F&& f) {
    ScopedSpan s(*opt_.spans, name, bed_span_.id());
    const double probe_at_open = probe_mark(opt_.probe);
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      acc += s.close() - probe_since(opt_.probe, probe_at_open);
    } else {
      auto r = f();
      acc += s.close() - probe_since(opt_.probe, probe_at_open);
      return r;
    }
  }

  /// Lets the probe sample (inside a phase; the phase discounts it).
  void tick() {
    if (opt_.probe != nullptr) opt_.probe->tick();
  }

  template <typename F>
  decltype(auto) gen(F&& f) {
    ++result_.times.gen_calls;
    return phase("workload-gen", result_.times.gen_s, std::forward<F>(f));
  }
  template <typename F>
  decltype(auto) paths(F&& f) {
    return phase("paths", result_.times.paths_s, std::forward<F>(f));
  }

  /// Builds the bed (and, traced, its instruments) and pre-sizes events.
  TestBed& construct(TestBedParams params, std::size_t reserve) {
    ++result_.times.ctor_calls;
    phase("ctor", result_.times.ctor_s, [&] {
      if (opt_.traced) {
        clock_ = std::make_unique<ClassClock>();
        params.strategy = clock_.get();
      }
      bed_ = std::make_unique<TestBed>(*spec_.graph, params);
      bed_->reserve_events(reserve);
      if (opt_.traced) {
        shadow_ = std::make_unique<ShadowMonitor>(
            bed_->fabric(), bed_->params().monitor_capacity);
        clock_->set_shadow(shadow_.get());
      }
    });
    return *bed_;
  }

  template <typename F>
  void deploy(F&& f) {
    phase("deploy", result_.times.deploy_s, std::forward<F>(f));
  }
  void deploy_flow(const net::Flow& f, const net::Path& path,
                   bool watch = true) {
    bed_->deploy_flow(f, path, watch);
    if (watch && shadow_ != nullptr) shadow_->watch_flow(f);
    ++result_.times.deploy_calls;
  }
  /// The shadow monitor (null when untraced).
  [[nodiscard]] ShadowMonitor* shadow() { return shadow_.get(); }

  void run() {
    phase("run", result_.times.run_s, [&] {
      if (shadow_ != nullptr) shadow_->attach(bed_->fabric());
      if (clock_ != nullptr) clock_->begin();
      if (opt_.probe == nullptr) {
        bed_->run(kRunUntil);
      } else {
        // The same events in the same order as one run(kRunUntil): an
        // unsharded simulator resumes exactly where `until` stopped it.
        if (bed_->sharded()) {
          throw std::invalid_argument(
              "perfbench: a probed bed must run unsharded");
        }
        const sim::Simulator& sim = bed_->simulator();
        sim::Time until = 0;
        while (sim.next_at() <= kRunUntil) {
          until = std::min(std::max(until, sim.next_at()) + kRunStep,
                           kRunUntil);
          bed_->run(until);
          opt_.probe->tick();
        }
      }
      if (clock_ != nullptr) clock_->end();
    });
  }

  /// The job body's post-run work (`extra`, e.g. churn's registry exports)
  /// plus harvest_bed: violations, collect_metrics, registry merge.
  template <typename F>
  void harvest(F&& extra) {
    phase("harvest", result_.times.harvest_s, [&] {
      extra();
      result_.violations = bed_->monitor().violations();
      bed_->collect_metrics();
      merged_.merge_from(bed_->metrics());
    });
  }

  /// Reads the exact counts, the ledger and the trace out of the bed.
  BedResult finish(std::optional<double> sample) {
    result_.sample = sample;
    read_counts();
    read_ledger();
    if (clock_ != nullptr) {
      BedTrace t;
      t.class_events = clock_->events();
      for (std::size_t c = 0; c < kEventClasses; ++c) {
        t.class_busy_s[c] =
            std::chrono::duration<double>(clock_->busy()[c]).count();
      }
      t.monitor_calls = shadow_->calls();
      t.monitor_busy_s =
          std::chrono::duration<double>(shadow_->busy()).count();
      const auto& a = shadow_->violations();
      const auto& b = result_.violations;
      t.shadow_agrees = a.loops == b.loops && a.blackholes == b.blackholes &&
                        a.capacity == b.capacity &&
                        a.faulted_walks == b.faulted_walks;
      result_.trace = t;
    }
    result_.times.probe_s = probe_since(opt_.probe, probe_at_open_);
    result_.times.probe_slices =
        opt_.probe == nullptr ? 0 : opt_.probe->slices() - slices_at_open_;
    result_.times.total_s = bed_span_.close() - result_.times.probe_s;
    return std::move(result_);
  }

 private:
  void read_counts() {
    BedCounts& c = result_.counts;
    c.events = bed_->simulator().executed();
    c.pending_peak = bed_->simulator().pending_peak();
    c.fabric_tx = merged_.counter_total("fabric.tx");
    c.fabric_rx = merged_.counter_total("fabric.rx");
    c.fabric_drop = merged_.counter_total("fabric.drop");
    c.rule_installs = merged_.counter_total("switch.rule_installs");
    c.recovery_resends = merged_.counter_total("ctrl.recovery_resends");
    c.recovery_repairs = merged_.counter_total("ctrl.recovery_repairs");
    c.recovery_gaveup = merged_.counter_total("ctrl.recovery_gaveup");
    control::AdmissionQueue& q = bed_->system().admission();
    c.admission_dispatched = q.dispatched_total();
    c.admission_coalesced = q.coalesced_total();
    c.admission_refused = q.refused_total();
    c.admission_queued_peak = q.queued_peak();
    c.admission_inflight_peak = q.inflight_peak();
    const harness::PreflightCounters pf = bed_->system().preflight_counters();
    c.preflight_safe = pf.safe;
    c.preflight_unsafe = pf.unsafe;
    c.preflight_unknown = pf.unknown;
  }

  void read_ledger() {
    const control::FlowDb& db = bed_->flow_db();
    result_.ledger_digest = ledger_digest(db);
    const bool p4update = result_.system == SystemKind::kP4Update;
    for (const control::RequestRecord& r : db.requests()) {
      ++result_.requests;
      const bool terminal = control::is_terminal(r.state);
      if (terminal) ++result_.requests_terminal;
      if (r.kind != control::RequestKind::kReroute) continue;
      ++result_.reroutes;
      if (r.state == control::RequestState::kCompleted) {
        ++result_.counts.requests_completed;
      }
      if (!terminal || r.state == control::RequestState::kRolledBack ||
          r.state == control::RequestState::kAbandoned) {
        ++result_.reroutes_failed;
      }
      if (p4update && settled_on_its_own(r.state)) {
        result_.vt_ms.push_back(sim::to_ms(r.finished_at - r.submitted_at));
      }
    }
  }

  const RunSpec& spec_;
  const BedOptions& opt_;
  ScopedSpan bed_span_;
  double probe_at_open_;
  std::size_t slices_at_open_;
  BedResult result_;
  // Destroyed in reverse order: the shadow unsubscribes from the live
  // fabric, then the bed goes, then the strategy it pointed at.
  std::unique_ptr<ClassClock> clock_;
  std::unique_ptr<TestBed> bed_;
  std::unique_ptr<ShadowMonitor> shadow_;
  obs::MetricsRegistry merged_;  // the job's RunOutcome::metrics
};

/// Per-job bed params, as every job body sets them.
TestBedParams job_params(const RunSpec& spec, std::uint64_t seed) {
  TestBedParams params = spec.bed;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  return params;
}

BedResult drive_single_flow(const RunSpec& spec, std::uint64_t seed,
                            BedHarness& h) {
  TestBed& bed = h.construct(job_params(spec, seed),
                             spec.graph->node_count() * 96 + 512);
  net::Flow f;
  f.ingress = spec.old_path.front();
  f.egress = spec.old_path.back();
  f.id = net::flow_id_of(f.ingress, f.egress);
  f.size = 1.0;
  h.deploy([&] {
    h.deploy_flow(f, spec.old_path);
    bed.schedule_update_at(kIssueAt, f.id, spec.new_path);
  });
  h.run();
  std::optional<double> sample;
  h.harvest([&] {
    const auto d = bed.flow_db().duration(f.id, 2);
    if (d) sample = sim::to_ms(*d);
  });
  return h.finish(sample);
}

/// Completion time of the batch's last update, or nothing when any update
/// of the batch did not complete (the multi-flow and scale samples).
template <typename Ids>
std::optional<double> batch_sample(const TestBed& bed, const Ids& ids) {
  sim::Time last = 0;
  for (const net::FlowId id : ids) {
    const auto* rec = bed.flow_db().record(id, 2);
    if (rec == nullptr || rec->state != control::UpdateState::kCompleted) {
      return std::nullopt;
    }
    last = std::max(last, rec->completed_at);
  }
  return sim::to_ms(last - kIssueAt);
}

BedResult drive_multi_flow(const RunSpec& spec, std::uint64_t seed,
                           BedHarness& h) {
  const std::vector<harness::TrafficFlow> flows = h.gen([&] {
    sim::Rng traffic_rng(seed ^ 0x7AFF1Cull);
    return harness::gravity_multiflow(*spec.graph, traffic_rng, spec.traffic);
  });
  TestBedParams params = job_params(spec, seed);
  params.monitor_capacity = params.monitor_capacity || params.congestion_mode;
  TestBed& bed = h.construct(
      params, spec.graph->node_count() * 64 + flows.size() * 192 + 512);
  h.deploy([&] {
    std::vector<std::pair<net::FlowId, net::Path>> batch;
    for (const harness::TrafficFlow& tf : flows) {
      h.deploy_flow(tf.flow, tf.old_path);
      batch.emplace_back(tf.flow.id, tf.new_path);
    }
    bed.schedule_batch_at(kIssueAt, std::move(batch));
  });
  h.run();
  std::optional<double> sample;
  h.harvest([&] {
    std::vector<net::FlowId> ids;
    ids.reserve(flows.size());
    for (const harness::TrafficFlow& tf : flows) ids.push_back(tf.flow.id);
    sample = batch_sample(bed, ids);
  });
  return h.finish(sample);
}

BedResult drive_scale(const RunSpec& spec, std::uint64_t seed,
                      BedHarness& h) {
  const net::Graph& g = *spec.graph;
  struct PairPaths {
    net::NodeId src;
    net::NodeId dst;
    net::Path old_path;
    net::Path new_path;
  };
  const std::vector<PairPaths> pairs = h.paths([&] {
    std::vector<net::NodeId> endpoints = spec.scale_endpoints;
    if (endpoints.empty()) {
      for (std::size_t n = 0; n < g.node_count(); ++n) {
        endpoints.push_back(static_cast<net::NodeId>(n));
      }
    }
    sim::Rng pair_rng(seed ^ 0x5CA1Eull);
    std::vector<PairPaths> out;
    out.reserve(spec.scale_pairs);
    for (int attempts = 0;
         out.size() < spec.scale_pairs &&
         attempts < static_cast<int>(spec.scale_pairs) * 8;
         ++attempts) {
      const net::NodeId src = endpoints[pair_rng.uniform(endpoints.size())];
      const net::NodeId dst = endpoints[pair_rng.uniform(endpoints.size())];
      if (src == dst) continue;
      auto ksp = net::k_shortest_paths(g, src, dst, 2, net::Metric::kHops);
      if (ksp.size() < 2) continue;
      out.push_back({src, dst, std::move(ksp[0]), std::move(ksp[1])});
    }
    if (out.empty()) {
      throw std::logic_error("perfbench: no endpoint pair has two paths");
    }
    return out;
  });

  TestBedParams params = job_params(spec, seed);
  params.expected_flows = spec.scale_flows;
  params.expected_flows_per_switch =
      spec.scale_flows * 12 / std::max<std::size_t>(g.node_count(), 1);
  TestBed& bed = h.construct(
      params, g.node_count() * 64 + spec.scale_update_flows * 192 + 512);

  const auto synthetic_id = [](std::uint64_t i) {
    std::uint64_t state = i + 0x9E3779B97F4A7C15ull;
    return sim::splitmix64(state);
  };
  const std::size_t n_update =
      std::min(spec.scale_update_flows, spec.scale_flows);
  h.deploy([&] {
    std::vector<std::pair<net::FlowId, net::Path>> batch;
    batch.reserve(n_update);
    for (std::size_t i = 0; i < spec.scale_flows; ++i) {
      const PairPaths& pp = pairs[i % pairs.size()];
      net::Flow f;
      f.id = synthetic_id(i);
      f.ingress = pp.src;
      f.egress = pp.dst;
      f.size = 1.0;
      const bool updated = i < n_update;
      h.deploy_flow(f, pp.old_path, /*watch=*/updated);
      if (updated) batch.emplace_back(f.id, pp.new_path);
      if (i % 256 == 255) h.tick();
    }
    bed.schedule_batch_at(kIssueAt, std::move(batch));
  });
  h.run();
  std::optional<double> sample;
  h.harvest([&] {
    std::vector<net::FlowId> ids;
    ids.reserve(n_update);
    for (std::size_t i = 0; i < n_update; ++i) ids.push_back(synthetic_id(i));
    sample = batch_sample(bed, ids);
  });
  return h.finish(sample);
}

/// harness::install_churn, with one addition: a flow the stream adds is
/// also watched by the shadow monitor, right where the bed's monitor starts
/// watching it. The events, their tags and their order are unchanged.
void install_churn(TestBed& bed, const harness::ChurnWorkload& wl,
                   BedHarness& h) {
  for (const harness::ChurnWorkload::FlowSlot& slot : wl.flows) {
    if (slot.initial) h.deploy_flow(slot.flow, wl.pairs[slot.pair].paths[0]);
  }
  sim::Simulator& sim = bed.simulator();
  TestBed* bedp = &bed;
  ShadowMonitor* shadow = h.shadow();
  for (const harness::ChurnEvent& ev : wl.events) {
    const harness::ChurnWorkload::FlowSlot& slot = wl.flows[ev.flow_slot];
    const sim::EventTag tag{-1, sim::EventClass::kScenario, slot.flow.id};
    switch (ev.kind) {
      case control::RequestKind::kAdd:
        sim.schedule_at(ev.at, tag,
                        [bedp, shadow, flow = slot.flow,
                         path = wl.pairs[slot.pair].paths[0]] {
                          bedp->deploy_flow(flow, path);
                          if (shadow != nullptr) shadow->watch_flow(flow);
                          bedp->system().note_instant(
                              flow.id, control::RequestKind::kAdd);
                        });
        break;
      case control::RequestKind::kRemove:
        sim.schedule_at(ev.at, tag, [bedp, id = slot.flow.id] {
          bedp->system().note_instant(id, control::RequestKind::kRemove);
        });
        break;
      case control::RequestKind::kReroute:
        sim.schedule_at(
            ev.at, tag,
            [bedp, id = slot.flow.id,
             path = wl.pairs[slot.pair].paths[ev.path_choice]] {
              bedp->submit(harness::UpdateRequest{
                  id, path, control::RequestKind::kReroute});
            });
        break;
    }
  }
}

BedResult drive_churn(const RunSpec& spec, std::uint64_t seed,
                      BedHarness& h) {
  const net::Graph& g = *spec.graph;
  const harness::ChurnWorkload wl =
      h.gen([&] { return harness::make_churn_workload(g, seed, spec.churn); });
  TestBed& bed = h.construct(job_params(spec, seed),
                             g.node_count() * 64 + wl.events.size() * 256 +
                                 1024);
  h.deploy([&] { install_churn(bed, wl, h); });
  h.run();

  std::optional<double> sample;
  h.harvest([&] {
    const control::FlowDb& db = bed.flow_db();
    sim::StreamingStats lat({50.0, 99.0, 99.9});
    std::uint64_t terminal = 0;
    sim::Time last_finish = 0;
    for (const control::RequestRecord& r : db.requests()) {
      if (!control::is_terminal(r.state)) continue;
      ++terminal;
      lat.add(sim::to_ms(r.finished_at - r.submitted_at));
      last_finish = std::max(last_finish, r.finished_at);
    }
    if (db.all_requests_terminal() && terminal > 0) {
      const sim::Time span_from = spec.churn.start;
      const sim::Time span_to = std::max(last_finish, span_from + 1);
      sample = static_cast<double>(terminal) /
               (static_cast<double>(span_to - span_from) /
                static_cast<double>(sim::kSecond));
    }
    obs::MetricsRegistry& m = bed.metrics();
    if (!lat.empty()) {
      m.histogram("churn.latency_p50_ms").observe(lat.quantile(50.0));
      m.histogram("churn.latency_p99_ms").observe(lat.quantile(99.0));
      m.histogram("churn.latency_p999_ms").observe(lat.quantile(99.9));
      m.histogram("churn.latency_mean_ms").observe(lat.mean());
    }
    static const std::vector<double> depth_buckets = {
        0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
    control::AdmissionQueue& q = bed.system().admission();
    m.histogram("churn.queue_peak", {}, depth_buckets)
        .observe(static_cast<double>(q.queued_peak()));
    m.histogram("churn.inflight_peak", {}, depth_buckets)
        .observe(static_cast<double>(q.inflight_peak()));
    m.counter("churn.dispatched").inc(q.dispatched_total());
    m.counter("churn.coalesced").inc(q.coalesced_total());
    m.counter("churn.refused").inc(q.refused_total());
    db.export_requests(m);
  });
  return h.finish(sample);
}

// ---- plans ----------------------------------------------------------------------

RunSpec fig7_spec(const char* slug, ScenarioFamily family,
                  const std::shared_ptr<const net::Graph>& graph,
                  const net::Path& old_path, const net::Path& new_path,
                  harness::CtrlLatencyModel latency, SystemKind kind,
                  std::uint64_t seed) {
  // bench/fig7_update_time's spec_for, with the base seed derived from the
  // workload seed.
  RunSpec spec;
  spec.slug = std::string(slug) + "." + harness::to_string(kind);
  spec.family = family;
  spec.graph = graph;
  spec.bed.system = kind;
  spec.bed.ctrl_latency_model = latency;
  if (family == ScenarioFamily::kSingleFlow) {
    spec.old_path = old_path;
    spec.new_path = new_path;
    spec.bed.switch_params.straggler_mean_ms = 100.0;
    spec.base_seed = 1000 + seed * kSeedStride;
  } else {
    spec.traffic.target_utilization = 0.9;
    spec.bed.congestion_mode = true;
    spec.base_seed = 5000 + seed * kSeedStride;
  }
  spec.runs = kFig7BedsPerSpec;
  return spec;
}

void plan_fig7(PassPlan& plan, std::uint64_t seed, SpanLog& spans,
               SpanId parent) {
  using harness::CtrlLatencyModel;
  struct Cell {
    const char* slug;
    ScenarioFamily family;
    std::shared_ptr<const net::Graph> graph;
    net::Path old_path, new_path;
    CtrlLatencyModel latency;
  };
  std::vector<Cell> cells;
  std::shared_ptr<const net::Graph> b4;
  std::shared_ptr<const net::Graph> i2;
  net::NamedTopology fig1;
  {
    ScopedSpan s(spans, "workload-gen", parent);
    fig1 = net::fig1_topology();
    net::set_uniform_capacity(fig1.graph, 100.0);
    net::FatTree ft = net::fattree_topology(4);
    net::set_uniform_capacity(ft.graph, 100.0);
    net::Graph b4g = net::b4_topology();
    net::set_uniform_capacity(b4g, 100.0);
    net::Graph i2g = net::internet2_topology();
    net::set_uniform_capacity(i2g, 100.0);
    b4 = std::make_shared<const net::Graph>(std::move(b4g));
    i2 = std::make_shared<const net::Graph>(std::move(i2g));
    cells.push_back({"fig7a", ScenarioFamily::kSingleFlow,
                     std::make_shared<const net::Graph>(fig1.graph),
                     fig1.old_path, fig1.new_path, CtrlLatencyModel::kFixed});
    cells.push_back({"fig7b", ScenarioFamily::kMultiFlow,
                     std::make_shared<const net::Graph>(std::move(ft.graph)),
                     {}, {}, CtrlLatencyModel::kFattreeNormal});
    plan.gen_s += s.close();
    ++plan.gen_calls;
  }
  {
    ScopedSpan s(spans, "paths", parent);
    const harness::DetourPaths b4_paths = harness::long_detour_paths(*b4);
    const harness::DetourPaths i2_paths = harness::long_detour_paths(*i2);
    cells.push_back({"fig7c", ScenarioFamily::kSingleFlow, b4,
                     b4_paths.old_path, b4_paths.new_path,
                     CtrlLatencyModel::kWanCentroid});
    cells.push_back({"fig7d", ScenarioFamily::kMultiFlow, b4, {}, {},
                     CtrlLatencyModel::kWanCentroid});
    cells.push_back({"fig7e", ScenarioFamily::kSingleFlow, i2,
                     i2_paths.old_path, i2_paths.new_path,
                     CtrlLatencyModel::kWanCentroid});
    cells.push_back({"fig7f", ScenarioFamily::kMultiFlow, i2, {}, {},
                     CtrlLatencyModel::kWanCentroid});
    plan.paths_s += s.close();
  }
  for (const Cell& c : cells) {
    for (const SystemKind kind : kSystems) {
      plan.specs.push_back(fig7_spec(c.slug, c.family, c.graph, c.old_path,
                                     c.new_path, c.latency, kind, seed));
    }
  }
}

void plan_scale(PassPlan& plan, std::uint64_t seed, SpanLog& spans,
                SpanId parent) {
  ScopedSpan s(spans, "workload-gen", parent);
  net::FatTree ft = net::fattree_topology(16);
  net::set_uniform_capacity(ft.graph, 100.0);
  RunSpec spec;
  spec.slug = "ft16_batch.P4Update";
  spec.family = ScenarioFamily::kScale;
  spec.scale_endpoints = ft.edge;
  spec.graph = std::make_shared<const net::Graph>(std::move(ft.graph));
  spec.bed.system = SystemKind::kP4Update;
  spec.scale_flows = kScaleCell.flows;
  spec.scale_update_flows = kScaleCell.update_flows;
  spec.scale_pairs = kScaleCell.pairs;
  spec.runs = kScaleCell.beds;
  spec.base_seed = 11000 + seed * kSeedStride;
  plan.specs.push_back(std::move(spec));
  plan.gen_s += s.close();
  ++plan.gen_calls;
}

void plan_churn(PassPlan& plan, std::uint64_t seed, SpanLog& spans,
                SpanId parent) {
  ScopedSpan s(spans, "workload-gen", parent);
  net::FatTree ft = net::fattree_topology(8);
  net::set_uniform_capacity(ft.graph, 100.0);
  const std::vector<net::NodeId> edge = ft.edge;
  const auto graph = std::make_shared<const net::Graph>(std::move(ft.graph));
  for (const ChurnRow& row : kChurnRows) {
    for (const SystemKind kind : kSystems) {
      // bench/churn's spec_for.
      RunSpec spec;
      spec.slug = std::string(row.slug) + "." + harness::to_string(kind);
      spec.family = ScenarioFamily::kChurn;
      spec.graph = graph;
      spec.bed.system = kind;
      spec.churn.pairs = kChurnCell.pairs;
      spec.churn.initial_flows = kChurnCell.initial_flows;
      spec.churn.arrivals_per_sec = kChurnCell.arrivals_per_sec;
      spec.churn.duration = kChurnCell.duration;
      spec.churn.endpoints = edge;
      spec.bed.admission.max_inflight_global = 32;
      spec.bed.admission.max_inflight_per_flow = 1;
      spec.bed.admission.coalesce = true;
      spec.bed.static_preflight = true;
      if (row.control_drop > 0.0) {
        spec.bed.fault_plan.model.control_drop_prob = row.control_drop;
        spec.bed.recovery.enabled = true;
        spec.bed.enable_retrigger = true;
        spec.bed.p4u_uim_watchdog = sim::milliseconds(500);
        spec.bed.p4u_wait_timeout = sim::milliseconds(500);
      }
      spec.runs = kChurnCell.beds_per_spec;
      spec.base_seed = 12000 + seed * kSeedStride;
      plan.specs.push_back(std::move(spec));
    }
  }
  plan.gen_s += s.close();
  ++plan.gen_calls;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kFt16Batch: return "ft16_batch";
    case Workload::kFt8Churn: return "ft8_churn";
    case Workload::kFig7Cells: return "fig7_cells";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

bool gates_liveness(Workload w) { return w != Workload::kFig7Cells; }

double nominal_pass_seconds(Workload w) {
  switch (w) {
    case Workload::kFt16Batch: return 2.0;
    case Workload::kFt8Churn: return 2.5;
    case Workload::kFig7Cells: return 1.5;
  }
  return 1.0;
}

BedResult run_bed(const RunSpec& spec, int run_index, const BedOptions& opt) {
  if (opt.spans == nullptr) {
    throw std::invalid_argument("run_bed: BedOptions::spans is required");
  }
  const std::uint64_t seed =
      spec.base_seed + static_cast<std::uint64_t>(run_index);
  BedHarness h(spec, seed, opt, run_index);
  switch (spec.family) {
    case ScenarioFamily::kSingleFlow: return drive_single_flow(spec, seed, h);
    case ScenarioFamily::kMultiFlow: return drive_multi_flow(spec, seed, h);
    case ScenarioFamily::kScale: return drive_scale(spec, seed, h);
    case ScenarioFamily::kChurn: return drive_churn(spec, seed, h);
    default: break;
  }
  throw std::invalid_argument(std::string("run_bed: unsupported family ") +
                              harness::to_string(spec.family));
}

PassPlan make_plan(Workload w, std::uint64_t seed, SpanLog& spans,
                   SpanId parent) {
  PassPlan plan;
  switch (w) {
    case Workload::kFt16Batch: plan_scale(plan, seed, spans, parent); break;
    case Workload::kFt8Churn: plan_churn(plan, seed, spans, parent); break;
    case Workload::kFig7Cells: plan_fig7(plan, seed, spans, parent); break;
  }
  return plan;
}

PassResult run_pass(Workload w, std::uint64_t seed, bool traced,
                    SpanLog& spans, const char* pass_name,
                    std::FILE* progress, SpeedProbe* probe) {
  PassResult out;
  const std::size_t slices_at_open = probe == nullptr ? 0 : probe->slices();
  const double probe_at_open = probe_mark(probe);
  ScopedSpan pass(spans, "pass", 0,
                  std::string(to_string(w)) + " " + pass_name);
  const PassPlan plan = make_plan(w, seed, spans, pass.id());
  out.plan_gen_s = plan.gen_s;
  out.plan_gen_calls = plan.gen_calls;
  out.plan_paths_s = plan.paths_s;
  out.setup_s = plan.gen_s + plan.paths_s;

  std::size_t total = 0;
  for (const RunSpec& spec : plan.specs) {
    total += static_cast<std::size_t>(spec.runs);
  }
  out.beds.reserve(total);
  Fnv1a digest;
  for (const RunSpec& spec : plan.specs) {
    for (int r = 0; r < spec.runs; ++r) {
      if (probe != nullptr) probe->tick();
      BedResult b =
          run_bed(spec, r, BedOptions{&spans, pass.id(), traced, probe});
      const BedTimes& t = b.times;
      out.setup_s += t.gen_s + t.paths_s + t.ctor_s + t.deploy_s;
      digest.add(b.ledger_digest);
      if (progress != nullptr) {
        std::fprintf(progress,
                     "[%s %s] bed %zu/%zu %s: %.3f ms, %llu events\n",
                     to_string(w), pass_name, out.beds.size() + 1, total,
                     b.label.c_str(), t.total_s * 1e3,
                     static_cast<unsigned long long>(b.counts.events));
        std::fflush(progress);
      }
      out.beds.push_back(std::move(b));
    }
  }
  out.ledger_digest = digest.value();
  if (probe != nullptr) probe->sample();  // every pass has a slice
  out.wall_s = pass.close() - probe_since(probe, probe_at_open);
  if (probe != nullptr) {
    out.probe_slices = probe->slices() - slices_at_open;
    out.speed_scale =
        speed_scale(out.probe_slices, probe_since(probe, probe_at_open));
    for (BedResult& b : out.beds) {
      b.speed_scale = b.times.probe_slices >= kMinBedSlices
                          ? speed_scale(b.times.probe_slices, b.times.probe_s)
                          : out.speed_scale;
    }
  }
  return out;
}

}  // namespace perfbench
