#include "harness/campaign.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "harness/demo_scenarios.hpp"
#include "harness/parallel_runner.hpp"
#include "obs/run_report.hpp"
#include "sim/schedule_strategy.hpp"
#include "sim/streaming_stats.hpp"

namespace p4u::harness {

namespace {
constexpr sim::Time kIssueAt = sim::milliseconds(10);
constexpr sim::Time kRunUntil = sim::seconds(300);

void harvest_bed(TestBed& bed, RunOutcome& out) {
  out.alarms += bed.flow_db().total_alarms();
  out.violations.loops += bed.monitor().violations().loops;
  out.violations.blackholes += bed.monitor().violations().blackholes;
  out.violations.capacity += bed.monitor().violations().capacity;
  out.violations.faulted_walks += bed.monitor().violations().faulted_walks;
  bed.collect_metrics();
  out.metrics.merge_from(bed.metrics());
}

/// Builds the spec's per-run strategy (if any) and points `params` at it.
/// The returned owner must outlive the TestBed built from `params`.
std::unique_ptr<sim::ScheduleStrategy> install_strategy(const RunSpec& spec,
                                                        TestBedParams& params,
                                                        std::uint64_t seed) {
  if (!spec.strategy_factory) return nullptr;
  std::unique_ptr<sim::ScheduleStrategy> strategy =
      spec.strategy_factory(seed);
  params.strategy = strategy.get();
  return strategy;
}

RunOutcome run_single_flow_job(const RunSpec& spec, std::uint64_t seed) {
  TestBedParams params = spec.bed;
  params.seed = seed;
  params.trace_enabled = false;  // large sweeps: skip trace allocation
  params.measure_prep_wallclock = false;  // keep the registry deterministic
  const auto strategy = install_strategy(spec, params, seed);
  TestBed bed(*spec.graph, params);
  // Pre-size the event pool from the spec: a single-flow update touches each
  // node a bounded number of times (service, UNM hops, installs, retries).
  bed.reserve_events(spec.graph->node_count() * 96 + 512);

  net::Flow f;
  f.ingress = spec.old_path.front();
  f.egress = spec.old_path.back();
  f.id = net::flow_id_of(f.ingress, f.egress);
  f.size = 1.0;
  bed.deploy_flow(f, spec.old_path);
  bed.schedule_update_at(kIssueAt, f.id, spec.new_path);
  bed.run(kRunUntil);

  RunOutcome out;
  const auto d = bed.flow_db().duration(f.id, 2);
  if (d) out.sample = sim::to_ms(*d);
  harvest_bed(bed, out);
  return out;
}

RunOutcome run_multi_flow_job(const RunSpec& spec, std::uint64_t seed) {
  sim::Rng traffic_rng(seed ^ 0x7AFF1Cull);
  const std::vector<TrafficFlow> flows =
      gravity_multiflow(*spec.graph, traffic_rng, spec.traffic);

  TestBedParams params = spec.bed;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  params.monitor_capacity = params.monitor_capacity || params.congestion_mode;
  const auto strategy = install_strategy(spec, params, seed);
  TestBed bed(*spec.graph, params);
  // Event volume scales with both the topology and the flow batch; the
  // estimate only pre-sizes slabs, so overshoot costs memory, not time.
  bed.reserve_events(spec.graph->node_count() * 64 + flows.size() * 192 +
                     512);

  std::vector<std::pair<net::FlowId, net::Path>> batch;
  for (const TrafficFlow& tf : flows) {
    bed.deploy_flow(tf.flow, tf.old_path);
    batch.emplace_back(tf.flow.id, tf.new_path);
  }
  bed.schedule_batch_at(kIssueAt, std::move(batch));
  bed.run(kRunUntil);

  // Sample: completion time of the last flow update in the batch.
  RunOutcome out;
  bool all_done = true;
  sim::Time last = 0;
  for (const TrafficFlow& tf : flows) {
    const auto* rec = bed.flow_db().record(tf.flow.id, 2);
    if (rec == nullptr || rec->state != control::UpdateState::kCompleted) {
      all_done = false;
      break;
    }
    last = std::max(last, rec->completed_at);
  }
  if (all_done) out.sample = sim::to_ms(last - kIssueAt);
  harvest_bed(bed, out);
  return out;
}

RunOutcome run_chaos_job(const RunSpec& spec, std::uint64_t seed) {
  sim::Rng traffic_rng(seed ^ 0x7AFF1Cull);
  const std::vector<TrafficFlow> flows =
      gravity_multiflow(*spec.graph, traffic_rng, spec.traffic);

  TestBedParams params = spec.bed;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  // Per-seed chaos: one link outage and one switch crash, drawn from a
  // fault-only stream so the draw never perturbs the traffic model.
  const net::Graph& g = *spec.graph;
  sim::Rng chaos_rng(seed ^ 0xC4A05ull);
  const sim::Duration span =
      spec.chaos_to > spec.chaos_from ? spec.chaos_to - spec.chaos_from : 1;
  const auto draw_at = [&]() {
    return spec.chaos_from + static_cast<sim::Time>(chaos_rng.uniform(
                                 static_cast<std::uint64_t>(span)));
  };
  const auto link =
      static_cast<net::LinkId>(chaos_rng.uniform(g.link_count()));
  const net::Link& l = g.link(link);
  params.fault_plan.link_down_for(draw_at(), l.a, l.b, spec.chaos_outage);
  const auto victim =
      static_cast<net::NodeId>(chaos_rng.uniform(g.node_count()));
  params.fault_plan.switch_crash_for(draw_at(), victim, spec.chaos_outage);

  const auto strategy = install_strategy(spec, params, seed);
  TestBed bed(g, params);
  bed.reserve_events(g.node_count() * 64 + flows.size() * 256 + 512);

  std::vector<std::pair<net::FlowId, net::Path>> batch;
  for (const TrafficFlow& tf : flows) {
    bed.deploy_flow(tf.flow, tf.old_path);
    batch.emplace_back(tf.flow.id, tf.new_path);
  }
  bed.schedule_batch_at(kIssueAt, std::move(batch));
  bed.run(kRunUntil);

  // Liveness: every flow's latest update must have settled (Completed,
  // RolledBack, or Abandoned). A run with anything still kPending counts as
  // incomplete; the sample reports how many updates fully completed.
  RunOutcome out;
  if (bed.flow_db().all_terminal()) {
    double completed = 0.0;
    for (const TrafficFlow& tf : flows) {
      const auto& hist = bed.flow_db().history(tf.flow.id);
      if (!hist.empty() &&
          hist.back().outcome == control::UpdateOutcome::kCompleted) {
        completed += 1.0;
      }
    }
    out.sample = completed;
  }
  harvest_bed(bed, out);
  return out;
}

RunOutcome run_scale_job(const RunSpec& spec, std::uint64_t seed) {
  const net::Graph& g = *spec.graph;

  // Pinned endpoint pairs: drawn from scale_endpoints (or every node) with
  // a pair-only rng stream, each resolved once to (shortest, 2nd-shortest).
  // Flows are then dealt round-robin over the pairs, so path precompute is
  // O(scale_pairs) while per-flow state is O(scale_flows).
  std::vector<net::NodeId> endpoints = spec.scale_endpoints;
  if (endpoints.empty()) {
    endpoints.reserve(g.node_count());
    for (std::size_t n = 0; n < g.node_count(); ++n) {
      endpoints.push_back(static_cast<net::NodeId>(n));
    }
  }
  struct PairPaths {
    net::NodeId src;
    net::NodeId dst;
    net::Path old_path;
    net::Path new_path;
  };
  sim::Rng pair_rng(seed ^ 0x5CA1Eull);
  std::vector<PairPaths> pairs;
  pairs.reserve(spec.scale_pairs);
  // Bounded rejection: pairs whose 2nd-shortest path does not exist are
  // re-rolled, like gravity_multiflow does for its per-node destinations.
  for (int attempts = 0;
       pairs.size() < spec.scale_pairs &&
       attempts < static_cast<int>(spec.scale_pairs) * 8;
       ++attempts) {
    const net::NodeId src =
        endpoints[pair_rng.uniform(endpoints.size())];
    const net::NodeId dst =
        endpoints[pair_rng.uniform(endpoints.size())];
    if (src == dst) continue;
    auto ksp = net::k_shortest_paths(g, src, dst, 2, net::Metric::kHops);
    if (ksp.size() < 2) continue;
    pairs.push_back({src, dst, std::move(ksp[0]), std::move(ksp[1])});
  }
  if (pairs.empty()) {
    throw std::logic_error("run_scale_job: no endpoint pair has two paths");
  }

  TestBedParams params = spec.bed;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  params.expected_flows = spec.scale_flows;
  // Per-switch residency: total hop-slots / switches, with headroom. The
  // hint only pre-sizes pools; undershoot costs a few grows, not wrongness.
  params.expected_flows_per_switch =
      spec.scale_flows * 12 / std::max<std::size_t>(g.node_count(), 1);
  const auto strategy = install_strategy(spec, params, seed);
  TestBed bed(g, params);
  // The event volume is dominated by the updated subset, not residency:
  // deployment is instant bring-up, no events.
  bed.reserve_events(g.node_count() * 64 + spec.scale_update_flows * 192 +
                     512);

  // Synthetic unique ids: splitmix64 is a bijection on uint64, so a
  // million sequential indices give a million distinct FlowIds without
  // storing a dedup set.
  const auto synthetic_id = [](std::uint64_t i) {
    std::uint64_t state = i + 0x9E3779B97F4A7C15ull;
    return sim::splitmix64(state);
  };

  const std::size_t n_update =
      std::min(spec.scale_update_flows, spec.scale_flows);
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
    // Only the updated prefix is monitor-watched: the monitor's per-flow
    // bookkeeping stays O(update_flows) under a million resident flows.
    bed.deploy_flow(f, pp.old_path, /*watch=*/updated);
    if (updated) batch.emplace_back(f.id, pp.new_path);
  }
  bed.schedule_batch_at(kIssueAt, std::move(batch));
  bed.run(kRunUntil);

  // Sample: completion time of the last updated flow (the resident
  // background flows never change, they only stress the state layer).
  RunOutcome out;
  bool all_done = true;
  sim::Time last = 0;
  for (std::size_t i = 0; i < n_update; ++i) {
    const auto* rec = bed.flow_db().record(synthetic_id(i), 2);
    if (rec == nullptr || rec->state != control::UpdateState::kCompleted) {
      all_done = false;
      break;
    }
    last = std::max(last, rec->completed_at);
  }
  if (all_done) out.sample = sim::to_ms(last - kIssueAt);
  harvest_bed(bed, out);
  return out;
}

RunOutcome run_churn_job(const RunSpec& spec, std::uint64_t seed) {
  const net::Graph& g = *spec.graph;
  // Rolled before the bed exists: every system replays the identical
  // request stream for this seed.
  const ChurnWorkload wl = make_churn_workload(g, seed, spec.churn);

  TestBedParams params = spec.bed;
  params.seed = seed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  const auto strategy = install_strategy(spec, params, seed);
  TestBed bed(g, params);
  bed.reserve_events(g.node_count() * 64 + wl.events.size() * 256 + 1024);

  install_churn(bed, wl);
  bed.run(kRunUntil);

  RunOutcome out;
  const control::FlowDb& db = bed.flow_db();

  // Completion latency (virtual submit -> settle) across every settled
  // request: fixed-memory P2 tails, however long the stream ran.
  sim::StreamingStats lat({50.0, 99.0, 99.9});
  std::uint64_t terminal = 0;
  sim::Time last_finish = 0;
  for (const control::RequestRecord& r : db.requests()) {
    if (!control::is_terminal(r.state)) continue;
    ++terminal;
    lat.add(sim::to_ms(r.finished_at - r.submitted_at));
    last_finish = std::max(last_finish, r.finished_at);
  }

  // Liveness gate + sample: a run only counts when every request reached a
  // terminal state; the sample is controller throughput in settled
  // requests per virtual second, first arrival to last settle.
  if (db.all_requests_terminal() && terminal > 0) {
    const sim::Time span_from = spec.churn.start;
    const sim::Time span_to = std::max(last_finish, span_from + 1);
    out.sample = static_cast<double>(terminal) /
                 (static_cast<double>(span_to - span_from) /
                  static_cast<double>(sim::kSecond));
  }

  // Per-run scalars (tails, queue peaks) become one histogram observation
  // each: the cross-seed campaign merge then reports count/mean/min/max
  // (a gauge would keep only the last-merged run's value).
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
  harvest_bed(bed, out);
  return out;
}

RunOutcome run_fig2_job(const RunSpec& spec, std::uint64_t seed) {
  Fig2Result r = run_fig2_demo(spec.bed.system, seed);
  RunOutcome out;
  out.sample = static_cast<double>(r.unique_at_v4);
  out.alarms = r.alarms;
  out.violations.loops = r.loop_observations;
  out.metrics = std::move(r.metrics);
  return out;
}

RunOutcome run_fig4_job(const RunSpec& spec, std::uint64_t seed) {
  Fig4Result r = run_fig4_demo(spec.bed.system, seed);
  RunOutcome out;
  if (r.u3_completed) out.sample = r.u3_completion_ms;
  out.violations = r.violations;
  out.metrics = std::move(r.metrics);
  return out;
}

}  // namespace

const char* to_string(ScenarioFamily f) {
  switch (f) {
    case ScenarioFamily::kSingleFlow: return "single-flow";
    case ScenarioFamily::kMultiFlow: return "multi-flow";
    case ScenarioFamily::kFig2Inconsistency: return "fig2-inconsistency";
    case ScenarioFamily::kFig4FastForward: return "fig4-fast-forward";
    case ScenarioFamily::kChaos: return "chaos";
    case ScenarioFamily::kScale: return "scale";
    case ScenarioFamily::kChurn: return "churn";
  }
  return "?";
}

RunOutcome execute_run(const RunSpec& spec, int run_index) {
  const std::uint64_t seed =
      spec.base_seed + static_cast<std::uint64_t>(run_index);
  switch (spec.family) {
    case ScenarioFamily::kSingleFlow: return run_single_flow_job(spec, seed);
    case ScenarioFamily::kMultiFlow: return run_multi_flow_job(spec, seed);
    case ScenarioFamily::kFig2Inconsistency: return run_fig2_job(spec, seed);
    case ScenarioFamily::kFig4FastForward: return run_fig4_job(spec, seed);
    case ScenarioFamily::kChaos: return run_chaos_job(spec, seed);
    case ScenarioFamily::kScale: return run_scale_job(spec, seed);
    case ScenarioFamily::kChurn: return run_churn_job(spec, seed);
  }
  throw std::logic_error("execute_run: unknown scenario family");
}

RunSpec& Campaign::add(RunSpec spec) {
  if (spec.runs < 0) throw std::invalid_argument("Campaign: negative runs");
  const bool needs_graph = spec.family == ScenarioFamily::kSingleFlow ||
                           spec.family == ScenarioFamily::kMultiFlow ||
                           spec.family == ScenarioFamily::kChaos ||
                           spec.family == ScenarioFamily::kScale ||
                           spec.family == ScenarioFamily::kChurn;
  if (needs_graph && spec.graph == nullptr) {
    throw std::invalid_argument("Campaign: spec '" + spec.slug +
                                "' has no topology");
  }
  specs_.push_back(std::move(spec));
  return specs_.back();
}

std::size_t Campaign::total_runs() const {
  std::size_t n = 0;
  for (const RunSpec& s : specs_) n += static_cast<std::size_t>(s.runs);
  return n;
}

std::vector<SpecResult> Campaign::run(int jobs) const {
  // Expand specs into the flat job list, in spec-then-seed order. The
  // outcome of job i lands in slot i whatever thread ran it, so the merge
  // below never observes scheduling order.
  struct Job {
    std::size_t spec;
    int run;
  };
  std::vector<Job> expanded;
  expanded.reserve(total_runs());
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    for (int r = 0; r < specs_[s].runs; ++r) expanded.push_back({s, r});
  }

  std::vector<RunOutcome> outcomes =
      parallel_map_indexed(expanded.size(), jobs, [&](std::size_t i) {
        return execute_run(specs_[expanded[i].spec], expanded[i].run);
      });

  // Merge on this thread, spec by spec in seed order: samples concatenate,
  // counters add, registries fold — deterministically.
  std::vector<SpecResult> results;
  results.reserve(specs_.size());
  std::size_t i = 0;
  for (const RunSpec& spec : specs_) {
    SpecResult sr;
    sr.slug = spec.slug;
    sr.sample_unit = spec.sample_unit;
    for (int r = 0; r < spec.runs; ++r, ++i) {
      RunOutcome& out = outcomes[i];
      if (out.sample) {
        sr.result.update_times_ms.add(*out.sample);
      } else {
        ++sr.result.incomplete_runs;
      }
      sr.result.alarms += out.alarms;
      sr.result.violations.loops += out.violations.loops;
      sr.result.violations.blackholes += out.violations.blackholes;
      sr.result.violations.capacity += out.violations.capacity;
      sr.result.violations.faulted_walks += out.violations.faulted_walks;
      sr.result.metrics.merge_from(out.metrics);
    }
    results.push_back(std::move(sr));
  }
  return results;
}

std::string write_campaign_report(
    const std::string& out_dir, const std::string& run_name,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::vector<SpecResult>& results) {
  if (out_dir.empty()) return "";
  obs::RunReport rep(out_dir, run_name);
  for (const auto& [k, v] : meta) rep.set_meta(k, v);
  obs::MetricsRegistry merged;
  for (const SpecResult& sr : results) merged.merge_from(sr.result.metrics);
  rep.add_metrics(merged);
  for (const SpecResult& sr : results) {
    rep.add_samples(sr.slug, sr.result.update_times_ms, sr.sample_unit);
  }
  return rep.write();
}

}  // namespace p4u::harness
