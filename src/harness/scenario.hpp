// TestBed: one fully wired simulation run — topology, fabric, one pipeline
// per switch for the system under test, control channel, controller, and
// the invariant monitor. Scenarios (single-flow, multi-flow, the §4 demos)
// drive a TestBed; campaigns (harness/campaign.hpp) run many seeded
// TestBeds and collect stats.
//
// The system under test is built by the SystemFactory registry
// (harness/system_factory.hpp): the TestBed drives it exclusively through
// the SystemAdapter interface and never switches over SystemKind.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "baselines/central_controller.hpp"
#include "baselines/ezsegway_controller.hpp"
#include "control/dest_tree.hpp"
#include "core/p4update_controller.hpp"
#include "core/p4update_switch.hpp"
#include "harness/invariant_monitor.hpp"
#include "harness/system_factory.hpp"
#include "p4rt/control_channel.hpp"
#include "p4rt/fabric.hpp"

namespace p4u::harness {

class TestBed {
 public:
  TestBed(net::Graph graph, TestBedParams params);
  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  /// Deploys a flow's initial configuration (instant bring-up, version 1)
  /// and registers it with controller and monitor. Scale campaigns pass
  /// `watch = false` for the resident (never-updated) background flows:
  /// the monitor's per-flow bookkeeping is then bounded by the updated
  /// subset instead of the full million-flow population.
  void deploy_flow(const net::Flow& f, const net::Path& initial_path,
                   bool watch = true);

  /// Deploys a destination tree's initial configuration (P4Update only):
  /// every tree node gets a version-1 rule toward its parent, the root
  /// delivers locally. `f.egress` must equal the tree root.
  void deploy_tree(const net::Flow& f, const control::DestTree& tree);

  /// Schedules one flow update at virtual time `at`. Convenience over
  /// `submit`: the request goes through the system's admission queue with
  /// kind = kReroute; the ticket is not returned (callers that need it
  /// schedule their own event and call system().submit inside).
  void schedule_update_at(sim::Time at, net::FlowId flow, net::Path new_path);

  /// Issues one flow update right now (scenario hooks that fire from inside
  /// a scheduled event — e.g. the §4.1 demo's mid-run reconfiguration);
  /// returns the admission ticket.
  Ticket issue_update_now(net::FlowId flow, const net::Path& new_path);

  /// Submits one request right now through the admission queue (the
  /// request-level API; churn drivers use this with explicit kinds).
  Ticket submit(const UpdateRequest& req) { return adapter_->submit(req); }

  /// Schedules a batch of updates at `at` (multi-flow scenarios; ez-Segway
  /// computes its priorities once per batch).
  void schedule_batch_at(sim::Time at,
                         std::vector<std::pair<net::FlowId, net::Path>> batch);

  /// Starts a constant-rate packet stream for Fig. 2-style observations.
  void start_traffic(net::FlowId flow, net::NodeId ingress, double pps,
                     std::uint32_t n_packets, std::int32_t ttl = 64);

  /// Runs the simulation until `until` or until idle.
  void run(sim::Time until = sim::seconds(120)) { sim_.run(until); }

  /// Always false (one engine); kept for perfbench, which still asks.
  [[nodiscard]] constexpr bool sharded() const noexcept { return false; }

  /// Pre-sizes event storage for about `n` concurrently pending events.
  void reserve_events(std::size_t n) { sim_.reserve(n); }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] p4rt::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] p4rt::ControlChannel& channel() { return *channel_; }

  /// The run's metrics registry (owned by the fabric; pipelines and the
  /// controller write into it live).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return fabric_->metrics(); }

  /// Flushes end-of-run state into the registry: per-switch UIB register
  /// access counters and pipeline totals that are kept as plain members
  /// during the run. Idempotent (counters are topped up to the current
  /// totals), so experiments can call it right before harvesting.
  void collect_metrics();

  /// Scenario fault injection: makes the controller *believe* the flow is
  /// installed on `path` even though the data plane may disagree — the
  /// inconsistent-view failure mode of [69, 71] driving §4.1.
  void force_belief(net::FlowId flow, net::Path path);
  [[nodiscard]] const net::Graph& graph() const { return graph_; }
  [[nodiscard]] InvariantMonitor& monitor() { return *monitor_; }
  [[nodiscard]] const control::FlowDb& flow_db() const;
  [[nodiscard]] sim::Trace& trace() { return fabric_->trace(); }

  /// The system under test, behind the uniform adapter interface.
  [[nodiscard]] SystemAdapter& system() { return *adapter_; }

  // Typed accessors for tests/demos that poke one concrete system; they
  // throw std::logic_error when the bed runs a different system.
  [[nodiscard]] core::P4UpdateController& p4update();
  [[nodiscard]] baseline::EzSegwayController& ezsegway();
  [[nodiscard]] baseline::CentralController& central();
  [[nodiscard]] core::P4UpdateSwitch& p4update_switch(net::NodeId n);

  [[nodiscard]] const TestBedParams& params() const { return params_; }

 private:
  net::Graph graph_;
  TestBedParams params_;
  sim::Simulator sim_;
  std::unique_ptr<p4rt::Fabric> fabric_;
  std::unique_ptr<p4rt::ControlChannel> channel_;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::unique_ptr<SystemAdapter> adapter_;
};

}  // namespace p4u::harness
