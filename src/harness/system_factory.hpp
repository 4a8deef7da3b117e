// SystemFactory: uniform construction of the systems under test.
//
// Every protocol (P4Update, ez-Segway, Central, and anything future PRs
// add) plugs into the TestBed through one SystemAdapter interface: build
// the per-switch pipelines against the fabric, build the controller, and
// answer the handful of operations scenarios need (bootstrap a hop,
// register / update flows, expose the FlowDb and NIB). The registry maps a
// SystemKind to a factory so the harness, experiments, and benches never
// switch over the enum — adding a protocol is one register_system call.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/admission.hpp"
#include "control/flow_db.hpp"
#include "control/nib.hpp"
#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "net/flow.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "obs/metrics.hpp"
#include "p4rt/packet.hpp"
#include "p4rt/switch_device.hpp"
#include "sim/time.hpp"

namespace p4u::core {
class P4UpdateController;
class P4UpdateSwitch;
}  // namespace p4u::core
namespace p4u::baseline {
class EzSegwayController;
class CentralController;
}  // namespace p4u::baseline
namespace p4u::p4rt {
class ControlChannel;
class Fabric;
}  // namespace p4u::p4rt
namespace p4u::sim {
class ScheduleStrategy;
class Simulator;
}  // namespace p4u::sim

namespace p4u::harness {

enum class SystemKind {
  kP4Update,
  kEzSegway,
  kCentral,
};

const char* to_string(SystemKind k);

/// How controller <-> switch latency is derived.
enum class CtrlLatencyModel {
  kWanCentroid,     // shortest-path latency from the centroid node (§9.1)
  kFattreeNormal,   // per-switch truncated normal (mean 4 ms, sd 3, min .5)
  kFixed,           // constant (synthetic topologies)
};

struct TestBedParams {
  SystemKind system = SystemKind::kP4Update;
  std::uint64_t seed = 1;
  p4rt::SwitchParams switch_params;
  /// Controller costs are asymmetric (§9.1, [40]): emitting a precomputed
  /// message is a cheap write, but each inbound notification is parsed,
  /// fed into the NIB, and may trigger dependency recomputation on the
  /// single-threaded (Python, in the paper) controller — that queuing +
  /// processing delay is what penalizes chatty centralized updates.
  sim::Duration ctrl_send_service = sim::microseconds(500);
  sim::Duration ctrl_recv_service = sim::milliseconds(5);
  CtrlLatencyModel ctrl_latency_model = CtrlLatencyModel::kFixed;
  /// For synthetic topologies the controller is "one designated node" (§5),
  /// i.e. reachable over the same kind of links: default = one 20 ms hop.
  sim::Duration fixed_ctrl_latency = sim::milliseconds(20);
  bool congestion_mode = false;
  bool monitor_capacity = false;
  // P4Update-specific knobs.
  std::optional<p4rt::UpdateType> force_type;
  bool allow_consecutive_dual = false;
  bool enable_retrigger = false;               // §11 failure recovery
  /// P4Update: run the static plan verifier before dispatch (DESIGN.md §12)
  /// and count verdicts; with enforce, unsafe plans are refused (the
  /// request settles kRolledBack without touching the data plane).
  bool static_preflight = false;
  bool enforce_preflight = false;
  sim::Duration p4u_wait_timeout = sim::seconds(10);
  sim::Duration p4u_uim_watchdog = 0;          // 0 = watchdog off
  bool trace_enabled = true;
  /// Record the controller's wall-clock preparation cost (ctrl.prep_ms).
  /// The one nondeterministic metric: campaigns force it off so merged
  /// reports are byte-identical across reruns and `--jobs` counts.
  bool measure_prep_wallclock = true;
  /// Failure domain: the probabilistic fault model plus the run's scheduled
  /// link/switch events. Validated against the graph at TestBed
  /// construction; the fabric executes it from the event queue.
  faults::FaultPlan fault_plan;
  /// Controller-side recovery knobs (completion timers, backoff, repair
  /// routing). Off by default: fault-free runs stay bit-exact.
  faults::RecoveryParams recovery;
  /// Capacity hints for million-flow runs; 0 = grow on demand (the
  /// default keeps small beds allocation-lean). `expected_flows` is the
  /// total distinct flows the run will register (controller NIB + FlowDb
  /// preallocation); `expected_flows_per_switch` sizes each switch's UIB
  /// and per-flow pools — per switch, not total, since a flow only
  /// occupies the switches on its path.
  std::size_t expected_flows = 0;
  std::size_t expected_flows_per_switch = 0;
  /// Event-ordering strategy for the run; nullptr keeps the simulator's
  /// historical fast path (equivalent to SeededStrategy). Not owned: must
  /// outlive the TestBed. Installed before any event is scheduled, so even
  /// construction-time fault events are under strategy control.
  sim::ScheduleStrategy* strategy = nullptr;
  /// Request admission in front of the controller (control/admission.hpp):
  /// bounded in-flight updates, deterministic FIFO, per-flow coalescing.
  /// The default (both bounds 0) is a strict pass-through — every
  /// pre-churn scenario submits straight through to the controller.
  control::AdmissionParams admission;
};

/// Everything an adapter needs to wire one system into a run. The fabric
/// and channel outlive the adapter; the graph and params are owned by the
/// TestBed.
struct SystemContext {
  sim::Simulator& sim;
  p4rt::Fabric& fabric;
  p4rt::ControlChannel& channel;
  const net::Graph& graph;
  const TestBedParams& params;
};

/// One unit of client intent: move (or bring up / retire) `flow`.
struct UpdateRequest {
  net::FlowId flow = 0;
  net::Path new_path;
  control::RequestKind kind = control::RequestKind::kReroute;
};

/// Receipt for a submitted request. `version` is the update version the
/// controller issued, or 0 while the request is still queued (admission
/// bounds) or the controller has not assigned one yet; the ledger record
/// (SystemAdapter::request) carries the final version and outcome.
struct Ticket {
  control::RequestId request_id = 0;
  net::FlowId flow = 0;
  p4rt::Version version = 0;
  sim::Time submit_time = 0;
};

/// Static-preflight totals (DESIGN.md §12); all-zero for systems without a
/// preflight verifier.
struct PreflightCounters {
  std::uint64_t safe = 0;
  std::uint64_t unsafe = 0;
  std::uint64_t unknown = 0;
  std::uint64_t skipped = 0;
};

/// One system under test, fully wired: the per-switch pipelines (already
/// attached to the fabric) plus the controller. The TestBed drives every
/// system exclusively through this interface.
///
/// Submission is ticketed: `submit` hands the request to the admission
/// queue (bounds + FIFO + coalescing per TestBedParams::admission) and
/// returns a Ticket; the per-request lifecycle is queryable from the
/// FlowDb request ledger. Adapters implement the protected dispatch hooks;
/// they never see queueing.
class SystemAdapter {
 public:
  virtual ~SystemAdapter() = default;

  /// Installs the version-1 state for one on-path hop of `f`: `dist` hops
  /// to the egress, forwarding out of `port` (kLocalPort delivers).
  virtual void bootstrap_flow_hop(p4rt::SwitchDevice& sw, const net::Flow& f,
                                  p4rt::Distance dist, std::int32_t port) = 0;

  /// Registers an already-deployed flow with the controller.
  virtual void register_flow(const net::Flow& f, const net::Path& path) = 0;

  /// Submits one request through the admission queue.
  Ticket submit(const UpdateRequest& req);

  /// Submits a batch: systems that precompute per-batch state (ez-Segway's
  /// congestion priorities) do it once up front, then every request is
  /// submitted in order.
  std::vector<Ticket> submit_batch(const std::vector<UpdateRequest>& batch);

  /// Records a request that needs no data-plane transition (instant flow
  /// bring-up / removal); it settles kCompleted immediately.
  Ticket note_instant(net::FlowId flow, control::RequestKind kind);

  /// Ledger record for a ticket (nullptr for an unknown id).
  [[nodiscard]] const control::RequestRecord* request(
      control::RequestId id) const;

  /// The admission queue (depth/peak stats for benches). Valid for the
  /// adapter's whole lifetime.
  [[nodiscard]] control::AdmissionQueue& admission() { return *admission_; }

  /// Per-request terminal notifications (fired in per-flow version order).
  void set_notify(control::AdmissionQueue::NotifyFn fn) {
    admission_->set_notify(std::move(fn));
  }

  [[nodiscard]] virtual const control::FlowDb& flow_db() const = 0;
  [[nodiscard]] virtual control::Nib& nib() = 0;

  /// Flushes end-of-run state (per-switch register access counters, …)
  /// into the registry. Must be idempotent; the default does nothing.
  virtual void collect_metrics(obs::MetricsRegistry& m) { (void)m; }

  // Capability accessors: the uniform view of per-system knobs/counters a
  // system-agnostic driver (bench/churn) needs, instead of downcasting.
  /// The run's controller-recovery knobs.
  [[nodiscard]] const faults::RecoveryParams& recovery_params() const {
    return recovery_;
  }
  /// Preflight verdict totals; zeros for systems without static preflight.
  [[nodiscard]] virtual PreflightCounters preflight_counters() const {
    return {};
  }

  // Narrow accessors for tests and demos that poke one concrete system.
  // Adapters for other systems keep the nullptr defaults.
  [[nodiscard]] virtual core::P4UpdateController* as_p4update() {
    return nullptr;
  }
  [[nodiscard]] virtual core::P4UpdateSwitch* p4update_switch(net::NodeId n) {
    (void)n;
    return nullptr;
  }
  [[nodiscard]] virtual baseline::EzSegwayController* as_ezsegway() {
    return nullptr;
  }
  [[nodiscard]] virtual baseline::CentralController* as_central() {
    return nullptr;
  }

 protected:
  /// Hands one request to the controller; returns the issued version (0 +
  /// accepted when the controller queued it internally without a version;
  /// !accepted when nothing was issued at all).
  virtual control::DispatchResult dispatch_update(net::FlowId flow,
                                                  const net::Path& path) = 0;

  /// Per-batch precompute hook (default: none).
  virtual void prepare_batch(const std::vector<UpdateRequest>& batch) {
    (void)batch;
  }

  /// The controller's FlowDb, mutably (the admission queue writes the
  /// request ledger through it).
  [[nodiscard]] virtual control::FlowDb& mutable_flow_db() = 0;

  /// Wires the admission queue: called once at the END of every derived
  /// constructor (the controller — and with it the FlowDb — must exist).
  /// Derived constructors also hook their controller's on_settled to
  /// `settled` right after.
  void init_submission(const SystemContext& ctx);

  /// Controller settle hook target: resolves the matching request and pumps
  /// the queue into the freed slot.
  void settled(net::FlowId flow, p4rt::Version version,
               control::UpdateOutcome outcome) {
    admission_->on_update_settled(flow, version, outcome);
  }

 private:
  std::unique_ptr<control::AdmissionQueue> admission_;
  faults::RecoveryParams recovery_;
};

/// Process-wide registry of SystemKind -> adapter factory. The built-in
/// systems are registered on first use; future protocols call
/// register_system once (e.g. from a static initializer).
class SystemFactory {
 public:
  using FactoryFn =
      std::function<std::unique_ptr<SystemAdapter>(const SystemContext&)>;

  /// The singleton, with the built-in systems pre-registered.
  static SystemFactory& instance();

  /// Registers (or replaces) the factory for `kind`. Thread-safe.
  void register_system(SystemKind kind, std::string name, FactoryFn fn);

  /// Builds the adapter for `kind`; throws std::logic_error when no factory
  /// is registered. Thread-safe: campaign jobs create adapters concurrently.
  [[nodiscard]] std::unique_ptr<SystemAdapter> create(
      SystemKind kind, const SystemContext& ctx) const;

  /// Registered (kind, name) pairs, in enum order.
  [[nodiscard]] std::vector<std::pair<SystemKind, std::string>> registered()
      const;

 private:
  SystemFactory();
  struct Entry {
    std::string name;
    FactoryFn fn;
  };
  // p4u-detlint: allow(thread-containment) registration-registry guard: campaign workers read the singleton concurrently; it protects entries_ only and never touches simulation state or report bytes
  mutable std::mutex mu_;
  std::vector<std::pair<SystemKind, Entry>> entries_;
};

}  // namespace p4u::harness
