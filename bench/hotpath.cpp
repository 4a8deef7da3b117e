// Hot-path microbenchmarks: event dispatch, fabric forwarding, and a
// fat-tree campaign job, reported as events per second of wall time.
//
// The dispatch pair is the headline: `dispatch.legacy` is a pinned replica
// of the pre-overhaul simulator core (std::function handlers in a
// std::priority_queue of whole events — every capture beyond the small
// buffer heap-allocates, every sift moves multi-hundred-byte events) and
// `dispatch.inlinefn` is the live sim::Simulator (InlineFn inline storage,
// slab event pool with a free list, 4-ary heap of pool indices). Both run
// the identical self-rescheduling workload, so the ratio isolates the event
// core. Keeping the legacy replica here makes the speedup reproducible
// forever instead of requiring a checkout of the old tree.
//
// Numbers are a trajectory artifact, not a gate: the bench emits
// BENCH_hotpath.json (no campaign report) and CI uploads it so regressions
// show up as a curve, without flaky wall-clock thresholds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "obs/run_report.hpp"
#include "p4rt/fabric.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace p4u;

// p4u-detlint: allow(wall-clock) throughput microbenchmark: wall time is the measurand; results go to the BENCH_hotpath.json trajectory artifact, never into a campaign report
using BenchClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Legacy simulator core, verbatim from the pre-overhaul sim::Simulator.
// Frozen here as the forever-baseline of the dispatch comparison; do not
// "optimize" it.
namespace legacy {

class Simulator {
 public:
  using Handler = std::function<void()>;

  [[nodiscard]] sim::Time now() const noexcept { return now_; }

  void schedule_in(sim::Duration delay, Handler fn) {
    if (delay < 0) delay = 0;
    const sim::Time at =
        delay > sim::kTimeInfinity - now_ ? sim::kTimeInfinity : now_ + delay;
    queue_.push(Event{at, next_seq_++, std::move(fn)});
  }

  std::size_t run() {
    std::size_t n = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      const sim::Time at = top.at;
      Handler fn = std::move(const_cast<Event&>(top).fn);
      queue_.pop();
      now_ = at;
      ++executed_;
      fn();
      ++n;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Event {
    sim::Time at;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Workload: `chains` independent self-rescheduling handlers, each carrying a
// fabric-handler-sized payload (a Packet-and-context capture is 152 bytes,
// far past std::function's small buffer). Delays come from a per-chain LCG,
// so the heap sees interleaved, shuffled expiries rather than FIFO order.
// The chain count sets the steady-state pending-event population; it is
// sized to match what campaigns actually hold (the campaign runner reserves
// ~2.4k slots for a single-flow K=4 fat-tree run and far more for
// multi-flow specs), because queue depth is where scheduler data-structure
// choices show up.

// Sized so the chain_step capture below ({Sim&, rng, remaining, Payload})
// lands at 152 bytes — exactly what the fabric's deliver handler carries
// (sizeof(Packet) == 136 plus this/port/node context).
struct Payload {
  unsigned char bytes[128] = {};
};

template <typename Sim>
void chain_step(Sim& sim, std::uint64_t rng, std::uint32_t remaining,
                Payload p) {
  if (remaining == 0) return;
  rng = rng * 6364136223846793005ull + 1442695040888963407ull;
  const auto delay = static_cast<sim::Duration>((rng >> 33) & 0xFFFFu);
  sim.schedule_in(delay, [&sim, rng, remaining, p]() mutable {
    p.bytes[remaining % sizeof(p.bytes)] ^=
        static_cast<unsigned char>(remaining);
    chain_step(sim, rng, remaining - 1, p);
  });
}

template <typename Sim>
double dispatch_events_per_sec(std::uint32_t chains, std::uint32_t steps) {
  Sim sim;
  for (std::uint32_t c = 0; c < chains; ++c) {
    chain_step(sim, 0x9E3779B97F4A7C15ull + c, steps, Payload{});
  }
  const auto t0 = BenchClock::now();
  const std::size_t n = sim.run();
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  return static_cast<double>(n) / dt.count();
}

/// Data packets through a rule chain on a K=4 fat-tree: stresses the
/// service queue, the move-through forward path, and the cached fabric
/// counters together.
double fabric_forward_events_per_sec(std::uint32_t packets) {
  sim::Simulator sim;
  net::FatTree ft = net::fattree_topology(4);
  p4rt::Fabric fabric(sim, ft.graph, p4rt::SwitchParams{}, /*seed=*/1);
  fabric.trace().set_enabled(false);

  const net::NodeId src = ft.edge.front();
  const net::NodeId dst = ft.edge.back();
  const auto path = net::shortest_path(ft.graph, src, dst);
  const net::FlowId flow = 77;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    fabric.sw((*path)[i])
        .set_rule_now(flow, ft.graph.port_of((*path)[i], (*path)[i + 1]));
  }
  fabric.sw(path->back()).set_rule_now(flow, p4rt::SwitchDevice::kLocalPort);

  sim.reserve(packets * 2);
  for (std::uint32_t i = 0; i < packets; ++i) {
    fabric.inject(src, p4rt::Packet{p4rt::DataHeader{flow, i, 64}}, -1);
  }
  const auto t0 = BenchClock::now();
  const std::size_t n = sim.run();
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  return static_cast<double>(n) / dt.count();
}

/// One pinned single-flow fat-tree update per seed (the golden-trace
/// scenario), `runs` seeds spread over `jobs` workers: end-to-end campaign
/// events/sec including controller, verification, and metrics.
double fattree_campaign_events_per_sec(int runs, int jobs) {
  const auto t0 = BenchClock::now();
  const std::vector<std::uint64_t> executed = harness::parallel_map_indexed(
      static_cast<std::size_t>(runs), jobs, [](std::size_t i) {
        net::FatTree ft = net::fattree_topology(4);
        net::set_uniform_capacity(ft.graph, 100.0);
        harness::TestBedParams params;
        params.seed = 1 + static_cast<std::uint64_t>(i);
        params.switch_params.straggler_mean_ms = 100.0;
        params.trace_enabled = false;
        params.measure_prep_wallclock = false;
        harness::TestBed bed(ft.graph, params);
        bed.simulator().reserve(ft.graph.node_count() * 96 + 512);

        const net::NodeId src = ft.edge.front();
        const net::NodeId dst = ft.edge.back();
        const auto old_p = net::shortest_path(ft.graph, src, dst);
        const auto new_p =
            net::shortest_path_avoiding(ft.graph, src, dst, {(*old_p)[1]});
        net::Flow f;
        f.ingress = src;
        f.egress = dst;
        f.id = net::flow_id_of(src, dst);
        f.size = 1.0;
        bed.deploy_flow(f, *old_p);
        bed.schedule_update_at(sim::milliseconds(10), f.id, *new_p);
        bed.run(sim::seconds(300));
        return bed.simulator().executed();
      });
  const std::chrono::duration<double> dt = BenchClock::now() - t0;
  std::uint64_t total = 0;
  for (std::uint64_t e : executed) total += e;
  return static_cast<double>(total) / dt.count();
}

struct CaseResult {
  std::string name;
  double events_per_sec = 0.0;
};

/// Best-of-`reps` throughput (standard for wall-clock rate benchmarks: the
/// fastest rep is the least-perturbed one).
template <typename F>
double best_of(int reps, F&& f) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) best = std::max(best, f());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchCliSpec spec;
  spec.program = "hotpath";
  spec.description =
      "Hot-path microbenchmarks: event dispatch (legacy vs InlineFn core), "
      "fabric forwarding, fat-tree campaign throughput.";
  spec.with_runs = true;
  const harness::BenchCli cli =
      harness::parse_bench_cli_or_exit(argc, argv, spec);

  // Smoke trims steps (samples), not chains: the pending-event depth is
  // what exercises the scheduler, so both modes run the campaign-scale
  // population.
  const std::uint32_t chains = 4096;
  const std::uint32_t steps = cli.smoke ? 128 : 250;
  const std::uint32_t packets = cli.smoke ? 2000 : 50000;
  const int campaign_runs = cli.runs_or(cli.smoke ? 2 : 8);
  const int reps = cli.smoke ? 3 : 7;

  std::vector<CaseResult> results;
  // Interleave the two cores' repetitions so ambient machine load degrades
  // both sides alike instead of biasing whichever phase it lands on.
  double legacy_rate = 0.0;
  double inline_rate = 0.0;
  for (int r = 0; r < reps; ++r) {
    legacy_rate = std::max(
        legacy_rate, dispatch_events_per_sec<legacy::Simulator>(chains, steps));
    inline_rate = std::max(
        inline_rate, dispatch_events_per_sec<sim::Simulator>(chains, steps));
  }
  results.push_back({"dispatch.legacy", legacy_rate});
  results.push_back({"dispatch.inlinefn", inline_rate});
  results.push_back({"fabric.forward", best_of(reps, [&] {
                       return fabric_forward_events_per_sec(packets);
                     })});
  results.push_back({"fattree.campaign", fattree_campaign_events_per_sec(
                                             campaign_runs, cli.jobs)});

  std::printf("%-20s %15s\n", "case", "events/sec");
  obs::Json cases = obs::Json::object();
  for (const CaseResult& r : results) {
    std::printf("%-20s %15.0f\n", r.name.c_str(), r.events_per_sec);
    cases.set(r.name, obs::Json::fixed(r.events_per_sec, 1));
  }
  std::printf("%-20s %14.2fx\n", "dispatch.speedup",
              inline_rate / legacy_rate);

  const std::string path = obs::write_json(
      cli.out_dir, "BENCH_hotpath.json",
      obs::bench_json("hotpath", cli.smoke)
          .set("unit", "events/sec")
          .set("cases", std::move(cases)));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
