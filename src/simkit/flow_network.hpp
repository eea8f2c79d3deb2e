// Fluid data-transfer model with max-min fair sharing.
//
// Every data movement in the cluster (network transfer, disk read/write) is
// a *flow* that occupies one or more capacity-limited *resources* (a node's
// NIC-out, NIC-in, or disk). Rates are allocated by progressive filling
// (water-filling): the most contended resource saturates first, its flows
// are frozen at the bottleneck share, and the residual capacity is re-
// divided among the rest. Rates are recomputed whenever the flow set or a
// capacity changes; each flow's completion is an event computed from its
// remaining bytes.
//
// A node that becomes unavailable has its resource capacities set to zero:
// flows through it stall at rate 0 (they do not abort — mirroring the
// paper's emulation, which SIGSTOPs Hadoop processes). Failure semantics
// (timeouts, fetch failures) belong to the layers above.
//
// The solver is incremental (see DESIGN.md §8): churn re-rates only the
// dirty region of the flow graph, completions pop from a lazy min-heap of
// projected deadlines, and `CapacityBatch` coalesces multi-resource churn
// (a node availability flip) into a single settle. Max-min recompute costs
// O(unstalled dirty component): stalled flows and down resources cut the
// graph (exactly — see DESIGN.md §8), so churn never re-solves the flows a
// down node pins at rate 0. The pre-incremental
// dense solver is retained behind `SolverMode::kDense` as the equivalence
// oracle and the benchmark baseline; both modes produce bit-identical
// simulated outcomes.
//
// Progress accrual, which runs at every timestamp advance, walks only the
// flows that move: `moving_` indexes the flows with rate > 0 in FlowId
// (= start) order, the same order as the live list, so each byte counter
// receives the same terms in the same order as a walk over every live flow
// that skips the stalled ones. At MOON's unavailability rates about half the
// live flows are stalled through a suspended node; they cost accrual
// nothing. The dense oracle keeps the walk over the whole live list.
//
// Settles themselves are timestamp-coalesced (see DESIGN.md §11): under
// `CoalesceMode::kCoalesced` (default) churn only queues dirty work and the
// recompute runs once per virtual timestamp via an end-of-timestamp flush
// hook registered with the Simulation. A completion due at the current
// instant forces a full settle before any further churn applies, so
// coalesced and eager (`CoalesceMode::kEager`, one settle per churn call)
// execution produce bit-identical simulated outcomes. Reads never settle:
// `rate()` and `remaining()` report the allocation as of the last settle
// (exact at every timestamp boundary, and always under kEager), while
// `stalled()` is exact at any point because it reads only the flow's
// zero-capacity crossings, which churn keeps current.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "simkit/simulation.hpp"

namespace moon::sim {

/// Rate-allocation strategy.
enum class FairnessModel {
  /// Exact max-min fairness via progressive filling. Churn costs
  /// O(unstalled dirty component); use for correctness-sensitive scenarios
  /// and tests.
  kMaxMin,
  /// Bottleneck-share approximation: rate = min over the flow's resources of
  /// capacity / flow-count. Never over-subscribes a resource, but forgoes
  /// redistributing residual capacity. Churn costs O(affected neighborhood);
  /// use for large experiment sweeps.
  kBottleneckShare,
};

/// Rate-recompute strategy. Both modes produce bit-identical simulated
/// outcomes (completion order and times, rates at any sample point,
/// transferred bytes); they differ only in how much work churn costs.
enum class SolverMode {
  /// Incremental: recompute only flows whose allocation can have changed,
  /// schedule completions through a lazily-invalidated min-heap.
  kIncremental,
  /// Dense: recompute every flow on every churn event. Retained as the
  /// oracle for the equivalence test and as the benchmark baseline.
  kDense,
};

/// Settle-scheduling strategy. Both modes produce bit-identical simulated
/// outcomes; they differ only in how many times the rate recompute runs per
/// virtual timestamp.
enum class CoalesceMode {
  /// Churn queues dirty work; the recompute runs once per virtual timestamp
  /// via the Simulation's end-of-timestamp flush hook. A completion due
  /// now forces an early settle. The shipping configuration.
  kCoalesced,
  /// Settle after every churn call — the pre-coalescing cost profile,
  /// retained as the equivalence oracle and the benchmark baseline.
  kEager,
};

class FlowNetwork {
 public:
  using ResourceId = std::size_t;
  /// Completion callback; receives the id of the finished flow.
  using CompletionFn = std::function<void(FlowId)>;

  explicit FlowNetwork(Simulation& sim,
                       FairnessModel model = FairnessModel::kMaxMin,
                       SolverMode solver = SolverMode::kIncremental,
                       CoalesceMode coalesce = CoalesceMode::kCoalesced);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;
  ~FlowNetwork();

  /// RAII churn scope: while at least one batch is open, flow/capacity
  /// mutations accrue progress and queue dirty work but defer the rate
  /// recompute; the outermost batch's close runs one settle for the whole
  /// group. `Node::set_available` uses this to apply its three capacity
  /// changes in a single settle. Nestable. Opening a batch does not settle,
  /// so inside one `rate()` reads the last settled allocation. A batch
  /// groups same-instant churn only: do not run the simulation while one is
  /// open (completions would be deferred past their true timestamps;
  /// asserted in debug builds).
  class CapacityBatch {
   public:
    explicit CapacityBatch(FlowNetwork& net) : net_(net) { ++net_.batch_depth_; }
    ~CapacityBatch() { close(); }
    CapacityBatch(const CapacityBatch&) = delete;
    CapacityBatch& operator=(const CapacityBatch&) = delete;

    /// Ends the scope early (idempotent): the outermost close settles. Call
    /// explicitly when completion callbacks may throw — the destructor
    /// settles too, but from a noexcept context.
    void close() {
      if (closed_) return;
      closed_ = true;
      if (--net_.batch_depth_ == 0) net_.maybe_settle();
    }

   private:
    FlowNetwork& net_;
    bool closed_ = false;
  };

  /// Registers a capacity-limited resource (bytes/second).
  ResourceId add_resource(BytesPerSecond capacity);

  /// Changes a resource's capacity (0 = stalled); live flows re-share.
  void set_capacity(ResourceId resource, BytesPerSecond capacity);
  [[nodiscard]] BytesPerSecond capacity(ResourceId resource) const;

  /// Starts a flow of `size` bytes across `resources` (all simultaneously
  /// required). `on_complete` fires when the last byte is delivered; it may
  /// start or abort other flows.
  FlowId start_flow(std::vector<ResourceId> resources, Bytes size,
                    CompletionFn on_complete);

  /// Aborts a flow; its completion callback never fires.
  void abort_flow(FlowId id);

  [[nodiscard]] bool active(FlowId id) const;
  /// Whether the flow crosses a zero-capacity resource, i.e. moves no bytes
  /// until a capacity change. Exact at any point, with no settle: it is the
  /// same test as `rate(id) == 0.0` after a settle. False for unknown ids.
  [[nodiscard]] bool stalled(FlowId id) const;
  /// Remaining bytes and rate (bytes/second) as of the last settle. Under
  /// kCoalesced, churn earlier in the current timestamp is not reflected
  /// until the end-of-timestamp flush.
  [[nodiscard]] Bytes remaining(FlowId id) const;
  [[nodiscard]] double rate(FlowId id) const;
  [[nodiscard]] std::size_t active_flows() const { return active_count_; }

  /// Deterministic work counter: flows the allocator re-rated by solving,
  /// summed over recomputes. The incremental solvers pin flows that cross a
  /// down resource at 0 without counting them; the dense oracle counts every
  /// live flow.
  [[nodiscard]] std::uint64_t solved_flows() const { return solved_flows_; }
  /// Deterministic work counter: flows progress accrual visited, summed over
  /// timestamp advances. The incremental solvers visit only flows with
  /// rate > 0; the dense oracle visits every live flow.
  [[nodiscard]] std::uint64_t accrued_flows() const { return accrued_flows_; }

  /// Bytes moved through `resource` since construction (for throttling
  /// telemetry: dedicated DataNodes report consumed bandwidth upstream).
  [[nodiscard]] double transferred_through(ResourceId resource) const;

 private:
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  struct Flow {
    FlowId id;  // invalid() while the slot is on the free list
    std::vector<ResourceId> resources;
    // resources_[resources[k]].flows[link_pos[k]] is this flow's entry;
    // duplicate path entries get independent links.
    std::vector<std::uint32_t> link_pos;
    double remaining = 0.0;  // bytes, accrued up to last_update_
    double rate = 0.0;       // bytes/second, assigned by the allocator
    Time deadline = kTimeMax;  // projected completion; kTimeMax = stalled
    std::uint64_t epoch = 0;   // bumped per deadline refresh; stale-marks heap entries
    CompletionFn on_complete;
    // Intrusive live list in start order: keeps per-settle scans bounded by
    // the *current* flow count, not the historical peak slot count.
    std::uint32_t live_prev = kNoSlot;
    std::uint32_t live_next = kNoSlot;
    std::uint64_t visit_stamp = 0;  // dirty-region traversal
    bool in_heap = false;           // has a live completion-heap entry
    bool fill_mark = false;         // scratch: frozen/stalled during a recompute
    bool share_counted = false;     // bottleneck-share: contributes to share_load
    // Path entries on zero-capacity resources; the flow is stalled iff > 0.
    std::uint32_t down_links = 0;
  };

  /// Back-reference stored in a resource's flow index: `slot` is the flow,
  /// `ridx` the index of this resource inside the flow's own path.
  struct Link {
    std::uint32_t slot;
    std::uint32_t ridx;
  };

  struct Resource {
    BytesPerSecond cap = 0.0;
    double transferred = 0.0;  // lifetime bytes through this resource
    std::vector<Link> flows;   // active flows crossing this resource
    std::uint32_t share_load = 0;  // bottleneck-share: live-flow count (maintained)
    bool seed_dirty = false;       // queued in dirty_resources_
    bool cap_dirty = false;        // capacity changed since last recompute
    std::uint64_t visit_stamp = 0;  // dirty-region traversal
    // Progressive-filling scratch (valid only mid-recompute):
    double residual = 0.0;
    std::uint32_t load = 0;
  };

  /// Completion-heap entry; stale when the flow is gone or its epoch moved.
  struct CompletionEntry {
    Time deadline;
    FlowId flow;
    std::uint32_t slot;
    std::uint64_t epoch;
  };

  /// Share-heap entry for bottleneck selection inside max-min filling;
  /// stale when the resource's residual/load no longer reproduce `share`.
  struct ShareEntry {
    double share;
    ResourceId resource;
  };

  // Completion heap: min by (deadline, flow id) — the id tie-break keeps the
  // retire order of simultaneous completions deterministic and identical
  // across solver modes.
  static bool completion_later(const CompletionEntry& a, const CompletionEntry& b);

  [[nodiscard]] const Flow* find_flow(FlowId id) const;
  /// Zero-capacity resources stall every flow crossing them.
  [[nodiscard]] bool down(ResourceId r) const { return resources_[r].cap <= 0.0; }

  /// Accrues progress for all flows since `last_update_`, retires due
  /// flows, recomputes dirty rates, and re-arms the completion event.
  void settle();
  /// Post-churn hook: settles immediately under kEager (or when a completion
  /// is due at this instant — its callback must fire at the same point the
  /// eager path would run it); otherwise arms the end-of-timestamp flush.
  void maybe_settle();
  /// End-of-timestamp flush (runs via the Simulation hook).
  void flush();
  void advance_progress();
  std::uint32_t next_due(Time now);  // kNoSlot when nothing is due
  void retire(std::uint32_t slot);
  void remove_flow(std::uint32_t slot);
  void mark_resource_dirty(ResourceId r, bool cap_changed);
  [[nodiscard]] bool has_dirty() const {
    return !dirty_resources_.empty() || !dirty_flows_.empty();
  }
  void recompute();
  void recompute_dense_maxmin();
  void recompute_dense_bottleneck_share();
  void recompute_region_maxmin();
  void recompute_incremental_bottleneck_share();
  void update_share_status(std::uint32_t slot);
  void assign_rate(std::uint32_t slot, double rate);
  /// Inserts or erases `slot` in `moving_`, which stays in FlowId order.
  void index_moving(std::uint32_t slot, bool moving);
  void refresh_deadline(std::uint32_t slot);
  void push_completion_entry(std::uint32_t slot);
  void compact_completion_heap();
  [[nodiscard]] bool heap_entry_valid(const CompletionEntry& e) const;
  Time next_deadline();
  void reschedule_completion_event();

  Simulation& sim_;
  FairnessModel model_;
  SolverMode solver_;
  CoalesceMode coalesce_;
  Simulation::FlushHookId hook_ = 0;  // registered only under kCoalesced
  bool flush_armed_ = false;
  IdAllocator<FlowId> ids_;
  std::vector<Resource> resources_;
  std::vector<Flow> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO keeps slot reuse deterministic
  std::unordered_map<FlowId, std::uint32_t> slot_of_;
  std::uint32_t live_head_ = kNoSlot;
  std::uint32_t live_tail_ = kNoSlot;
  std::size_t active_count_ = 0;
  std::uint64_t solved_flows_ = 0;
  std::uint64_t accrued_flows_ = 0;
  // Slots of the flows with rate > 0 (+inf included), in FlowId order.
  std::vector<std::uint32_t> moving_;
  Time last_update_ = 0;
  EventId completion_event_ = EventId::invalid();
  Time scheduled_for_ = kTimeMax;
  bool settling_ = false;
  int batch_depth_ = 0;

  // Dirty seeds queued between churn and the next recompute.
  std::vector<ResourceId> dirty_resources_;
  std::vector<std::uint32_t> dirty_flows_;

  // Completion min-heap by (deadline, flow id); entries invalidate lazily.
  std::vector<CompletionEntry> heap_;
  std::size_t heap_live_ = 0;

  // Recompute scratch, reused across settles to avoid reallocation.
  std::uint64_t stamp_ = 0;
  std::vector<std::uint32_t> region_flows_;
  std::vector<ResourceId> region_resources_;
  std::vector<ShareEntry> share_heap_;
  std::vector<ResourceId> round_touched_;
  std::vector<std::uint32_t> rate_set_;
  std::vector<std::uint32_t> dense_unfrozen_;
};

}  // namespace moon::sim
