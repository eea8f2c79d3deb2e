// Discrete-event simulation core.
//
// A `Simulation` owns the virtual clock and the pending-event queue. Events
// are closures scheduled for an absolute or relative simulated time; equal
// timestamps execute in scheduling order (FIFO), which makes runs fully
// deterministic. Cancellation is O(1) amortised via tombstoning.
//
// Storage: callbacks live in a free-list slab of small-buffer-optimized
// closures (`InlineFunction<48>`), so scheduling an event performs no heap
// allocation for captures up to 48 bytes (every closure the simulator
// schedules today). EventIds encode (slot, generation); a recycled slot
// bumps its generation, so a stale id — a tombstoned heap entry, or a
// cancel() issued after the event already fired — can never alias the
// slot's next occupant.
//
// Flush hooks: a component may register an end-of-timestamp hook and arm it
// when it has deferred work (the FlowNetwork's coalesced settle). Armed
// hooks run after the last event of the current timestamp, before the clock
// advances — also at the tail of run()/run_until() — so deferred work never
// crosses a virtual-time boundary.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "simkit/profiler.hpp"

namespace moon::obs {
class Tracer;
class MetricsRegistry;
class EventLog;
}  // namespace moon::obs

namespace moon::sim {

class FaultHooks;

class Simulation {
 public:
  /// Inline capacity covers every closure the simulator schedules; larger
  /// captures transparently fall back to one heap allocation.
  using Callback = InlineFunction<48>;
  using FlushHook = InlineFunction<48>;
  using FlushHookId = std::size_t;

  explicit Simulation(std::uint64_t seed = 0);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) from now.
  EventId schedule_after(Duration delay, Callback cb);

  /// Cancels a pending event; cancelling an already-fired or already-
  /// cancelled event is a harmless no-op (generation-checked, so a recycled
  /// slot is never hit by a stale id).
  void cancel(EventId id);

  [[nodiscard]] bool is_pending(EventId id) const;

  /// Executes the next event (running any armed flush hooks first when the
  /// clock would advance). Returns false when the queue is empty and no
  /// hook produced further work.
  bool step();

  /// Runs all events with timestamp <= `t`, then advances the clock to `t`.
  void run_until(Time t);

  /// Runs until the event queue drains.
  void run();

  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Heap entries including cancelled tombstones (telemetry; bounded at
  /// roughly 2× pending_events() by tombstone compaction).
  [[nodiscard]] std::size_t queued_entries() const { return queue_.size(); }

  // ---- end-of-timestamp flush hooks ---------------------------------------

  /// Registers a flush hook (initially unarmed). Hooks run in registration
  /// order. The returned id stays valid until remove_flush_hook.
  FlushHookId add_flush_hook(FlushHook hook);
  void remove_flush_hook(FlushHookId id);

  /// Arms `id` to run before the clock next advances (idempotent until the
  /// hook runs). A hook may re-arm itself or others from inside its run.
  void arm_flush(FlushHookId id);

  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] Profiler& profiler() { return profiler_; }

  // ---- observability hooks --------------------------------------------------
  //
  // Instrumented components reach the tracer, metrics registry and event
  // log through the Simulation they already hold; nullptr (the default)
  // means that piece is off and the cost at a call site is one pointer load
  // and branch. The obs::Observability layer owns the objects and
  // installs/clears the pointers; the Simulation never dereferences them
  // itself.

  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  /// Control-plane records go here through obs::emit.
  [[nodiscard]] obs::EventLog* event_log() const { return event_log_; }
  void set_event_log(obs::EventLog* log) { event_log_ = log; }

  /// Fault-injection hook, same ownership contract as the tracer: the
  /// concrete injector (faults::FaultInjector, four layers up) installs and
  /// clears itself here, instrumented call sites (heartbeats, DFS
  /// stores/reads) consult it through the sim::FaultHooks interface on the
  /// Simulation they already hold, and nullptr (the default) means faults
  /// are off at the cost of one pointer load and branch.
  [[nodiscard]] FaultHooks* faults() const { return faults_; }
  void set_faults(FaultHooks* faults) { faults_ = faults; }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    EventId id;
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// One slab cell: the closure plus the generation its current/next id
  /// carries. `engaged` distinguishes a live event from a free slot.
  struct Slot {
    std::uint32_t gen = 0;
    bool engaged = false;
    Callback cb;
  };

  struct Hook {
    FlushHook fn;
    bool armed = false;
    bool alive = false;
  };

  static constexpr std::uint64_t kSlotBits = 32;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id.value() & kSlotMask);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id.value() >> kSlotBits);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(std::uint64_t{gen} << kSlotBits) | slot};
  }

  [[nodiscard]] bool live(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].engaged &&
           slots_[slot].gen == gen_of(id);
  }

  /// Retires a slot (fire or cancel): destroys any remnant closure, bumps
  /// the generation so stale ids go dead, and recycles the slot (LIFO keeps
  /// reuse deterministic).
  void retire_slot(std::uint32_t slot);

  /// Drops cancelled tombstones and re-heapifies; called when tombstones
  /// outnumber live entries so cancel() stays O(1) amortised without the
  /// heap growing past ~2× the live set.
  void compact();
  void pop_top();
  void run_flushes();

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> queue_;  // binary min-heap by (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_events_ = 0;
  std::vector<Hook> hooks_;
  std::size_t armed_hooks_ = 0;
  Profiler profiler_;
  Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  FaultHooks* faults_ = nullptr;
};

}  // namespace moon::sim
