#include "simkit/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace moon::sim {
namespace {
// A flow is "done" when less than half a byte remains; avoids infinite
// rescheduling from floating-point residue. The residue is dropped, not
// transferred.
constexpr double kDoneEpsilon = 0.5;

// Deadlines whose microsecond count would overflow Time are treated as
// stalled (kTimeMax); a later rate change recomputes them.
constexpr double kDeadlineCap = 4.0e18;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Initial capacity of the moving-flow index, enough for a few thousand
// concurrent transfers (perfbench chaos_failover peaks at ~2.3k live flows).
// Growing it from empty mid-run interleaves its reallocations with the
// simulation's own allocations and raised chaos_failover's peak RSS by
// ~0.35 MiB.
constexpr std::size_t kMovingReserve = 4096;
}  // namespace

bool FlowNetwork::completion_later(const CompletionEntry& a,
                                   const CompletionEntry& b) {
  if (a.deadline != b.deadline) return a.deadline > b.deadline;
  return a.flow > b.flow;
}

FlowNetwork::FlowNetwork(Simulation& sim, FairnessModel model, SolverMode solver,
                         CoalesceMode coalesce)
    : sim_(sim),
      model_(model),
      solver_(solver),
      coalesce_(coalesce),
      last_update_(sim.now()) {
  if (coalesce_ == CoalesceMode::kCoalesced) {
    hook_ = sim_.add_flush_hook([this] { flush(); });
  }
  if (solver_ == SolverMode::kIncremental) moving_.reserve(kMovingReserve);
}

FlowNetwork::~FlowNetwork() {
  if (completion_event_.valid()) sim_.cancel(completion_event_);
  if (coalesce_ == CoalesceMode::kCoalesced) sim_.remove_flush_hook(hook_);
}

FlowNetwork::ResourceId FlowNetwork::add_resource(BytesPerSecond capacity) {
  if (capacity < 0.0) throw std::logic_error("FlowNetwork: negative capacity");
  resources_.emplace_back();
  resources_.back().cap = capacity;
  return resources_.size() - 1;
}

void FlowNetwork::set_capacity(ResourceId resource, BytesPerSecond capacity) {
  if (capacity < 0.0) throw std::logic_error("FlowNetwork: negative capacity");
  advance_progress();
  Resource& res = resources_.at(resource);
  const bool was_down = down(resource);
  res.cap = capacity;
  if (down(resource) != was_down) {
    for (const Link& l : res.flows) {
      if (was_down) {
        --slots_[l.slot].down_links;
      } else {
        ++slots_[l.slot].down_links;
      }
    }
  }
  mark_resource_dirty(resource, /*cap_changed=*/true);
  maybe_settle();
}

BytesPerSecond FlowNetwork::capacity(ResourceId resource) const {
  return resources_.at(resource).cap;
}

FlowId FlowNetwork::start_flow(std::vector<ResourceId> resources, Bytes size,
                               CompletionFn on_complete) {
  if (size < 0) throw std::logic_error("FlowNetwork: negative flow size");
  for (ResourceId r : resources) {
    if (r >= resources_.size()) throw std::out_of_range("FlowNetwork: bad resource");
  }
  advance_progress();
  const FlowId id = ids_.next();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Flow& f = slots_[slot];
  f.id = id;
  f.resources = std::move(resources);
  f.link_pos.resize(f.resources.size());
  // Clamp to one byte: a zero-size flow would complete synchronously inside
  // this call, handing re-entrancy surprises to the caller. One byte keeps
  // completion asynchronous (and is immediate at any non-zero rate).
  f.remaining = std::max<double>(1.0, static_cast<double>(size));
  f.rate = 0.0;
  f.deadline = kTimeMax;
  f.on_complete = std::move(on_complete);
  f.down_links = 0;
  for (std::size_t k = 0; k < f.resources.size(); ++k) {
    Resource& res = resources_[f.resources[k]];
    f.link_pos[k] = static_cast<std::uint32_t>(res.flows.size());
    res.flows.push_back(Link{slot, static_cast<std::uint32_t>(k)});
    if (down(f.resources[k])) ++f.down_links;
  }
  f.live_prev = live_tail_;
  f.live_next = kNoSlot;
  if (live_tail_ != kNoSlot) {
    slots_[live_tail_].live_next = slot;
  } else {
    live_head_ = slot;
  }
  live_tail_ = slot;
  slot_of_.emplace(id, slot);
  ++active_count_;
  dirty_flows_.push_back(slot);
  maybe_settle();
  return id;
}

void FlowNetwork::abort_flow(FlowId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  advance_progress();
  remove_flow(it->second);
  maybe_settle();
}

const FlowNetwork::Flow* FlowNetwork::find_flow(FlowId id) const {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &slots_[it->second];
}

bool FlowNetwork::active(FlowId id) const { return slot_of_.contains(id); }

bool FlowNetwork::stalled(FlowId id) const {
  const Flow* f = find_flow(id);
  return f != nullptr && f->down_links > 0;
}

Bytes FlowNetwork::remaining(FlowId id) const {
  const Flow* f = find_flow(id);
  if (f == nullptr) return 0;
  // Account for progress since the last settle without mutating state.
  const double elapsed = to_seconds(sim_.now() - last_update_);
  const double rem = f->remaining - f->rate * elapsed;
  return static_cast<Bytes>(std::max(0.0, std::ceil(rem)));
}

double FlowNetwork::rate(FlowId id) const {
  const Flow* f = find_flow(id);
  return f == nullptr ? 0.0 : f->rate;
}

double FlowNetwork::transferred_through(ResourceId resource) const {
  // Progress accrued up to the last churn/settle at or before now. Progress
  // accrues on every flow start/finish/capacity change (even when the
  // recompute itself is coalesced), so under load this is at most a few
  // simulated milliseconds stale — good enough for the heartbeat bandwidth
  // telemetry it feeds, and O(1) (it is polled by every DataNode beat).
  return resources_.at(resource).transferred;
}

void FlowNetwork::advance_progress() {
  const Time now = sim_.now();
  if (now == last_update_) return;
  const double elapsed = to_seconds(now - last_update_);
  last_update_ = now;
  if (elapsed <= 0.0) return;
  const auto accrue = [&](Flow& f) {
    const double moved = std::min(f.remaining, f.rate * elapsed);
    f.remaining -= moved;
    for (ResourceId r : f.resources) resources_[r].transferred += moved;
  };
  if (solver_ == SolverMode::kDense) {
    // Oracle walk: every live flow, skipping the stalled ones.
    accrued_flows_ += active_count_;
    for (std::uint32_t s = live_head_; s != kNoSlot; s = slots_[s].live_next) {
      if (slots_[s].rate > 0.0) accrue(slots_[s]);
    }
    return;
  }
  accrued_flows_ += moving_.size();
  for (std::uint32_t s : moving_) accrue(slots_[s]);
}

void FlowNetwork::index_moving(std::uint32_t slot, bool moving) {
  // The dense oracle walks the live list instead.
  if (solver_ == SolverMode::kDense) return;
  const auto it = std::lower_bound(
      moving_.begin(), moving_.end(), slots_[slot].id,
      [this](std::uint32_t s, FlowId id) { return slots_[s].id < id; });
  if (moving) {
    moving_.insert(it, slot);
  } else {
    assert(it != moving_.end() && *it == slot);
    moving_.erase(it);
  }
}

void FlowNetwork::mark_resource_dirty(ResourceId r, bool cap_changed) {
  Resource& res = resources_[r];
  if (cap_changed) res.cap_dirty = true;
  if (!res.seed_dirty) {
    res.seed_dirty = true;
    dirty_resources_.push_back(r);
  }
}

void FlowNetwork::remove_flow(std::uint32_t slot) {
  Flow& f = slots_[slot];
  // Unlink from each crossed resource (swap-pop; fix the moved link's
  // back-pointer) and seed it dirty so neighbours re-share the freed share.
  for (std::size_t k = 0; k < f.resources.size(); ++k) {
    Resource& res = resources_[f.resources[k]];
    const std::uint32_t pos = f.link_pos[k];
    const Link moved = res.flows.back();
    res.flows[pos] = moved;
    res.flows.pop_back();
    if (moved.slot != slot || moved.ridx != k) {
      slots_[moved.slot].link_pos[moved.ridx] = pos;
    }
    mark_resource_dirty(f.resources[k], /*cap_changed=*/false);
  }
  if (f.share_counted) {
    for (ResourceId r : f.resources) --resources_[r].share_load;
  }
  if (f.in_heap) {
    f.in_heap = false;
    --heap_live_;
  }
  if (f.rate > 0.0) index_moving(slot, false);
  if (f.live_prev != kNoSlot) {
    slots_[f.live_prev].live_next = f.live_next;
  } else {
    live_head_ = f.live_next;
  }
  if (f.live_next != kNoSlot) {
    slots_[f.live_next].live_prev = f.live_prev;
  } else {
    live_tail_ = f.live_prev;
  }
  slot_of_.erase(f.id);
  f.id = FlowId::invalid();
  f.on_complete = nullptr;
  f.resources.clear();
  f.link_pos.clear();
  f.share_counted = false;
  free_slots_.push_back(slot);
  --active_count_;
}

void FlowNetwork::retire(std::uint32_t slot) {
  Flow& f = slots_[slot];
  const FlowId id = f.id;
  CompletionFn cb = std::move(f.on_complete);
  remove_flow(slot);
  if (cb) cb(id);
}

std::uint32_t FlowNetwork::next_due(Time now) {
  if (solver_ == SolverMode::kDense) {
    // Oracle scan: lowest (deadline, id) among due flows — the same order
    // the completion heap pops.
    std::uint32_t best = kNoSlot;
    for (std::uint32_t s = live_head_; s != kNoSlot; s = slots_[s].live_next) {
      const Flow& f = slots_[s];
      if (f.deadline > now) continue;
      if (best == kNoSlot || f.deadline < slots_[best].deadline ||
          (f.deadline == slots_[best].deadline && f.id < slots_[best].id)) {
        best = s;
      }
    }
    return best;
  }
  while (!heap_.empty()) {
    const CompletionEntry top = heap_.front();
    if (!heap_entry_valid(top)) {
      std::pop_heap(heap_.begin(), heap_.end(), completion_later);
      heap_.pop_back();
      continue;
    }
    if (top.deadline > now) return kNoSlot;
    std::pop_heap(heap_.begin(), heap_.end(), completion_later);
    heap_.pop_back();
    slots_[top.slot].in_heap = false;
    --heap_live_;
    return top.slot;
  }
  return kNoSlot;
}

bool FlowNetwork::heap_entry_valid(const CompletionEntry& e) const {
  const Flow& f = slots_[e.slot];
  return f.id == e.flow && f.epoch == e.epoch;
}

void FlowNetwork::maybe_settle() {
  // Nested churn (from a completion callback mid-settle) and batched churn
  // always defer: the outer settle's recompute, or the batch close, covers
  // the queued dirty work.
  if (settling_ || batch_depth_ > 0) return;
  if (coalesce_ == CoalesceMode::kEager) {
    settle();
    return;
  }
  // A completion due at this very instant must retire *now*: the eager path
  // would fire its callback inside this churn call, and deferring it past
  // further same-timestamp events could change what those events observe.
  // `scheduled_for_` tracks the earliest deadline as of the last settle, and
  // deadlines only move at settles, so this test is exact.
  if (completion_event_.valid() && scheduled_for_ <= sim_.now()) {
    settle();
    return;
  }
  if (!flush_armed_) {
    flush_armed_ = true;
    sim_.arm_flush(hook_);
  }
}

void FlowNetwork::flush() {
  // End-of-timestamp hook: batches group same-instant churn within a single
  // event callback, so none can still be open when the Simulation flushes.
  assert(batch_depth_ == 0);
  flush_armed_ = false;
  if (has_dirty()) settle();
}

void FlowNetwork::settle() {
  // Completion callbacks may call back into this object (starting/aborting
  // flows, changing capacities). Those nested calls accrue progress and
  // queue dirty work themselves; suppress the re-entrant settle and let the
  // outer loop below reach the fixpoint. Batches defer the same way.
  if (settling_ || batch_depth_ > 0) return;
  Profiler::Scope profile(sim_.profiler(), Profiler::Key::kSettle);
  settling_ = true;
  advance_progress();
  // Retire every flow due as of now, lowest (deadline, id) first. Nested
  // churn from the callbacks only queues dirty work, so no flow *becomes*
  // due during the cascade; the recompute below runs once, after it.
  for (std::uint32_t due; (due = next_due(sim_.now())) != kNoSlot;) {
    retire(due);
  }
  if (has_dirty()) recompute();
  settling_ = false;
  // A recompute can leave a flow due immediately (infinite rate, or a rate
  // change landing in the sub-epsilon window); it completes via the event
  // armed here at `now`, keeping completions asynchronous to the caller.
  reschedule_completion_event();
}

void FlowNetwork::recompute() {
  Profiler::Scope profile(sim_.profiler(), Profiler::Key::kRecompute);
  if (solver_ == SolverMode::kDense) {
    solved_flows_ += active_count_;  // the oracle re-solves every flow
    if (model_ == FairnessModel::kMaxMin) {
      recompute_dense_maxmin();
    } else {
      recompute_dense_bottleneck_share();
    }
  } else {
    if (model_ == FairnessModel::kMaxMin) {
      recompute_region_maxmin();
    } else {
      recompute_incremental_bottleneck_share();
    }
  }
  for (ResourceId r : dirty_resources_) {
    resources_[r].seed_dirty = false;
    resources_[r].cap_dirty = false;
  }
  dirty_resources_.clear();
  dirty_flows_.clear();
}

void FlowNetwork::assign_rate(std::uint32_t slot, double rate) {
  Flow& f = slots_[slot];
  if (rate == f.rate) return;  // same rate → the absolute deadline still holds
  // Rates are never NaN, so `> 0.0` splits them into moving and stalled.
  if ((rate > 0.0) != (f.rate > 0.0)) index_moving(slot, rate > 0.0);
  f.rate = rate;
  refresh_deadline(slot);
}

void FlowNetwork::refresh_deadline(std::uint32_t slot) {
  Flow& f = slots_[slot];
  ++f.epoch;  // lazily invalidates any heap entry for the old deadline
  if (f.in_heap) {
    f.in_heap = false;
    --heap_live_;
  }
  if (f.remaining <= kDoneEpsilon || std::isinf(f.rate)) {
    f.deadline = sim_.now();
  } else if (f.rate <= 0.0) {
    f.deadline = kTimeMax;  // stalled: no completion until a rate change
    return;
  } else {
    const double us =
        std::ceil((f.remaining / f.rate) * static_cast<double>(kSecond));
    if (!(us < kDeadlineCap)) {
      f.deadline = kTimeMax;
      return;
    }
    f.deadline = sim_.now() + static_cast<Duration>(us);
  }
  if (solver_ == SolverMode::kIncremental) push_completion_entry(slot);
}

void FlowNetwork::push_completion_entry(std::uint32_t slot) {
  Flow& f = slots_[slot];
  heap_.push_back(CompletionEntry{f.deadline, f.id, slot, f.epoch});
  std::push_heap(heap_.begin(), heap_.end(), completion_later);
  f.in_heap = true;
  ++heap_live_;
  // Lazy invalidation accumulates stale entries; rebuild when they dominate
  // so heap depth tracks the live flow set, not historical churn.
  if (heap_.size() >= 64 && heap_.size() > 2 * heap_live_) {
    compact_completion_heap();
  }
}

void FlowNetwork::compact_completion_heap() {
  std::erase_if(heap_, [this](const CompletionEntry& e) {
    return !heap_entry_valid(e);
  });
  std::make_heap(heap_.begin(), heap_.end(), completion_later);
}

Time FlowNetwork::next_deadline() {
  if (solver_ == SolverMode::kDense) {
    Time next = kTimeMax;
    for (std::uint32_t s = live_head_; s != kNoSlot; s = slots_[s].live_next) {
      if (slots_[s].deadline < next) next = slots_[s].deadline;
    }
    return next;
  }
  while (!heap_.empty()) {
    if (heap_entry_valid(heap_.front())) return heap_.front().deadline;
    std::pop_heap(heap_.begin(), heap_.end(), completion_later);
    heap_.pop_back();
  }
  return kTimeMax;
}

void FlowNetwork::reschedule_completion_event() {
  const Time next = next_deadline();
  if (completion_event_.valid()) {
    if (next == scheduled_for_) return;  // already armed correctly
    sim_.cancel(completion_event_);
    completion_event_ = EventId::invalid();
  }
  if (next == kTimeMax) return;  // everything stalled or idle
  scheduled_for_ = next;
  completion_event_ = sim_.schedule_at(next, [this] {
    // Executing the simulation with a CapacityBatch open would defer this
    // completion past its true timestamp — batches group same-instant
    // churn only.
    assert(batch_depth_ == 0);
    completion_event_ = EventId::invalid();
    settle();
  });
}

// ---- rate allocators -------------------------------------------------------

void FlowNetwork::recompute_dense_maxmin() {
  // Progressive filling (max-min fairness) over the whole network.
  for (Resource& res : resources_) {
    res.residual = res.cap;
    res.load = 0;
  }
  dense_unfrozen_.clear();
  for (std::uint32_t s = live_head_; s != kNoSlot; s = slots_[s].live_next) {
    Flow& f = slots_[s];
    if (f.resources.empty()) {
      // Resource-less flow: completes at infinite rate.
      assign_rate(s, kInfinity);
      continue;
    }
    dense_unfrozen_.push_back(s);
    for (ResourceId r : f.resources) ++resources_[r].load;
  }

  while (!dense_unfrozen_.empty()) {
    // Find the bottleneck: the resource with the smallest fair share.
    double best_share = kInfinity;
    std::size_t best_r = resources_.size();
    for (std::size_t r = 0; r < resources_.size(); ++r) {
      if (resources_[r].load == 0) continue;
      const double share =
          resources_[r].residual / static_cast<double>(resources_[r].load);
      if (share < best_share) {
        best_share = share;
        best_r = r;
      }
    }
    if (best_r == resources_.size()) break;  // no loaded resources remain

    // Freeze every unfrozen flow crossing the bottleneck at that share.
    const double rate = std::max(0.0, best_share);
    for (auto it = dense_unfrozen_.begin(); it != dense_unfrozen_.end();) {
      Flow& f = slots_[*it];
      const bool crosses = std::find(f.resources.begin(), f.resources.end(),
                                     best_r) != f.resources.end();
      if (!crosses) {
        ++it;
        continue;
      }
      for (ResourceId r : f.resources) {
        resources_[r].residual = std::max(0.0, resources_[r].residual - rate);
        --resources_[r].load;
      }
      assign_rate(*it, rate);
      it = dense_unfrozen_.erase(it);
    }
  }
}

void FlowNetwork::recompute_dense_bottleneck_share() {
  // Fast approximation: each flow receives the worst per-resource fair share
  // along its path. Shares never sum above capacity on any resource.
  //
  // Stalled flows (any zero-capacity resource on the path, i.e. an endpoint
  // node is down) are excluded from the load counts first: exact max-min
  // redistributes their share automatically, and without this exclusion a
  // volatile cluster collapses — half the flows are stalled at any moment
  // and would pin down capacity they cannot use.
  for (Resource& res : resources_) res.load = 0;
  for (std::uint32_t s = live_head_; s != kNoSlot; s = slots_[s].live_next) {
    Flow& f = slots_[s];
    bool stalled = false;
    for (ResourceId r : f.resources) {
      if (resources_[r].cap <= 0.0) {
        stalled = true;
        break;
      }
    }
    f.fill_mark = stalled;
    if (!stalled) {
      for (ResourceId r : f.resources) ++resources_[r].load;
    }
  }
  for (std::uint32_t s = live_head_; s != kNoSlot; s = slots_[s].live_next) {
    Flow& f = slots_[s];
    if (f.fill_mark) {
      assign_rate(s, 0.0);
      continue;
    }
    if (f.resources.empty()) {
      assign_rate(s, kInfinity);
      continue;
    }
    double rate = kInfinity;
    for (ResourceId r : f.resources) {
      rate = std::min(rate, resources_[r].cap /
                                static_cast<double>(resources_[r].load));
    }
    assign_rate(s, std::max(0.0, rate));
  }
}

void FlowNetwork::recompute_region_maxmin() {
  // Allocations in disjoint components of the flow graph are independent, so
  // progressive filling over the union of the dirty seeds' whole components
  // reproduces the global solve bit-for-bit on that region while leaving
  // every other component's rates untouched.
  //
  // Stalled flows and down resources cut the graph. In the global solve
  // every zero-capacity resource is a share-0 bottleneck that pops before
  // any live one; its rounds freeze its flows at 0 and subtract 0.0 from
  // every residual, leaving the live resources exactly as if the stalled
  // flows had never been counted. So the region is the seeds' components
  // among unstalled flows and live resources; a stalled flow it reaches is
  // pinned at 0 and frozen, not expanded.
  ++stamp_;
  region_flows_.clear();
  region_resources_.clear();
  auto visit_flow = [this](std::uint32_t s) {
    Flow& f = slots_[s];
    if (!f.id.valid() || f.visit_stamp == stamp_) return;
    f.visit_stamp = stamp_;
    if (f.down_links > 0) {
      f.fill_mark = true;
      assign_rate(s, 0.0);
      return;
    }
    region_flows_.push_back(s);
  };
  auto visit_resource = [this](ResourceId r) {
    Resource& res = resources_[r];
    if (res.visit_stamp == stamp_) return;
    res.visit_stamp = stamp_;
    region_resources_.push_back(r);
  };
  for (std::uint32_t s : dirty_flows_) {
    if (s < slots_.size()) visit_flow(s);
  }
  for (ResourceId r : dirty_resources_) {
    if (!down(r)) {
      visit_resource(r);
      continue;
    }
    // A down seed only matters when its capacity changed: its flows stall,
    // and the live resources they cross lost their load. (A removal on it
    // seeded the removed flow's live resources already.)
    if (!resources_[r].cap_dirty) continue;
    for (const Link& l : resources_[r].flows) {
      visit_flow(l.slot);
      for (ResourceId r2 : slots_[l.slot].resources) {
        if (!down(r2)) visit_resource(r2);
      }
    }
  }
  for (std::size_t fi = 0, ri = 0;
       fi < region_flows_.size() || ri < region_resources_.size();) {
    if (fi < region_flows_.size()) {
      for (ResourceId r : slots_[region_flows_[fi]].resources) visit_resource(r);
      ++fi;
    } else {
      for (const Link& l : resources_[region_resources_[ri]].flows) {
        visit_flow(l.slot);
      }
      ++ri;
    }
  }
  solved_flows_ += region_flows_.size();

  // Progressive filling restricted to the region. Bottleneck selection uses
  // a lazily-invalidated min-heap of (share, resource) instead of a scan of
  // every resource per round; the (share, index) order reproduces the dense
  // solver's lowest-index tie-break.
  std::size_t unfrozen = 0;
  for (ResourceId r : region_resources_) {
    Resource& res = resources_[r];
    res.residual = res.cap;
    res.load = 0;
  }
  for (std::uint32_t s : region_flows_) {
    Flow& f = slots_[s];
    if (f.resources.empty()) {
      f.fill_mark = true;
      assign_rate(s, kInfinity);
      continue;
    }
    f.fill_mark = false;
    ++unfrozen;
    for (ResourceId r : f.resources) ++resources_[r].load;
  }
  const auto share_later = [](const ShareEntry& a, const ShareEntry& b) {
    if (a.share != b.share) return a.share > b.share;
    return a.resource > b.resource;
  };
  share_heap_.clear();
  auto push_share = [&](ResourceId r) {
    const Resource& res = resources_[r];
    share_heap_.push_back(
        ShareEntry{res.residual / static_cast<double>(res.load), r});
    std::push_heap(share_heap_.begin(), share_heap_.end(), share_later);
  };
  for (ResourceId r : region_resources_) {
    if (resources_[r].load > 0) push_share(r);
  }
  while (unfrozen > 0 && !share_heap_.empty()) {
    const ShareEntry top = share_heap_.front();
    std::pop_heap(share_heap_.begin(), share_heap_.end(), share_later);
    share_heap_.pop_back();
    Resource& res = resources_[top.resource];
    // Stale unless the current residual/load still reproduce the share.
    if (res.load == 0 ||
        res.residual / static_cast<double>(res.load) != top.share) {
      continue;
    }
    // top.resource is the bottleneck; freeze its unfrozen flows at the share.
    // Re-push each side resource once per round (after all of the round's
    // freezes have updated it), not once per freeze. Rounds dedupe with a
    // fresh stamp; the BFS above is done with the old one.
    const double rate = std::max(0.0, top.share);
    ++stamp_;
    round_touched_.clear();
    for (const Link& l : res.flows) {
      Flow& f = slots_[l.slot];
      if (f.fill_mark) continue;
      f.fill_mark = true;
      --unfrozen;
      for (ResourceId r2 : f.resources) {
        Resource& res2 = resources_[r2];
        res2.residual = std::max(0.0, res2.residual - rate);
        --res2.load;
        if (r2 != top.resource && res2.visit_stamp != stamp_) {
          res2.visit_stamp = stamp_;
          round_touched_.push_back(r2);
        }
      }
      assign_rate(l.slot, rate);
    }
    for (ResourceId r2 : round_touched_) {
      if (resources_[r2].load > 0) push_share(r2);
    }
  }
}

void FlowNetwork::update_share_status(std::uint32_t slot) {
  Flow& f = slots_[slot];
  const bool counted = f.down_links == 0;
  if (counted == f.share_counted) return;
  f.share_counted = counted;
  for (ResourceId r : f.resources) {
    Resource& res = resources_[r];
    if (counted) {
      ++res.share_load;
    } else {
      --res.share_load;
    }
    // Load moved: every flow sharing r needs a new rate.
    mark_resource_dirty(r, /*cap_changed=*/false);
  }
}

void FlowNetwork::recompute_incremental_bottleneck_share() {
  // Bottleneck-share rates depend only on a flow's own stall status and the
  // live-flow counts of its resources, so the affected set is the distance-2
  // neighbourhood of the churn, not a whole component. `share_load` is
  // maintained persistently; pass 1 replays stall transitions (which can
  // grow dirty_resources_ — index loop), pass 2 re-rates adjacent flows.
  for (std::size_t i = 0; i < dirty_resources_.size(); ++i) {
    const ResourceId r = dirty_resources_[i];
    if (!resources_[r].cap_dirty) continue;
    for (const Link& l : resources_[r].flows) update_share_status(l.slot);
  }
  for (std::uint32_t s : dirty_flows_) {
    if (s < slots_.size() && slots_[s].id.valid()) update_share_status(s);
  }

  ++stamp_;
  rate_set_.clear();
  auto mark_rate = [this](std::uint32_t s) {
    Flow& f = slots_[s];
    if (!f.id.valid() || f.visit_stamp == stamp_) return;
    f.visit_stamp = stamp_;
    rate_set_.push_back(s);
  };
  for (std::size_t i = 0; i < dirty_resources_.size(); ++i) {
    for (const Link& l : resources_[dirty_resources_[i]].flows) {
      mark_rate(l.slot);
    }
  }
  for (std::uint32_t s : dirty_flows_) {
    if (s < slots_.size()) mark_rate(s);
  }
  for (std::uint32_t s : rate_set_) {
    Flow& f = slots_[s];
    if (!f.share_counted) {
      assign_rate(s, 0.0);  // stalled
      continue;
    }
    ++solved_flows_;
    if (f.resources.empty()) {
      assign_rate(s, kInfinity);
      continue;
    }
    double rate = kInfinity;
    for (ResourceId r : f.resources) {
      rate = std::min(rate, resources_[r].cap /
                                static_cast<double>(resources_[r].share_load));
    }
    assign_rate(s, std::max(0.0, rate));
  }
}

}  // namespace moon::sim
