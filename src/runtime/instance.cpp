#include "subc/runtime/instance.hpp"

namespace subc {

const char* to_string(InstanceKind kind) noexcept {
  switch (kind) {
    case InstanceKind::kOneShotWrn:
      return "one_shot_wrn";
    case InstanceKind::kGac:
      return "gac";
    case InstanceKind::kSetConsensus:
      return "set_consensus";
  }
  return "unknown";
}

InstanceTable::~InstanceTable() {
  // Arena storage is released by the lease; the blocks' non-trivial members
  // (history, state vectors) must be destructed by hand.
  for (InstanceBlock* block : carved_) {
    block->~InstanceBlock();
  }
}

InstanceBlock* InstanceTable::acquire_block() {
  AllocCounters& counts = detail::thread_alloc_counters();
  if (!free_.empty()) {
    InstanceBlock* block = free_.back();
    free_.pop_back();
    ++stats_.block_reuses;
    detail::bump(counts.instance_block_reuses);
    return block;
  }
  auto* block = arena_->create<InstanceBlock>();
  carved_.push_back(block);
  ++stats_.blocks_carved;
  detail::bump(counts.instance_blocks_carved);
  detail::bump(counts.instance_block_bytes, sizeof(InstanceBlock));
  return block;
}

void InstanceTable::validate_open(InstanceKind kind, int a, int b) {
  switch (kind) {
    case InstanceKind::kOneShotWrn:
      if (a < 2) {
        throw SimError("instance 1sWRN_k requires k >= 2");
      }
      break;
    case InstanceKind::kGac:
      if (a < 1 || b < 0) {
        throw SimError("instance GAC(n, i) requires n >= 1, i >= 0");
      }
      break;
    case InstanceKind::kSetConsensus:
      if (b < 1 || b >= a) {
        throw SimError("instance (n, k)-set-consensus requires 1 <= k < n");
      }
      break;
  }
}

InstanceId InstanceTable::open(InstanceKind kind, int a, int b,
                               std::int64_t now) {
  return open_assigned(next_id_, kind, a, b, now);
}

InstanceId InstanceTable::open_assigned(InstanceId id, InstanceKind kind,
                                        int a, int b, std::int64_t now) {
  return open_block(id, kind, a, b, now).id;
}

std::size_t InstanceTable::probe(InstanceId id) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = detail::fp_instance_domain(id) & mask;;
       i = (i + 1) & mask) {
    if (index_[i].id == id || index_[i].id == 0) {
      return i;
    }
  }
}

void InstanceTable::grow_index() {
  std::vector<IndexSlot> old(index_.size() * 2);
  old.swap(index_);
  for (const IndexSlot& slot : old) {
    if (slot.id != 0) {
      index_[probe(slot.id)] = slot;
    }
  }
}

InstanceBlock& InstanceTable::open_block(InstanceId id, InstanceKind kind,
                                         int a, int b, std::int64_t now) {
  if (id == 0) {
    throw SimError("instance id 0 is reserved");
  }
  if (static_cast<std::size_t>(stats_.live + 1) * 2 > index_.size()) {
    grow_index();
  }
  const std::size_t slot = probe(id);
  if (index_[slot].id == id) {
    throw SimError("instance id already live: " + std::to_string(id));
  }
  validate_open(kind, a, b);  // before acquiring: a bad shape leaks no block
  InstanceBlock* block = acquire_block();
  if (id >= next_id_) {
    next_id_ = id + 1;
  }
  block->id = id;
  block->kind = kind;
  block->phase = InstancePhase::kOpen;
  block->fp_domain = detail::fp_instance_domain(id);
  block->fp_local = 0;
  block->opened_at = now;
  block->decided_at = -1;
  switch (kind) {
    case InstanceKind::kOneShotWrn:
      block->wrn.reset(a);
      break;
    case InstanceKind::kGac:
      block->gac.reset(a, b);
      break;
    case InstanceKind::kSetConsensus:
      block->setc.reset(a, b);
      break;
  }
  block->total_weight = 0;
  block->served_weight = 0;
  block->spec_k = 0;
  block->request_fp = 0;
  block->proposals.clear();
  block->responses.clear();
  index_[slot] = IndexSlot{id, block};
  ++stats_.opened;
  ++stats_.live;
  if (stats_.live > stats_.peak_live) {
    stats_.peak_live = stats_.live;
  }
  return *block;
}

InstanceBlock* InstanceTable::find(InstanceId id) noexcept {
  return index_[probe(id)].block;  // an empty slot holds nullptr
}

const InstanceBlock* InstanceTable::find(InstanceId id) const noexcept {
  return index_[probe(id)].block;
}

InstanceBlock& InstanceTable::at(InstanceId id) {
  InstanceBlock* block = find(id);
  if (block == nullptr) {
    throw SimError("no such instance: " + std::to_string(id));
  }
  return *block;
}

Value InstanceTable::apply(InstanceId id, int pid, int slot, Value v,
                           std::uint64_t choice_seed, bool* hung) {
  return apply(at(id), pid, slot, v, choice_seed, hung);
}

Value InstanceTable::apply(InstanceBlock& block, int pid, int slot, Value v,
                           std::uint64_t choice_seed, bool* hung) {
  InstanceOpContext ctx(&block, choice_seed, pid);
  std::size_t handle = 0;
  Value out = kBottom;
  // Each case runs its core's own parameter check before the history
  // records the invocation, so a refused op leaves no pending entry.
  switch (block.kind) {
    case InstanceKind::kOneShotWrn:
      wrn_check_params(block.wrn.k, slot, v);
      handle = block.history.invoke(pid, {static_cast<Value>(slot), v});
      out = one_shot_wrn_commit(ctx, block.oid, &block.wrn, slot, v);
      break;
    case InstanceKind::kGac:
      gac_check_proposal(v);
      handle = block.history.invoke(pid, {v});
      out = gac_propose(ctx, block.oid, &block.gac, v);
      break;
    case InstanceKind::kSetConsensus:
      set_consensus_check_proposal(v);
      handle = block.history.invoke(pid, {v});
      out = set_consensus_propose(ctx, &block.setc, v);
      // The set-consensus core makes no fingerprint reports (its worlds
      // stay unported for stateful exploration); fold the response here so
      // the instance's local fingerprint still covers every op.
      if (!ctx.hung()) {
        ctx.observe_fp(detail::fp_of(out));
      }
      break;
  }
  ++stats_.ops;
  if (ctx.hung()) {
    // A hung invocation never responds; leave the history entry pending.
    *hung = true;
    return kBottom;
  }
  *hung = false;
  block.history.respond(handle, {out});
  return out;
}

void InstanceTable::decide(InstanceId id, std::int64_t now) {
  decide(at(id), now);
}

void InstanceTable::decide(InstanceBlock& block, std::int64_t now) {
  if (block.phase == InstancePhase::kDecided) {
    return;
  }
  block.phase = InstancePhase::kDecided;
  block.decided_at = now;
  ++stats_.decided;
}

void InstanceTable::release(std::size_t hole) {
  InstanceBlock* block = index_[hole].block;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home slot lies cyclically after the hole, so every run stays
  // unbroken and no tombstone is needed.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j].id != 0;
       j = (j + 1) & mask) {
    const std::size_t home = detail::fp_instance_domain(index_[j].id) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexSlot{};
  block->history.clear();  // keeps its entry capacity for the next instance
  free_.push_back(block);
  ++stats_.gcd;
  --stats_.live;
}

bool InstanceTable::gc(InstanceId id) {
  const std::size_t slot = probe(id);
  if (index_[slot].block == nullptr) {
    return false;
  }
  release(slot);
  return true;
}

std::size_t InstanceTable::gc_decided(std::int64_t decided_before) {
  std::size_t reclaimed = 0;
  for (std::size_t i = 0; i < index_.size();) {
    const InstanceBlock* block = index_[i].block;
    if (block != nullptr && block->phase == InstancePhase::kDecided &&
        block->decided_at <= decided_before) {
      // The shift may move a later entry into slot i: look at i again.
      release(i);
      ++reclaimed;
    } else {
      ++i;
    }
  }
  return reclaimed;
}

std::uint64_t InstanceTable::local_fingerprint(InstanceId id) {
  return at(id).fp_local;
}

std::uint64_t InstanceTable::world_fingerprint(InstanceId id) {
  return at(id).world_fingerprint();
}

}  // namespace subc
