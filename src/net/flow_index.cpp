#include "net/flow_index.hpp"

namespace p4u::net {

namespace {

constexpr std::size_t kMinBuckets = 16;

/// splitmix64 finalizer. FlowIds are frequently structured (hashes of
/// (src, dst) or sequential synthetic ids); the finalizer spreads either
/// shape evenly over the power-of-two bucket space.
std::uint64_t mix(FlowId id) {
  std::uint64_t z = id + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t ceil_pow2(std::size_t n) {
  std::size_t p = kMinBuckets;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlowIndex::FlowIndex(std::size_t expected) {
  // An empty index allocates nothing: the first intern() sizes the table.
  if (expected > 0) reserve(expected);
}

std::size_t FlowIndex::bucket_of(FlowId id) const {
  return static_cast<std::size_t>(mix(id)) & table_mask_;
}

void FlowIndex::grow_table(std::size_t want_buckets) {
  const std::size_t n = ceil_pow2(want_buckets);
  if (n <= table_.size() && !table_.empty()) return;
  table_.assign(n, kNoFlowHandle);
  table_mask_ = n - 1;
  for (FlowHandle h = 0; h < slots_.size(); ++h) {
    if (!slots_[h].live) continue;
    std::size_t b = bucket_of(slots_[h].id);
    while (table_[b] != kNoFlowHandle) b = (b + 1) & table_mask_;
    table_[b] = h;
  }
}

void FlowIndex::reserve(std::size_t expected) {
  slots_.reserve(expected);
  grow_table(ceil_pow2(expected * 2));
}

FlowHandle FlowIndex::intern(FlowId id) {
  // Keep the linear-probing load factor at or below 1/2.
  if ((live_ + 1) * 2 > table_.size()) grow_table(table_.size() * 2);
  std::size_t b = bucket_of(id);
  while (table_[b] != kNoFlowHandle) {
    if (slots_[table_[b]].id == id) return table_[b];
    b = (b + 1) & table_mask_;
  }
  FlowHandle h;
  if (!free_.empty()) {
    h = free_.back();  // LIFO: deterministic recycling order
    free_.pop_back();
  } else {
    h = static_cast<FlowHandle>(slots_.size());
    slots_.emplace_back();
  }
  slots_[h].id = id;
  slots_[h].live = true;
  table_[b] = h;
  ++live_;
  return h;
}

FlowHandle FlowIndex::find(FlowId id) const {
  if (live_ == 0) return kNoFlowHandle;
  std::size_t b = bucket_of(id);
  while (table_[b] != kNoFlowHandle) {
    if (slots_[table_[b]].id == id) return table_[b];
    b = (b + 1) & table_mask_;
  }
  return kNoFlowHandle;
}

void FlowIndex::release(FlowId id) {
  if (live_ == 0) return;
  std::size_t b = bucket_of(id);
  while (table_[b] != kNoFlowHandle) {
    const FlowHandle h = table_[b];
    if (slots_[h].id != id) {
      b = (b + 1) & table_mask_;
      continue;
    }
    // Backward-shift deletion (tombstone-free linear probing): walk the
    // probe chain after the hole and relocate any entry whose home bucket
    // lies cyclically at or before the hole, so later finds never stop at
    // a spurious empty bucket.
    std::size_t hole = b;
    std::size_t j = b;
    for (;;) {
      j = (j + 1) & table_mask_;
      if (table_[j] == kNoFlowHandle) break;
      const std::size_t home = bucket_of(slots_[table_[j]].id);
      const bool reachable = hole <= j ? (home <= hole || home > j)
                                       : (home <= hole && home > j);
      if (reachable) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = kNoFlowHandle;
    slots_[h].live = false;
    ++slots_[h].generation;
    free_.push_back(h);
    --live_;
    return;
  }
}

void FlowIndex::clear() {
  table_.assign(table_.size(), kNoFlowHandle);
  slots_.clear();
  free_.clear();
  live_ = 0;
}

}  // namespace p4u::net
