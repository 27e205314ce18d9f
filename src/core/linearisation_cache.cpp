#include "core/linearisation_cache.hpp"

#include <utility>

namespace ehsim::core {

bool Linearisation::factorise() {
  if (!jyy_lu.factor(jyy)) {
    return false;
  }
  jyy_lu.record_nonzeros();
  jxy_nonzeros.assign(jxy);
  return true;
}

LinearisationCache::LinearisationCache(const LinearisationCache& other) { *this = other; }

LinearisationCache& LinearisationCache::operator=(const LinearisationCache& other) {
  if (this == &other) {
    return *this;
  }
  if (!other.entries_.empty()) {
    // A plain vector copy would allocate only size() headers, and the next
    // insert would then move every entry.
    entries_.reserve(kCapacity);
  }
  entries_.assign(other.entries_.begin(), other.entries_.end());
  index_ = other.index_;
  newest_ = other.newest_;
  oldest_ = other.oldest_;
  return *this;
}

Linearisation* LinearisationCache::find(std::uint64_t signature) {
  const auto it = index_.find(signature);
  if (it == index_.end()) {
    return nullptr;
  }
  const std::size_t slot = it->second;
  if (slot != newest_) {
    unlink(slot);
    make_newest(slot);
  }
  return &entries_[slot].value;
}

Linearisation& LinearisationCache::insert(std::uint64_t signature) {
  std::size_t slot = entries_.size();
  if (slot < kCapacity) {
    if (entries_.empty()) {
      entries_.reserve(kCapacity);
      index_.reserve(kCapacity);
    }
    entries_.emplace_back();
    index_.emplace(signature, slot);
  } else {
    slot = oldest_;
    unlink(slot);
    // Re-key the evicted entry's index node in place: no allocation.
    auto node = index_.extract(entries_[slot].signature);
    node.key() = signature;
    index_.insert(std::move(node));
  }
  Entry& entry = entries_[slot];
  entry.signature = signature;
  entry.value.stability_cap.reset();
  make_newest(slot);
  return entry.value;
}

void LinearisationCache::clear() {
  entries_.clear();
  index_.clear();
  newest_ = kNone;
  oldest_ = kNone;
}

void LinearisationCache::unlink(std::size_t slot) {
  const Entry& entry = entries_[slot];
  if (entry.older == kNone) {
    oldest_ = entry.newer;
  } else {
    entries_[entry.older].newer = entry.newer;
  }
  if (entry.newer == kNone) {
    newest_ = entry.older;
  } else {
    entries_[entry.newer].older = entry.older;
  }
}

void LinearisationCache::make_newest(std::size_t slot) {
  Entry& entry = entries_[slot];
  entry.older = newest_;
  entry.newer = kNone;
  if (newest_ == kNone) {
    oldest_ = slot;
  } else {
    entries_[newest_].newer = slot;
  }
  newest_ = slot;
}

}  // namespace ehsim::core
