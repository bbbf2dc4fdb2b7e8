#include "serve/program_cache.hpp"

#include "util/error.hpp"

namespace maxev::serve {

ProgramCache::ProgramCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0)
    throw DescriptionError("ProgramCache: capacity must be >= 1");
}

core::CompiledPtr ProgramCache::get(const core::CompiledKey& key_in,
                                    bool* was_hit) {
  // Canonicalize so normalized and shorthand (empty = all) groups unify.
  const core::CompiledKey key = core::CompiledKey::make(
      key_in.desc, key_in.group, key_in.fold, key_in.pad_nodes,
      key_in.scenario);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++hits_;
    if (was_hit != nullptr) *was_hit = true;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
    return it->second->value;
  }

  ++misses_;
  if (was_hit != nullptr) *was_hit = false;
  core::CompiledPtr compiled = core::compile_abstraction(key);
  lru_.push_front(Entry{compiled->key, compiled});
  index_.emplace(compiled->key, lru_.begin());
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  return compiled;
}

bool ProgramCache::contains(const core::CompiledKey& key_in) const {
  const core::CompiledKey key = core::CompiledKey::make(
      key_in.desc, key_in.group, key_in.fold, key_in.pad_nodes,
      key_in.scenario);
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, evictions_, index_.size()};
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

}  // namespace maxev::serve
