#include "common/key_index.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace imr {

void KeyIndex::reset(std::size_t keys) {
  IMR_CHECK_MSG(keys < (std::size_t{1} << 32),
                "KeyIndex: 2^32 or more keys do not fit a uint32_t slot");
  slots_.clear();
  mask_ = 0;
  if (keys == 0) return;
  const std::size_t capacity = next_pow2(2 * keys);
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
}

void KeyIndex::clear() { std::fill(slots_.begin(), slots_.end(), 0); }

void FlatTable::reserve(std::size_t keys) {
  records_.reserve(keys);
  if (2 * keys > index_.capacity()) reindex(keys);
}

void FlatTable::reindex(std::size_t keys) {
  index_.reset(std::max<std::size_t>(keys, 8));
  for (std::size_t i = 0; i < records_.size(); ++i) {
    index_.insert_new(records_[i].key, static_cast<uint32_t>(i));
  }
}

void FlatTable::clear() {
  records_.clear();
  index_.clear();
}

}  // namespace imr
