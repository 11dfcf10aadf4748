// 64-bit FNV-1a over raw bytes: the fingerprints of datasets, training runs
// and support-vector rows. Doubles hash by bit pattern.

#ifndef GMPSVM_COMMON_HASH_H_
#define GMPSVM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace gmpsvm {

// FNV-1a's 64-bit offset basis.
inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ULL;

// Folds `bytes` bytes at `data` into the running hash `h`; start a hash at
// kFnv1aOffset.
inline uint64_t Fnv1a64(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_HASH_H_
