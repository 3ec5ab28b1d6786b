#pragma once
// FNV-1a 64-bit, the one byte hash: artifact section checksums and the
// candidate-key hash.  It starts from FNV's published offset basis
// 14695981039346656037 and multiplies by the prime 1099511628211, so any
// independent FNV-1a implementation reproduces every stored section hash.

#include <cstdint>
#include <span>

namespace yoso {

/// FNV-1a 64-bit over `bytes`, continuing from the running hash `h`.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t h = 14695981039346656037ull) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

}  // namespace yoso
