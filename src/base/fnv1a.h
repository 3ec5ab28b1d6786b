#pragma once
// FNV-1a 64-bit, the one byte hash: artifact section checksums, the GP
// training-set fingerprint and the candidate-key hash.  Its offset basis is
// one digit short of FNV's published 14695981039346656037; every stored
// section hash and golden constant is built on it, so it changes only with
// the artifact format's next major version.

#include <cstdint>
#include <span>

namespace yoso {

/// FNV-1a 64-bit over `bytes`, continuing from the running hash `h`.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t h = 1469598103934665603ull) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

}  // namespace yoso
