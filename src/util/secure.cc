#include "util/secure.h"

#include <atomic>
#include <cstring>

namespace reed {

bool SecureCompare(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  // Accumulate differences with OR so the loop's memory-access pattern and
  // trip count depend only on the (public) length, never on content.
  unsigned acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  // The single branch on the fully-accumulated result leaks nothing about
  // *where* the buffers differ, only *whether* they do — which the caller
  // reveals anyway.
  return acc == 0;
}

void SecureZero(std::span<std::uint8_t> data) {
#if defined(__GLIBC__)
  // glibc's explicit_bzero is a full-speed memset the optimizer may not
  // elide. Every AES context and CAONT scratch buffer is wiped once per
  // chunk, where a byte-wise volatile loop cost ~0.7 ns per byte.
  if (!data.empty()) explicit_bzero(data.data(), data.size());
#else
  // Volatile stores defeat dead-store elimination; the signal fence keeps the
  // compiler from reordering them past the end of the enclosing full
  // expression.
  volatile std::uint8_t* p = data.data();
  for (std::size_t i = 0; i < data.size(); ++i) p[i] = 0;
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

void SecureZero(std::vector<std::uint8_t>& data) {
  SecureZero(std::span<std::uint8_t>(data));
  data.clear();
}

}  // namespace reed
