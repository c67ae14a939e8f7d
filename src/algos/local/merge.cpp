#include "algos/local/merge.hpp"

#include <cassert>

namespace pcm::algos {

void merge_keep_low(std::span<const std::uint32_t> a,
                    std::span<const std::uint32_t> b,
                    std::vector<std::uint32_t>& out) {
  const std::size_t m = a.size();
  assert(b.size() == m);
  out.resize(m);
  std::size_t i = 0, j = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
      out[k] = a[i++];
    } else {
      out[k] = b[j++];
    }
  }
}

void merge_keep_high(std::span<const std::uint32_t> a,
                     std::span<const std::uint32_t> b,
                     std::vector<std::uint32_t>& out) {
  const std::size_t m = a.size();
  assert(b.size() == m);
  out.resize(m);
  std::size_t i = a.size(), j = b.size();
  for (std::size_t k = m; k-- > 0;) {
    if (j == 0 || (i > 0 && a[i - 1] >= b[j - 1])) {
      out[k] = a[--i];
    } else {
      out[k] = b[--j];
    }
  }
}

}  // namespace pcm::algos
