// cost-overflow fixtures: packet/byte/cost accumulators taking products of
// procs-seeded ranges (p <= 2^20) into 32-bit destinations. Widening the
// destination to a 64-bit type is the remedy.

namespace pcm::net {

// FIRING x2: products over [1, 2^20] ranges overflow the int destinations.
long tally_products(int procs, int word_bytes) {
  int total_messages = procs * procs;
  int shifted_bytes = procs << 12;
  long wide_total = static_cast<long>(procs) * procs;  // clean: wide dest
  return total_messages + shifted_bytes + wide_total + word_bytes;
}

// SUPPRESSED: the wrap is intentional (a hash mix, say).
int mixed_bits(int procs) {
  int mix = procs * procs;  // pcm-lint:allow(cost-overflow)
  return mix;
}

// CLEAN: small factors stay inside int's range.
int small_product(int procs) {
  int doubled = procs * 2;
  return doubled;
}

}  // namespace pcm::net
