#include "netlist/simulator.h"

#include <algorithm>

#include "util/simd.h"

namespace orap {

std::uint64_t eval_gate_word(GateType type, std::span<const std::uint64_t> in) {
  switch (type) {
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~0ULL;
    case GateType::kInput:
      return 0;  // inputs are set externally; reached only if unset
    case GateType::kBuf:
      return in[0];
    case GateType::kNot:
      return ~in[0];
    case GateType::kAnd: {
      std::uint64_t v = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) v &= in[i];
      return v;
    }
    case GateType::kNand: {
      std::uint64_t v = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) v &= in[i];
      return ~v;
    }
    case GateType::kOr: {
      std::uint64_t v = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) v |= in[i];
      return v;
    }
    case GateType::kNor: {
      std::uint64_t v = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) v |= in[i];
      return ~v;
    }
    case GateType::kXor: {
      std::uint64_t v = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) v ^= in[i];
      return v;
    }
    case GateType::kXnor: {
      std::uint64_t v = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) v ^= in[i];
      return ~v;
    }
    case GateType::kMux:
      return (in[0] & in[2]) | (~in[0] & in[1]);
  }
  return 0;
}

void eval_gate_block(GateType type, const std::uint64_t* const* in,
                     std::size_t nf, std::uint64_t* dst, std::size_t w) {
  switch (type) {
    case GateType::kConst0:
    case GateType::kInput:
      for (std::size_t j = 0; j < w; ++j) dst[j] = 0;
      return;
    case GateType::kConst1:
      for (std::size_t j = 0; j < w; ++j) dst[j] = ~0ULL;
      return;
    case GateType::kBuf:
      for (std::size_t j = 0; j < w; ++j) dst[j] = in[0][j];
      return;
    case GateType::kNot:
      simd::vnot(dst, in[0], w);
      return;
    case GateType::kAnd:
    case GateType::kNand:
      for (std::size_t j = 0; j < w; ++j) dst[j] = in[0][j];
      for (std::size_t i = 1; i < nf; ++i) simd::vand(dst, dst, in[i], w);
      if (type == GateType::kNand) simd::vnot(dst, dst, w);
      return;
    case GateType::kOr:
    case GateType::kNor:
      for (std::size_t j = 0; j < w; ++j) dst[j] = in[0][j];
      for (std::size_t i = 1; i < nf; ++i) simd::vor(dst, dst, in[i], w);
      if (type == GateType::kNor) simd::vnot(dst, dst, w);
      return;
    case GateType::kXor:
    case GateType::kXnor:
      for (std::size_t j = 0; j < w; ++j) dst[j] = in[0][j];
      for (std::size_t i = 1; i < nf; ++i) simd::vxor(dst, dst, in[i], w);
      if (type == GateType::kXnor) simd::vnot(dst, dst, w);
      return;
    case GateType::kMux:
      simd::vmux(dst, in[0], in[1], in[2], w);
      return;
  }
}

void Simulator::broadcast_inputs(const BitVec& pattern) {
  ORAP_CHECK(pattern.size() == n_.num_inputs());
  for (std::size_t i = 0; i < n_.num_inputs(); ++i) {
    const std::uint64_t v = pattern.get(i) ? ~0ULL : 0ULL;
    std::uint64_t* dst = &values_[n_.inputs()[i] * w_];
    for (std::size_t j = 0; j < w_; ++j) dst[j] = v;
  }
}

void Simulator::run() {
  if (w_ == 1) {
    // Single-word mode: the historical hot loop, untouched.
    std::uint64_t buf[64];
    for (GateId g = 0; g < n_.num_gates(); ++g) {
      const GateType t = n_.type(g);
      if (t == GateType::kInput) continue;
      const auto fi = n_.fanins(g);
      if (fi.size() <= 64) {
        for (std::size_t i = 0; i < fi.size(); ++i) buf[i] = values_[fi[i]];
        values_[g] = eval_gate_word(t, {buf, fi.size()});
      } else {
        wide_buf_.resize(fi.size());
        for (std::size_t i = 0; i < fi.size(); ++i)
          wide_buf_[i] = values_[fi[i]];
        values_[g] = eval_gate_word(t, {wide_buf_.data(), fi.size()});
      }
    }
    return;
  }
  // Block mode: one multi-word step per gate. A gate's block never
  // aliases a fanin block (fanins have strictly smaller gate ids).
  const std::uint64_t* ptrs[64];
  for (GateId g = 0; g < n_.num_gates(); ++g) {
    const GateType t = n_.type(g);
    if (t == GateType::kInput) continue;
    const auto fi = n_.fanins(g);
    std::uint64_t* dst = &values_[g * w_];
    if (fi.size() <= 64) {
      for (std::size_t i = 0; i < fi.size(); ++i)
        ptrs[i] = &values_[fi[i] * w_];
      eval_gate_block(t, ptrs, fi.size(), dst, w_);
    } else {
      ptr_buf_.resize(fi.size());
      for (std::size_t i = 0; i < fi.size(); ++i)
        ptr_buf_[i] = &values_[fi[i] * w_];
      eval_gate_block(t, ptr_buf_.data(), fi.size(), dst, w_);
    }
  }
}

BitVec Simulator::run_single(const BitVec& pattern) {
  broadcast_inputs(pattern);
  run();
  BitVec out(n_.num_outputs());
  for (std::size_t o = 0; o < n_.num_outputs(); ++o)
    out.set(o, (output_word(o) & 1ULL) != 0);
  return out;
}

void Simulator::run_batch(std::span<const BitVec> xs, const BitVec& tail,
                          std::vector<BitVec>* out) {
  ORAP_CHECK(tail.size() <= n_.num_inputs());
  const std::size_t nd = n_.num_inputs() - tail.size();
  const std::size_t nout = n_.num_outputs();
  for (const BitVec& x : xs) ORAP_CHECK(x.size() == nd);
  for (std::size_t i = 0; i < tail.size(); ++i)
    std::fill_n(&values_[n_.inputs()[nd + i] * w_], w_,
                tail.get(i) ? ~0ULL : 0ULL);
  // Lane word j of a pass carries patterns q0 + 64j + b. One transpose
  // turns a 64-signal slice k (inputs or outputs 64k..64k+63) of those
  // patterns into per-signal lane words, or back. Rows past the last
  // pattern or signal are zero, which also keeps the outputs trimmed.
  std::uint64_t m[64];
  for (std::size_t q0 = 0; q0 < xs.size(); q0 += 64 * w_) {
    const std::size_t n = std::min(xs.size() - q0, 64 * w_);
    for (std::size_t j = 0; 64 * j < n; ++j) {
      const std::size_t nb = std::min<std::size_t>(64, n - 64 * j);
      for (std::size_t k = 0; 64 * k < nd; ++k) {
        for (std::size_t b = 0; b < 64; ++b)
          m[b] = b < nb ? xs[q0 + 64 * j + b].words()[k] : 0;
        simd::transpose64(m);
        for (std::size_t i = 0; i < 64 && 64 * k + i < nd; ++i)
          values_[n_.inputs()[64 * k + i] * w_ + j] = m[i];
      }
    }
    run();
    const std::size_t first = out->size();
    out->resize(first + n, BitVec(nout));
    for (std::size_t j = 0; 64 * j < n; ++j) {
      const std::size_t nb = std::min<std::size_t>(64, n - 64 * j);
      for (std::size_t k = 0; 64 * k < nout; ++k) {
        for (std::size_t o = 0; o < 64; ++o)
          m[o] = 64 * k + o < nout
                     ? values_[n_.outputs()[64 * k + o].gate * w_ + j]
                     : 0;
        simd::transpose64(m);
        for (std::size_t b = 0; b < nb; ++b)
          (*out)[first + 64 * j + b].words()[k] = m[b];
      }
    }
  }
}

}  // namespace orap
