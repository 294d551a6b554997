#pragma once
// Bit-parallel combinational simulator.
//
// A "word" carries 64 independent patterns; the simulator evaluates the
// whole netlist with one pass of word-wide boolean ops. This is the engine
// behind the Hamming-distance corruptibility measurements of Table I and
// the pseudorandom phase of the Table II fault-simulation flow.
//
// Block mode: constructed with block_words = W > 1 the simulator carries
// W words (64*W patterns) per gate and evaluates each gate over the whole
// block in one step — a contiguous multi-word loop the compiler can
// vectorize, routed through the util/simd.h kernels (AVX2 when available,
// scalar otherwise; both bit-identical). W = 1 is the historical layout
// and behavior, bit for bit.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace orap {

/// Evaluates one gate given already-computed fanin words.
std::uint64_t eval_gate_word(GateType type, std::span<const std::uint64_t> in);

/// Block-wise gate evaluation: `in` holds `nf` fanin block pointers, each
/// a `w`-word lane bundle; `dst` (w words) receives the gate's output
/// block. dst must not alias any fanin block.
void eval_gate_block(GateType type, const std::uint64_t* const* in,
                     std::size_t nf, std::uint64_t* dst, std::size_t w);

class Simulator {
 public:
  explicit Simulator(const Netlist& n, std::size_t block_words = 1)
      : n_(n),
        w_(block_words == 0 ? 1 : block_words),
        values_(n.num_gates() * (block_words == 0 ? 1 : block_words)) {}

  /// Words per gate block (1 = classic single-word mode).
  std::size_t block_words() const { return w_; }

  /// Sets the first 64-pattern word of input #i (position in
  /// netlist.inputs()). In block mode the other lanes are untouched.
  void set_input_word(std::size_t input_idx, std::uint64_t w) {
    values_[n_.inputs()[input_idx] * w_] = w;
  }

  /// Sets the whole block (w_ words) of input #i.
  void set_input_block(std::size_t input_idx,
                       std::span<const std::uint64_t> block) {
    ORAP_DCHECK(block.size() == w_);
    std::uint64_t* dst = &values_[n_.inputs()[input_idx] * w_];
    for (std::size_t j = 0; j < w_; ++j) dst[j] = block[j];
  }

  /// Random words on all inputs (every lane of every block).
  void randomize_inputs(Rng& rng) {
    for (GateId in : n_.inputs())
      for (std::size_t j = 0; j < w_; ++j) values_[in * w_ + j] = rng.word();
  }

  /// Broadcast a single pattern (bit b of input i = pattern[i]) to all
  /// lanes of all blocks.
  void broadcast_inputs(const BitVec& pattern);

  /// Evaluates every gate in topological order.
  void run();

  std::uint64_t value(GateId g) const { return values_[g * w_]; }
  std::span<const std::uint64_t> value_block(GateId g) const {
    return {&values_[g * w_], w_};
  }
  std::uint64_t output_word(std::size_t out_idx) const {
    return values_[n_.outputs()[out_idx].gate * w_];
  }
  std::span<const std::uint64_t> output_block(std::size_t out_idx) const {
    return value_block(n_.outputs()[out_idx].gate);
  }

  /// Single-pattern convenience: applies `pattern` (one bit per input) and
  /// returns one bit per output.
  BitVec run_single(const BitVec& pattern);

  /// Keyed batch: pattern q drives the first xs[q].size() inputs and `tail`
  /// drives the rest, the same in every lane — a locked circuit's data
  /// patterns under one fixed key. Packs 64 patterns per lane word with
  /// simd::transpose64, runs one pass per 64 * block_words() patterns, and
  /// appends one output vector per pattern to `out`, in order. Bit-exact
  /// with run_single on each assembled pattern.
  void run_batch(std::span<const BitVec> xs, const BitVec& tail,
                 std::vector<BitVec>* out);

  /// Raw value buffer: gate g's block occupies [g * block_words(),
  /// (g+1) * block_words()).
  std::span<const std::uint64_t> values() const { return values_; }
  std::span<std::uint64_t> mutable_values() { return values_; }

  const Netlist& netlist() const { return n_; }

 private:
  const Netlist& n_;
  std::size_t w_ = 1;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> wide_buf_;  // scratch for >64-fanin gates
  std::vector<const std::uint64_t*> ptr_buf_;  // block-mode fanin pointers
};

}  // namespace orap
