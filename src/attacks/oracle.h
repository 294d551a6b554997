#pragma once
// The attacker's view of a functional chip: a black box mapping
// combinational-core data inputs to outputs. Every oracle-guided attack in
// src/attacks runs against this interface.
//
//  * GoldenOracle — a conventional chip: the key register holds the
//    correct key during scan, so scan in/capture/scan out yields golden
//    responses. (This is the attack surface the paper's Sec. I describes.)
//    Its answers are state-independent, so a batch is evaluated
//    bit-parallel (Simulator::run_batch, 64 queries per lane word under the
//    broadcast correct key), bit-identical to the serial loop.
//  * ChipScanOracle — an OraP chip driven through its scan interface; the
//    pulse generators clear the key register on scan entry, so responses
//    correspond to the locked circuit. It keeps the serial batch default:
//    every query pulses scan-enable and changes the chip's key-register
//    state, so its queries are not independent of one another.
//
// Real oracles are also *unreliable*: tester links drop (transients),
// sessions stall (timeouts), access runs out (query caps), and fault
// injection corrupts responses outright. `query` therefore returns an
// OracleResult — a response or a typed OracleError — and the seeded fault
// decorators in attacks/faulty_oracle.h compose over any oracle to model
// these failure modes reproducibly.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "chip/chip.h"
#include "locking/locking.h"
#include "netlist/simulator.h"
#include "util/bitvec.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/simd.h"

namespace orap {

enum class OracleErrorKind {
  kTransient,  // momentary failure; retrying the same query may succeed
  kTimeout,    // the device did not answer in time; retryable
  kExhausted,  // query budget spent / access revoked; never retryable
};

inline const char* to_string(OracleErrorKind k) {
  switch (k) {
    case OracleErrorKind::kTransient: return "transient";
    case OracleErrorKind::kTimeout: return "timeout";
    case OracleErrorKind::kExhausted: return "exhausted";
  }
  return "?";
}

struct OracleError {
  OracleErrorKind kind = OracleErrorKind::kTransient;
  bool retryable() const { return kind != OracleErrorKind::kExhausted; }
};

/// Response-or-error sum type returned by Oracle::query. Implicitly
/// constructible from a BitVec so concrete oracles can keep returning
/// plain responses.
class OracleResult {
 public:
  OracleResult(BitVec response)  // NOLINT: implicit by design
      : ok_(true), response_(std::move(response)) {}
  OracleResult(OracleError error)  // NOLINT: implicit by design
      : ok_(false), error_(error) {}
  static OracleResult failure(OracleErrorKind kind) {
    return OracleResult(OracleError{kind});
  }

  bool ok() const { return ok_; }
  const BitVec& response() const {
    ORAP_CHECK_MSG(ok_, "OracleResult::response() on an error result");
    return response_;
  }
  const OracleError& error() const {
    ORAP_CHECK_MSG(!ok_, "OracleResult::error() on an ok result");
    return error_;
  }

 private:
  bool ok_;
  BitVec response_;
  OracleError error_;
};

class Oracle {
 public:
  virtual ~Oracle() = default;

  virtual std::size_t num_inputs() const = 0;
  virtual std::size_t num_outputs() const = 0;

  /// One logical query. Counters are bumped AFTER do_query returns, so a
  /// throwing oracle never inflates query_count (exception safety), and
  /// failed attempts are visible in error_count.
  OracleResult query(const BitVec& data) {
    OracleResult r = do_query(data);
    ++queries_;
    ++round_trips_;
    if (!r.ok()) ++errors_;
    return r;
  }

  /// A retry or extra majority-vote attempt for a query already counted by
  /// query(). Charged to retry_count, NOT query_count, so logical query
  /// counts stay comparable whether resilience is on or off.
  OracleResult requery(const BitVec& data) {
    OracleResult r = do_query(data);
    ++retries_;
    ++round_trips_;
    if (!r.ok()) ++errors_;
    return r;
  }

  /// Many queries in one flush (one round trip for oracles that can ship
  /// them together — RemoteOracle sends one wire frame, LatentOracle
  /// charges its link latency once). Always fills exactly xs.size()
  /// results, and each element is accounted exactly as the matching
  /// serial query()/requery() call would be: `logical` selects per
  /// element whether it is a fresh logical query (nonzero -> query_count)
  /// or a retry/vote attempt (zero -> retry_count); nullptr charges every
  /// element to query_count. Batch determinism contract: a batch is
  /// byte-identical to issuing its elements serially in order, because
  /// every decorator draws its per-query RNG state in element order
  /// (regression-tested in tests/batch_test.cpp).
  void query_batch(const std::vector<BitVec>& xs,
                   std::vector<OracleResult>* out,
                   const std::vector<std::uint8_t>* logical = nullptr) {
    out->clear();
    if (xs.empty()) return;  // no traffic, no round trip
    ORAP_CHECK_MSG(logical == nullptr || logical->size() == xs.size(),
                   "query_batch logical mask size mismatch");
    do_query_batch(xs, out);
    ORAP_CHECK_MSG(out->size() == xs.size(),
                   "do_query_batch returned a wrong-sized batch");
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (logical == nullptr || (*logical)[i] != 0)
        ++queries_;
      else
        ++retries_;
      if (!(*out)[i].ok()) ++errors_;
    }
    ++batches_;
    ++round_trips_;
  }

  /// Batch-element semantics: each batch element counts exactly once in
  /// query_count/retry_count (above); a whole batch counts once in
  /// batch_count and once in round_trip_count, while each serial
  /// query()/requery() counts one round trip — so round_trip_count is the
  /// number of device round trips the attack actually paid.
  std::size_t query_count() const { return queries_; }
  std::size_t retry_count() const { return retries_; }
  std::size_t error_count() const { return errors_; }
  std::size_t batch_count() const { return batches_; }
  std::size_t round_trip_count() const { return round_trips_; }

  /// Result-cache accounting (serve/result_cache.h). A cache hit is
  /// served without touching the device below the cache, so it counts
  /// zero device queries; the outermost layer reports the whole stack's
  /// hit/miss totals. Stacks without a cache report zero.
  virtual std::size_t cache_hits() const { return 0; }
  virtual std::size_t cache_misses() const { return 0; }

  /// Attack-side bookkeeping: a response from this oracle was identified
  /// as corrupted (quarantined / evicted).
  void note_corruption_suspected() { ++corrupted_suspected_; }
  std::size_t corrupted_suspected() const { return corrupted_suspected_; }

  // --- checkpoint/resume state (src/attacks/checkpoint.h) -----------------
  // A resumed attack replays its recorded oracle transcript, but the live
  // continuation afterwards must also match the uninterrupted run — which
  // means every stateful layer of the oracle stack (fault-injector RNG
  // stream positions, stale-response caches, access budgets) has to be
  // restored to where the interrupted run left it. save_state appends this
  // oracle's resume-relevant state to `out`; load_state consumes the same
  // bytes back. Decorators serialize the wrapped oracle FIRST, then their
  // own state, so one blob round-trips a whole decorator stack. Stateless
  // oracles (GoldenOracle, ChipScanOracle) keep the no-op default.

  virtual void save_state(std::vector<std::uint8_t>* out) const {
    (void)out;
  }
  virtual bool load_state(bytes::Reader* in) { return in->ok(); }

 protected:
  virtual OracleResult do_query(const BitVec& data) = 0;

  /// Batch hook behind query_batch. The default is the serial element-order
  /// loop, which keeps every oracle — including decorators that only
  /// override do_query — batch-correct by construction (the batch simply
  /// degrades to serial below that layer). Batch-aware oracles override
  /// this to ship the whole batch at once; an override MUST be
  /// byte-identical to this loop, which for fault decorators means drawing
  /// per-query RNG state in element order.
  virtual void do_query_batch(const std::vector<BitVec>& xs,
                              std::vector<OracleResult>* out) {
    out->reserve(xs.size());
    for (const BitVec& x : xs) out->push_back(do_query(x));
  }

 private:
  std::size_t queries_ = 0;
  std::size_t retries_ = 0;
  std::size_t errors_ = 0;
  std::size_t batches_ = 0;
  std::size_t round_trips_ = 0;
  std::size_t corrupted_suspected_ = 0;
};

/// Base for oracles that wrap another oracle (the fault injectors in
/// attacks/faulty_oracle.h). Forwards the interface shape; each layer
/// keeps its own counters, and the attack reads the outermost ones.
class OracleDecorator : public Oracle {
 public:
  explicit OracleDecorator(Oracle& inner) : inner_(inner) {}

  std::size_t num_inputs() const override { return inner_.num_inputs(); }
  std::size_t num_outputs() const override { return inner_.num_outputs(); }

  /// Cache accounting bubbles up through the stack so the attack can read
  /// it from the outermost oracle. (do_query_batch deliberately keeps the
  /// serial base default here: blanket-forwarding the batch to inner()
  /// would silently skip the do_query logic of decorators that are not
  /// batch-aware. Batch-aware decorators override do_query_batch
  /// themselves.)
  std::size_t cache_hits() const override { return inner_.cache_hits(); }
  std::size_t cache_misses() const override { return inner_.cache_misses(); }

  /// Inner-first so a decorator stack serializes bottom-up; overriding
  /// decorators call these and then handle their own state.
  void save_state(std::vector<std::uint8_t>* out) const override {
    inner_.save_state(out);
  }
  bool load_state(bytes::Reader* in) override {
    return inner_.load_state(in);
  }

  Oracle& inner() { return inner_; }
  const Oracle& inner() const { return inner_; }

 private:
  Oracle& inner_;
};

/// Conventional (unprotected) chip: scan access yields correct responses.
/// Batches of up to 64 take one pass of the single-word simulator that also
/// serves query(); larger ones a kBlockWords-wide one built on first use.
class GoldenOracle final : public Oracle {
 public:
  explicit GoldenOracle(const LockedCircuit& lc) : lc_(lc), sim_(lc.netlist) {}

  std::size_t num_inputs() const override { return lc_.num_data_inputs; }
  std::size_t num_outputs() const override {
    return lc_.netlist.num_outputs();
  }

 private:
  OracleResult do_query(const BitVec& data) override {
    return sim_.run_single(lc_.assemble_input(data, lc_.correct_key));
  }

  void do_query_batch(const std::vector<BitVec>& xs,
                      std::vector<OracleResult>* out) override {
    if (xs.size() > 64 && !wide_)
      wide_ = std::make_unique<Simulator>(lc_.netlist, simd::kBlockWords);
    std::vector<BitVec> ys;
    (xs.size() > 64 ? *wide_ : sim_).run_batch(xs, lc_.correct_key, &ys);
    out->assign(std::make_move_iterator(ys.begin()),
                std::make_move_iterator(ys.end()));
  }

  const LockedCircuit& lc_;
  Simulator sim_;
  std::unique_ptr<Simulator> wide_;
};

/// OraP chip behind its real scan protocol. Data packs [pi | state] and
/// the response packs [po | next_state], exactly the locked core's I/O.
class ChipScanOracle final : public Oracle {
 public:
  explicit ChipScanOracle(OrapChip& chip) : chip_(chip) {}

  std::size_t num_inputs() const override {
    return chip_.num_pis() + chip_.num_state_ffs();
  }
  std::size_t num_outputs() const override {
    return chip_.num_pos() + chip_.num_state_ffs();
  }

 private:
  OracleResult do_query(const BitVec& data) override {
    return scan_oracle_query(chip_, data);
  }

  OrapChip& chip_;
};

}  // namespace orap
