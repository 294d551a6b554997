#pragma once
// Server side of oracle-as-a-service: exposes any Oracle — including a
// full fault-decorator stack from attacks/faulty_oracle.h — over one
// Transport speaking the serve/wire.h protocol.
//
// The server processes request frames strictly in order on one
// connection, modelling what it stands in for: a single physical chip on
// a single tester session. Configurable per-round-trip latency (fixed +
// seeded jitter) is charged once per kQueryBatch frame, which is what
// makes the batching-vs-latency tradeoff real: B batched queries pay one
// round trip, B unbatched queries pay B.
//
// A frame is answered with ONE Oracle::query_batch (its elements charged
// as fresh queries, or as retries for a requery frame), so a batch-aware
// oracle such as GoldenOracle evaluates the whole frame at once. The
// server-side stack's round_trip_count therefore counts frames, while its
// query_count/retry_count still count elements.

#include <atomic>
#include <cstdint>

#include "attacks/oracle.h"
#include "serve/transport.h"
#include "util/rng.h"

namespace orap::serve {

struct OracleServerOptions {
  /// Injected per-request-frame latency (microseconds) plus a seeded
  /// jitter draw in [0, jitter_us]. Zero = off.
  std::uint64_t latency_us = 0;
  std::uint64_t jitter_us = 0;
  std::uint64_t jitter_seed = 1;
  /// Graceful drain: when *stop goes true (a SIGTERM/SIGINT handler sets
  /// it), serve() finishes the frame in flight and returns as an orderly
  /// end. Pair with FdTransport::set_interrupt_flag so a read blocked on
  /// an idle client unwinds too. nullptr disables the check.
  const std::atomic<bool>* stop = nullptr;
};

/// Per-connection error isolation: serve() handles exactly one client and
/// reports how it ended; a malformed, corrupted, or chaos-killed client
/// tears down that one connection — the caller's accept loop (and every
/// other client it serves) keeps running. Nothing a peer sends can throw
/// out of serve(): the wire decoders reject rather than trust, and a frame
/// that fails its CRC is a protocol error, not an oracle call.
class OracleServer {
 public:
  OracleServer(Oracle& oracle, const OracleServerOptions& opts = {});

  /// Serves one connection until kShutdown, EOF, drain, or a protocol
  /// error. Returns true on an orderly end (shutdown, EOF, or drain),
  /// false when the peer broke the protocol (a kError frame is sent first
  /// when the stream still works).
  bool serve(Transport& t);

  std::uint64_t frames_served() const { return frames_; }
  std::uint64_t queries_served() const { return queries_; }
  std::uint64_t connections_served() const { return connections_; }
  /// Connections torn down for torn/corrupt/malformed traffic.
  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  Oracle& oracle_;
  OracleServerOptions opts_;
  Rng jitter_rng_;
  std::uint64_t frames_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t connections_ = 0;
  std::uint64_t protocol_errors_ = 0;
};

}  // namespace orap::serve
