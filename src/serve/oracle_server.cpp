#include "serve/oracle_server.h"

#include <chrono>
#include <thread>

#include "serve/wire.h"

namespace orap::serve {

OracleServer::OracleServer(Oracle& oracle, const OracleServerOptions& opts)
    : oracle_(oracle), opts_(opts), jitter_rng_(opts.jitter_seed) {}

bool OracleServer::serve(Transport& t) {
  ++connections_;
  Frame f;
  while (true) {
    if (opts_.stop != nullptr &&
        opts_.stop->load(std::memory_order_relaxed))
      return true;  // drain requested: finish between frames
    switch (read_frame_ex(t, &f)) {
      case FrameRead::kFrame:
        break;
      case FrameRead::kEof:
        return true;  // the client hung up cleanly between frames
      case FrameRead::kTorn:
        // Stream died mid-frame: nothing can be sent back (the peer is
        // gone or desynchronized), but it is this connection's failure
        // alone.
        ++protocol_errors_;
        return false;
      case FrameRead::kBad:
        // Oversized, unknown type, or CRC mismatch. The stream position
        // may still be intact (hand-rolled bad frame) or not (corrupted
        // length); either way the error frame is best-effort and the
        // connection is done.
        ++protocol_errors_;
        write_frame(t, FrameType::kError,
                    encode_error("bad frame: oversized, unknown type, or "
                                 "CRC mismatch"));
        return false;
    }
    ++frames_;
    switch (f.type) {
      case FrameType::kHello: {
        std::uint32_t version = 0;
        if (!decode_hello(f.body, &version) || version != kProtoVersion) {
          ++protocol_errors_;
          write_frame(t, FrameType::kError,
                      encode_error("unsupported protocol version"));
          return false;
        }
        HelloReply r;
        r.version = kProtoVersion;
        r.num_inputs = oracle_.num_inputs();
        r.num_outputs = oracle_.num_outputs();
        if (!write_frame(t, FrameType::kHelloReply, encode_hello_reply(r)))
          return true;
        break;
      }
      case FrameType::kQueryBatch: {
        bool requery = false;
        bool want_state = false;
        std::vector<BitVec> xs;
        if (!decode_query_batch(f.body, oracle_.num_inputs(), &requery, &xs,
                                &want_state)) {
          ++protocol_errors_;
          write_frame(t, FrameType::kError,
                      encode_error("malformed query batch"));
          return false;
        }
        // One round trip, one latency charge — regardless of batch size.
        if (opts_.latency_us > 0 || opts_.jitter_us > 0) {
          std::uint64_t us = opts_.latency_us;
          if (opts_.jitter_us > 0) us += jitter_rng_.below(opts_.jitter_us + 1);
          if (us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(us));
        }
        // One frame, one query_batch: each element is charged as the
        // matching serial query()/requery() would be.
        std::vector<OracleResult> rs;
        const std::vector<std::uint8_t> logical(xs.size(), requery ? 0 : 1);
        oracle_.query_batch(xs, &rs, &logical);
        queries_ += xs.size();
        // want_state: answers + post-batch stack state in ONE reply, so a
        // reconnecting client's recovery cache can never be stale relative
        // to answers it consumed.
        std::vector<std::uint8_t> state;
        if (want_state) oracle_.save_state(&state);
        if (!write_frame(t, FrameType::kBatchReply,
                         encode_batch_reply(rs, want_state ? &state : nullptr)))
          return true;
        break;
      }
      case FrameType::kStateGet: {
        std::vector<std::uint8_t> state;
        oracle_.save_state(&state);
        if (!write_frame(t, FrameType::kStateBlob, state)) return true;
        break;
      }
      case FrameType::kStateSet: {
        bytes::Reader in(f.body);
        const bool ok =
            oracle_.load_state(&in) && in.ok() && in.remaining() == 0;
        if (!write_frame(t, FrameType::kAck, encode_ack(ok))) return true;
        break;
      }
      case FrameType::kShutdown:
        write_frame(t, FrameType::kAck, encode_ack(true));
        return true;
      default:
        ++protocol_errors_;
        write_frame(t, FrameType::kError,
                    encode_error("unexpected frame type"));
        return false;
    }
  }
}

}  // namespace orap::serve
