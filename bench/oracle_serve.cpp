// Oracle-serving throughput: the batching-vs-latency tradeoff over the
// serve/wire.h protocol. A served oracle charges its round-trip latency
// once per request FRAME (exactly like a tester session charges its cable
// round-trip once per scan burst), so B batched queries pay one round
// trip where B unbatched queries pay B. This bench drives a real
// OracleServer over a real fd transport (pipe pair + server thread — the
// same read/write/poll path the TCP and subprocess transports use) and
// sweeps injected latency x batch size, reporting queries/sec per cell
// and the speedup over the unbatched column.
//
// Expected shape: at zero injected latency batching still wins a modest
// factor (fewer syscalls and frame headers per query); at >= 1 ms
// injected latency the unbatched column collapses to ~1/latency queries
// per second while batched throughput holds, so the speedup grows roughly
// linearly in the batch size until simulation cost dominates. A pipelined
// row (all frames in flight before any reply is read) is included at each
// latency; it overlaps client/server framing work (visible at 0 latency)
// but cannot beat the injected latency, because the server charges it per
// frame IN SERIES — a single half-duplex tester session, not a window of
// independent links. Batching, not pipelining, is how you defeat a slow
// session.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "locking/locking.h"
#include "serve/oracle_server.h"
#include "serve/remote_oracle.h"
#include "serve/transport.h"
#include "serve/wire.h"
#include "util/bitvec.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/table.h"

using namespace orap;

namespace {

LockedCircuit serve_target(std::size_t gates) {
  GenSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 16;
  spec.num_gates = gates;
  spec.depth = 8;
  spec.seed = 9;
  return lock_weighted(generate_circuit(spec), 16, 3, 10);
}

struct Pipes {
  std::unique_ptr<serve::FdTransport> client;
  std::unique_ptr<serve::FdTransport> server;
};

Pipes make_pipes() {
  int c2s[2], s2c[2];
  ORAP_CHECK(::pipe(c2s) == 0 && ::pipe(s2c) == 0);
  Pipes p;
  p.client = std::make_unique<serve::FdTransport>(s2c[0], c2s[1]);
  p.server = std::make_unique<serve::FdTransport>(c2s[0], s2c[1]);
  return p;
}

/// Sends `total` queries in frames of `batch`; with `pipelined` all
/// frames go out before any reply is read (the transports are ordered
/// streams, so replies come back in frame order). Returns wall seconds.
double drive(serve::Transport& t, const std::vector<BitVec>& inputs,
             std::size_t batch, bool pipelined, std::size_t num_outputs) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<BitVec>> frames;
  for (std::size_t off = 0; off < inputs.size(); off += batch) {
    const std::size_t n = std::min(batch, inputs.size() - off);
    frames.emplace_back(inputs.begin() + off, inputs.begin() + off + n);
  }
  std::size_t answered = 0;
  const auto read_reply = [&](std::size_t expect) {
    serve::Frame f;
    ORAP_CHECK(serve::read_frame(t, &f));
    ORAP_CHECK(f.type == serve::FrameType::kBatchReply);
    std::vector<OracleResult> rs;
    ORAP_CHECK(serve::decode_batch_reply(f.body, num_outputs, &rs));
    ORAP_CHECK(rs.size() == expect);
    for (const OracleResult& r : rs) answered += r.ok() ? 1 : 0;
  };
  if (pipelined) {
    for (const auto& fr : frames)
      ORAP_CHECK(serve::write_frame(t, serve::FrameType::kQueryBatch,
                                    serve::encode_query_batch(fr, false)));
    for (const auto& fr : frames) read_reply(fr.size());
  } else {
    for (const auto& fr : frames) {
      ORAP_CHECK(serve::write_frame(t, serve::FrameType::kQueryBatch,
                                    serve::encode_query_batch(fr, false)));
      read_reply(fr.size());
    }
  }
  ORAP_CHECK(answered == inputs.size());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One end-to-end SAT attack against a served oracle: fresh pipe pair,
/// server thread charging `lat_us` per FRAME, RemoteOracle client.
struct AttackRun {
  SatAttackResult result;
  double wall_ms = 0.0;
};

AttackRun run_served_attack(const LockedCircuit& lc, std::uint64_t lat_us,
                            std::size_t votes, bool batch,
                            std::size_t dip_batch) {
  GoldenOracle oracle(lc);
  serve::OracleServerOptions sopts;
  sopts.latency_us = lat_us;
  serve::OracleServer server(oracle, sopts);
  Pipes pipes = make_pipes();
  std::thread st([&] { server.serve(*pipes.server); });

  std::string err;
  auto remote = serve::RemoteOracle::connect(std::move(pipes.client), &err);
  ORAP_CHECK_MSG(remote != nullptr, "remote oracle handshake failed");
  SatAttackOptions opts;
  opts.resilience.votes = votes;
  opts.oracle_batch = batch;
  opts.dip_batch = dip_batch;
  AttackRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.result = sat_attack(lc, *remote, opts);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  ORAP_CHECK(remote->shutdown());
  st.join();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.banner("Oracle serving: batching/pipelining vs link latency");
  bench::JsonReport report("oracle_serve", args);

  const LockedCircuit lc = serve_target(args.full ? 1200 : 400);
  const std::size_t total = args.full ? 8192 : 2048;
  Rng rng(11);
  std::vector<BitVec> inputs;
  inputs.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    inputs.push_back(BitVec::random(lc.num_data_inputs, rng));

  const std::uint64_t latencies_us[] = {0, 1000};
  const std::size_t batches[] = {1, 16, 256, 2048};

  Table t({"Latency", "Mode", "Batch", "Wall ms", "Queries/s", "Speedup"});
  for (const std::uint64_t lat : latencies_us) {
    double unbatched_qps = 0.0;
    for (const bool pipelined : {false, true}) {
      for (const std::size_t batch : batches) {
        if (pipelined && batch != 1) continue;  // one pipelined row per
                                                // latency: depth = total
        // Fresh connection per cell so a slow cell cannot leave stale
        // frames behind for the next one.
        GoldenOracle oracle(lc);
        serve::OracleServerOptions sopts;
        sopts.latency_us = lat;
        serve::OracleServer server(oracle, sopts);
        Pipes pipes = make_pipes();
        std::thread st([&] { server.serve(*pipes.server); });
        const double secs = drive(*pipes.client, inputs, batch, pipelined,
                                  lc.netlist.num_outputs());
        ORAP_CHECK(serve::write_frame(*pipes.client,
                                      serve::FrameType::kShutdown, {}));
        serve::Frame ack;
        ORAP_CHECK(serve::read_frame(*pipes.client, &ack));
        st.join();

        const double qps = static_cast<double>(total) / secs;
        if (!pipelined && batch == 1) unbatched_qps = qps;
        const double speedup = unbatched_qps > 0.0 ? qps / unbatched_qps : 1.0;
        char lat_buf[16], qps_buf[32], sp_buf[16];
        std::snprintf(lat_buf, sizeof lat_buf, "%llu us",
                      static_cast<unsigned long long>(lat));
        std::snprintf(qps_buf, sizeof qps_buf, "%.0f", qps);
        std::snprintf(sp_buf, sizeof sp_buf, "%.1fx", speedup);
        t.add_row({lat_buf, pipelined ? "pipelined" : "sync",
                   std::to_string(batch),
                   std::to_string(static_cast<std::size_t>(secs * 1e3)),
                   qps_buf, sp_buf});

        const std::string tag =
            "lat" + std::to_string(lat) + (pipelined ? "_pipe" : "_b") +
            (pipelined ? std::to_string(total) : std::to_string(batch));
        report.add(tag + "_wall_ms", secs * 1e3, 1);
        report.add(tag + "_qps", qps, 1);
        report.add(tag + "_speedup", speedup, 2);
      }
    }
  }
  t.print(std::cout);

  // == Attack-level end-to-end sweep ==
  // The frame table above prices raw protocol traffic; this sweep prices
  // what the ATTACK pays: the full SAT-attack DIP loop against a served
  // oracle, serial vs batched (--oracle-batch, --dip-batch), across
  // injected link latency x majority votes. XOR locking (not weighted) so
  // the DIP loop runs long enough for round trips to matter.
  GenSpec aspec;
  aspec.num_inputs = 20;
  aspec.num_outputs = 16;
  aspec.num_gates = args.full ? 800 : 300;
  aspec.depth = 8;
  aspec.seed = 21;
  const LockedCircuit alc =
      lock_random_xor(generate_circuit(aspec), args.full ? 24 : 18, 22);
  GoldenOracle golden_check(alc);

  std::printf("\nAttack-level sweep: SAT attack over the served oracle "
              "(%zu key bits)\n", alc.num_key_inputs);
  Table at({"Latency", "Votes", "DipBatch", "Serial RT", "Batch RT",
            "RT ratio", "Serial ms", "Batch ms", "Speedup"});
  const std::size_t votes_grid[] = {1, 3};
  const std::size_t dip_grid[] = {1, 8};
  for (const std::uint64_t lat : latencies_us) {
    for (const std::size_t votes : votes_grid) {
      const AttackRun serial =
          run_served_attack(alc, lat, votes, /*batch=*/false, 1);
      ORAP_CHECK_MSG(verify_key_against_oracle(alc, serial.result.key,
                                               golden_check, 256, 3) == 0,
                     "serial attack recovered a wrong key");
      for (const std::size_t dip : dip_grid) {
        const AttackRun batched =
            run_served_attack(alc, lat, votes, /*batch=*/true, dip);
        // Identical status at every grid point; identical key too. At
        // dip_batch == 1 the whole trajectory is byte-identical to serial
        // (clean oracle, element-order decorator contract), so iteration
        // and query counts must also match; dip_batch > 1 is a different
        // (equally valid) trajectory, and the key must still verify clean.
        ORAP_CHECK(batched.result.status == serial.result.status);
        ORAP_CHECK_MSG(verify_key_against_oracle(alc, batched.result.key,
                                                 golden_check, 256, 3) == 0,
                       "batched attack recovered a wrong key");
        if (dip == 1) {
          ORAP_CHECK(batched.result.key == serial.result.key);
          ORAP_CHECK(batched.result.iterations == serial.result.iterations);
          ORAP_CHECK(batched.result.oracle_queries ==
                     serial.result.oracle_queries);
        }
        const double ratio =
            batched.result.oracle_round_trips > 0
                ? static_cast<double>(serial.result.oracle_round_trips) /
                      static_cast<double>(batched.result.oracle_round_trips)
                : 0.0;
        // The acceptance bar: with votes=3 and dip-batch=8 every flush
        // carries up to 24 oracle queries where the serial loop pays 24
        // round trips, so >= 5x fewer round trips; at a real (1 ms) link
        // that shows up as wall time the serial attack pays and the
        // batched one does not. (dip-batch alone still wins, but the
        // attack may harvest more DIPs than the serial loop needed, so
        // only strict improvement is guaranteed there.)
        if (dip == 8)
          ORAP_CHECK_MSG(serial.result.oracle_round_trips >
                             batched.result.oracle_round_trips,
                         "dip-batch=8 did not reduce round trips");
        if (dip == 8 && votes == 3)
          ORAP_CHECK_MSG(serial.result.oracle_round_trips >=
                             5 * batched.result.oracle_round_trips,
                         "dip-batch=8 x votes=3 saved fewer than 5x round "
                         "trips");
        if (dip == 8 && votes == 3 && lat >= 1000)
          ORAP_CHECK_MSG(batched.wall_ms < serial.wall_ms,
                         "batched attack not faster on a 1 ms link");
        char lat_buf[16], ratio_buf[16], sp_buf[16], sms[24], bms[24];
        std::snprintf(lat_buf, sizeof lat_buf, "%llu us",
                      static_cast<unsigned long long>(lat));
        std::snprintf(ratio_buf, sizeof ratio_buf, "%.1fx", ratio);
        std::snprintf(sp_buf, sizeof sp_buf, "%.2fx",
                      batched.wall_ms > 0.0 ? serial.wall_ms / batched.wall_ms
                                            : 0.0);
        std::snprintf(sms, sizeof sms, "%.1f", serial.wall_ms);
        std::snprintf(bms, sizeof bms, "%.1f", batched.wall_ms);
        at.add_row({lat_buf, std::to_string(votes), std::to_string(dip),
                    std::to_string(serial.result.oracle_round_trips),
                    std::to_string(batched.result.oracle_round_trips),
                    ratio_buf, sms, bms, sp_buf});

        const std::string tag = "atk_lat" + std::to_string(lat) + "_v" +
                                std::to_string(votes) + "_d" +
                                std::to_string(dip);
        report.add_string(tag + "_status", to_string(batched.result.status));
        report.add(tag + "_serial_rt", serial.result.oracle_round_trips);
        report.add(tag + "_batch_rt", batched.result.oracle_round_trips);
        report.add(tag + "_serial_queries", serial.result.oracle_queries);
        report.add(tag + "_batch_queries", batched.result.oracle_queries);
        report.add(tag + "_serial_wall_ms", serial.wall_ms, 1);
        report.add(tag + "_batch_wall_ms", batched.wall_ms, 1);
      }
    }
  }
  at.print(std::cout);
  report.finish();
  std::printf(
      "\nReading: every row moves the same %zu queries through the same "
      "server; only the\nframing changes. At 0 injected latency the "
      "protocol itself is the cost — batching\namortizes the per-frame "
      "syscalls. At 1 ms the sync batch-1 row pays one round trip\nPER "
      "QUERY and collapses to ~1000 queries/s; batch-256 pays it once per "
      "256 queries.\nThe acceptance bar (batched >= 5x unbatched at >= 1 "
      "ms) falls out of arithmetic:\nspeedup ~= batch size until "
      "simulation time, not the link, is the bottleneck.\n",
      total);
  return 0;
}
