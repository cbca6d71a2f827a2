#include "core/sim_dist.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "classical/error.hpp"
#include "classical/wire.hpp"
#include "sim/circuit_cache.hpp"

namespace qmpi {

namespace {

using classical::ChannelKind;
using classical::Message;

/// Sub-kinds of sim-plane control/exec messages, carried in Message::tag.
constexpr int kSimTagOps = 0;    ///< one-way kBatch body, fan out to all
constexpr int kSimTagCall = 1;   ///< reply op body, fan out to all
constexpr int kSimTagFence = 2;  ///< sequencing marker, echo to origin
constexpr int kSimTagError = 3;  ///< root-hosted reply carrying an error

/// Sub-kinds of kSimData payloads (first byte).
constexpr std::uint8_t kDataSlab = 0;      ///< relabel-swap slab
constexpr std::uint8_t kDataPublish = 1;   ///< replica materialization slice
constexpr std::uint8_t kDataPartials = 2;  ///< a rank's reduction partials

/// Amplitudes per kSimData frame: 2^21 * 16 B = 32 MiB of payload, half the
/// transport's 64 MiB frame limit. Larger slabs travel as multiple
/// offset-stamped chunks and reassemble at the receiver, so the data plane
/// has no ceiling on state size that the classical plane doesn't share.
constexpr std::uint64_t kSlabChunkAmps = std::uint64_t{1} << 21;

void write_amplitudes(classical::WireWriter& w,
                      std::span<const sim::Complex> amps) {
  w.u64(amps.size());
  w.bytes(std::as_bytes(amps));
}

std::vector<sim::Complex> read_amplitudes(classical::WireReader& r) {
  const std::uint64_t count = r.u64();
  // Guard the multiplication before r.bytes() can bounds-check it: a
  // corrupt count must throw, never wrap into a tiny read.
  if (count > r.remaining() / sizeof(sim::Complex)) {
    throw QmpiError("malformed amplitude slab: count " +
                    std::to_string(count) + " exceeds the frame body");
  }
  const auto raw = r.bytes(static_cast<std::size_t>(count) *
                           sizeof(sim::Complex));
  std::vector<sim::Complex> amps(static_cast<std::size_t>(count));
  if (!amps.empty()) std::memcpy(amps.data(), raw.data(), raw.size());
  return amps;
}

}  // namespace

// ------------------------------------------------------- PeerExchange ---

PeerExchange::PeerExchange(classical::SocketTransport& transport,
                           int num_ranks, int nprocs, int proc_id,
                           unsigned num_shards)
    : transport_(&transport),
      num_ranks_(num_ranks),
      nprocs_(nprocs),
      proc_id_(proc_id),
      mesh_(num_shards) {}

void PeerExchange::post(unsigned dest, unsigned active,
                        sim::ShardMessage msg) {
  const int owner = static_cast<int>(
      sim::slice_owner(static_cast<unsigned>(nprocs_), active, dest));
  if (owner == proc_id_) {
    mesh_.post(dest, active, std::move(msg));
    return;
  }
  const std::span<const sim::Complex> amps(msg.amplitudes);
  const std::uint64_t total = amps.size();
  std::uint64_t off = 0;
  do {  // an empty slab still sends one (complete) frame
    const std::uint64_t n = std::min(kSlabChunkAmps, total - off);
    classical::WireWriter w;
    w.u8(kDataSlab);
    w.u32(dest);
    w.u32(msg.source);
    w.u64(msg.tag);
    w.u64(total);
    w.u64(off);
    write_amplitudes(w, amps.subspan(off, n));
    Message m;
    m.channel = ChannelKind::kSimData;
    m.source = first_rank(proc_id_);
    m.tag = 0;
    m.payload = w.take();
    transport_->post_sim(first_rank(owner), std::move(m));
    off += n;
  } while (off < total);
}

sim::ShardMessage PeerExchange::take(unsigned dest, unsigned source,
                                     std::uint64_t tag) {
  return mesh_.take(dest, source, tag);
}

void PeerExchange::publish(unsigned slice, std::uint64_t tag,
                           std::span<const sim::Complex> amps) {
  const std::uint64_t total = amps.size();
  std::uint64_t off = 0;
  do {
    const std::uint64_t n = std::min(kSlabChunkAmps, total - off);
    classical::WireWriter w;
    w.u8(kDataPublish);
    w.u32(slice);
    w.u64(tag);
    w.u64(total);
    w.u64(off);
    write_amplitudes(w, amps.subspan(off, n));
    Message m;
    m.channel = ChannelKind::kSimData;
    m.source = first_rank(proc_id_);
    m.tag = 0;
    m.payload = w.take();
    for (int p = 0; p < nprocs_; ++p) {
      if (p == proc_id_) continue;
      transport_->post_sim(first_rank(p), m);
    }
    off += n;
  } while (off < total);
}

std::vector<sim::Complex> PeerExchange::take_published(unsigned slice,
                                                       std::uint64_t tag) {
  // Published slices reuse the slab inboxes keyed (dest=slice, source=slice):
  // pairwise traffic for the same slice always has source != dest, so the
  // streams cannot cross.
  return mesh_.take(slice, slice, tag).amplitudes;
}

std::vector<std::vector<double>> PeerExchange::allgather_partials(
    std::uint64_t tag, std::vector<double> mine) {
  std::vector<std::vector<double>> all(static_cast<std::size_t>(nprocs_));
  if (nprocs_ > 1) {
    classical::WireWriter w;
    w.u8(kDataPartials);
    w.u64(tag);
    w.u32(static_cast<std::uint32_t>(proc_id_));
    w.u64(mine.size());
    for (const double v : mine) w.f64(v);
    Message m;
    m.channel = ChannelKind::kSimData;
    m.source = first_rank(proc_id_);
    m.tag = 0;
    m.payload = w.take();
    for (int p = 0; p < nprocs_; ++p) {
      if (p != proc_id_) transport_->post_sim(first_rank(p), m);
    }
    qmpi::UniqueLock lk(partials_mu_);
    for (int p = 0; p < nprocs_; ++p) {
      if (p == proc_id_) continue;
      const std::pair key{tag, static_cast<unsigned>(p)};
      while (!partials_.contains(key) && partials_fail_.empty()) {
        partials_cv_.wait(lk);
      }
      const auto it = partials_.find(key);
      if (it == partials_.end()) {
        throw sim::SimulatorError("shard exchange failed: " + partials_fail_);
      }
      all[static_cast<std::size_t>(p)] = std::move(it->second);
      partials_.erase(it);
    }
  }
  all[static_cast<std::size_t>(proc_id_)] = std::move(mine);
  return all;
}

void PeerExchange::fail(const std::string& reason) {
  mesh_.fail(reason);
  {
    const qmpi::LockGuard lk(partials_mu_);
    if (partials_fail_.empty()) partials_fail_ = reason;
  }
  partials_cv_.notify_all();
}

void PeerExchange::deliver_slab(std::uint8_t kind, unsigned dest,
                                unsigned source, std::uint64_t tag,
                                classical::WireReader& r) {
  const std::uint64_t total = r.u64();
  const std::uint64_t off = r.u64();
  std::vector<sim::Complex> chunk = read_amplitudes(r);
  if (off > total || chunk.size() > total - off) {
    throw QmpiError("malformed amplitude slab chunk: offset " +
                    std::to_string(off) + " + " +
                    std::to_string(chunk.size()) + " exceeds total " +
                    std::to_string(total));
  }
  if (dest >= mesh_.shards()) {
    throw QmpiError("amplitude slab addressed to slice " +
                    std::to_string(dest) + " of " +
                    std::to_string(mesh_.shards()));
  }
  sim::ShardMessage sm;
  sm.source = source;
  sm.tag = tag;
  if (off == 0 && chunk.size() == total) {
    // Whole slab in one frame: skip the reassembly map entirely.
    sm.amplitudes = std::move(chunk);
    mesh_.post(dest, 0, std::move(sm));
    return;
  }
  {
    const qmpi::LockGuard lk(partial_mu_);
    PartialSlab& p = partial_[SlabKey{kind, dest, source, tag}];
    if (p.amplitudes.size() != total) {
      p.amplitudes.assign(static_cast<std::size_t>(total), sim::Complex{});
      p.received = 0;
    }
    std::copy(chunk.begin(), chunk.end(),
              p.amplitudes.begin() + static_cast<std::ptrdiff_t>(off));
    p.received += chunk.size();
    if (p.received < total) return;
    sm.amplitudes = std::move(p.amplitudes);
    partial_.erase(SlabKey{kind, dest, source, tag});
  }
  mesh_.post(dest, 0, std::move(sm));
}

void PeerExchange::deliver(Message msg) {
  classical::WireReader r(msg.payload);
  switch (const std::uint8_t kind = r.u8(); kind) {
    case kDataSlab: {
      const unsigned dest = r.u32();
      const unsigned source = r.u32();
      const std::uint64_t tag = r.u64();
      deliver_slab(kind, dest, source, tag, r);
      return;
    }
    case kDataPublish: {
      // Published slices reuse the slab inboxes keyed (dest=slice,
      // source=slice): pairwise traffic for the same slice always has
      // source != dest, so the streams cannot cross.
      const unsigned slice = r.u32();
      const std::uint64_t tag = r.u64();
      deliver_slab(kind, slice, slice, tag, r);
      return;
    }
    case kDataPartials: {
      const std::uint64_t tag = r.u64();
      const unsigned source = r.u32();
      const std::uint64_t count = r.u64();
      if (count > r.remaining() / sizeof(double)) {
        throw QmpiError("malformed reduction partials: count " +
                        std::to_string(count) + " exceeds the frame body");
      }
      std::vector<double> partials(static_cast<std::size_t>(count));
      for (double& v : partials) v = r.f64();
      {
        const qmpi::LockGuard lk(partials_mu_);
        partials_[{tag, source}] = std::move(partials);
      }
      partials_cv_.notify_all();
      return;
    }
    default:
      return;  // unknown sub-kind from a newer peer: drop, never crash
  }
}

// ------------------------------------------------------- DistSimClient ---

DistSimClient::DistSimClient(classical::SocketTransport& transport,
                             int num_ranks, int nprocs, int proc_id,
                             sim::BackendKind kind, unsigned num_shards,
                             std::uint64_t seed, unsigned sim_threads,
                             std::size_t max_batch_ops,
                             std::size_t circuit_cache)
    : BatchingSimClient(max_batch_ops),
      transport_(&transport),
      num_ranks_(num_ranks),
      nprocs_(nprocs),
      proc_id_(proc_id),
      my_first_rank_(classical::rank_block(num_ranks, nprocs, proc_id).first),
      hosted_(kind != sim::BackendKind::kDistributed) {
  if (nprocs > num_ranks) {
    throw QmpiError(
        "QMPI_BACKEND=distributed needs every process to host at least one "
        "rank, but " +
        std::to_string(nprocs) + " processes share " +
        std::to_string(num_ranks) + " ranks (launch with -n <= num_ranks)");
  }
  if (!hosted_) {
    provider_ = std::make_unique<PeerExchange>(transport, num_ranks, nprocs,
                                               proc_id, num_shards);
    backend_ = std::make_unique<sim::ShardedStateVector>(num_shards, seed,
                                                         provider_.get());
  } else if (proc_id == 0) {
    backend_ = sim::make_backend(kind, seed, num_shards);
    if (circuit_cache > 0) {
      backend_->set_cluster_cache(
          std::make_shared<sim::ClusterCache>(circuit_cache));
    }
  }
  if (backend_) backend_->set_num_threads(sim_threads);
  if (!hosted_) executor_ = std::thread([this] { exec_loop(); });
  transport_->set_sim_hooks(
      {[this](Message m) { on_sim_message(std::move(m)); },
       [this] { fence(); },
       [this](const std::string& reason) { fail_run(reason); }});
}

DistSimClient::~DistSimClient() {
  // Unhook first: this returns only after every delivery already inside
  // a hook has left it, so nothing below races a receiver thread. The
  // transport outlives this object (the job harness's Placement order).
  transport_->set_sim_hooks({});
  if (!executor_.joinable()) return;
  {
    const qmpi::LockGuard lk(exec_mu_);
    stop_ = true;
  }
  exec_cv_.notify_all();
  // Abandon, don't drain: anything still queued after the end-of-run
  // barrier is a tail of slice-local work no rank can observe anymore. The
  // provider fail also wakes an executor blocked in a take mid-op.
  provider_->fail("run ended");
  executor_.join();
}

std::uint64_t DistSimClient::post_ctl(int tag, std::uint64_t req,
                                      std::span<const std::byte> body) {
  Message m;
  m.channel = ChannelKind::kSimCtl;
  m.source = my_first_rank_;
  m.tag = tag;
  m.context = req;
  m.payload.assign(body.begin(), body.end());
  const qmpi::LockGuard lk(ctl_mu_);
  const std::uint64_t gen = ++ctl_gen_;
  // Root addressing: world rank 0 is always the root process's first rank.
  transport_->post_sim(0, std::move(m));
  return gen;
}

std::vector<std::byte> DistSimClient::round_trip(
    int tag, std::span<const std::byte> body) {
  const std::uint64_t req = next_req_.fetch_add(1);
  {
    const qmpi::LockGuard lk(pending_mu_);
    if (!failed_.empty()) throw classical::ShutdownError();
    pending_.emplace(req, Pending{});
  }
  return wait_request(req, post_ctl(tag, req, body));
}

std::vector<std::byte> DistSimClient::ship_call(
    std::span<const std::byte> request) {
  return round_trip(kSimTagCall, request);
}

void DistSimClient::ship_batch(std::span<const std::byte> body,
                               std::uint32_t /*count*/) {
  post_ctl(kSimTagOps, 0, body);
}

void DistSimClient::fence() {
  flush();
  std::uint64_t target;
  {
    const qmpi::LockGuard lk(ctl_mu_);
    target = ctl_gen_;
  }
  // Everything submitted so far already proven sequenced (by an earlier
  // call or fence): the transport's per-send hook lands here for free.
  if (sequenced_gen_.load() >= target) return;
  round_trip(kSimTagFence, {});
}

void DistSimClient::on_sim_message(Message msg) {
  switch (msg.channel) {
    case ChannelKind::kSimData:
      if (provider_) provider_->deliver(std::move(msg));
      return;
    case ChannelKind::kSimCtl:
      sequence(std::move(msg));
      return;
    case ChannelKind::kSimExec:
      if (!hosted_) {
        enqueue_exec(std::move(msg));
      } else if (msg.tag == kSimTagError) {  // the root's reply
        fulfill(msg.context, {},
                std::string(reinterpret_cast<const char*>(msg.payload.data()),
                            msg.payload.size()));
      } else {
        fulfill(msg.context, std::move(msg.payload), {});
      }
      return;
    default:
      return;  // classical channels never reach the sim sink
  }
}

void DistSimClient::sequence(Message msg) {
  if (proc_id_ != 0) return;  // ctl frames are addressed to the root only
  if (hosted_) {
    std::vector<std::byte> result;
    std::string error;
    {
      const qmpi::LockGuard lk(seq_mu_);
      if (!execute(msg, result, error)) return;
    }
    if (msg.source == my_first_rank_) {
      fulfill(msg.context, std::move(result), std::move(error));
      return;
    }
    Message reply;
    reply.channel = ChannelKind::kSimExec;
    reply.source = my_first_rank_;
    reply.context = msg.context;
    if (error.empty()) {
      reply.tag = kSimTagCall;
      reply.payload = std::move(result);
    } else {
      reply.tag = kSimTagError;
      const auto text = std::as_bytes(std::span(error));
      reply.payload.assign(text.begin(), text.end());
    }
    transport_->post_sim(msg.source, std::move(reply));
    return;
  }
  const qmpi::LockGuard lk(seq_mu_);
  msg.channel = ChannelKind::kSimExec;
  if (msg.tag == kSimTagFence) {
    // The echo is sequenced after every op the origin submitted before its
    // fence (per-origin ctl FIFO), so its arrival through the origin's
    // exec stream proves those ops globally sequenced & locally executed.
    transport_->post_sim(msg.source, std::move(msg));
    return;
  }
  for (int p = 0; p < nprocs_; ++p) {
    if (p + 1 == nprocs_) {
      transport_->post_sim(first_rank(p), std::move(msg));
    } else {
      transport_->post_sim(first_rank(p), msg);
    }
  }
}

void DistSimClient::enqueue_exec(Message msg) {
  {
    const qmpi::LockGuard lk(exec_mu_);
    exec_q_.push_back(std::move(msg));
  }
  exec_cv_.notify_one();
}

void DistSimClient::exec_loop() {
  for (;;) {
    Message m;
    {
      qmpi::UniqueLock lk(exec_mu_);
      while (!stop_ && exec_q_.empty()) exec_cv_.wait(lk);
      if (stop_) return;
      m = std::move(exec_q_.front());
      exec_q_.pop_front();
    }
    std::vector<std::byte> result;
    std::string error;
    // Every replica executes every op — one more RNG draw, one more
    // collapse, in lockstep — but only the origin fulfills its waiter.
    if (execute(m, result, error) && m.source == my_first_rank_) {
      fulfill(m.context, std::move(result), std::move(error));
    }
  }
}

bool DistSimClient::execute(const Message& m, std::vector<std::byte>& result,
                            std::string& error) {
  // A stream that broke stays broken: every replica holds the same latch,
  // so every replica skips the same ops.
  std::string& broken = broken_[m.source];
  switch (m.tag) {
    case kSimTagOps:
      if (!broken.empty()) return false;
      try {
        apply_sim_request(*backend_, m.payload);
      } catch (const std::exception& e) {
        broken = e.what();
      }
      return false;
    case kSimTagCall:
      if (!broken.empty()) {
        error = broken;
        return true;
      }
      try {
        result = apply_sim_request(*backend_, m.payload);
      } catch (const std::exception& e) {
        error = e.what();
      }
      return true;
    case kSimTagFence:
      error = broken;
      return true;
    default:
      return false;
  }
}

void DistSimClient::fulfill(std::uint64_t req_id,
                            std::vector<std::byte> result,
                            std::string error) {
  {
    const qmpi::LockGuard lk(pending_mu_);
    const auto it = pending_.find(req_id);
    if (it == pending_.end()) return;  // waiter already torn down
    if (it->second.done) return;       // fail_run won the race
    it->second.done = true;
    it->second.result = std::move(result);
    it->second.error = std::move(error);
  }
  pending_cv_.notify_all();
}

std::vector<std::byte> DistSimClient::wait_request(std::uint64_t req_id,
                                                   std::uint64_t gen) {
  Pending p;
  {
    qmpi::UniqueLock lk(pending_mu_);
    for (;;) {
      const auto it = pending_.find(req_id);
      if (it != pending_.end() && it->second.done) break;
      pending_cv_.wait(lk);
    }
    p = std::move(pending_[req_id]);
    pending_.erase(req_id);
  }
  // A completed request — result or backend error — proves every ctl
  // message this process stamped with generation <= gen is sequenced.
  std::uint64_t cur = sequenced_gen_.load();
  while (cur < gen && !sequenced_gen_.compare_exchange_weak(cur, gen)) {
  }
  if (p.shutdown) throw classical::ShutdownError();
  if (!p.error.empty()) throw sim::SimulatorError(p.error);
  return std::move(p.result);
}

void DistSimClient::fail_run(const std::string& reason) {
  {
    const qmpi::LockGuard lk(pending_mu_);
    if (failed_.empty()) failed_ = reason;
    for (auto& [id, p] : pending_) {
      if (p.done) continue;
      p.done = true;
      p.shutdown = true;
      p.error = failed_;
    }
  }
  pending_cv_.notify_all();
  // Wake the executor out of any blocked take; it keeps draining (throws
  // surface as recorded errors), and the destructor stops it for good.
  if (provider_) provider_->fail(reason);
}

}  // namespace qmpi
