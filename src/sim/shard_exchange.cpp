#include "sim/shard_exchange.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/backend.hpp"

namespace qmpi::sim {

ShardMesh::ShardMesh(unsigned shards) : shards_(shards) {
  inboxes_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

ShardMesh::Inbox& ShardMesh::inbox(unsigned shard) {
  if (shard >= shards_) {
    throw std::out_of_range("shard " + std::to_string(shard) +
                            " out of range (mesh has " +
                            std::to_string(shards_) + ")");
  }
  return *inboxes_[shard];
}

void ShardMesh::post(unsigned dest, unsigned /*active*/, ShardMessage msg) {
  Inbox& box = inbox(dest);
  {
    const qmpi::LockGuard lock(box.mutex);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

ShardMessage ShardMesh::take(unsigned dest, unsigned source,
                             std::uint64_t tag) {
  Inbox& box = inbox(dest);
  qmpi::UniqueLock lock(box.mutex);
  for (;;) {
    const auto it = std::find_if(
        box.queue.begin(), box.queue.end(), [&](const ShardMessage& m) {
          return m.source == source && m.tag == tag;
        });
    if (it != box.queue.end()) {
      ShardMessage msg = std::move(*it);
      box.queue.erase(it);
      return msg;
    }
    {
      const qmpi::LockGuard fl(fail_mu_);
      if (!fail_reason_.empty()) {
        throw SimulatorError("shard exchange failed: " + fail_reason_);
      }
    }
    box.cv.wait(lock);
  }
}

void ShardMesh::publish(unsigned /*slice*/, std::uint64_t /*tag*/,
                        std::span<const Complex> /*amps*/) {
  // World 1: there is no other rank to publish to.
}

std::vector<Complex> ShardMesh::take_published(unsigned slice,
                                               std::uint64_t /*tag*/) {
  throw std::logic_error("take_published(" + std::to_string(slice) +
                         ") on the in-process mesh: every slice is already "
                         "resident at world 1");
}

std::vector<std::vector<double>> ShardMesh::allgather_partials(
    std::uint64_t /*tag*/, std::vector<double> mine) {
  std::vector<std::vector<double>> all;
  all.push_back(std::move(mine));  // a world of 1: nobody else to hear from
  return all;
}

void ShardMesh::fail(const std::string& reason) {
  {
    const qmpi::LockGuard lock(fail_mu_);
    if (!fail_reason_.empty()) return;  // first cause wins
    fail_reason_ = reason.empty() ? "unknown failure" : reason;
  }
  // Notify under each inbox mutex: a taker that checked the flag and is
  // about to wait must not miss the wakeup.
  for (auto& box : inboxes_) {
    const qmpi::LockGuard lock(box->mutex);
    box->cv.notify_all();
  }
}

}  // namespace qmpi::sim
