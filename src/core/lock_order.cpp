#include "core/lock_order.hpp"

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/env.hpp"

namespace qmpi::lockorder {

namespace {

/// Per-thread acquisition stack. A plain POD array (no destructor) so the
/// thread_local stays valid even while static destructors — which may still
/// lock (ThreadPool teardown) — run after thread_local cleanup.
struct HeldStack {
  static constexpr std::uint32_t kMaxDepth = 64;
  SiteId sites[kMaxDepth];
  std::uint32_t depth;
};

HeldStack& held_stack() {
  thread_local HeldStack stack{};
  return stack;
}

/// Global site registry + ordering graph. Behind a leaked pointer: always
/// reachable (so LeakSanitizer stays quiet) and never destructed (so locks
/// acquired during static teardown can still consult it).
struct State {
  std::mutex mu;
  std::unordered_map<std::string, SiteId> ids;      // name -> site
  std::deque<std::string> names;                    // site -> name (stable)
  std::vector<std::vector<SiteId>> adj;             // site -> successors
  std::unordered_set<std::uint64_t> edges;          // packed (from, to)
  std::atomic<std::size_t> edge_count{0};
  std::atomic<std::uint64_t> violations{0};
};

State& state() {
  static State* s = new State;
  return *s;
}

/// -1 undecided, 0 off, 1 on. Resolved lazily from QMPI_LOCK_CHECK /
/// build type on the first lock operation.
std::atomic<int> g_enabled{-1};

bool resolve_enabled() {
#ifdef NDEBUG
  int on = 0;
#else
  int on = 1;
#endif
  env::assign(env::Var::kLockCheck, on);
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on);
  return g_enabled.load(std::memory_order_relaxed) == 1;
}

constexpr std::uint64_t pack_edge(SiteId from, SiteId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// Is `to` reachable from `from` in the current graph? Iterative DFS;
/// caller holds State::mu.
bool reaches(const State& s, SiteId from, SiteId to) {
  if (from == to) return true;
  std::vector<SiteId> work{from};
  std::vector<bool> seen(s.adj.size(), false);
  seen[from] = true;
  while (!work.empty()) {
    const SiteId cur = work.back();
    work.pop_back();
    for (const SiteId next : s.adj[cur]) {
      if (next == to) return true;
      if (!seen[next]) {
        seen[next] = true;
        work.push_back(next);
      }
    }
  }
  return false;
}

[[noreturn]] void report_violation(State& s, SiteId holding,
                                   SiteId acquiring, bool self) {
  s.violations.fetch_add(1, std::memory_order_relaxed);
  const char* h = s.names[holding].c_str();
  const char* a = s.names[acquiring].c_str();
  if (self) {
    throw LockOrderError(std::string("lock-order violation: \"") + a +
                             "\" acquired while already held by this "
                             "thread (self-deadlock)",
                         h, a);
  }
  throw LockOrderError(
      std::string("lock-order inversion: acquiring \"") + a +
          "\" while holding \"" + h + "\", but \"" + a +
          "\" has previously been held while acquiring \"" + h +
          "\" (cycle in the lock-order graph; see docs/ARCHITECTURE.md §10)",
      h, a);
}

}  // namespace

SiteId register_site(const char* name) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  const auto it = s.ids.find(name);
  if (it != s.ids.end()) return it->second;
  const SiteId id = static_cast<SiteId>(s.names.size());
  s.names.emplace_back(name);
  s.adj.emplace_back();
  s.ids.emplace(name, id);
  return id;
}

const char* site_name(SiteId site) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  return site < s.names.size() ? s.names[site].c_str() : "?";
}

void pre_acquire(SiteId site) {
  const int on = g_enabled.load(std::memory_order_relaxed);
  if (on == 0 || (on < 0 && !resolve_enabled())) return;
  HeldStack& held = held_stack();
  if (held.depth == 0) return;  // first lock: nothing to order against
  State& s = state();
  // Self-relock first: instances share a site, so this also flags
  // hand-over-hand nesting of same-declaration locks (none exists in the
  // tree; give such a pattern its own site name if one ever appears).
  for (std::uint32_t i = 0; i < held.depth; ++i) {
    if (held.sites[i] == site) {
      const std::lock_guard lock(s.mu);
      report_violation(s, site, site, /*self=*/true);
    }
  }
  const std::lock_guard lock(s.mu);
  for (std::uint32_t i = 0; i < held.depth; ++i) {
    const SiteId from = held.sites[i];
    if (!s.edges.insert(pack_edge(from, site)).second) continue;  // known
    // New edge from→site: a pre-existing path site⇝from closes a cycle.
    // Check before wiring it in so the graph stays acyclic and every later
    // repeat of this inversion is re-reported.
    if (reaches(s, site, from)) {
      s.edges.erase(pack_edge(from, site));
      report_violation(s, from, site, /*self=*/false);
    }
    s.adj[from].push_back(site);
    s.edge_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void post_acquire(SiteId site) {
  const int on = g_enabled.load(std::memory_order_relaxed);
  if (on == 0 || (on < 0 && !resolve_enabled())) return;
  HeldStack& held = held_stack();
  if (held.depth < HeldStack::kMaxDepth) held.sites[held.depth++] = site;
}

void on_try_acquired(SiteId site) {
  // A successful try_lock imposes no ordering (it cannot block), but the
  // lock is genuinely held: push it so later blocking acquires order
  // against it.
  post_acquire(site);
}

void on_release(SiteId site) {
  HeldStack& held = held_stack();
  // Scan from the top: releases are almost always LIFO, and a site pushed
  // before a disable toggle (or never pushed after an enable) just misses.
  for (std::uint32_t i = held.depth; i > 0; --i) {
    if (held.sites[i - 1] != site) continue;
    for (std::uint32_t j = i; j < held.depth; ++j) {
      held.sites[j - 1] = held.sites[j];
    }
    --held.depth;
    return;
  }
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool enabled() {
  const int on = g_enabled.load(std::memory_order_relaxed);
  if (on >= 0) return on == 1;
  return resolve_enabled();
}

std::size_t edge_count() {
  return state().edge_count.load(std::memory_order_relaxed);
}

std::uint64_t violation_count() {
  return state().violations.load(std::memory_order_relaxed);
}

void reset_for_test() {
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.edges.clear();
  for (auto& succ : s.adj) succ.clear();
  s.edge_count.store(0, std::memory_order_relaxed);
  s.violations.store(0, std::memory_order_relaxed);
  held_stack().depth = 0;
}

}  // namespace qmpi::lockorder
