#pragma once

/// \file sync.hpp
/// Annotated concurrency primitives for the whole tree (see
/// docs/ARCHITECTURE.md §10 "Concurrency discipline").
///
/// Every mutex in src/ is a qmpi::Mutex and every acquisition goes through
/// qmpi::LockGuard / qmpi::UniqueLock, which buys two checkers at once:
///
///  1. **Compile time** — the wrappers carry Clang Thread Safety Analysis
///     capability attributes (Hutchins et al., "C/C++ Thread Safety
///     Analysis"), so `QMPI_GUARDED_BY(mu_)` fields, `QMPI_REQUIRES(mu_)`
///     *_locked() helpers, and `QMPI_ACQUIRED_BEFORE`/`QMPI_EXCLUDES`
///     ordering contracts are machine-checked under clang's
///     `-Wthread-safety -Werror` (a gating CI job). GCC and other
///     compilers see plain std::mutex semantics — the macros expand to
///     nothing.
///
///  2. **Run time** — each lock operation reports to the lock-order
///     validator (core/lock_order.hpp), which detects A→B/B→A inversion
///     cycles across threads the moment the second order first appears and
///     throws a typed LockOrderError naming both sites. Debug builds
///     default on; `QMPI_LOCK_CHECK=on` arms release builds.
///
/// Raw `std::mutex` / `std::lock_guard` / `std::condition_variable` are
/// banned in src/ outside this file and lock_order.cpp — enforced by
/// `scripts/lint/run_lints.py` (rule: naked-sync).

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/lock_order.hpp"

// ------------------------------------------------------ TSA attributes ---
// Thread Safety Analysis macro layer, following the clang documentation's
// canonical spellings. Expands to nothing under non-clang compilers.
#if defined(__clang__)
#define QMPI_TSA(x) __attribute__((x))
#else
#define QMPI_TSA(x)  // no-op outside clang
#endif

#define QMPI_CAPABILITY(x) QMPI_TSA(capability(x))
#define QMPI_SCOPED_CAPABILITY QMPI_TSA(scoped_lockable)
#define QMPI_GUARDED_BY(x) QMPI_TSA(guarded_by(x))
#define QMPI_PT_GUARDED_BY(x) QMPI_TSA(pt_guarded_by(x))
#define QMPI_ACQUIRED_BEFORE(...) QMPI_TSA(acquired_before(__VA_ARGS__))
#define QMPI_ACQUIRED_AFTER(...) QMPI_TSA(acquired_after(__VA_ARGS__))
#define QMPI_REQUIRES(...) QMPI_TSA(requires_capability(__VA_ARGS__))
#define QMPI_ACQUIRE(...) QMPI_TSA(acquire_capability(__VA_ARGS__))
#define QMPI_RELEASE(...) QMPI_TSA(release_capability(__VA_ARGS__))
#define QMPI_TRY_ACQUIRE(...) QMPI_TSA(try_acquire_capability(__VA_ARGS__))
#define QMPI_EXCLUDES(...) QMPI_TSA(locks_excluded(__VA_ARGS__))
#define QMPI_RETURN_CAPABILITY(x) QMPI_TSA(lock_returned(x))
#define QMPI_NO_THREAD_SAFETY_ANALYSIS QMPI_TSA(no_thread_safety_analysis)

namespace qmpi {

/// Annotated std::mutex. The constructor names the declaration *site*
/// ("Class::member" by convention) under which the lock-order validator
/// classes every instance — per-session / per-connection instances of one
/// declaration share a site, so their ordering discipline is checked as
/// one class (the lockdep model).
class QMPI_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* site) : site_(lockorder::register_site(site)) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QMPI_ACQUIRE() {
    lockorder::pre_acquire(site_);  // throws on inversion, BEFORE blocking
    mu_.lock();
    lockorder::post_acquire(site_);
  }

  bool try_lock() QMPI_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockorder::on_try_acquired(site_);
    return true;
  }

  void unlock() QMPI_RELEASE() {
    mu_.unlock();
    lockorder::on_release(site_);
  }

  /// The wrapped mutex, for CondVar's std::unique_lock plumbing only.
  std::mutex& native() { return mu_; }

  lockorder::SiteId site() const { return site_; }

 private:
  std::mutex mu_;
  lockorder::SiteId site_;
};

/// Scoped lock for the plain hold-for-the-block pattern.
class QMPI_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) QMPI_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() QMPI_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Relockable scoped lock for condition-variable waits and the
/// unlock-work-relock pattern. Mirrors the clang documentation's
/// relockable MutexLocker: lock()/unlock() carry ACQUIRE/RELEASE so the
/// analysis tracks the capability through manual toggles.
class QMPI_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) QMPI_ACQUIRE(mu)
      : mu_(mu), ul_(mu.native(), std::defer_lock) {
    lock_impl();
  }

  ~UniqueLock() QMPI_RELEASE() {
    if (ul_.owns_lock()) unlock_impl();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() QMPI_ACQUIRE() { lock_impl(); }
  void unlock() QMPI_RELEASE() { unlock_impl(); }

  bool owns_lock() const { return ul_.owns_lock(); }

  /// The wrapped lock, for CondVar only.
  std::unique_lock<std::mutex>& native() { return ul_; }

  lockorder::SiteId site() const { return mu_.site(); }

 private:
  void lock_impl() {
    lockorder::pre_acquire(mu_.site());
    ul_.lock();
    lockorder::post_acquire(mu_.site());
  }

  void unlock_impl() {
    ul_.unlock();
    lockorder::on_release(mu_.site());
  }

  Mutex& mu_;
  std::unique_lock<std::mutex> ul_;
};

/// Annotated condition variable. Only the manual-loop form is offered:
///
///   while (!predicate_over_guarded_fields()) cv.wait(lock);
///
/// A predicate-lambda overload would defeat the static analysis — clang
/// checks lambda bodies as separate functions, so guarded reads inside a
/// wait predicate cannot see the caller's held capability.
class CondVar {
 public:
  /// Atomically releases `lock` and re-acquires it before returning. The
  /// capability is held on entry and on exit, so the caller's lock set is
  /// unchanged — no annotation needed (or expressible).
  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }
  /// As wait(), but returns at `deadline` at the latest.
  void wait_until(UniqueLock& lock,
                  std::chrono::steady_clock::time_point deadline) {
    cv_.wait_until(lock.native(), deadline);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace qmpi
