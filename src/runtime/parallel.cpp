#include "runtime/parallel.hpp"

#include <algorithm>

#include "core/domains.hpp"

namespace triolet::runtime {

index_t auto_grain(index_t n, int nthreads) {
  // One shared heuristic for both runtime levels — see core::auto_grain_for.
  return core::auto_grain_for(n, nthreads);
}

namespace {
thread_local ThreadPool* tl_current_pool = nullptr;
}  // namespace

ThreadPool& current_pool() {
  if (tl_current_pool != nullptr) return *tl_current_pool;
  if (ThreadPool* own = ThreadPool::current()) return *own;
  return ThreadPool::global();
}

PoolScope::PoolScope(ThreadPool& pool) : prev_(tl_current_pool) {
  tl_current_pool = &pool;
}

PoolScope::~PoolScope() { tl_current_pool = prev_; }

}  // namespace triolet::runtime
