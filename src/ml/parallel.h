// Deterministic fan-out helper for the SSR models.
//
// Work over [0, n) is split into fixed-size chunks whose layout depends
// only on (n, chunk_size) — never on the thread count — so callers that
// reduce per-chunk results in chunk-index order get bit-identical sums for
// every `threads` value, including the inline threads <= 1 path. This is
// the determinism contract behind CoregConfig::threads / MlpConfig::threads.
#pragma once

#include <cstddef>
#include <functional>

namespace staq::ml {

/// Runs body(chunk_index, begin, end) for every chunk of [0, n). With
/// threads <= 1 (or a single chunk) the chunks run inline in index order;
/// otherwise the calling thread and up to threads - 1 helpers on
/// util::ThreadPool::Shared() claim chunks dynamically (util::ParallelLoop).
/// `body` must only write chunk-private state; chunks may run
/// concurrently.
void ForEachChunk(int threads, size_t n, size_t chunk_size,
                  const std::function<void(size_t, size_t, size_t)>& body);

}  // namespace staq::ml
