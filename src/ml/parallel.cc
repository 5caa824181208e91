#include "ml/parallel.h"

#include <algorithm>

#include "util/parallel_loop.h"
#include "util/thread_pool.h"

namespace staq::ml {

void ForEachChunk(int threads, size_t n, size_t chunk_size,
                  const std::function<void(size_t, size_t, size_t)>& body) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  const size_t workers =
      std::min(threads > 1 ? static_cast<size_t>(threads) : 1, num_chunks);
  if (workers <= 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t begin = c * chunk_size;
      body(c, begin, std::min(n, begin + chunk_size));
    }
    return;
  }
  util::LoopOptions options;
  options.max_helpers = workers - 1;
  util::ParallelLoop(util::ThreadPool::Shared(), num_chunks, options,
                     [&](bool /*helper*/) -> util::LoopTask {
                       return [&](size_t c) -> util::LoopStore {
                         const size_t begin = c * chunk_size;
                         body(c, begin, std::min(n, begin + chunk_size));
                         return {};
                       };
                     });
}

}  // namespace staq::ml
