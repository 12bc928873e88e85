#ifndef ZBBENCH_HEAP_H_
#define ZBBENCH_HEAP_H_

// Heap accounting of the benchmark process. heap.cc replaces malloc,
// calloc, realloc, free and the aligned allocators process-wide (C++
// operator new goes through malloc), forwarding to glibc and counting the
// usable size of every live block across all threads. A round's memory
// figure is its heap high-water mark above the live bytes it started
// with: unlike the process's peak RSS, it does not depend on how many
// rounds ran before or on how the allocator's free lists were left.

#include <cstdint>

namespace zbbench {

// Restarts the high-water mark at the current live bytes and returns them.
int64_t HeapResetPeak();

// The highest live-byte count since the last HeapResetPeak().
int64_t HeapPeakBytes();

}  // namespace zbbench

#endif  // ZBBENCH_HEAP_H_
