#pragma once

#include <cstdint>

/// \file counters.hpp
/// Thread-local operation counters for the BLAS-lite kernels.
///
/// The application-level benchmarks in this reproduction do not time the
/// paper's machines directly (they no longer exist); instead the solvers run
/// for real on this host while every kernel records the floating-point
/// operations and bytes it moved.  The per-machine performance models in
/// src/machine then convert those counts into predicted seconds.
namespace blaslite {

/// Aggregate operation counts recorded by the kernels on this thread.
struct OpCounts {
    std::uint64_t flops = 0;       ///< floating point operations executed
    std::uint64_t bytes_read = 0;  ///< bytes loaded from operands
    std::uint64_t bytes_written = 0; ///< bytes stored to results
    std::uint64_t calls = 0;       ///< kernel invocations

    OpCounts& operator+=(const OpCounts& o) noexcept {
        flops += o.flops;
        bytes_read += o.bytes_read;
        bytes_written += o.bytes_written;
        calls += o.calls;
        return *this;
    }
    friend OpCounts operator+(OpCounts a, const OpCounts& b) noexcept { return a += b; }
    friend OpCounts operator-(OpCounts a, const OpCounts& b) noexcept {
        a.flops -= b.flops;
        a.bytes_read -= b.bytes_read;
        a.bytes_written -= b.bytes_written;
        a.calls -= b.calls;
        return a;
    }
    /// Total bytes touched in either direction.
    [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_read + bytes_written; }
};

/// Counters for the calling thread.  Kernels accumulate here unconditionally;
/// the cost of four thread-local additions per call is negligible next to the
/// kernels themselves.  Header-only so that code which merely aggregates
/// counters (the parallel thread pool) needs no link dependency on blaslite.
inline OpCounts& thread_counts() noexcept {
    thread_local OpCounts counts;
    return counts;
}

/// Reset this thread's counters to zero.
inline void reset_thread_counts() noexcept { thread_counts() = OpCounts{}; }

/// RAII scope that measures the counts accumulated while it is alive.
class CountScope {
public:
    CountScope() noexcept : start_(thread_counts()) {}
    CountScope(const CountScope&) = delete;
    CountScope& operator=(const CountScope&) = delete;

    /// Counts accumulated since construction.
    [[nodiscard]] OpCounts delta() const noexcept { return thread_counts() - start_; }

private:
    OpCounts start_;
};

/// RAII scope that charges nothing: on exit the calling thread's counters
/// are restored to their value at entry.  A composite kernel (the blocked
/// banded Cholesky) runs its inner BLAS calls inside one and then charges its
/// own total as a single call, so its count does not depend on how it is
/// blocked.
class UncountedScope {
public:
    UncountedScope() noexcept : saved_(thread_counts()) {}
    ~UncountedScope() { thread_counts() = saved_; }
    UncountedScope(const UncountedScope&) = delete;
    UncountedScope& operator=(const UncountedScope&) = delete;

private:
    OpCounts saved_;
};

namespace detail {
inline void charge(std::uint64_t flops, std::uint64_t rd, std::uint64_t wr) noexcept {
    OpCounts& c = thread_counts();
    c.flops += flops;
    c.bytes_read += rd;
    c.bytes_written += wr;
    ++c.calls;
}
} // namespace detail

} // namespace blaslite
