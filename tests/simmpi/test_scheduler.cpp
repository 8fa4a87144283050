#include "simmpi/simmpi.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

/// The fiber scheduler World::run executes ranks on: bit-identity against
/// committed digests, determinism at rank counts no thread-per-rank runtime
/// could host, exact quiescence deadlock detection, and the oversubscription
/// diagnostics.
namespace {

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

/// A comm-heavy rank program touching every parking path: ring ptp (mailbox
/// park), collectives (rendezvous park), nonblocking completion, and a split
/// so subcommunicator rendezvous runs under the scheduler too.
void mixed_program(simmpi::Comm& c) {
    const int p = c.size();
    const int r = c.rank();
    std::vector<double> token = {static_cast<double>(r), 0.0};
    std::vector<double> in(2);
    for (int round = 0; round < 3; ++round) {
        c.advance_compute(1e-6 * static_cast<double>(r % 5));
        if (r % 2 == 0) {
            c.send((r + 1) % p, round, token);
            c.recv((r + p - 1) % p, round, in);
        } else {
            c.recv((r + p - 1) % p, round, in);
            c.send((r + 1) % p, round, token);
        }
        token[1] += in[0];
    }
    double sum = c.allreduce_sum(token[1]);
    simmpi::Comm half = c.split(r < p / 2 ? 0 : 1, r);
    sum += half.allreduce_max(static_cast<double>(r));
    std::vector<double> send(static_cast<std::size_t>(half.size()), sum);
    std::vector<double> recv(send.size());
    half.alltoall(send, recv, 1);
    c.barrier();
    c.advance_compute(1e-9 * std::accumulate(recv.begin(), recv.end(), 0.0));
}

std::vector<simmpi::RankReport> run_mixed(int p) {
    simmpi::World world(p, test_net());
    return world.run(mixed_program);
}

/// FNV-1a over every rank's clock bit patterns and its CommLog and
/// OverlapLog entries: one word capturing the full virtual outcome of a run.
std::uint64_t run_digest(const std::vector<simmpi::RankReport>& reports) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&](std::uint64_t bits) {
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mix_f = [&](double v) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    };
    for (const auto& r : reports) {
        mix_f(r.cpu_seconds);
        mix_f(r.wall_seconds);
        for (const auto& [stage, events] : r.log) {
            mix(static_cast<std::uint64_t>(stage));
            for (const auto& [key, count] : events) {
                mix(static_cast<std::uint64_t>(key.kind));
                mix(key.bytes);
                mix(key.overlapped ? 1u : 0u);
                mix(key.group);
                mix(key.groups);
                mix(count);
            }
        }
        for (const auto& [stage, hidden] : r.overlap_log) {
            mix(static_cast<std::uint64_t>(stage));
            mix_f(hidden);
        }
    }
    return h;
}

TEST(TaskScheduler, MixedProgramMatchesCommittedDigests) {
    // Recorded when a one-OS-thread-per-rank engine still existed beside the
    // fiber scheduler: both produced these exact digests.  A change in any
    // clock bit, log entry or overlap credit of the mixed program fails here.
    const std::pair<int, std::uint64_t> expected[] = {
        {2, 0xe61d9ca5d3bc3eadull},
        {4, 0x8db4a8b472dfb4cdull},
        {6, 0xaf7e353bf7747d41ull},
        {16, 0xee16964304e9cba5ull},
    };
    for (const auto& [p, digest] : expected)
        EXPECT_EQ(run_digest(run_mixed(p)), digest) << "p=" << p;
}

TEST(TaskScheduler, TwoHundredFiftySixRanksAreDeterministic) {
    // The scheduler must both complete a 256-rank run and reproduce it
    // bit-for-bit.
    const auto a = run_mixed(256);
    const auto b = run_mixed(256);
    ASSERT_EQ(a.size(), 256u);
    EXPECT_EQ(run_digest(a), run_digest(b));
}

TEST(TaskScheduler, QuiescenceDetectsMissingSendExactly) {
    // Rank 1 waits for a message nobody sends.  This is caught by the
    // scheduler's exact quiescence check (no runnable task, one parked),
    // not a timeout, so it fires immediately.
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 1) {
            std::vector<double> buf(1);
            c.recv(0, 42, buf);
        }
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, QuiescenceDetectsAbandonedCollective) {
    simmpi::World world(3, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() != 0) c.barrier(); // rank 0 never enters
    }),
                 simmpi::DeadlockError);
}

TEST(TaskScheduler, WorldIsReusableAfterADetectedDeadlock) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> buf(1);
            c.recv(1, 7, buf);
        }
    }),
                 simmpi::DeadlockError);
    const auto reports = world.run([](simmpi::Comm& c) {
        std::vector<double> v = {1.0};
        v[0] = c.allreduce_sum(v[0]);
        EXPECT_EQ(v[0], 2.0);
    });
    EXPECT_EQ(reports.size(), 2u);
}

TEST(Oversubscription, TasksOverTheConfiguredLimitIsDiagnosed) {
    simmpi::World world(64, test_net());
    world.set_max_tasks(16);
    try {
        world.run([](simmpi::Comm&) {});
        FAIL() << "expected OversubscriptionError";
    } catch (const simmpi::OversubscriptionError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("16"), std::string::npos) << what;
        EXPECT_NE(what.find("set_max_tasks"), std::string::npos) << what;
    }
}

TEST(Oversubscription, RaisingTheLimitUnblocksTheSameWorld) {
    simmpi::World world(64, test_net());
    world.set_max_tasks(16);
    EXPECT_THROW(world.run([](simmpi::Comm&) {}), simmpi::OversubscriptionError);
    world.set_max_tasks(64);
    EXPECT_EQ(world.run([](simmpi::Comm&) {}).size(), 64u);
}

TEST(TaskScheduler, ThousandsOfMostlyIdleRanksComplete) {
    // 4096 fiber ranks with a light program: the MAP_NORESERVE stacks keep
    // this cheap, and every rank's collective must still rendezvous.
    simmpi::World world(4096, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        const double sum = c.allreduce_sum(1.0);
        EXPECT_EQ(sum, 4096.0);
    });
    EXPECT_EQ(reports.size(), 4096u);
}

} // namespace
