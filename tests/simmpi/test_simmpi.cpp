#include "simmpi/simmpi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace {

netsim::NetworkModel test_net() {
    netsim::NetworkModel n;
    n.name = "test";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

TEST(SimMpi, PingPongDeliversPayloadAndChargesTime) {
    simmpi::World world(2, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        std::vector<double> buf = {1.0, 2.0, 3.0};
        if (c.rank() == 0) {
            c.send(1, 7, buf);
            std::vector<double> back(3);
            c.recv(1, 8, back);
            EXPECT_EQ(back[0], 2.0);
            EXPECT_EQ(back[2], 6.0);
        } else {
            std::vector<double> in(3);
            c.recv(0, 7, in);
            for (auto& v : in) v *= 2.0;
            c.send(0, 8, in);
        }
    });
    // Rank 0 waited a full round trip: wall >= 2 * one-way time.
    const double one_way = test_net().ptp_seconds(3 * sizeof(double));
    EXPECT_GE(reports[0].wall_seconds, 2.0 * one_way - 1e-12);
}

TEST(SimMpi, TagMatchingIsSelective) {
    simmpi::World world(2, test_net());
    world.run([](simmpi::Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> a = {1.0}, b = {2.0};
            c.send(1, 100, a);
            c.send(1, 200, b);
        } else {
            std::vector<double> x(1);
            c.recv(0, 200, x); // out of order: must match tag 200 first
            EXPECT_EQ(x[0], 2.0);
            c.recv(0, 100, x);
            EXPECT_EQ(x[0], 1.0);
        }
    });
}

TEST(SimMpi, RecvSizeMismatchThrows) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        std::vector<double> buf(4, 0.0);
        if (c.rank() == 0) {
            c.send(1, 1, buf); // buffered send; rank 0 exits without blocking
        } else {
            std::vector<double> wrong(2); // sender shipped 4
            c.recv(0, 1, wrong);
        }
    }),
                 std::runtime_error);
}

class AlltoallP : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallP, TransposesBlocks) {
    const int p = GetParam();
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        const std::size_t block = 3;
        std::vector<double> send(static_cast<std::size_t>(p) * block);
        std::vector<double> recv(send.size());
        for (int j = 0; j < p; ++j)
            for (std::size_t k = 0; k < block; ++k)
                send[static_cast<std::size_t>(j) * block + k] =
                    100.0 * c.rank() + 10.0 * j + static_cast<double>(k);
        c.alltoall(send, recv, block);
        for (int j = 0; j < p; ++j)
            for (std::size_t k = 0; k < block; ++k)
                EXPECT_EQ(recv[static_cast<std::size_t>(j) * block + k],
                          100.0 * j + 10.0 * c.rank() + static_cast<double>(k));
    });
}

INSTANTIATE_TEST_SUITE_P(Ranks, AlltoallP, ::testing::Values(1, 2, 3, 4, 8));

TEST(SimMpi, AllreduceSumVectorAndScalars) {
    const int p = 5;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        std::vector<double> v = {static_cast<double>(c.rank()), 1.0};
        c.allreduce_sum(v);
        EXPECT_DOUBLE_EQ(v[0], p * (p - 1) / 2.0);
        EXPECT_DOUBLE_EQ(v[1], static_cast<double>(p));
        EXPECT_DOUBLE_EQ(c.allreduce_max(static_cast<double>(c.rank())), p - 1.0);
        EXPECT_DOUBLE_EQ(c.allreduce_min(static_cast<double>(c.rank())), 0.0);
    });
}

TEST(SimMpi, GatherAndBcast) {
    const int p = 4;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        std::vector<double> mine = {static_cast<double>(c.rank()) + 0.5};
        std::vector<double> all;
        c.gather(mine, all, 0);
        if (c.rank() == 0) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
            for (int r = 0; r < p; ++r) EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r + 0.5);
        }
        std::vector<double> msg(2);
        if (c.rank() == 0) msg = {3.14, 2.71};
        c.bcast(msg, 0);
        EXPECT_DOUBLE_EQ(msg[0], 3.14);
        EXPECT_DOUBLE_EQ(msg[1], 2.71);
    });
}

TEST(SimMpi, VirtualClockMonotoneAndIdleConsistent) {
    simmpi::World world(3, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        double prev = 0.0;
        for (int i = 0; i < 5; ++i) {
            c.advance_compute(0.001 * (c.rank() + 1));
            c.barrier();
            EXPECT_GE(c.wall_time(), prev);
            prev = c.wall_time();
        }
        EXPECT_GE(c.wall_time(), c.cpu_time() - 1e-12);
    });
    // All ranks leave the final barrier at a common wall time.
    EXPECT_NEAR(reports[0].wall_seconds, reports[1].wall_seconds, 1e-12);
    EXPECT_NEAR(reports[1].wall_seconds, reports[2].wall_seconds, 1e-12);
    // The slowest rank computed 3x the fastest; the fastest shows idle time.
    EXPECT_GT(reports[0].wall_seconds, reports[0].cpu_seconds * 0.99);
}

TEST(SimMpi, CommLogRecordsEvents) {
    simmpi::World world(2, test_net());
    const auto reports = world.run([](simmpi::Comm& c) {
        c.set_stage(2);
        std::vector<double> v(8, 1.0);
        c.alltoall(v, v, 4);
        c.set_stage(4);
        c.allreduce_sum(v);
    });
    const auto& log = reports[0].log;
    ASSERT_TRUE(log.count(2));
    ASSERT_TRUE(log.count(4));
    EXPECT_EQ(log.at(2).begin()->first.kind, simmpi::CommKind::Alltoall);
    EXPECT_EQ(log.at(2).begin()->first.bytes, 4 * sizeof(double));
    // Pricing a log is positive and scales with a slower network.
    auto fast = test_net();
    auto slow = test_net();
    slow.bandwidth_mbps = 1.0;
    slow.latency_us = 1000.0;
    const double t_fast = simmpi::price_log(log, fast, 2);
    const double t_slow = simmpi::price_log(log, slow, 2);
    EXPECT_GT(t_fast, 0.0);
    EXPECT_GT(t_slow, t_fast);
}

TEST(SimMpi, NonPositiveRankCountIsInvalidArgument) {
    // Rejected before the per-rank mailboxes are sized: -1 must not reach a
    // vector allocation (which would throw std::length_error instead).
    EXPECT_THROW(simmpi::World(0, test_net()), std::invalid_argument);
    EXPECT_THROW(simmpi::World(-1, test_net()), std::invalid_argument);
}

TEST(SimMpi, RankExceptionPropagates) {
    simmpi::World world(2, test_net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
        if (c.rank() == 1) throw std::runtime_error("boom");
        // rank 0 does no blocking communication, so it terminates.
    }),
                 std::runtime_error);
}

TEST(SimMpi, SendRecvExchangesWithoutDeadlock) {
    const int p = 6;
    simmpi::World world(p, test_net());
    world.run([p](simmpi::Comm& c) {
        // Ring exchange: both sends are posted (buffered) before either recv,
        // so the cycle of dependencies never blocks.
        const int left = (c.rank() + p - 1) % p;
        const int right = (c.rank() + 1) % p;
        std::vector<double> mine = {static_cast<double>(c.rank())};
        std::vector<double> from_left(1), from_right(1);
        c.send(right, 5, mine);  // travels clockwise, received as "from left"
        c.send(left, 6, mine);   // travels anticlockwise
        c.recv(left, 5, from_left);
        c.recv(right, 6, from_right);
        EXPECT_DOUBLE_EQ(from_right[0], right);
        EXPECT_DOUBLE_EQ(from_left[0], left);
    });
}

TEST(SimMpi, MaxAndMinReturnNanWhicheverRankHoldsIt) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const int p : {1, 2, 5}) {
        for (int holder = 0; holder < p; ++holder) {
            simmpi::World world(p, test_net());
            std::vector<double> mx(static_cast<std::size_t>(p)), mn(mx.size());
            world.run([&](simmpi::Comm& c) {
                const double v = c.rank() == holder ? nan : static_cast<double>(c.rank());
                mx[static_cast<std::size_t>(c.rank())] = c.allreduce_max(v);
                mn[static_cast<std::size_t>(c.rank())] = c.allreduce_min(v);
            });
            for (int r = 0; r < p; ++r) {
                EXPECT_TRUE(std::isnan(mx[static_cast<std::size_t>(r)]))
                    << "p=" << p << " NaN on rank " << holder;
                EXPECT_TRUE(std::isnan(mn[static_cast<std::size_t>(r)]))
                    << "p=" << p << " NaN on rank " << holder;
            }
        }
    }
}

/// One step of the staging-reuse program: a collective on the world or on
/// the split subcommunicator.
struct MixedOp {
    enum Kind { Sum, Max, Alltoall, Gather, Bcast, Barrier } kind;
    std::size_t n; ///< doubles per rank (per block for alltoall)
    bool sub;
    int root;
};

std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Rank `wr`'s i-th input to step k, in [-1, 1) with full mantissas so
/// any change of summation order shows in the bits.
double mixed_input(int wr, std::size_t k, std::size_t i) {
    const std::uint64_t h = splitmix((std::uint64_t(wr) << 48) ^ (std::uint64_t(k) << 24) ^ i);
    return std::ldexp(static_cast<double>(h >> 11), -52) - 1.0;
}

TEST(SimMpi, StagingBuffersSurviveReuseAcrossMixedCollectives) {
    // Six ranks split into two subcommunicators (by parity, reversed
    // order); each rank's uneven host work between calls lets fast ranks run
    // ahead into the next collective while slow ones still read the last.
    constexpr int p = 6;
    constexpr std::size_t steps = 120;
    const std::size_t sum_sizes[] = {1, 2, 7, 1000};
    std::vector<MixedOp> ops;
    std::uint64_t rng = 20261019;
    int roots = 0;
    for (std::size_t k = 0; k < steps; ++k) {
        rng = splitmix(rng);
        const auto kind = static_cast<MixedOp::Kind>(rng % 6);
        const std::size_t n =
            kind == MixedOp::Sum ? sum_sizes[(rng >> 8) % 4] : 1 + (rng >> 16) % 40;
        ops.push_back({kind, n, ((rng >> 32) & 1) != 0, roots});
        if (kind == MixedOp::Bcast || kind == MixedOp::Gather) ++roots;
    }
    const auto group_of = [](int wr, bool sub) {
        std::vector<int> g;
        for (int r = 0; r < p; ++r)
            if (!sub || r % 2 == wr % 2) g.push_back(r);
        if (sub) std::reverse(g.begin(), g.end()); // key = -world rank
        return g;
    };

    // Serial reference: what every rank must receive, step by step.
    std::vector<std::vector<std::vector<double>>> want(p);
    for (int wr = 0; wr < p; ++wr) {
        for (std::size_t k = 0; k < steps; ++k) {
            const MixedOp& op = ops[k];
            const std::vector<int> g = group_of(wr, op.sub);
            const auto gsize = g.size();
            const auto me = static_cast<std::size_t>(std::find(g.begin(), g.end(), wr) - g.begin());
            const auto root = static_cast<std::size_t>(op.root) % gsize;
            std::vector<double> out;
            switch (op.kind) {
                case MixedOp::Sum:
                    for (std::size_t i = 0; i < op.n; ++i) {
                        double s = 0.0;
                        for (int m : g) s += mixed_input(m, k, i);
                        out.push_back(s);
                    }
                    break;
                case MixedOp::Max: {
                    double m = mixed_input(g[0], k, 0);
                    for (int r : g) m = std::max(m, mixed_input(r, k, 0));
                    out.push_back(m);
                    break;
                }
                case MixedOp::Alltoall:
                    for (int m : g)
                        for (std::size_t i = 0; i < op.n; ++i)
                            out.push_back(mixed_input(m, k, me * op.n + i));
                    break;
                case MixedOp::Gather:
                    if (me == root)
                        for (int m : g)
                            for (std::size_t i = 0; i < op.n; ++i)
                                out.push_back(mixed_input(m, k, i));
                    break;
                case MixedOp::Bcast:
                    for (std::size_t i = 0; i < op.n; ++i)
                        out.push_back(mixed_input(g[root], k, i));
                    break;
                case MixedOp::Barrier: break;
            }
            want[static_cast<std::size_t>(wr)].push_back(std::move(out));
        }
    }

    const unsigned threads_before = parallel::num_threads();
    for (const unsigned threads : {1u, 2u}) {
        parallel::set_num_threads(threads);
        std::vector<std::vector<std::vector<double>>> got(p);
        simmpi::World world(p, test_net());
        world.run([&](simmpi::Comm& world_comm) {
            const int wr = world_comm.rank();
            simmpi::Comm sub = world_comm.split(wr % 2, -wr);
            auto& mine = got[static_cast<std::size_t>(wr)];
            volatile double sink = 0.0;
            for (std::size_t k = 0; k < steps; ++k) {
                for (std::size_t spin = 0; spin < 1000 * ((wr * 7 + k) % 11); ++spin)
                    sink = sink + std::sqrt(static_cast<double>(spin));
                const MixedOp& op = ops[k];
                simmpi::Comm& c = op.sub ? sub : world_comm;
                const auto gsize = static_cast<std::size_t>(c.size());
                const int root = op.root % c.size();
                std::vector<double> out;
                switch (op.kind) {
                    case MixedOp::Sum:
                        for (std::size_t i = 0; i < op.n; ++i) out.push_back(mixed_input(wr, k, i));
                        c.allreduce_sum(out);
                        break;
                    case MixedOp::Max:
                        out.push_back(c.allreduce_max(mixed_input(wr, k, 0)));
                        break;
                    case MixedOp::Alltoall: {
                        std::vector<double> send(gsize * op.n);
                        for (std::size_t i = 0; i < send.size(); ++i)
                            send[i] = mixed_input(wr, k, i);
                        out.resize(send.size());
                        c.alltoall(send, out, op.n);
                        break;
                    }
                    case MixedOp::Gather: {
                        std::vector<double> send(op.n);
                        for (std::size_t i = 0; i < op.n; ++i) send[i] = mixed_input(wr, k, i);
                        c.gather(send, out, root);
                        break;
                    }
                    case MixedOp::Bcast:
                        out.resize(op.n);
                        if (c.rank() == root)
                            for (std::size_t i = 0; i < op.n; ++i) out[i] = mixed_input(wr, k, i);
                        c.bcast(out, root);
                        break;
                    case MixedOp::Barrier: c.barrier(); break;
                }
                mine.push_back(std::move(out));
            }
        });
        for (int wr = 0; wr < p; ++wr)
            for (std::size_t k = 0; k < steps; ++k) {
                const auto& a = got[static_cast<std::size_t>(wr)][k];
                const auto& b = want[static_cast<std::size_t>(wr)][k];
                ASSERT_EQ(a.size(), b.size()) << "rank " << wr << " step " << k;
                EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
                    << threads << " worker(s), rank " << wr << " step " << k << " kind "
                    << ops[k].kind << (ops[k].sub ? " (subcomm)" : " (world)");
            }
    }
    parallel::set_num_threads(threads_before);
}

} // namespace
