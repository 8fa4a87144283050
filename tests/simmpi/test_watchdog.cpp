#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "simmpi/simmpi.hpp"

/// The documented failure semantics — "a missing send deadlocks, a wrong tag
/// fails loudly" — must fail promptly, not hang the test harness.  The
/// scheduler's exact quiescence check raises DeadlockError as soon as no
/// rank can run; these tests assert both the error type and a bounded host
/// time.
namespace {

netsim::NetworkModel net() {
    netsim::NetworkModel n;
    n.name = "watchdog";
    n.latency_us = 10.0;
    n.bandwidth_mbps = 100.0;
    return n;
}

double host_seconds(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(Watchdog, MissingSendFailsWithinBoundedTime) {
    simmpi::World world(2, net());
    const double t = host_seconds([&] {
        EXPECT_THROW(world.run([](simmpi::Comm& c) {
                         if (c.rank() == 1) {
                             std::vector<double> buf(1);
                             c.recv(0, 9, buf); // rank 0 never sends
                         }
                     }),
                     simmpi::DeadlockError);
    });
    EXPECT_LT(t, 5.0);
}

TEST(Watchdog, WrongTagFailsLoudlyInsteadOfHanging) {
    simmpi::World world(2, net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
                     std::vector<double> buf(1, 1.0);
                     if (c.rank() == 0) {
                         c.send(1, 100, buf);
                     } else {
                         c.recv(0, 200, buf); // tag mismatch: never matches
                     }
                 }),
                 simmpi::DeadlockError);
}

TEST(Watchdog, AbsentCollectivePartnerTripsRendezvousWatchdog) {
    simmpi::World world(3, net());
    const double t = host_seconds([&] {
        EXPECT_THROW(world.run([](simmpi::Comm& c) {
                         if (c.rank() != 2) c.barrier(); // rank 2 never arrives
                     }),
                     simmpi::DeadlockError);
    });
    EXPECT_LT(t, 5.0);
}

TEST(Watchdog, RankExceptionReleasesBlockedPeers) {
    // A rank that throws must wake peers blocked in recv/collectives: the
    // original error propagates promptly instead of surfacing as a deadlock
    // (or, before the abort machinery existed, hanging forever).
    simmpi::World world(4, net());
    const double t = host_seconds([&] {
        try {
            world.run([](simmpi::Comm& c) {
                if (c.rank() == 0) throw std::runtime_error("boom");
                std::vector<double> buf(1);
                if (c.rank() == 1) c.recv(0, 1, buf); // blocked in the mailbox
                if (c.rank() > 1) c.barrier();        // blocked in the rendezvous
            });
            FAIL() << "expected an exception";
        } catch (const simmpi::DeadlockError&) {
            FAIL() << "the original error must win, not the deadlock check";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom");
        }
    });
    EXPECT_LT(t, 5.0); // peers were woken by the abort, not left blocked
}

TEST(Watchdog, WaitOnANeverCompletedRequestTripsTheWatchdog) {
    simmpi::World world(2, net());
    const double t = host_seconds([&] {
        EXPECT_THROW(world.run([](simmpi::Comm& c) {
                         if (c.rank() == 1) {
                             std::vector<double> buf(4);
                             simmpi::Request r = c.irecv(0, 7, buf);
                             c.wait(r); // rank 0 never isends
                         }
                     }),
                     simmpi::DeadlockError);
    });
    EXPECT_LT(t, 5.0);
}

TEST(Watchdog, TestNeverCompletesButNeverHangsEither) {
    simmpi::World world(2, net());
    // test() must stay honest for a message that will never arrive: always
    // false, never blocking — the leak is then reported at rank exit.
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
                     if (c.rank() == 1) {
                         std::vector<double> buf(4);
                         simmpi::Request r = c.irecv(0, 7, buf);
                         for (int i = 0; i < 50; ++i) {
                             EXPECT_FALSE(c.test(r));
                             c.advance_compute(1e-6);
                         }
                     }
                 }),
                 std::runtime_error);
}

TEST(Watchdog, WorldIsReusableAfterADeadlock) {
    simmpi::World world(2, net());
    EXPECT_THROW(world.run([](simmpi::Comm& c) {
                     std::vector<double> buf(1);
                     if (c.rank() == 1) c.recv(0, 3, buf);
                 }),
                 simmpi::DeadlockError);
    // The same world must run healthy traffic afterwards.
    const auto reports = world.run([](simmpi::Comm& c) {
        std::vector<double> buf(1, static_cast<double>(c.rank()));
        c.allreduce_sum(buf);
        EXPECT_DOUBLE_EQ(buf[0], 1.0);
        c.barrier();
    });
    EXPECT_EQ(reports.size(), 2u);
    EXPECT_GT(reports[0].wall_seconds, 0.0);
}

} // namespace
