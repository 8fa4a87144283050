#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "lab/json.hpp"
#include "lab/service.hpp"
#include "lab/wire.hpp"

// The framed unix-socket protocol, exercised over socketpair() so no
// filesystem socket paths are involved.
namespace {

struct SocketPair {
    int a = -1, b = -1;
    SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~SocketPair() {
        if (a >= 0) ::close(a);
        if (b >= 0) ::close(b);
    }
    int fds[2] = {-1, -1};
    int client() { return a = fds[0]; }
    int server() { return b = fds[1]; }
};

TEST(Wire, FrameRoundTripIncludingEmptyAndBinaryPayloads) {
    SocketPair sp;
    const std::string payloads[] = {std::string(""), std::string("{\"ranks\":4}"),
                                    std::string("\x00\x01\xff payload", 11),
                                    std::string(1 << 16, 'x')};
    for (const std::string& payload : payloads) {
        ASSERT_TRUE(lab::wire::send_frame(sp.client(), payload));
        const auto got = lab::wire::recv_frame(sp.server());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, payload);
    }
}

TEST(Wire, CleanEofBetweenFramesIsNullopt) {
    SocketPair sp;
    ::close(sp.client());
    sp.a = -1;
    EXPECT_FALSE(lab::wire::recv_frame(sp.server()).has_value());
}

TEST(Wire, BadMagicAndTruncationAreProtocolErrors) {
    {
        SocketPair sp;
        ASSERT_EQ(::write(sp.client(), "HTTP/1.1 200 OK\r\n", 17), 17);
        EXPECT_THROW((void)lab::wire::recv_frame(sp.server()), std::runtime_error);
    }
    {
        SocketPair sp;
        ASSERT_EQ(::write(sp.client(), "RPL", 3), 3); // header cut short
        ::close(sp.client());
        sp.a = -1;
        EXPECT_THROW((void)lab::wire::recv_frame(sp.server()), std::runtime_error);
    }
    {
        SocketPair sp;
        // Valid header promising 100 bytes, connection dies after 4.
        char header[8] = {'R', 'P', 'L', '1', 100, 0, 0, 0};
        ASSERT_EQ(::write(sp.client(), header, 8), 8);
        ASSERT_EQ(::write(sp.client(), "body", 4), 4);
        ::close(sp.client());
        sp.a = -1;
        EXPECT_THROW((void)lab::wire::recv_frame(sp.server()), std::runtime_error);
    }
}

TEST(Wire, EveryTruncationOfAFramedRequestIsAProtocolErrorOrCleanEof) {
    // Frame a real request, then deliver every proper prefix of it before
    // the peer hangs up: no prefix is a frame, the empty one is a clean EOF.
    const std::string payload =
        R"({"bench":"wire_fuzz","fidelity":"model","machine":"pentium","ranks":8})";
    std::string framed;
    {
        SocketPair sp;
        ASSERT_TRUE(lab::wire::send_frame(sp.client(), payload));
        ::close(sp.client());
        sp.a = -1;
        char buf[512];
        for (ssize_t n; (n = ::read(sp.server(), buf, sizeof(buf))) > 0;)
            framed.append(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(framed.size(), 8 + payload.size());
    for (std::size_t n = 0; n <= framed.size(); ++n) {
        SCOPED_TRACE("prefix of " + std::to_string(n) + " bytes");
        SocketPair sp;
        ASSERT_EQ(::write(sp.client(), framed.data(), n), static_cast<ssize_t>(n));
        ::close(sp.client());
        sp.a = -1;
        std::optional<std::string> got;
        try {
            got = lab::wire::recv_frame(sp.server());
        } catch (const lab::ParseError& e) {
            ADD_FAILURE() << "payload parse error from the framing layer: " << e.what();
            continue;
        } catch (const std::runtime_error&) {
            EXPECT_GT(n, 0u);
            EXPECT_LT(n, framed.size());
            continue;
        }
        if (n == 0) {
            EXPECT_FALSE(got.has_value());
        } else {
            EXPECT_EQ(n, framed.size());
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, payload);
        }
    }
}

TEST(Wire, OversizedFrameIsRejectedBeforeAllocation) {
    SocketPair sp;
    char header[8];
    std::memcpy(header, lab::wire::kMagic, 4);
    const std::uint32_t n = lab::wire::kMaxFrameBytes + 1;
    header[4] = static_cast<char>(n & 0xff);
    header[5] = static_cast<char>((n >> 8) & 0xff);
    header[6] = static_cast<char>((n >> 16) & 0xff);
    header[7] = static_cast<char>((n >> 24) & 0xff);
    ASSERT_EQ(::write(sp.client(), header, 8), 8);
    EXPECT_THROW((void)lab::wire::recv_frame(sp.server()), std::runtime_error);
}

TEST(Wire, ServiceConversationOverASocket) {
    SocketPair sp;
    lab::Service service;
    std::thread server([&] { lab::wire::handle_connection(sp.server(), service); });

    lab::ScenarioRequest req;
    req.machine = "RoadRunner";
    req.net = "RoadRunner myr.";
    req.ranks = 4;
    req.dof_per_rank = 50000.0;

    const std::string cold = lab::wire::request(sp.client(), req.canonical_json());
    EXPECT_NE(cold.find("\"schema_version\":2"), std::string::npos);
    EXPECT_NE(cold.find("\"cache\":{\"hit\":false"), std::string::npos);

    const std::string warm = lab::wire::request(sp.client(), req.canonical_json());
    EXPECT_NE(warm.find("\"cache\":{\"hit\":true"), std::string::npos);
    EXPECT_EQ(lab::mask_cache_hit(cold), lab::mask_cache_hit(warm));

    // Malformed requests come back as error frames, not dropped connections.
    const std::string err = lab::wire::request(sp.client(), "{\"machine\":");
    EXPECT_NE(err.find("\"error\""), std::string::npos);

    ::close(sp.client());
    sp.a = -1;
    server.join();
}

TEST(Wire, DeeplyNestedRequestIsAnErrorAnswer) {
    SocketPair sp;
    lab::Service service;
    std::thread server([&] { lab::wire::handle_connection(sp.server(), service); });

    // ~800 KB of brackets, far past the parser's depth limit: the daemon
    // answers with an error frame instead of overflowing its stack, and the
    // connection stays up for the next request.
    const std::string deep = lab::wire::request(
        sp.client(),
        "{\"machine\":" + std::string(400000, '[') + std::string(400000, ']') + "}");
    EXPECT_NE(deep.find("\"error\""), std::string::npos);
    EXPECT_NE(deep.find("nesting"), std::string::npos);

    lab::ScenarioRequest req;
    req.machine = "RoadRunner";
    req.net = "RoadRunner myr.";
    req.ranks = 4;
    const std::string ok = lab::wire::request(sp.client(), req.canonical_json());
    EXPECT_NE(ok.find("\"schema_version\":2"), std::string::npos);

    ::close(sp.client());
    sp.a = -1;
    server.join();
}

TEST(Wire, OverBudgetMeasuredRequestIsAnErrorAnswer) {
    SocketPair sp;
    lab::Service service;
    std::thread server([&] { lab::wire::handle_connection(sp.server(), service); });

    // A measured request past the rank budget would build a Fourier solver on
    // each of 4096 simulated ranks; it is refused before any work starts,
    // and the connection stays up for the next request.
    const std::string refused = lab::wire::request(
        sp.client(),
        R"({"machine":"RoadRunner","net":"RoadRunner myr.","fidelity":"measured",)"
        R"("solver":"fourier","ranks":4096})");
    EXPECT_NE(refused.find("\"error\""), std::string::npos);
    EXPECT_NE(refused.find("ranks <= 64"), std::string::npos);

    lab::ScenarioRequest req;
    req.machine = "RoadRunner";
    req.net = "RoadRunner myr.";
    req.ranks = 4096; // model fidelity: analytic, no budget
    const std::string ok = lab::wire::request(sp.client(), req.canonical_json());
    EXPECT_NE(ok.find("\"schema_version\":2"), std::string::npos);

    ::close(sp.client());
    sp.a = -1;
    server.join();
}

} // namespace
