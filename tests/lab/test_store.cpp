#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "lab/store.hpp"

// The RunReport store: memory-only and persistent round trips, first-write-
// wins semantics, and re-opening a directory serves the same bytes.
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::temp_directory_path() /
                ("lab_store_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                   .string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    std::string dir_;
};

TEST_F(StoreTest, MemoryOnlyRoundTrip) {
    lab::RunReportStore store; // dir == "" -> nothing touches disk
    EXPECT_FALSE(store.get("0123456789abcdef").has_value());
    store.put("0123456789abcdef", "{\"x\":1}\n");
    ASSERT_TRUE(store.contains("0123456789abcdef"));
    EXPECT_EQ(*store.get("0123456789abcdef"), "{\"x\":1}\n");
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.dir().empty());
}

TEST_F(StoreTest, PersistentEntriesSurviveReopen) {
    const std::string bytes = "{\"schema_version\":2}\n";
    {
        lab::RunReportStore store(dir_);
        store.put("00000000000000aa", bytes);
        store.put("00000000000000bb", "{\"other\":true}\n");
    }
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "00000000000000aa.json"));

    lab::RunReportStore reopened(dir_);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(*reopened.get("00000000000000aa"), bytes);
    EXPECT_EQ(reopened.keys(),
              (std::vector<std::string>{"00000000000000aa", "00000000000000bb"}));
}

TEST_F(StoreTest, ShortWriteThrowsAndLeavesNoEntry) {
    // The temporary file is a symlink to a full device: the open succeeds,
    // the bytes do not land, and put() must not rename the stub into place.
    fs::create_directories(dir_);
    const fs::path entry = fs::path(dir_) / "00000000000000dd.json";
    fs::create_symlink("/dev/full", fs::path(dir_) / "00000000000000dd.json.tmp");
    lab::RunReportStore store(dir_);
    EXPECT_THROW(store.put("00000000000000dd", "{\"x\":1}\n"), std::runtime_error);
    EXPECT_FALSE(fs::exists(fs::symlink_status(entry)));
    EXPECT_FALSE(store.contains("00000000000000dd"));
}

TEST_F(StoreTest, FirstWriteWins) {
    lab::RunReportStore store(dir_);
    store.put("00000000000000cc", "first\n");
    store.put("00000000000000cc", "second\n");
    EXPECT_EQ(*store.get("00000000000000cc"), "first\n");

    // Same for an entry that already exists on disk from another process.
    std::ofstream(fs::path(dir_) / "00000000000000dd.json") << "disk\n";
    lab::RunReportStore other(dir_);
    other.put("00000000000000dd", "late\n");
    EXPECT_EQ(*other.get("00000000000000dd"), "disk\n");
}

TEST_F(StoreTest, ForeignFilesInTheDirectoryAreIgnored) {
    lab::RunReportStore store(dir_);
    store.put("00000000000000ee", "x\n");
    std::ofstream(fs::path(dir_) / "README.txt") << "not a report";
    std::ofstream(fs::path(dir_) / "short.json") << "{}";
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"00000000000000ee"}));
}

} // namespace
