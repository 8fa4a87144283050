#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

/// \file store.hpp
/// The persistent RunReport store: store_key -> canonical RunReport bytes.
///
/// Layout is one file per entry, `<dir>/<key>.json`, where `key` is the
/// request's 16-hex-digit fingerprint.  Because every value is the
/// byte-deterministic canonical report for its request, the store's on-disk
/// contents are a pure function of the set of requests answered — two
/// daemons fed the same mix produce directories that `diff -r` clean, which
/// CI exploits as a determinism gate.  Writes go through a tmp file +
/// rename so a crashed daemon never leaves a torn entry.
namespace lab {

class RunReportStore {
public:
    /// `dir` = "" keeps the store memory-only (tests, one-shot clients);
    /// otherwise the directory is created on first put().
    explicit RunReportStore(std::string dir = "");

    /// The stored canonical bytes for `key`, or nullopt.  Disk entries are
    /// pulled into the in-memory map on first access.
    [[nodiscard]] std::optional<std::string> get(const std::string& key);

    /// Inserts `canonical_bytes` under `key` (atomic tmp+rename on disk).
    /// Re-putting an existing key is a no-op: first write wins, which keeps
    /// concurrent singleflight losers from rewriting identical bytes.  Throws
    /// std::runtime_error, leaving no entry behind, when the bytes cannot be
    /// written whole.
    void put(const std::string& key, const std::string& canonical_bytes);

    [[nodiscard]] bool contains(const std::string& key);

    /// Keys currently known (memory + disk), sorted.
    [[nodiscard]] std::vector<std::string> keys() const;

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

private:
    [[nodiscard]] std::string path_for(const std::string& key) const;
    [[nodiscard]] std::optional<std::string> read_disk(const std::string& key) const;

    std::string dir_;
    mutable std::mutex mu_;
    std::map<std::string, std::string> mem_;
};

} // namespace lab
