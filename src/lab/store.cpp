#include "lab/store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace lab {

namespace fs = std::filesystem;

RunReportStore::RunReportStore(std::string dir) : dir_(std::move(dir)) {}

std::string RunReportStore::path_for(const std::string& key) const {
    return dir_ + "/" + key + ".json";
}

std::optional<std::string> RunReportStore::read_disk(const std::string& key) const {
    if (dir_.empty()) return std::nullopt;
    std::ifstream in(path_for(key), std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

std::optional<std::string> RunReportStore::get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = mem_.find(key);
    if (it != mem_.end()) return it->second;
    auto disk = read_disk(key);
    if (disk) mem_.emplace(key, *disk);
    return disk;
}

bool RunReportStore::contains(const std::string& key) { return get(key).has_value(); }

void RunReportStore::put(const std::string& key, const std::string& canonical_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (mem_.find(key) != mem_.end()) return; // first write wins
    if (!dir_.empty()) {
        if (read_disk(key)) { // adopt the existing on-disk entry
            mem_.emplace(key, *read_disk(key));
            return;
        }
        fs::create_directories(dir_);
        const std::string tmp = path_for(key) + ".tmp";
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out) throw std::runtime_error("RunReportStore: cannot write " + tmp);
            out.write(canonical_bytes.data(),
                      static_cast<std::streamsize>(canonical_bytes.size()));
            out.close();
            // A short write must not be renamed into a permanent cache hit.
            if (!out) {
                std::error_code ec;
                fs::remove(tmp, ec);
                throw std::runtime_error("RunReportStore: short write to " + tmp);
            }
        }
        fs::rename(tmp, path_for(key));
    }
    mem_.emplace(key, canonical_bytes);
}

std::vector<std::string> RunReportStore::keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> all;
    for (const auto& [k, v] : mem_) all.insert(k);
    if (!dir_.empty() && fs::exists(dir_)) {
        for (const auto& entry : fs::directory_iterator(dir_)) {
            const auto name = entry.path().filename().string();
            if (name.size() == 21 && name.compare(16, 5, ".json") == 0)
                all.insert(name.substr(0, 16));
        }
    }
    return {all.begin(), all.end()};
}

std::size_t RunReportStore::size() const { return keys().size(); }

} // namespace lab
