#pragma once

// Records every select_victims call of the reclaim policies a run builds,
// through the reclaim registry's policy hook, so a test can compare two runs
// call by call or count the reclaim work a run did. Optionally substitutes
// the pre-optimisation oracle copies (reclaim_oracles.hpp) for the policies
// they mirror.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/reclaim_registry.hpp"
#include "mem/vmm.hpp"
#include "reclaim_oracles.hpp"

namespace apsim {

/// What the recorded policies did, in call order.
struct ReclaimLog {
  /// One FNV-1a digest per call over (policy name, max_pages, victims).
  std::vector<std::uint64_t> calls;
  std::map<std::string, std::uint64_t> calls_by_policy;
  std::uint64_t victims = 0;
  /// Latest Vmm::Stats::pages_scanned seen per Vmm (cumulative counters).
  std::map<const Vmm*, std::uint64_t> scanned;

  [[nodiscard]] std::uint64_t pages_scanned() const {
    std::uint64_t total = 0;
    for (const auto& [vmm, n] : scanned) total += n;
    return total;
  }
};

/// Forwards everything to \p inner and logs each select_victims call.
class RecordingPolicy final : public ReclaimPolicy {
 public:
  RecordingPolicy(std::unique_ptr<ReclaimPolicy> inner,
                  std::shared_ptr<ReclaimLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  [[nodiscard]] std::vector<Victim> select_victims(
      Vmm& vmm, std::int64_t max_pages) override {
    std::vector<Victim> victims = inner_->select_victims(vmm, max_pages);
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t x) {
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    for (char c : inner_->name()) mix(static_cast<unsigned char>(c));
    mix(static_cast<std::uint64_t>(max_pages));
    for (const Victim& v : victims) {
      mix(static_cast<std::uint64_t>(v.pid));
      mix(static_cast<std::uint64_t>(v.vpage));
    }
    log_->calls.push_back(h);
    ++log_->calls_by_policy[std::string(inner_->name())];
    log_->victims += victims.size();
    log_->scanned[&vmm] = vmm.stats().pages_scanned;
    return victims;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

  void on_map(Pid pid, VPage vpage) override { inner_->on_map(pid, vpage); }

 private:
  std::unique_ptr<ReclaimPolicy> inner_;
  std::shared_ptr<ReclaimLog> log_;
};

/// The pre-optimisation copy of the named policy, or nullptr if none.
inline std::unique_ptr<ReclaimPolicy> make_oracle_policy(
    std::string_view name) {
  if (name == "clock-lru") {
    return std::make_unique<oracle::ClockReclaimPolicy>();
  }
  if (name == "mglru") return std::make_unique<oracle::MglruPolicy>();
  if (name == "s3-fifo") return std::make_unique<oracle::S3FifoPolicy>();
  return nullptr;
}

/// Installs a recording hook for its lifetime: every policy the registry
/// builds (the VMM default, the selective fallback, live switches) is
/// wrapped in a RecordingPolicy logging to log(), with the oracle copy
/// substituted first when \p use_oracles is set.
class ScopedRecording {
 public:
  explicit ScopedRecording(bool use_oracles)
      : log_(std::make_shared<ReclaimLog>()) {
    set_reclaim_policy_hook(
        [log = log_, use_oracles](std::unique_ptr<ReclaimPolicy> policy)
            -> std::unique_ptr<ReclaimPolicy> {
          if (use_oracles) {
            if (auto oracle = make_oracle_policy(policy->name())) {
              policy = std::move(oracle);
            }
          }
          return std::make_unique<RecordingPolicy>(std::move(policy), log);
        });
  }
  ~ScopedRecording() { set_reclaim_policy_hook({}); }

  ScopedRecording(const ScopedRecording&) = delete;
  ScopedRecording& operator=(const ScopedRecording&) = delete;

  [[nodiscard]] const ReclaimLog& log() const { return *log_; }

 private:
  std::shared_ptr<ReclaimLog> log_;
};

}  // namespace apsim
