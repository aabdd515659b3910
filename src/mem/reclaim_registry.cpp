#include "mem/reclaim_registry.hpp"

#include <stdexcept>

#include "mem/reclaim_extra.hpp"
#include "mem/reclaim_gen.hpp"

namespace apsim {

const std::vector<std::string_view>& reclaim_policy_names() {
  static const std::vector<std::string_view> kNames = {
      "clock-lru", "exact-lru", "fifo", "mglru", "s3-fifo"};
  return kNames;
}

bool is_reclaim_policy(std::string_view name) {
  for (std::string_view known : reclaim_policy_names()) {
    if (name == known) return true;
  }
  return false;
}

std::string reclaim_policy_names_hint() {
  std::string hint = "valid policies are:";
  for (std::string_view known : reclaim_policy_names()) {
    hint += ' ';
    hint += known;
  }
  return hint;
}

namespace {

ReclaimPolicyHook& policy_hook() {
  static ReclaimPolicyHook hook;
  return hook;
}

std::unique_ptr<ReclaimPolicy> build_reclaim_policy(std::string_view name) {
  if (name == "clock-lru") return std::make_unique<ClockReclaimPolicy>();
  if (name == "exact-lru") return std::make_unique<ExactLruPolicy>();
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "mglru") return std::make_unique<MglruPolicy>();
  if (name == "s3-fifo") return std::make_unique<S3FifoPolicy>();
  throw std::invalid_argument("unknown reclaim policy '" + std::string(name) +
                              "'; " + reclaim_policy_names_hint());
}

}  // namespace

std::unique_ptr<ReclaimPolicy> make_reclaim_policy(std::string_view name) {
  auto policy = build_reclaim_policy(name);
  if (const ReclaimPolicyHook& hook = policy_hook()) {
    return hook(std::move(policy));
  }
  return policy;
}

void set_reclaim_policy_hook(ReclaimPolicyHook hook) {
  policy_hook() = std::move(hook);
}

}  // namespace apsim
