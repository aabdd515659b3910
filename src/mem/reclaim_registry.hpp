#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mem/reclaim.hpp"

/// \file reclaim_registry.hpp
/// Name-keyed factory over the eviction zoo. Config validation, the scenario
/// parser and the adaptive control plane's policy-switch actuator all resolve
/// replacement policies through here, so adding a policy means one line in
/// the registry and nothing else. "clock-lru" is the kernel default: callers
/// preserving bit-identity only install a policy when the name differs.

namespace apsim {

/// Valid policy names, in registry order: clock-lru, exact-lru, fifo, mglru,
/// s3-fifo. (The paper's "selective" policy is not listed — it is a wrapper
/// composed by the adaptive pager, with one of these as its fallback.)
[[nodiscard]] const std::vector<std::string_view>& reclaim_policy_names();

[[nodiscard]] bool is_reclaim_policy(std::string_view name);

/// One-line "valid names are: ..." suffix for error messages.
[[nodiscard]] std::string reclaim_policy_names_hint();

/// Construct the named policy. Throws std::invalid_argument naming the valid
/// policies when \p name is unknown. Every policy a run installs is built
/// here, the VMM's default clock and the selective wrapper's fallback
/// included.
[[nodiscard]] std::unique_ptr<ReclaimPolicy> make_reclaim_policy(
    std::string_view name);

/// Receives each policy make_reclaim_policy builds and returns the one to
/// use in its place (the same object, a wrapper around it, or a substitute).
using ReclaimPolicyHook = std::function<std::unique_ptr<ReclaimPolicy>(
    std::unique_ptr<ReclaimPolicy>)>;

/// Install \p hook for every later make_reclaim_policy call (an empty hook
/// removes it). Lets a test record or substitute the policies inside a full
/// run (the initial one and every live switch) without assembling the run
/// itself. Not synchronised: change it only while no run is in flight.
void set_reclaim_policy_hook(ReclaimPolicyHook hook);

}  // namespace apsim
