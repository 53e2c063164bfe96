// initial_states.hpp — weakly connected initial configurations.
//
// Self-stabilization must be demonstrated from *any* weakly connected state,
// so the convergence experiments sweep a family of adversarial shapes.  A
// node's stored state is (l, r, lrl, ring) with l < id < r, so "shapes" are
// assignments of those variables; weak connectivity is guaranteed by
// construction in every generator here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/node.hpp"
#include "util/rng.hpp"

namespace sssw::topology {

enum class InitialShape : std::uint8_t {
  kSortedRing,    ///< the legal final state (sanity: convergence in 0 rounds)
  kSortedList,    ///< list correct, ring edges missing (Phase 3 only)
  kRandomChain,   ///< a chain in random permutation order: maximal disorder
  kStar,          ///< everyone points at one random hub
  kRandomTree,    ///< random recursive tree over a random order
  kLongJumpChain, ///< chain i → i+⌈n/4⌉ stitched connected by chain links
  kBridgedChains, ///< two separate sorted chains bridged by one lrl link
  kScrambledLrl,  ///< sorted ring but every lrl points somewhere random
};

inline constexpr InitialShape kAllShapes[] = {
    InitialShape::kSortedRing,   InitialShape::kSortedList,
    InitialShape::kRandomChain,  InitialShape::kStar,
    InitialShape::kRandomTree,   InitialShape::kLongJumpChain,
    InitialShape::kBridgedChains, InitialShape::kScrambledLrl,
};

const char* to_string(InitialShape shape) noexcept;
/// Inverse of to_string; nullopt for an unknown name.
std::optional<InitialShape> shape_from_string(std::string_view name) noexcept;

/// Generates one initial configuration over the given ids (need not be
/// sorted; they are sorted internally).  The result is always weakly
/// connected in CC.
std::vector<core::NodeInit> make_initial_state(InitialShape shape,
                                               std::vector<sim::Id> ids,
                                               util::Rng& rng);

}  // namespace sssw::topology
