// lsets (§3.2): per-node partitions of the strings below a GST node, keyed
// by the left-extension character of the suffix that put them there.
//
// Each node has five lists — l_A, l_C, l_G, l_T and l_λ — of (string id,
// suffix position) entries. The generator stores a kept node's five lists
// as one contiguous block grouped by class; a leaf's lists are its
// occurrence array, split by class where they are read.
#pragma once

#include <cstdint>

#include "bio/dataset.hpp"

namespace estclust::pairgen {

/// One lset entry: a string below the node plus a representative suffix
/// position (needed later as the alignment anchor).
struct LsetEntry {
  bio::StringId sid = 0;
  std::uint32_t pos = 0;
};

}  // namespace estclust::pairgen
