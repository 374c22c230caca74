#include "pace/aligner.hpp"

namespace estclust::pace {

PairEvaluation PairAligner::evaluate(const pairgen::PromisingPair& pair) {
  auto a = ests_.str(bio::EstSet::forward_sid(pair.a));
  auto b = ests_.str(pair.b_rc ? bio::EstSet::rc_sid(pair.b)
                               : bio::EstSet::forward_sid(pair.b));
  const align::Anchor anchor{pair.a_pos, pair.b_pos, pair.match_len};

  PairEvaluation out;
  out.overlap = cfg_.bounded_align
                    ? align::align_anchored_bounded(a, b, anchor,
                                                    cfg_.overlap, arena_)
                    : align::align_anchored(a, b, anchor, cfg_.overlap,
                                            arena_);
  out.accepted = align::accept_overlap(out.overlap, cfg_.overlap);
  return out;
}

}  // namespace estclust::pace
