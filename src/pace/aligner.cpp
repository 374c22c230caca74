#include "pace/aligner.hpp"

namespace estclust::pace {

PairEvaluation PairAligner::evaluate(const pairgen::PromisingPair& pair) {
  // Anchors within one band width of each other share a DP corridor; the
  // window id is the memo's "same alignment problem" coordinate.
  const std::int64_t diag = static_cast<std::int64_t>(pair.a_pos) -
                            static_cast<std::int64_t>(pair.b_pos);
  const std::int64_t window_width =
      2 * static_cast<std::int64_t>(cfg_.overlap.band) + 1;
  // Floor division (diag may be negative).
  std::int64_t window = diag / window_width;
  if (diag % window_width < 0) --window;

  if (const AlignMemo::Entry* e = memo_.lookup(pair, window)) {
    PairEvaluation out;
    out.overlap = e->result;
    out.overlap.cells = 0;  // no DP ran; nothing to charge
    out.accepted = e->accepted;
    out.memo_hit = true;
    return out;
  }

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
  memo_.insert(pair, window, out.overlap, out.accepted);
  return out;
}

}  // namespace estclust::pace
