#include "bio/dataset.hpp"

#include "util/check.hpp"

namespace estclust::bio {

EstSet::EstSet(std::vector<Sequence> ests) : ests_(std::move(ests)) {
  rc_.reserve(ests_.size());
  for (auto& e : ests_) {
    ESTCLUST_CHECK_MSG(!e.bases.empty(), "empty EST '" << e.id << "'");
    ESTCLUST_CHECK_MSG(all_valid_bases(e.bases),
                       "EST '" << e.id << "' has non-ACGT characters");
    total_chars_ += e.bases.size();
    rc_.push_back(reverse_complement(e.bases));
  }
  packed_words_.reserve(num_strings() + total_string_chars() / 32 + 1);
  packed_.reserve(num_strings());
  for (StringId sid = 0; sid < num_strings(); ++sid) {
    packed_.push_back({packed_words_.size(), str(sid).size()});
    append_2bit(str(sid), packed_words_);
  }
  packed_words_.push_back(0);  // word_at's read past the last string
}

double EstSet::average_length() const {
  if (ests_.empty()) return 0.0;
  return static_cast<double>(total_chars_) /
         static_cast<double>(ests_.size());
}

std::string_view EstSet::str(StringId sid) const {
  ESTCLUST_DCHECK(sid < num_strings());
  EstId i = est_of(sid);
  return is_rc(sid) ? std::string_view(rc_[i])
                    : std::string_view(ests_[i].bases);
}

}  // namespace estclust::bio
