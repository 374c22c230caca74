#include "pairgen/source.hpp"

#include "pairgen/generator.hpp"
#include "pairgen/kmer.hpp"
#include "util/check.hpp"

namespace estclust::pairgen {

std::string_view backend_name(Backend b) {
  switch (b) {
    case Backend::kGst:
      return "gst";
    case Backend::kKmer:
      return "kmer";
  }
  ESTCLUST_CHECK_MSG(false, "unknown pair-source backend");
  return "";
}

std::optional<Backend> parse_backend(std::string_view name) {
  for (Backend b : kAllBackends) {
    if (name == backend_name(b)) return b;
  }
  return std::nullopt;
}

std::unique_ptr<PairSource> make_pair_source(
    Backend backend, const bio::EstSet& ests,
    const std::vector<gst::Tree>& forest, std::uint32_t /*window*/,
    std::uint32_t psi) {
  ESTCLUST_CHECK_MSG(backend == Backend::kGst,
                     backend_name(backend)
                         << " pair source needs a bucket list, not a forest");
  return std::make_unique<PairGenerator>(ests, forest, psi);
}

std::unique_ptr<PairSource> make_pair_source_for_buckets(
    Backend backend, const bio::EstSet& ests,
    std::vector<std::uint64_t> owned_buckets, std::uint32_t window,
    std::uint32_t psi) {
  ESTCLUST_CHECK_MSG(backend == Backend::kKmer,
                     "pair source needs the GST forest, not a bucket list");
  return std::make_unique<KmerPairSource>(ests, std::move(owned_buckets),
                                          window, psi);
}

}  // namespace estclust::pairgen
