#include "bio/fasta.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "bio/alphabet.hpp"
#include "util/check.hpp"

namespace estclust::bio {

std::vector<Sequence> read_fasta(std::istream& in) {
  std::vector<Sequence> out;
  std::string line;
  Sequence current;
  bool have_record = false;
  std::size_t header_line = 0;
  // Header line of each id seen: clusters are reported by id, so a
  // repeated one could not be mapped back to its record.
  std::unordered_map<std::string, std::size_t> id_line;
  auto flush = [&] {
    if (have_record) {
      ESTCLUST_CHECK_MSG(!current.bases.empty(),
                         "FASTA: record '" << current.id << "' at line "
                                           << header_line << " has no bases");
      current.bases.shrink_to_fit();  // drop the line-by-line growth slack
      out.push_back(std::move(current));
      current = Sequence{};
    }
  };
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      have_record = true;
      header_line = lineno;
      // Header is everything after '>' up to the first whitespace.
      std::size_t end = line.find_first_of(" \t", 1);
      current.id = line.substr(1, end == std::string::npos ? end : end - 1);
      const auto [seen, fresh] = id_line.emplace(current.id, lineno);
      ESTCLUST_CHECK_MSG(fresh, "FASTA: duplicate record id '"
                                    << current.id << "' at lines "
                                    << seen->second << " and " << lineno);
    } else {
      ESTCLUST_CHECK_MSG(have_record,
                         "FASTA: sequence data before header at line "
                             << lineno);
      for (std::size_t col = 0; col < line.size(); ++col) {
        const int code = encode_base(line[col]);
        ESTCLUST_CHECK_MSG(code >= 0, "FASTA: invalid base '"
                                          << line[col] << "' in record '"
                                          << current.id << "' at line "
                                          << lineno << ", column "
                                          << col + 1);
        current.bases.push_back(decode_base(code));
      }
    }
  }
  flush();
  return out;
}

std::vector<Sequence> read_fasta_file(const std::string& path) {
  std::ifstream in(path);
  ESTCLUST_CHECK_MSG(in.good(), "cannot open FASTA file " << path);
  return read_fasta(in);
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 std::size_t width) {
  for (const auto& s : seqs) {
    out << '>' << s.id << '\n';
    if (width == 0) {
      out << s.bases << '\n';
    } else {
      for (std::size_t i = 0; i < s.bases.size(); i += width) {
        out << s.bases.substr(i, width) << '\n';
      }
      if (s.bases.empty()) out << '\n';
    }
  }
}

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs, std::size_t width) {
  std::ofstream out(path);
  ESTCLUST_CHECK_MSG(out.good(), "cannot open FASTA file for write " << path);
  write_fasta(out, seqs, width);
}

}  // namespace estclust::bio
